"""Golden digests: the trace and stats bytes of fixed runs, pinned across code versions.

Each digest is the sha256 of the file `Simulation.write_trace` or
`Simulation.write_stats` produces, i.e. of what `entnet run --trace/--stats`
writes. A change that moves one of these digests changes observable
behaviour and must say why; never re-capture them to make a diff pass.
"""

import hashlib

import pytest

from entnet import Simulation, desk_scale_scenario, example_scenario

GOLDEN = {
    "same-qbs": (
        "05ca03d9f08ac5926a1396f6a6dffb47c6a92e8f76cb250f993e2599d0a99d4b",
        "17ed75e7de7707c66db00f75338532fc4f86c20cf3988394be02af5c46d5c82e",
    ),
    "cross-qbs": (
        "5fb25ed8d0da6dc8739fdc55d6fec29d62dcff4810ff663cdaf2119d5f1bba71",
        "f9baed4af975a6e613a62b66d91d0c3af2ba3340052fe82787e682000b8bef0a",
    ),
    "interplanet": (
        "6005a6f0ca9daec992fd48b09aa3a31bc61d20beddb2c8378528d6ff93299c1f",
        "5d2fbfee0e821a09dd69e2b544e93a6dd6433f0b7a6538e94842a5eede663a09",
    ),
    "cross-qbs-seed-42": (
        "5fb25ed8d0da6dc8739fdc55d6fec29d62dcff4810ff663cdaf2119d5f1bba71",
        "f9baed4af975a6e613a62b66d91d0c3af2ba3340052fe82787e682000b8bef0a",
    ),
    "desk-500": (
        "be14b6708c3e1839e2c5b1cf7d934664336c6759cebe7bde54d49adfc838aac4",
        "d04a5d73233b31a7084f4b75c279cd05dcab907e584dfa146e80450101463088",
    ),
    "bidirectional-4k": (
        "e910a3100c7e93623398c76d43a0da83dee4e3b61faf7155e486921d9c0fa68b",
        "e0ae54a86e60541d715e698d31ab28025c2022acad064a40243e114b06fa9205",
    ),
}

FORWARD_4K = bytes(i % 251 for i in range(4096))
REVERSE_4K = bytes((7 * i + 3) % 256 for i in range(4096))


def digests(sim, tmp_path):
    trace, stats = tmp_path / "trace.ndjson", tmp_path / "stats.json"
    sim.write_trace(str(trace))
    sim.write_stats(str(stats))
    return (hashlib.sha256(trace.read_bytes()).hexdigest(),
            hashlib.sha256(stats.read_bytes()).hexdigest())


def bidirectional_4k():
    """One cross-QBS session carrying 4 KiB each way at the same tick."""
    sim = Simulation(example_scenario("cross-qbs"))
    sim.run_until_idle()
    sid = sim.request_session(11, 13)
    sim.run_until_idle()
    sim.send_message(sid, FORWARD_4K)
    sim.send_message(sid, REVERSE_4K, sender=13)
    sim.run_until_idle()
    sim.teardown_session(sid)
    sim.run_until_idle()
    assert (sid, FORWARD_4K) in sim.users[13].receive_poll()
    assert sim.users[11].receive_poll() == [(sid, REVERSE_4K)]
    return sim


def build(name):
    if name == "cross-qbs-seed-42":
        sim = Simulation(example_scenario("cross-qbs"), seed=42)
    elif name == "desk-500":
        sim = Simulation(desk_scale_scenario(seed=7, sessions=500))
    elif name == "bidirectional-4k":
        return bidirectional_4k()
    else:
        sim = Simulation(example_scenario(name))
    sim.run_until_idle()
    return sim


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_digests(name, tmp_path):
    assert digests(build(name), tmp_path) == GOLDEN[name]
