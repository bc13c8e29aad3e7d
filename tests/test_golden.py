"""Golden digests: the trace and stats bytes of fixed runs, pinned across code versions.

Each digest is the sha256 of the file `Simulation.write_trace` or
`Simulation.write_stats` produces, i.e. of what `entnet run --trace/--stats`
writes. A change that moves one of these digests changes observable
behaviour and must say why; never re-capture them to make a diff pass.
"""

import bisect
import gc
import hashlib
import weakref
from collections import Counter

import pytest

from entnet import Simulation, desk_scale_scenario, example_scenario
from entnet.invariants import check_all
from entnet.scenario import ChildSpec, PlanetSpec, Scenario, UserSpec

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
    "teardown-mid-stream": (
        "65fcdddafc025da14bd03454abb0408b587d6a679b6064d9cff2a0cccf4775f4",
        "ee362434ebf8bd6d85c10ffe58ea6de162c0d077b97a12ee3a579fc2cc91d739",
    ),
}

FORWARD_4K = bytes(i % 251 for i in range(4096))
REVERSE_4K = bytes((7 * i + 3) % 256 for i in range(4096))
TO_B = bytes(range(200))
TO_D = bytes((3 * i + 1) % 256 for i in range(150))


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


def teardown_mid_stream():
    """Caller 1 on c1 streams to 2 (same Child) and to 3 (on c2) over one home
    circuit; the same-Child session is torn down 3 ticks in, with its frames
    still queued and in flight, and the run continues to idle. Returns the
    simulation, the cross-QBS session id and a weak reference to its
    session-owned c1<->c2 circuit, which is released at the end."""
    sim = Simulation(Scenario(seed=5, planets=(PlanetSpec("m", (
        ChildSpec("c1", (UserSpec("a", 1), UserSpec("b", 2))),
        ChildSpec("c2", (UserSpec("d", 3),)),
    )),)))
    to_b, to_d = sim.request_session(1, 2), sim.request_session(1, 3)
    sim.run_until_idle()
    owned = weakref.ref(sim.circuits[sim.sessions[to_d].circuits[1]])
    sim.send_message(to_b, TO_B)
    sim.send_message(to_d, TO_D)
    sim.run_until(sim.now + 3)
    sim.teardown_session(to_b)
    sim.run_until_idle()
    sim.teardown_session(to_d)
    sim.run_until_idle()
    return sim, to_d, owned


def fresh(name):
    """A not yet run simulation of a workload-driven golden run."""
    if name == "cross-qbs-seed-42":
        return Simulation(example_scenario("cross-qbs"), seed=42)
    if name == "desk-500":
        return Simulation(desk_scale_scenario(seed=7, sessions=500))
    return Simulation(example_scenario(name))


def build(name):
    if name == "bidirectional-4k":
        return bidirectional_4k()
    if name == "teardown-mid-stream":
        return teardown_mid_stream()[0]
    sim = fresh(name)
    sim.run_until_idle()
    return sim


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_digests(name, tmp_path):
    assert digests(build(name), tmp_path) == GOLDEN[name]


# final tick of each run; stepping continues 200 ticks past it
STEPPED = {"same-qbs": 7, "cross-qbs": 13, "interplanet": 14, "desk-500": 1009}


@pytest.mark.parametrize("name", sorted(STEPPED))
def test_tick_by_tick_stepping_matches_one_run(name, tmp_path):
    whole = fresh(name)
    assert whole.run_until_idle() == STEPPED[name]
    record_ticks = [record.tick for record in whole.trace]
    stepped = fresh(name)
    for tick in range(STEPPED[name] + 201):
        assert stepped.run_until(tick) == stepped.now <= tick
        # every record up to the limit is out, and none after it
        assert len(stepped.trace) == bisect.bisect_right(record_ticks, tick)
    assert stepped.now == STEPPED[name]
    assert digests(stepped, tmp_path) == digests(whole, tmp_path)


def test_teardown_mid_stream_spares_the_shared_home_circuit():
    sim, to_d, _ = teardown_mid_stream()
    check_all(sim)
    assert len(sim.trace) == 78
    assert sim.users[3].receive_poll() == [(to_d, TO_D)]
    assert sim.users[2].receive_poll() == []
    # 3 of the 14 frames to 2 arrived; 11 were queued or in flight on the home circuit
    assert sim.dropped_frames == Counter(session_closed=11)


def test_released_session_circuit_is_freed():
    sim, _, owned = teardown_mid_stream()
    gc.collect()
    assert owned() is None
