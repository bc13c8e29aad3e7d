"""Differential tests: entnet against refsim, the benchmark's frozen copy.

Each script drives the session API (request_session, send_message,
relay_data, teardown_session, a station's negotiation_budget and a user's
accept policy) the same way on both simulators; the trace and stats bytes
must be equal, and entnet's run must pass `check_all`. refsim is imported
from perfbench/ read-only.
"""

import json
import sys
from pathlib import Path

import pytest

import entnet
from entnet.invariants import check_all

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import refsim  # noqa: E402

CALLEE = {"same-qbs": 12, "cross-qbs": 13, "interplanet": 13}
CALLER = 11


def _data(size: int) -> bytes:
    return bytes(i % 251 for i in range(size))


def _package(sim):
    return entnet if isinstance(sim, entnet.Simulation) else refsim


def teardown_mid_stream(sim, callee):
    sim.run_until_idle()
    sid = sim.request_session(CALLER, callee)
    sim.run_until_idle()
    sim.send_message(sid, _data(64))  # a header and four data frames
    sim.run_until(sim.now + 2)
    sim.teardown_session(sid)
    sim.run_until_idle()
    return sid


def bidirectional(sim, callee):
    sim.run_until_idle()
    sid = sim.request_session(CALLER, callee)
    sim.run_until_idle()
    sim.send_message(sid, _data(200), sender=CALLER)
    sim.send_message(sid, _data(300), sender=callee)
    sim.run_until_idle()
    sim.teardown_session(sid)
    sim.run_until_idle()
    return sid


def raw_frames(sim, callee):
    sim.run_until_idle()
    sid = sim.request_session(CALLER, callee)
    sim.run_until_idle()
    package = _package(sim)
    forward, backward = _data(16), _data(32)[16:]
    if package is refsim:  # refsim wraps a frame's bytes in its Frame
        forward, backward = refsim.Frame(forward), refsim.Frame(backward)
    sim.send_message(sid, _data(40))
    sim.relay_data(sid, forward)
    if package is entnet:
        sim.relay_data(sid, backward, sender=callee)
    else:  # refsim names the direction, not the sender
        sim.relay_data(sid, backward, reverse=True)
    sim.run_until_idle()
    assert sim.users[callee].raw_frames == [(sid, forward)]
    assert sim.users[CALLER].raw_frames == [(sid, backward)]
    sim.teardown_session(sid)
    sim.run_until_idle()
    return sid


def with_budget(ticks, refusing=False):
    def script(sim, callee):
        sim.nodes["qbs-1"].negotiation_budget = ticks  # the caller's Child
        if refusing:
            sim.users[callee].policy = _package(sim).RejectAll()
        sim.run_until_idle()
        return 1
    script.__name__ = f"{'refusing_' if refusing else ''}negotiation_budget_{ticks}"
    return script


BUDGETS = (0, 1, 2, 3, 5)
SCRIPTS = [teardown_mid_stream, bidirectional, raw_frames, *map(with_budget, BUDGETS),
           *(with_budget(ticks, refusing=True) for ticks in BUDGETS)]


def _play(package, kind, script):
    sim = package.Simulation(package.example_scenario(kind))
    sid = script(sim, CALLEE[kind])
    stats = json.dumps(sim.stats(), indent=2, sort_keys=True)
    return sim, sid, list(sim.trace_lines()), stats


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda s: s.__name__)
@pytest.mark.parametrize("kind", sorted(CALLEE))
def test_session_api_matches_refsim(kind, script):
    sim, sid, trace, stats = _play(entnet, kind, script)
    _, _, ref_trace, ref_stats = _play(refsim, kind, script)
    assert trace == ref_trace
    assert stats == ref_stats
    check_all(sim)
    if script is teardown_mid_stream:  # the teardown cut a message in flight
        types = [r.type for r in sim.trace if r.session == sid]
        assert "DATA" in types and "DELIVER" not in types
