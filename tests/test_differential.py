"""Differential tests: entnet against refsim, the benchmark's frozen copy.

Each script drives the session API (request_session, send_message,
teardown_session and a station's negotiation_budget) the same way on both
simulators; the trace and stats bytes must be equal, and entnet's run must
pass `check_all`. refsim is imported from perfbench/ read-only.
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


def with_budget(ticks):
    def script(sim, callee):
        sim.nodes["qbs-1"].negotiation_budget = ticks  # the caller's Child
        sim.run_until_idle()
        return 1
    script.__name__ = f"negotiation_budget_{ticks}"
    return script


SCRIPTS = [teardown_mid_stream, bidirectional, *map(with_budget, (0, 1, 2, 3, 5))]


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
