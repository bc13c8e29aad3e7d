"""Engine/replay agreement: replaying the trace ends each session where the engine left it.

`check_trace_state_machine` replays the records against the legal
transitions, so it catches a trace that the engine should not have written.
These tests check the other direction, a replay that accepts what the engine
did not do: at idle, each session's replayed state must equal its
`rec.state`, with the replay-only `refused` standing for a session that
FAILED as `rejected`. Every run ends with a call to a QID that nobody holds,
so a `not_found` session is replayed too. The random cases reuse the drawn
scenarios of `tests/test_random_scenarios.py`.
"""

import pytest
from hypothesis import given, settings
from test_random_scenarios import _run, scenarios

import entnet
from entnet import FailureReason, Simulation, SessionState, desk_scale_scenario, example_scenario
from entnet.invariants import _REFUSED, check_all, check_trace_state_machine


def call_nobody_and_check(sim):
    """Run a call from the first user to a QID that nobody holds to idle, then
    require check_all and the replay to agree with every session's state."""
    callee = next(qid for qid in range(len(sim.users) + 1) if qid not in sim.users)
    sid = sim.request_session(next(iter(sim.users)), callee)
    sim.run_until_idle()
    assert sim.sessions[sid].failure is FailureReason.NOT_FOUND
    check_all(sim)
    replayed = check_trace_state_machine(sim._trace)
    assert replayed == {
        sid: _REFUSED if rec.failure is FailureReason.REJECTED else rec.state
        for sid, rec in sim.sessions.items()}
    return replayed


@given(scenarios())
@settings(deadline=None)
def test_replay_agrees_with_the_engine_on_random_scenarios(case):
    raw, budgets = case
    sim, _, _ = _run(entnet, raw, budgets)
    call_nobody_and_check(sim)


@pytest.mark.parametrize("kind", ["same-qbs", "cross-qbs", "interplanet"])
def test_replay_agrees_with_the_engine_on_the_examples(kind):
    sim = Simulation(example_scenario(kind))
    sim.run_until_idle()
    replayed = call_nobody_and_check(sim)
    assert sorted(replayed.values()) == [SessionState.CLOSED, SessionState.FAILED]


def test_replay_agrees_with_the_engine_on_a_desk_run():
    sim = Simulation(desk_scale_scenario(sessions=400, reject_fraction=0.2))
    sim.nodes["c00"].negotiation_budget = 0  # each of its callers times out
    sim.run_until_idle()
    replayed = call_nobody_and_check(sim)
    assert set(replayed.values()) == {SessionState.CLOSED, SessionState.FAILED, _REFUSED}
    rejects = [r for r in sim.trace if r.type == "REJECT"]
    timed_out = {r.session for r in rejects if r.detail.get("reason") == "timeout"}
    assert timed_out and {r.session for r in rejects} - timed_out  # refused by users too
