"""Random scenarios: entnet against refsim, the benchmark's frozen copy.

Hypothesis draws whole scenario dicts (planets, Children, users, accept
policies, declared links, a tick-sorted workload with colliding ticks) and,
on some Children, a negotiation budget. Every case must give refsim's trace
and stats bytes and latency reports, pass `check_all`, give the same bytes
on a second run and on a run with another seed (drawing nothing from any
circuit's stream) and, when no budget is overridden, deliver exactly what
the policies allow. Each drawn scenario must also come back equal from
`scenario_to_dict` and `scenario_to_json`.
`--hypothesis-profile=long` runs more cases than the default `fast` one.
"""

import json
import sys
from dataclasses import astuple
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import entnet
from entnet.invariants import check_all

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import checks  # noqa: E402
import refsim  # noqa: E402

PAYLOAD_SIZES = (0, 1, 15, 16, 17, 40)


@st.composite
def scenarios(draw):
    """(scenario dict, {Child id: negotiation budget})."""
    shape = draw(st.lists(st.lists(st.integers(1, 4), min_size=1, max_size=3),
                          min_size=1, max_size=3))  # users per Child, per planet
    base = draw(st.integers(0, 2**64 - 40))  # QIDs anywhere in the unsigned 64-bit range
    qids = draw(st.permutations(range(base, base + sum(map(sum, shape)))))
    policies = st.one_of(st.just("accept_all"), st.just("reject_all"),
                         st.lists(st.booleans(), min_size=len(qids), max_size=len(qids))
                         .map(lambda keep: {"accept_list": [
                             qid for qid, kept in zip(qids, keep) if kept]}))
    next_qid = iter(qids)
    planets = []
    for p, children in enumerate(shape):
        planets.append({"mother_id": f"mother-{p}", "children": [
            {"qbs_id": f"qbs-{p}-{c}", "users": [
                {"node_id": f"user-{qid}", "qid": qid, "accept_policy": draw(policies)}
                for qid in (next(next_qid) for _ in range(users))]}
            for c, users in enumerate(children)]})
    workload = []
    if len(qids) > 1:
        for _ in range(draw(st.integers(0, 8))):
            caller = draw(st.sampled_from(qids))
            callee = draw(st.sampled_from([qid for qid in qids if qid != caller]))
            size = draw(st.sampled_from(PAYLOAD_SIZES))
            workload.append({"at_tick": draw(st.integers(0, 4)), "from_qid": caller,
                             "to_qid": callee,
                             "payload": {"hex": draw(st.binary(min_size=size,
                                                               max_size=size)).hex()}})
    workload.sort(key=lambda item: item["at_tick"])
    child_ids = [child["qbs_id"] for planet in planets for child in planet["children"]]
    budgets = draw(st.dictionaries(st.sampled_from(child_ids), st.integers(0, 5)))
    raw = {"seed": draw(st.integers(0, 2**64 - 1)), "planets": planets, "workload": workload}
    node_ids = [planet["mother_id"] for planet in planets] + child_ids + [
        f"user-{qid}" for qid in qids]
    ends = st.lists(st.sampled_from(node_ids), min_size=2, max_size=2, unique=True)
    distances = st.one_of(st.integers(0, 10**20), st.floats(0, 1e20))
    links = draw(st.lists(ends, max_size=6, unique_by=frozenset))
    if links:
        raw["links"] = [{"a": a, "b": b, "distance_meters": draw(distances)} for a, b in links]
    return raw, budgets


def _run(package, raw, budgets, seed=None):
    sim = package.Simulation(package.scenario_from_dict(raw), seed=seed)
    for child_id, ticks in budgets.items():
        sim.nodes[child_id].negotiation_budget = ticks
    sim.run_until_idle()
    return sim, list(sim.trace_lines()), json.dumps(sim.stats(), indent=2, sort_keys=True)


@given(scenarios())
@settings(deadline=None)
def test_random_scenario_matches_refsim(case):
    raw, budgets = case
    # the derived serialiser writes back what parsing read, as a dict and as text
    scenario = entnet.scenario_from_dict(raw)
    assert entnet.scenario_from_dict(entnet.scenario_to_dict(scenario)) == scenario
    assert entnet.scenario_from_dict(json.loads(entnet.scenario_to_json(scenario))) == scenario
    sim, trace, stats = _run(entnet, raw, budgets)
    ref, *ref_bytes = _run(refsim, raw, budgets)
    assert [trace, stats] == ref_bytes
    for session_id, rec in sim.sessions.items():
        if rec.path:  # established at some point
            assert (astuple(sim.latency_report(session_id))
                    == astuple(ref.latency_report(session_id)))
    check_all(sim)
    assert (trace, stats) == _run(entnet, raw, budgets)[1:]
    # a clean run never draws from a circuit's stream, so no seed can show
    reseeded, *reseeded_bytes = _run(entnet, raw, budgets, seed=raw["seed"] ^ 1)
    assert reseeded_bytes == [trace, stats]
    assert reseeded.released_plate_draws == 0
    assert all(circuit.pool.plate_draws == 0 for circuit in reseeded.circuits.values())
    if not budgets:
        sessions = checks.sessions_from_trace([json.loads(line) for line in trace])
        deliveries = [(qid, sid, payload) for qid, user in sim.users.items()
                      for sid, payload in user.receive_poll()]
        assert checks.check_outcomes(raw["workload"], checks.policies(raw),
                                     sessions, deliveries) == {}
