"""The benchmark's own tests: `python3 -m pytest perfbench` from the repo root."""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import run
import tracing
import workloads

entnet = run.import_entnet()

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _small_scenario() -> dict:
    """Two Children, one refusing callee: one delivered and one rejected session."""
    users = [{"node_id": f"u{q}", "qid": q} for q in (11, 12, 13)]
    users[2]["accept_policy"] = "reject_all"
    return {
        "seed": 5,
        "planets": [{"mother_id": "m", "children": [
            {"qbs_id": "c1", "users": users[:1]},
            {"qbs_id": "c2", "users": users[1:]},
        ]}],
        "workload": [
            {"at_tick": 0, "from_qid": 11, "to_qid": 12, "payload": {"hex": "68656c6c6f"}},
            {"at_tick": 0, "from_qid": 11, "to_qid": 13, "payload": {"hex": "00ff"}},
        ],
    }


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generators_are_deterministic_per_seed(name):
    make = workloads.WORKLOADS[name]
    first = make(3)
    assert json.dumps(first) == json.dumps(make(3))
    assert json.dumps(first) != json.dumps(make(4))
    pairs = [(w["from_qid"], w["to_qid"]) for w in first["workload"]]
    assert len(pairs) == len(set(pairs)), "outcome matching needs distinct pairs"
    entnet.scenario.scenario_from_dict(first)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_seed_carries_the_same_work(name):
    def work(raw):
        where = {}
        for p, planet in enumerate(raw["planets"]):
            for c, child in enumerate(planet["children"]):
                for user in child["users"]:
                    where[user["qid"]] = {"planet": p, "child": c,
                                          "refuses": user["accept_policy"] == "reject_all"}
        return sorted((workloads._path(where[w["from_qid"]], where[w["to_qid"]]),
                       where[w["to_qid"]]["refuses"], len(w["payload"]["hex"]))
                      for w in raw["workload"])

    make = workloads.WORKLOADS[name]
    assert work(make(1)) == work(make(2)) == work(make(3))


def test_metric_names_are_well_formed_and_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    declared_e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    declared_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert declared_e2e == run.END_TO_END
    assert declared_layer == run.per_layer_units()
    for name in [*declared_e2e, *declared_layer, *(w["name"] for w in spec["workloads"])]:
        assert NAME.match(name), name


def test_phase_times_are_median_ratios_to_refsim_in_its_quiet_seconds():
    assert set(run.REFERENCE_S) == set(workloads.WORKLOADS)
    for reference_s in run.REFERENCE_S.values():
        assert set(reference_s) == set(run.PHASES)
    ones = dict.fromkeys(run.PHASES, 1.0)
    results = [dict.fromkeys(run.PHASES, t) for t in (2.0, 9.0, 3.0)]
    references = [dict.fromkeys(run.PHASES, t) for t in (1.0, 3.0, 1.0)]
    quiet = dict.fromkeys(run.PHASES, 0.5)
    # ratios 2, 3 and 3: a slow stretch that slows both sides cancels out
    assert run.scaled_phases(results, references, quiet) == dict.fromkeys(run.PHASES, 1.5)
    assert run.scaled_phases(results[:1], results[:1], ones) == ones


def test_refsim_runs_the_same_scenario_as_entnet():
    raw = _small_scenario()
    ours, theirs = run.iteration(entnet, raw), run.iteration(run.refsim, raw)
    assert theirs["violation"] is None
    assert sorted(theirs["deliveries"]) == sorted(ours["deliveries"])


def test_delivery_check_passes_a_clean_run_and_flags_a_tampered_payload():
    raw = _small_scenario()
    result = run.iteration(entnet, raw)
    clean = run.Judge(raw)
    clean(result)
    assert clean.correct and clean.attempted == 2

    qid, sid, payload = result["deliveries"][0]
    result["deliveries"][0] = (qid, sid, payload[:-1] + b"!")
    tampered = run.Judge(raw)
    tampered(result)
    assert not tampered.correct
    assert tampered.failed == 1


def test_outcome_check_flags_wrong_outcomes():
    raw = _small_scenario()
    items = raw["workload"]
    sessions = {1: {"caller": 11, "callee": 12, "outcome": "closed"},
                2: {"caller": 11, "callee": 13, "outcome": "rejected"}}
    good = [(12, 1, b"hello")]
    policy_of = checks.policies(raw)
    assert checks.check_outcomes(items, policy_of, sessions, good) == {}
    assert set(checks.check_outcomes(items, policy_of, sessions, [])) == {0}
    assert set(checks.check_outcomes(items, policy_of, sessions,
                                     good + [(13, 2, b"\x00\xff")])) == {1}
    assert set(checks.check_outcomes(items, policy_of, sessions,
                                     [(13, 1, b"hello")])) == {0}


def test_self_time_subtracts_the_union_of_children_clipped_to_the_parent():
    spans = [
        ("root", 0.0, 10.0, -1, None),
        ("a", 1.0, 4.0, 0, 7),
        ("leaf", 2.0, 3.0, 1, 7),
        ("b", 3.0, 6.0, 0, None),   # overlaps a: the root loses 1..6 once
        ("a", 8.0, 12.0, 0, None),  # runs past the root: only 8..10 counts
    ]
    assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 3.0, 4.0]
    calls, self_s = tracing.layer_totals(spans)
    assert calls["a"] == 2 and self_s["a"] == 6.0


def test_traced_run_counts_names_the_engine_imports_and_restores_them():
    original = entnet.engine.encode_frame
    tracer = tracing.Tracer()
    with tracer.installed():
        run.iteration(entnet, _small_scenario(), tracer)
    assert entnet.engine.encode_frame is original
    assert entnet.engine.Simulation.schedule.__name__ == "schedule"
    calls, _ = tracing.layer_totals(tracer.spans)
    for name in ("codec.encode_frame", "codec.decode_frame", "codec.segment_message",
                 "scenario.validate", "qbs.circuit_build", "engine.run"):
        assert calls[name] > 0, name
    assert calls["scenario.validate"] == 2
    requests = {s[4] for s in tracer.spans if s[0] == "engine.emit"}
    assert {1, 2} <= requests


def test_missing_wrap_target_is_absent_not_a_crash():
    tracer = tracing.Tracer()
    tracer._patch("gone.function", "entnet.engine", "Simulation.no_such_method",
                  lambda fn: fn)
    tracer._patch("gone.module", "entnet.no_such_module", "f", lambda fn: fn)
    assert tracer.present == set()


def test_runs_without_entnet_sources_exit_nonzero(tmp_path):
    shutil.copytree(Path(run.__file__).parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bulk", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    assert done.stdout == ""
