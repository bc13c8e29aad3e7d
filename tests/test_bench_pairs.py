import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

RUN_S = {"name": "run_s", "unit": "s", "better": "lower", "bound": 0.2}
RATE = {"name": "records_per_s", "unit": "1/s", "better": "higher", "bound": 0.2}


def pairs_of(metric, parent, change):
    return [{"parent": {"metrics": {metric["name"]: a}},
             "change": {"metrics": {metric["name"]: b}}} for a, b in zip(parent, change)]


PARENT = [10.0, 10.2, 9.8, 10.1, 9.9, 10.3, 9.7, 10.0, 10.1, 9.9]


def test_nine_of_ten_pairs_and_a_gap_past_the_parent_iqr_is_claimable():
    change = [9.0] * 9 + [11.0]
    result = bench_pairs.summarize(pairs_of(RUN_S, PARENT, change), RUN_S)
    assert result["pairs_won"] == 9 and result["claimable"]
    assert result["parent"]["median"] == pytest.approx(10.0)
    assert result["change"]["median"] == 9.0
    assert result["relative_change"] == pytest.approx(-0.1)
    assert result["within_bound"]


@pytest.mark.parametrize("change, why", [
    ([9.0] * 8 + [11.0] * 2, "8 of 10 pairs won"),
    ([p - 0.1 for p in PARENT], "gap inside the parent's IQR"),
])
def test_a_gain_short_of_the_rule_is_not_claimable(change, why):
    assert not bench_pairs.summarize(pairs_of(RUN_S, PARENT, change), RUN_S)["claimable"], why


def test_fewer_than_ten_pairs_claim_nothing():
    result = bench_pairs.summarize(pairs_of(RUN_S, [10.0], [5.0]), RUN_S)
    assert result["pairs_won"] == 1 and not result["claimable"]
    assert result["parent"]["iqr"] == 0


def test_higher_is_better_metrics_win_upwards_and_bounds_apply_downwards():
    up = bench_pairs.summarize(pairs_of(RATE, PARENT, [11.0] * 10), RATE)
    assert up["pairs_won"] == 10 and up["claimable"] and up["within_bound"]
    down = bench_pairs.summarize(pairs_of(RATE, PARENT, [7.5] * 10), RATE)
    assert down["pairs_won"] == 0 and not down["within_bound"]


def test_ties_count_for_neither_side():
    result = bench_pairs.summarize(pairs_of(RUN_S, PARENT, PARENT), RUN_S)
    assert result["pairs_won"] == 0 and result["relative_change"] == 0


def traced(counts, absent=(), digests=("t", "s")):
    return {"correct": True, "exit": 0, "digests": list(digests), "absent": list(absent),
            "counts": counts}


def test_count_diff_gives_each_count_its_delta():
    diff = bench_pairs.count_diff(traced({"a.calls": 5, "b.calls": 2}),
                                  traced({"a.calls": 3, "b.calls": 2, "c.calls": 1}))
    assert diff["counts"] == {
        "a.calls": {"parent": 5, "change": 3, "delta": -2},
        "b.calls": {"parent": 2, "change": 2, "delta": 0},
        "c.calls": {"parent": None, "change": 1, "delta": None},
    }
    assert diff["absent"] == [] and diff["digests_equal"]
    assert diff["trace_sha256"] == {"parent": "t", "change": "t"}
    assert diff["stats_sha256"] == {"parent": "s", "change": "s"}


def test_count_diff_of_a_run_that_printed_nothing():
    failed = {"correct": False, "exit": 2, "error": "boom", "metrics": {}}
    diff = bench_pairs.count_diff(traced({"a.calls": 1}), failed)
    assert diff["correct"] == {"parent": True, "change": False}
    assert not diff["digests_equal"] and diff["trace_sha256"]["change"] is None
    assert diff["counts"]["a.calls"]["delta"] is None


PARENT_COUNTS = {"engine.events": 7, "runtime.gc_collections": 10}


def fake_perfbench(absent=(), digests=("t", "s"), counts=PARENT_COUNTS):
    """perfbench runs that pass; this tree's traced run finds `absent`, `digests`
    and `counts`."""
    def fake(tree, workload, seed, seconds, trace=0, env=None):
        if trace:
            change = tree == bench_pairs.ROOT
            return traced(counts if change else PARENT_COUNTS, absent if change else (),
                          digests if change else ("t", "s"))
        return {"correct": True, "exit": 0, "digests": ["t", "s"],
                "metrics": {"run_s": 1.0}}
    return fake


def run_main(parent, out):
    return bench_pairs.main(["--parent", str(parent), "--pairs", "1", "--seconds", "0",
                             "--seeds", "4", "--out", str(out)])


@pytest.mark.parametrize("absent, digests, status", [
    ((), ("t", "s"), 0),
    (("qbs.circuit_build",), ("t", "s"), 1),
    ((), ("other", "s"), 1),
])
def test_the_runner_fails_on_an_absent_target_or_a_digest_mismatch(
        monkeypatch, tmp_path, absent, digests, status):
    monkeypatch.setattr(bench_pairs, "perfbench", fake_perfbench(absent, digests))
    out = tmp_path / "bench.json"
    assert run_main(tmp_path, out) == status
    counts = json.loads(out.read_text())["counts"]
    assert set(counts) == set(bench_pairs.WORKLOADS)
    assert counts["bulk"]["seed"] == 4 and counts["bulk"]["absent"] == list(absent)
    assert counts["bulk"]["counts"]["engine.events"] == {"parent": 7, "change": 7, "delta": 0}


def test_a_moved_runtime_count_is_kept_apart_from_the_work_counts(monkeypatch, tmp_path, capsys):
    # gen-0 collections follow the allocations pending when the run starts
    moved = {"engine.events": 7, "runtime.gc_collections": 11}
    diff = bench_pairs.count_diff(traced(PARENT_COUNTS), traced(moved))
    assert diff["counts"] == {"engine.events": {"parent": 7, "change": 7, "delta": 0}}
    assert diff["runtime"] == {
        "runtime.gc_collections": {"parent": 10, "change": 11, "delta": 1}}
    monkeypatch.setattr(bench_pairs, "perfbench", fake_perfbench(counts=moved))
    assert run_main(tmp_path, tmp_path / "bench.json") == 0
    summary = [line for line in capsys.readouterr().out.splitlines() if " counts: " in line]
    assert len(summary) == 3 and all(line.endswith("changed {}") for line in summary), summary


def test_the_runner_warns_about_a_tree_git_cannot_name(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(bench_pairs, "perfbench", fake_perfbench())
    parent = tmp_path / "archived"  # as `git archive` leaves it: sources, no .git
    parent.mkdir()
    assert run_main(parent, tmp_path / "bench.json") == 0
    warnings = [line for line in capsys.readouterr().err.splitlines() if "warning" in line]
    assert any(f"parent tree {parent}" in line for line in warnings), warnings
    report = json.loads((tmp_path / "bench.json").read_text())
    assert report["trees"]["parent"]["git_sha"] is None


def test_each_tree_runs_under_its_own_bytecode_cache(monkeypatch, tmp_path):
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    envs = {}

    def recording(tree, workload, seed, seconds, trace=0, env=None):
        envs.setdefault(tree, []).append(env)
        return fake_perfbench()(tree, workload, seed, seconds, trace)
    monkeypatch.setattr(bench_pairs, "perfbench", recording)
    assert run_main(tmp_path, tmp_path / "bench.json") == 0
    prefixes = {}
    for tree, seen in envs.items():
        assert len(seen) == 2 * len(bench_pairs.WORKLOADS)  # one traced, one timed
        assert all(env is seen[0] for env in seen)
        assert "PYTHONDONTWRITEBYTECODE" not in seen[0]
        prefixes[tree] = Path(seen[0]["PYTHONPYCACHEPREFIX"])
    assert set(prefixes) == {tmp_path.resolve(), bench_pairs.ROOT}
    first, second = prefixes.values()
    assert first != second
    for prefix in prefixes.values():
        assert not prefix.exists()  # the temporary directory is gone
        assert not prefix.is_relative_to(tmp_path) and not prefix.is_relative_to(bench_pairs.ROOT)
    report = json.loads((tmp_path / "bench.json").read_text())
    assert "PYTHONPYCACHEPREFIX" in report["settings"]["bytecode"]


def test_bytecode_env_compiles_into_its_prefix_and_never_into_the_tree(monkeypatch, tmp_path):
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    tree, prefix = tmp_path / "tree", tmp_path / "cache"
    tree.mkdir()
    (tree / "probe.py").write_text("VALUE = 1\n")
    env = dict(bench_pairs.bytecode_env(prefix), PYTHONPATH=str(tree))
    subprocess.run([sys.executable, "-c", "import probe"], cwd=tree, env=env, check=True)
    assert list(prefix.rglob("probe.*.pyc"))
    assert not (tree / "__pycache__").exists()


def report(**medians_and_iqrs):
    """A hand-written report: per workload, run_s's change-side median and IQR."""
    def run_s(median, iqr):
        return {"pairs": 10, "change": {"median": median, "q1": median - iqr / 2,
                                        "q3": median + iqr / 2, "iqr": iqr}}
    return {"workloads": {workload: {"metrics": {"run_s": run_s(*spread)}}
                          for workload, spread in medians_and_iqrs.items()}}


def test_compare_flags_only_a_delta_outside_both_iqrs(tmp_path, capsys):
    a = report(sessions=(0.020, 0.002), bulk=(0.010, 0.0005))
    b = report(sessions=(0.021, 0.0005), bulk=(0.012, 0.001))
    rows = {row["workload"]: row for row in bench_pairs.compare(a, b)}
    assert rows["sessions"]["delta"] == pytest.approx(0.001)
    assert not rows["sessions"]["flagged"]  # inside a's IQR, though outside b's
    assert rows["bulk"]["delta"] == pytest.approx(0.002) and rows["bulk"]["flagged"]
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path, data in zip(paths, (a, b)):
        path.write_text(json.dumps(data))
    assert bench_pairs.main(["--compare", *map(str, paths)]) == 0  # never fails on a time
    printed = {line.split()[0]: line for line in capsys.readouterr().out.splitlines()}
    assert "OUTSIDE BOTH IQRS" in printed["bulk"]
    assert "OUTSIDE BOTH IQRS" not in printed["sessions"]
