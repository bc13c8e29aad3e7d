#!/usr/bin/env python3
"""Paired benchmark runs of a parent tree and this tree, written to BENCH_<n>.json.

    python3 scripts/bench_pairs.py --parent ../entnet-parent --pairs 10 \\
        --seconds 20 --seeds 1 2 3 9001 --out BENCH_15.json

For each perfbench workload, a pair is one `perfbench/run.py --trace 0` run on
the parent tree and one on this tree, each from its own checkout, one process
at a time, with the parent first in even pairs and this tree first in odd
ones. Pair i uses seed `seeds[i % len(seeds)]`. Per workload and end-to-end
metric the output holds each side's median and quartiles, the pairs this tree
won (ties count for neither side), and the claim verdict: at least 10 pairs,
nine tenths of them won, and a median gap, in the better direction, wider
than the parent's interquartile range. It also records, per tree, the git
SHA, the `src/entnet` line count, the Python version and `os.cpu_count()`.

Per workload it also runs `perfbench/run.py --trace 1` once on each tree,
with the first seed, and writes the count diff under "counts": the wrapped
targets either tree found absent, both trees' trace and stats sha256, and
every count metric with its delta. A work count, such as calls or events, is
deterministic for a tree, so its delta is never noise. A `runtime.*` count
is not: `runtime.gc_collections` follows the allocations pending when the
run starts, which a change to set-up can shift by one. Those counts go under
the diff's "runtime" key and out of the summary line's changed counts.

Each tree's runs read and write bytecode under their own PYTHONPYCACHEPREFIX
in a temporary directory, with writing allowed even where the environment
sets PYTHONDONTWRITEBYTECODE. So neither checkout is written, and both trees
are compiled once, by their first run, whatever their `__pycache__` holds:
a tree whose sources are newer than its bytecode would otherwise recompile
at every start and read a higher `peak_rss_mb`. The report's settings say so.

The script gates on no time. It exits 1 when a run fails its correctness gate,
the two trees disagree on a run's trace or stats digest, or a traced run finds
a wrapped target absent; all of these are kept in the output. It warns on
stderr about a tree whose commit `git rev-parse` cannot read, such as one
made with `git archive`: the report can then name it only by `src_sha256`.

    python3 scripts/bench_pairs.py --compare BENCH_15.json BENCH_16.json

reads two such reports instead and prints, per workload and end-to-end
metric, the median of each report's `change` side and their delta. A delta
is flagged only when it falls outside both reports' interquartile ranges.
It runs nothing and exits 0 whatever the times.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("sessions", "bulk", "fanin")
SIDES = ("parent", "change")
# a gain is claimed only over at least this many pairs, with this share won
MIN_PAIRS = 10
WIN_SHARE = 0.9


def git(tree: Path, *args: str) -> str | None:
    try:
        done = subprocess.run(["git", *args], cwd=tree, capture_output=True,
                              text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return done.stdout.strip()


def describe(tree: Path) -> dict:
    """What was measured: the commit, whether the work tree differs from it,
    and the simulator sources by line count and content digest."""
    sources = sorted((tree / "src" / "entnet").glob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in sources:
        data = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + data)
        lines += data.count(b"\n")
    status = git(tree, "status", "--porcelain", "--", "src")
    return {"git_sha": git(tree, "rev-parse", "HEAD"),
            "src_dirty": None if status is None else bool(status),
            "src_lines": lines, "src_sha256": digest.hexdigest()}


def bytecode_env(prefix: Path) -> dict[str, str]:
    """The environment of one tree's runs: bytecode is read from and written
    under `prefix`, never in the checkout."""
    env = dict(os.environ, PYTHONPYCACHEPREFIX=str(prefix))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def perfbench(tree: Path, workload: str, seed: int, seconds: float, trace: int = 0,
              env: dict[str, str] | None = None) -> dict:
    """One perfbench run: its gate, digests and metric values. A traced run
    gives the wrapped targets it found absent and its count metrics instead."""
    done = subprocess.run(
        [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, env=env, capture_output=True, text=True, check=False)
    lines = done.stdout.splitlines()
    if len(lines) < 2:
        return {"correct": False, "exit": done.returncode,
                "error": done.stderr.strip()[-2000:], "metrics": {}}
    info, body = json.loads(lines[0]), json.loads(lines[1])
    result = {"correct": body["correct"] and done.returncode == 0, "exit": done.returncode,
              "digests": [info["trace_sha256"], info["stats_sha256"]]}
    if trace:
        result["absent"] = info["absent"]
        result["counts"] = {name: m["value"] for name, m in body["metrics"].items()
                            if m["unit"] == "count"}
    else:
        result["metrics"] = {name: m["value"] for name, m in body["metrics"].items()}
    return result


def count_diff(parent: dict, change: dict) -> dict:
    """Two traced runs of one workload, parent's and this tree's: the targets
    either found absent, both digests, and every count with its delta, the
    work counts under "counts" and the `runtime.*` ones under "runtime"."""
    runs = {"parent": parent, "change": change}
    digests = {side: run.get("digests", [None, None]) for side, run in runs.items()}
    names = sorted(set(parent.get("counts", {})) | set(change.get("counts", {})))
    counts, runtime = {}, {}
    for name in names:
        a, b = (run.get("counts", {}).get(name) for run in (parent, change))
        (runtime if name.startswith("runtime.") else counts)[name] = {
            "parent": a, "change": b, "delta": None if a is None or b is None else b - a}
    return {
        "correct": {side: run["correct"] for side, run in runs.items()},
        "absent": sorted(set(parent.get("absent", ())) | set(change.get("absent", ()))),
        "trace_sha256": {side: d[0] for side, d in digests.items()},
        "stats_sha256": {side: d[1] for side, d in digests.items()},
        "digests_equal": digests["parent"] == digests["change"],
        "counts": counts,
        "runtime": runtime,
    }


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def summarize(pairs: list[dict], metric: dict) -> dict:
    """Both sides' spread, the pairs won and the claim verdict for one metric."""
    name, sign = metric["name"], 1 if metric["better"] == "lower" else -1
    values = [(p["parent"]["metrics"][name], p["change"]["metrics"][name]) for p in pairs
              if name in p["parent"]["metrics"] and name in p["change"]["metrics"]]
    if not values:
        return {"unit": metric["unit"], "better": metric["better"], "pairs": 0}
    parent = quartiles([a for a, _ in values])
    change = quartiles([b for _, b in values])
    won = sum(1 for a, b in values if sign * (a - b) > 0)
    gap = sign * (parent["median"] - change["median"])  # > 0: this tree is better
    worse_by = -gap / parent["median"] if parent["median"] else 0.0
    return {
        "unit": metric["unit"], "better": metric["better"], "pairs": len(values),
        "parent": parent, "change": change,
        "relative_change": (change["median"] / parent["median"] - 1
                            if parent["median"] else None),
        "pairs_won": won,
        "claimable": (len(values) >= MIN_PAIRS and won >= WIN_SHARE * len(values)
                      and gap > parent["iqr"]),
        "bound": metric["bound"], "within_bound": worse_by <= metric["bound"],
    }


def compare(a: dict, b: dict) -> list[dict]:
    """Per workload and metric both reports measured: the `change` medians,
    their delta, and whether it falls outside both reports' IQRs."""
    rows = []
    for workload, result in a["workloads"].items():
        other = b["workloads"].get(workload, {}).get("metrics", {})
        for name, ma in result["metrics"].items():
            mb = other.get(name)
            if not ma["pairs"] or not mb or not mb["pairs"]:
                continue
            sa, sb = ma["change"], mb["change"]
            delta = sb["median"] - sa["median"]
            rows.append({"workload": workload, "metric": name, "a": sa["median"],
                         "b": sb["median"], "delta": delta,
                         "flagged": abs(delta) > sa["iqr"] and abs(delta) > sb["iqr"]})
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--compare", type=Path, nargs=2, metavar=("A", "B"),
                        help="print the deltas between two reports and run nothing")
    parser.add_argument("--parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("--pairs", type=int)
    parser.add_argument("--seconds", type=float, help="perfbench --seconds for every run")
    parser.add_argument("--seeds", type=int, nargs="+")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    if args.compare:
        a, b = (json.loads(path.read_text()) for path in args.compare)
        for row in compare(a, b):
            print(f"{row['workload']:9} {row['metric']:18} {row['a']:.6g} -> {row['b']:.6g}  "
                  f"delta {row['delta']:+.6g}  {'OUTSIDE BOTH IQRS' if row['flagged'] else ''}")
        return 0
    missing = [f"--{name}" for name in ("parent", "pairs", "seconds", "seeds", "out")
               if getattr(args, name) is None]
    if missing:
        parser.error(f"the following arguments are required: {', '.join(missing)}")
    trees = {"parent": args.parent.resolve(), "change": ROOT}
    described = {side: describe(tree) for side, tree in trees.items()}
    for side, info in described.items():
        if info["git_sha"] is None:
            print(f"bench_pairs: warning: git rev-parse cannot read the commit of the "
                  f"{side} tree {trees[side]}, so the report names it only by "
                  f"src_sha256; make a tree with git clone and git checkout <sha>",
                  file=sys.stderr)
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]

    workloads = {}
    count_diffs = {}
    failed = False
    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as caches:
        envs = {side: bytecode_env(Path(caches) / side) for side in SIDES}
        for workload in WORKLOADS:
            traced = [perfbench(trees[side], workload, args.seeds[0], 0, trace=1,
                                env=envs[side]) for side in SIDES]
            diff = count_diffs[workload] = {"seed": args.seeds[0], **count_diff(*traced)}
            failed |= (bool(diff["absent"]) or not diff["digests_equal"]
                       or not all(diff["correct"].values()))
            pairs = []
            for index in range(args.pairs):
                seed = args.seeds[index % len(args.seeds)]
                order = SIDES if index % 2 == 0 else SIDES[::-1]
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = perfbench(trees[side], workload, seed, args.seconds,
                                           env=envs[side])
                pair["digests_equal"] = (pair["parent"].get("digests")
                                         == pair["change"].get("digests"))
                failed |= not (pair["parent"]["correct"] and pair["change"]["correct"]
                               and pair["digests_equal"])
                pairs.append(pair)
                run_s = [pair[side]["metrics"].get("run_s") for side in SIDES]
                print(f"{workload} pair {index + 1}/{args.pairs} seed {seed}: "
                      f"run_s parent {run_s[0]} change {run_s[1]}", file=sys.stderr)
            workloads[workload] = {
                "metrics": {m["name"]: summarize(pairs, m) for m in metrics},
                "pairs": pairs,
            }

    report = {
        "command": "perfbench/run.py --trace 0",
        "settings": {"pairs": args.pairs, "seconds": args.seconds, "seeds": args.seeds,
                     "bytecode": "each tree compiled once, under its own temporary "
                                 "PYTHONPYCACHEPREFIX"},
        "host": {"python": platform.python_version(), "cpu_count": os.cpu_count()},
        "trees": described,
        "workloads": workloads,
        "counts": count_diffs,
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    for workload, result in workloads.items():
        for name, m in result["metrics"].items():
            if m["pairs"] and m["relative_change"] is not None:
                print(f"{workload:9} {name:18} {m['relative_change']:+7.1%}  "
                      f"won {m['pairs_won']}/{m['pairs']}  "
                      f"{'claimable' if m['claimable'] else ''}")
    for workload, diff in count_diffs.items():
        moved = {name: c["delta"] for name, c in diff["counts"].items() if c["delta"] != 0}
        print(f"{workload:9} counts: absent {diff['absent']}, digests "
              f"{'equal' if diff['digests_equal'] else 'DIFFER'}, changed {moved}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
