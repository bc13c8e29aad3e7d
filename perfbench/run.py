#!/usr/bin/env python3
"""entnet benchmark: run one workload and print one JSON result line.

    python3 perfbench/run.py --workload sessions --seed 1 --seconds 40 --trace 0

Run it from the root of a checkout; it imports entnet from that checkout's
`src/` and nowhere else. Each iteration parses the generated scenario dict,
builds a `Simulation`, runs it to idle, checks invariants and serialises the
trace, timing each phase in host seconds. `--trace 0` runs rounds of one
entnet iteration and one on `refsim`, the frozen copy of the simulator
beside this file, in alternating order until `--seconds` have passed (at
least MIN_ITERATIONS rounds), and prints the end-to-end metrics: each phase
time is the median over rounds of entnet's time over refsim's, in units of
refsim's time on a quiet host (see end_to_end). `--trace 1` alternates
untraced and traced entnet iterations and prints the per-layer metrics.

Every iteration is checked: `invariants.check_all` passes, each session ends
as its callee's accept policy implies with the exact bytes delivered, and
every iteration reproduces the same trace and stats digests. Any violation
prints `"correct": false` and exits 1. Exit code 2 means the benchmark could
not start (for example, no entnet sources next to it).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import statistics
import sys
import time
from collections import Counter
from contextlib import nullcontext
from pathlib import Path

import checks
import refsim
import refsim.invariants
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent

# Never used while tuning or writing a change; confirm a claimed gain on it.
HELD_OUT_SEED = 9001

MIN_ITERATIONS = 3
MIN_TRACED_ROUNDS = 1
# no round starts that would end past this, whatever --seconds says
HARD_STOP_S = 120.0

PHASES = ("setup_s", "run_s", "check_s", "export_s", "total_s")

# Host seconds each refsim phase takes per workload, medians measured on a
# 2-vCPU Intel Xeon VM at 2.0 GHz with Python 3.11.7: the unit in which the
# end-to-end phase times are reported, fixed so every commit reads alike.
REFERENCE_S = {
    "sessions": {"setup_s": 0.0555, "run_s": 0.324, "check_s": 0.169,
                 "export_s": 0.0278, "total_s": 0.575},
    "bulk": {"setup_s": 0.0547, "run_s": 0.394, "check_s": 0.168,
             "export_s": 0.0161, "total_s": 0.631},
    "fanin": {"setup_s": 0.0562, "run_s": 0.820, "check_s": 0.170,
              "export_s": 0.0357, "total_s": 1.09},
}

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "check_s": "s",
    "export_s": "s",
    "total_s": "s",
    "sessions_per_s": "1/s",
    "goodput_Bps": "B/s",
    "records_per_s": "1/s",
    "peak_rss_mb": "MB",
    "deliver_ticks_p50": "ticks",
    "deliver_ticks_p99": "ticks",
    "outcome_ok_ratio": "ratio",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units: dict[str, str] = {}
    for name, _, _, _, calls_metric in tracing.TARGETS:
        if calls_metric:
            units[calls_metric] = "count"
        units[f"{name}.self_s"] = "s"
    units.update({
        "entanglement.pairs_created": "count",
        "entanglement.live_pairs": "count",
        "entanglement.plate_use_ratio": "ratio",
        "engine.frame_wait_ticks_p50": "ticks",
        "engine.frame_wait_ticks_p99": "ticks",
        f"{tracing.SERIALIZE}.self_s": "s",
        "trace.bytes": "B",
        "trace.bytes_per_s": "B/s",
        "runtime.gc_pause_s": "s",
        "runtime.gc_collections": "count",
        "trace.overhead_s": "s",
    })
    return units


def import_entnet():
    """Import entnet from ROOT/src only; exit 2 when it is not there."""
    src = ROOT / "src"
    if not (src / "entnet" / "__init__.py").is_file():
        print(f"perfbench: no entnet sources at {src}; run from a checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import entnet.engine
    import entnet.errors
    import entnet.invariants
    import entnet.scenario
    if Path(entnet.__file__).resolve().parent != (src / "entnet").resolve():
        print(f"perfbench: imported entnet from {entnet.__file__}, not {src}",
              file=sys.stderr)
        sys.exit(2)
    return entnet


class GcMeter:
    """Collections and pause time reported through gc.callbacks."""

    def __init__(self) -> None:
        self.pause_s = 0.0
        self.collections = 0
        self._start = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._start = time.perf_counter()
        else:
            self.pause_s += time.perf_counter() - self._start
            self.collections += 1

    def __enter__(self) -> "GcMeter":
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self)


def iteration(entnet, raw: dict, tracer: tracing.Tracer | None = None) -> dict:
    """One parse -> build -> run -> check -> export pass, timed per phase."""
    span = tracer.span if tracer else (lambda name: nullcontext())
    clock = time.perf_counter
    t0 = clock()
    with span("phase.setup"):
        sim = entnet.engine.Simulation(entnet.scenario.scenario_from_dict(raw))
    t1 = clock()
    with GcMeter() as gc_meter, span("phase.run"):
        sim.run_until_idle()
    t2 = clock()
    violation = None
    with span("phase.check"):
        try:
            entnet.invariants.check_all(sim)
        except entnet.errors.InvariantViolation as exc:
            violation = str(exc)
    t3 = clock()
    with span("phase.export"):
        with span(tracing.SERIALIZE):
            lines = list(sim.trace_lines())
            trace_bytes = "".join(line + "\n" for line in lines).encode()
        trace_digest = hashlib.sha256(trace_bytes).hexdigest()
        stats_json = json.dumps(sim.stats(), indent=2, sort_keys=True) + "\n"
        stats_digest = hashlib.sha256(stats_json.encode()).hexdigest()
    t4 = clock()

    deliveries = [(qid, sid, payload) for qid, user in sim.users.items()
                  for sid, payload in user.receive_poll()]
    live_pairs = None
    if tracer is not None:
        try:
            live_pairs = sum(len(c.pool) for c in sim.circuits.values())
        except (AttributeError, TypeError):
            pass
    return {
        "setup_s": t1 - t0, "run_s": t2 - t1, "check_s": t3 - t2,
        "export_s": t4 - t3, "total_s": t4 - t0,
        "lines": lines, "trace_bytes": len(trace_bytes),
        "digest": (trace_digest, stats_digest), "violation": violation,
        "deliveries": deliveries, "live_pairs": live_pairs,
        "gc_pause_s": gc_meter.pause_s, "gc_collections": gc_meter.collections,
    }


class Judge:
    """Checks every iteration against the scenario and against each other."""

    def __init__(self, raw: dict) -> None:
        self.items = raw["workload"]
        self.policy_of = checks.policies(raw)
        self.analysis: dict | None = None
        self.digest: tuple | None = None
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.delivered_bytes = 0

    def __call__(self, result: dict) -> None:
        if self.analysis is None:
            records = [json.loads(line) for line in result["lines"]]
            sessions = checks.sessions_from_trace(records)
            self.digest = result["digest"]
            self.analysis = {
                "sessions": sessions,
                "records": len(records),
                "terminal": sum(1 for s in sessions.values() if s["outcome"]),
                "deliver_ticks": checks.deliver_ticks(sessions),
                "frame_waits": checks.frame_waits(records),
            }
        elif result["digest"] != self.digest:
            self.problems.append("trace or stats digest differs between iterations")
        if result["violation"]:
            self.problems.append(f"invariant violated: {result['violation']}")
        errors = checks.check_outcomes(self.items, self.policy_of,
                                       self.analysis["sessions"], result["deliveries"])
        self.attempted += len(self.items)
        self.failed += len(errors)
        for key, reason in list(errors.items())[:5]:
            self.problems.append(f"workload item {key}: {reason}")
        self.delivered_bytes = sum(len(p) for _, _, p in result["deliveries"])

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0


def _median(results: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in results)


def scaled_phases(results: list[dict], references: list[dict],
                  reference_s: dict[str, float]) -> dict[str, float]:
    """Each phase's median ratio of entnet's time to refsim's, times refsim's quiet time.

    `results[i]` and `references[i]` ran back to back. On a shared host,
    co-tenant load slows everything by up to 2x for a minute at a time, and
    raw host seconds then measure the host; the ratio of two neighbouring
    runs of like code does not (perfbench/README.md has the measurements).
    """
    return {key: statistics.median(r[key] / ref[key]
                                   for r, ref in zip(results, references))
            * reference_s[key] for key in PHASES}


def end_to_end(results: list[dict], references: list[dict], judge: Judge,
               reference_s: dict[str, float], peak_rss_mb: float) -> dict[str, float]:
    """End-to-end metrics of an untraced run; phase times as in scaled_phases."""
    a = judge.analysis
    phases = scaled_phases(results, references, reference_s)
    run_s = phases["run_s"]
    ticks = a["deliver_ticks"] or [0]
    return {
        **phases,
        "sessions_per_s": a["terminal"] / run_s,
        "goodput_Bps": judge.delivered_bytes / run_s,
        "records_per_s": a["records"] / run_s,
        "peak_rss_mb": peak_rss_mb,
        "deliver_ticks_p50": checks.percentile(ticks, 50),
        "deliver_ticks_p99": checks.percentile(ticks, 99),
        "outcome_ok_ratio": 1 - judge.failed / judge.attempted,
    }


def per_layer(traced: list[dict], untraced: list[dict], judge: Judge,
              tracer: tracing.Tracer) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics: counts from the last traced pass, medians of times."""
    values: dict[str, float] = {}
    absent = []
    calls, counts, result = traced[-1]["calls"], traced[-1]["counts"], traced[-1]["result"]
    for name, _, _, _, calls_metric in tracing.TARGETS:
        if name not in tracer.present:
            absent.append(name)
        if calls_metric:
            values[calls_metric] = calls[name]
        values[f"{name}.self_s"] = statistics.median(t["self_s"][name] for t in traced)
    for name, _, _ in tracing.COUNTED:
        if name not in tracer.present:
            absent.append(name)
    values["entanglement.pairs_created"] = counts["entanglement.pairs_created"]
    if result["live_pairs"] is None:
        absent.append("entanglement.live_pairs")
    values["entanglement.live_pairs"] = result["live_pairs"] or 0
    provisioned = calls["entanglement.make_plate_pair"] + calls["entanglement.reset_plate_pair"]
    values["entanglement.plate_use_ratio"] = (
        calls["entanglement.trigger_plate"] / provisioned if provisioned else 0.0)
    waits = judge.analysis["frame_waits"] or [0]
    values["engine.frame_wait_ticks_p50"] = checks.percentile(waits, 50)
    values["engine.frame_wait_ticks_p99"] = checks.percentile(waits, 99)
    serialize_s = statistics.median(t["self_s"][tracing.SERIALIZE] for t in traced)
    values[f"{tracing.SERIALIZE}.self_s"] = serialize_s
    values["trace.bytes"] = result["trace_bytes"]
    values["trace.bytes_per_s"] = result["trace_bytes"] / serialize_s
    values["runtime.gc_pause_s"] = _median(untraced, "gc_pause_s")
    values["runtime.gc_collections"] = untraced[-1]["gc_collections"]
    values["trace.overhead_s"] = (statistics.median(t["result"]["run_s"] for t in traced)
                                  - _median(untraced, "run_s"))
    return values, sorted(set(absent))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True,
                        help=f"workload seed; {HELD_OUT_SEED} is held out for checking claims")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()

    entnet = import_entnet()
    raw = workloads.WORKLOADS[args.workload](args.seed)
    judge = Judge(raw)
    tracer = tracing.Tracer()
    untraced: list[dict] = []
    traced: list[dict] = []
    references: list[dict] = []
    peak_rss_mb = 0.0

    def measure(tracer=None) -> dict:
        result = iteration(entnet, raw, tracer)
        judge(result)
        del result["lines"], result["deliveries"]
        gc.collect()  # free this iteration's simulation before the next is timed
        return result

    def reference() -> dict:
        result = iteration(refsim, raw)
        del result["lines"], result["deliveries"]
        gc.collect()
        return result

    # A round is an entnet and a refsim iteration, entnet first in even
    # rounds, or with --trace 1 an untraced and a traced entnet iteration.
    # Rounds repeat while the next is expected to end within --seconds,
    # judging by the last one's length.
    least = MIN_TRACED_ROUNDS if args.trace else MIN_ITERATIONS
    last = time.perf_counter()
    while True:
        if not args.trace and len(untraced) % 2:
            references.append(reference())
        untraced.append(measure())
        if len(untraced) == 1:
            # before refsim first runs, so that the peak is entnet's alone
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if not args.trace and len(references) < len(untraced):
            references.append(reference())
        if args.trace:
            tracer.reset()
            with tracer.installed():
                result = measure(tracer)
            calls, self_s = tracing.layer_totals(tracer.spans)
            traced.append({"calls": calls, "self_s": self_s,
                           "counts": Counter(tracer.counts), "result": result})
        now = time.perf_counter()
        expected_end = now - started + (now - last)
        last = now
        if len(untraced) >= least and (expected_end > args.seconds
                                       or expected_end > HARD_STOP_S):
            break

    info = {"workload": args.workload, "seed": args.seed,
            "iterations": len(untraced) + len(traced) + len(references),
            "trace_sha256": judge.digest[0], "stats_sha256": judge.digest[1],
            "sessions": len(judge.items),
            "error_rate": judge.failed / judge.attempted,
            "deliver_ticks_samples": len(judge.analysis["deliver_ticks"]),
            "frame_wait_samples": len(judge.analysis["frame_waits"])}
    if args.trace:
        values, absent = per_layer(traced, untraced, judge, tracer)
        units = per_layer_units()
        idle = [layer for layer in tracing.BUSY[args.workload]
                if not any(v for k, v in values.items()
                           if k.startswith(layer + ".") and units[k] == "count")]
        if idle:
            judge.problems.append(f"layers with zero calls: {', '.join(idle)}")
        info["absent"] = absent
        out_dir = ROOT / ".perfbench"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"spans-{args.workload}-{args.seed}.jsonl.gz"
        tracer.write(spans_path)
        info["spans"] = str(spans_path.relative_to(ROOT))
    else:
        values = end_to_end(untraced, references, judge,
                            REFERENCE_S[args.workload], peak_rss_mb)
        units = END_TO_END
        for name, runs in (("host_s", untraced), ("refsim_host_s", references)):
            info[name] = {key: _median(runs, key) for key in PHASES}

    print(json.dumps(info, sort_keys=True))
    for problem in judge.problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": judge.correct,
        "attempted": judge.attempted,
        "failed": judge.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if judge.correct else 1


if __name__ == "__main__":
    sys.exit(main())
