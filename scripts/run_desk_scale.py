#!/usr/bin/env python3
"""Desk-scale experiment: one planet, many users, a randomized workload.

Builds the topology, runs every session to completion, verifies all
whole-run invariants, and reports timing plus outcome counts. It also
reports the cyclic collector's pauses during the run, per generation, from a
`gc.callbacks` hook that is in place only around `run_until_idle`.
"""

import argparse
import gc
import time

from entnet import Simulation, desk_scale_scenario
from entnet.invariants import check_all


class CollectorPauses:
    """A `gc.callbacks` hook: seconds and collections per generation."""

    def __init__(self) -> None:
        self.seconds = [0.0, 0.0, 0.0]
        self.counts = [0, 0, 0]
        self._started = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._started = time.perf_counter()
        else:
            self.seconds[info["generation"]] += time.perf_counter() - self._started
            self.counts[info["generation"]] += 1


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--children", type=int, default=10)
    parser.add_argument("--users-per-child", type=int, default=100)
    parser.add_argument("--sessions", type=int, default=5000)
    parser.add_argument("--trace", metavar="PATH", help="write the trace here")
    args = parser.parse_args()

    started = time.perf_counter()
    scenario = desk_scale_scenario(seed=args.seed, children=args.children,
                                   users_per_child=args.users_per_child,
                                   sessions=args.sessions)
    sim = Simulation(scenario)
    built = time.perf_counter()
    pauses = CollectorPauses()
    gc.callbacks.append(pauses)
    try:
        final_tick = sim.run_until_idle()
    finally:
        gc.callbacks.remove(pauses)
    ran = time.perf_counter()
    check_all(sim)
    checked = time.perf_counter()

    if args.trace:
        sim.write_trace(args.trace)

    outcomes = sim.stats()["sessions"]
    print(f"users: {args.children * args.users_per_child}  "
          f"sessions: {outcomes['total']}  final tick: {final_tick}")
    print(f"established: {outcomes['established']}  "
          f"rejected: {outcomes['rejected']}  "
          f"not found: {outcomes['not_found']}")
    print(f"trace records: {len(sim.trace)}")
    print(f"build {built - started:.2f}s | run {ran - built:.2f}s | "
          f"invariants {checked - ran:.2f}s | total {checked - started:.2f}s")
    print("collector pauses during run: " + " | ".join(
        f"gen{generation} {seconds:.3f}s x{count}"
        for generation, (seconds, count) in enumerate(zip(pauses.seconds, pauses.counts))))
    print("all invariants green")


if __name__ == "__main__":
    main()
