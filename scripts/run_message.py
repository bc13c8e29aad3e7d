#!/usr/bin/env python3
"""One-message bench: a single message of --bytes on an established session.

Opens a session between the two users of an example scenario, runs it until
it is established, then sends one message and runs to idle with the trace
kept. Prints the run's wall seconds and frames per second, the trace records
the message wrote, and the `tracemalloc` peak of the same send in a second,
identical simulation (tracing memory slows a run, so it is not the timed
one). Exits 1 unless the callee receives exactly the bytes sent and every
invariant holds after teardown.
"""

import argparse
import dataclasses
import sys
import time
import tracemalloc

from entnet import Simulation, example_scenario
from entnet.invariants import check_all


def established(kind: str) -> tuple[Simulation, int, int]:
    """A simulation of the example with its workload call opened by hand:
    the simulation, the session id and the callee's QID."""
    scenario = example_scenario(kind)
    item = scenario.workload[0]
    sim = Simulation(dataclasses.replace(scenario, workload=()))
    session = sim.request_session(item.from_qid, item.to_qid)
    sim.run_until_idle()
    return sim, session, item.to_qid


def record_count(sim: Simulation) -> int:
    return sum(sim.stats()["record_counts"].values())


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--kind", default="cross-qbs",
                        choices=["same-qbs", "cross-qbs", "interplanet"])
    parser.add_argument("--bytes", type=int, default=1 << 20,
                        help="message length, 1 to 1 MiB (default 1 MiB)")
    args = parser.parse_args()
    if not 1 <= args.bytes <= 1 << 20:
        parser.error(f"--bytes must be 1 to {1 << 20}, not {args.bytes}")
    payload = (bytes(range(251)) * (args.bytes // 251 + 1))[:args.bytes]

    sim, session, callee = established(args.kind)
    before = record_count(sim)
    started = time.perf_counter()
    sim.send_message(session, payload)
    sim.run_until_idle()
    run_s = time.perf_counter() - started
    records = record_count(sim) - before
    # each frame is logged once at every node of the path
    frames = sim.stats()["record_counts"]["DATA"] // len(sim.sessions[session].path)

    traced, traced_session, _ = established(args.kind)
    tracemalloc.start()
    try:
        traced.send_message(traced_session, payload)
        traced.run_until_idle()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()

    print(f"{args.kind}: {len(payload):,} bytes in {frames:,} frames")
    print(f"run {run_s:.3f}s | {frames / run_s:,.0f} frames/s | {records:,} records | "
          f"tracemalloc peak {peak / 2**20:.1f} MiB")
    if sim.users[callee].receive_poll() != [(session, payload)]:
        sys.exit("the callee did not receive the message exactly")
    sim.teardown_session(session)
    check_all(sim)


if __name__ == "__main__":
    main()
