#!/usr/bin/env python3
"""Distance-independence experiment.

Runs the cross-station walkthrough with every link set to the same length,
sweeping from one metre to a light-year, and shows that the trace bytes and
delivery ticks never change while the classical light-speed baseline grows
without bound. Exits 1, naming the link lengths, if any trace differs from
the first one.
"""

import argparse
import sys

from entnet import Simulation, example_scenario, with_uniform_distances

SWEEP = [
    ("1 m", 1.0),
    ("1 km", 1e3),
    ("Earth-Moon", 3.84e8),
    ("Earth-Mars (avg)", 2.25e11),
    ("1 light-year", 9.46e15),
]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--kind", default="cross-qbs",
                        choices=["same-qbs", "cross-qbs", "interplanet"])
    args = parser.parse_args()

    base = example_scenario(args.kind)
    reference_bytes = None
    differing = []
    print(f"{'link length':>18} | {'entangled ticks':>15} | "
          f"{'processing ticks':>16} | {'classical baseline':>20} | trace")
    for label, meters in SWEEP:
        sim = Simulation(with_uniform_distances(base, meters))
        sim.run_until_idle()
        trace = "\n".join(sim.trace_lines()).encode()
        if reference_bytes is None:
            reference_bytes = trace
        if trace != reference_bytes:
            differing.append(label)
        report = sim.latency_report(1)
        print(f"{label:>18} | {report.entangled_channel_ticks:>15} | "
              f"{report.processing_ticks:>16} | "
              f"{report.classical_baseline_seconds:>18.3e} s | "
              f"{'DIFFERS' if trace != reference_bytes else 'identical'}")
    if differing:
        sys.exit(f"\ntraces differ from the {SWEEP[0][0]} run at: {', '.join(differing)}")
    print("\nevery run produced byte-identical traces; only the")
    print("classical light-speed baseline depends on distance")


if __name__ == "__main__":
    main()
