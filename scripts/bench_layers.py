#!/usr/bin/env python3
"""Layer microbenches: the codec per frame, one frame hop per route and session
set-up per path, as JSON.

    PYTHONPATH=src python3 scripts/bench_layers.py --repeats 7 --frames 20000 \\
        --out layers.json

Each figure is the median of --repeats timed repeats (at least 5), with its
quartiles and interquartile range. A repeat times --frames frames:
- `codec.encode_frame`, seconds per frame: trigger a fresh Tx plate, the
  plates made before the clock starts;
- `codec.decode_frame`, seconds per frame: observe an encoded Rx plate;
- `codec.segment_message`, seconds per frame: cut a message of --frames data
  frames, per frame cut (its header included);
- `codec.message_push`, seconds per frame: feed that message's frames to one
  `MessageBuffer`;
- `hop.<kind>`, hops per second, on the same-QBS and cross-QBS example
  routes: a message of --frames data frames sent on an established session
  and run to idle. A hop is one frame encoded onto a circuit and arriving at
  its far end: decoded, its plates reset, logged as DATA, then encoded onto
  the next hop and scheduled, or delivered;
- `trace_lines.<kind>`, bytes per second: the lines `trace_lines()` writes
  for that run's whole trace;
- `trace_lines.sessions`, bytes per second: the same over a
  `desk_scale_scenario` run of 200 sessions, made once, whose lines are
  mostly control records rather than DATA;
- `session.<kind>`, sessions established per second, on the same-QBS,
  cross-QBS and interplanet paths: 200 requests, each between a caller and
  a callee of its own, run until every one is established. The network is
  built before the clock starts; --frames does not change this figure.

The figures are host seconds: they size a change, and gate nothing. A speed
claim comes from `scripts/bench_pairs.py`.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import statistics
import sys
import time

from entnet import (FRAME_BYTES, MessageBuffer, PairPool, SessionState, Simulation,
                    decode_frame, desk_scale_scenario, encode_frame, segment_message)
from entnet.scenario import EXAMPLE_KINDS, ChildSpec, PlanetSpec, Scenario, UserSpec
from run_message import established

KINDS = ("same-qbs", "cross-qbs")
DESK_SESSIONS = 200
ROUTE_SESSIONS = 200
MIN_REPEATS = 5
UNITS = {"codec": "s/frame", "hop": "hops/s", "trace_lines": "B/s", "session": "sessions/s"}


def spread(values: list[float], unit: str) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"unit": unit, "median": median, "q1": q1, "q3": q3, "iqr": q3 - q1,
            "repeats": len(values)}


def timed(prepare, run) -> float:
    """Seconds that `run(prepare())` takes, after a collection."""
    state = prepare()
    gc.collect()
    started = time.perf_counter()
    run(state)
    return time.perf_counter() - started


def codec_repeat(frames: list[bytes]) -> dict[str, float]:
    """One repeat of each codec figure, in seconds per frame."""
    n = len(frames)

    def plates():
        pool = PairPool(1)
        return pool, [pool.make_plate_pair() for _ in range(n)]

    def encode(state):
        pool, pairs = state
        for (tx, _), frame in zip(pairs, frames):
            encode_frame(pool, tx, frame)

    def encoded():
        state = plates()
        encode(state)
        return state

    def decode(state):
        pool, pairs = state
        for _, rx in pairs:
            decode_frame(pool, rx)

    message = b"".join(frames)
    segments = segment_message(message)

    def push(buffer):
        for frame in segments:
            buffer.push(frame)

    return {
        "codec.encode_frame": timed(plates, encode) / n,
        "codec.decode_frame": timed(encoded, decode) / n,
        "codec.segment_message": timed(lambda: message, segment_message) / len(segments),
        "codec.message_push": timed(MessageBuffer, push) / len(segments),
    }


def hop_repeat(kind: str, message: bytes) -> dict[str, float]:
    """One repeat of a route's hop rate and of its trace's line rate."""
    sim, session, callee = established(kind)
    frames = len(segment_message(message))
    hops = frames * (len(sim.sessions[session].path) - 1)
    gc.collect()
    started = time.perf_counter()
    sim.send_message(session, message)
    sim.run_until_idle()
    run_s = time.perf_counter() - started
    if sim.users[callee].receive_poll() != [(session, message)]:
        sys.exit(f"{kind}: the callee did not receive the message exactly")
    return {f"hop.{kind}": hops / run_s, f"trace_lines.{kind}": lines_rate(sim)}


def session_scenario(kind: str, pairs: int) -> Scenario:
    """`pairs` callers on qbs-1 and as many callees on the `kind` path from them."""
    callers = tuple(UserSpec(f"caller-{i}", 1 + i) for i in range(pairs))
    callees = tuple(UserSpec(f"callee-{i}", 1 + pairs + i) for i in range(pairs))
    if kind == "same-qbs":
        planets = (PlanetSpec("m1", (ChildSpec("qbs-1", callers + callees),)),)
    elif kind == "cross-qbs":
        planets = (PlanetSpec("m1", (ChildSpec("qbs-1", callers), ChildSpec("qbs-2", callees))),)
    else:
        planets = (PlanetSpec("m1", (ChildSpec("qbs-1", callers),)),
                   PlanetSpec("m2", (ChildSpec("qbs-2", callees),)))
    return Scenario(seed=1, planets=planets)


def session_repeat(kind: str) -> float:
    """One repeat of a path's set-up rate: sessions established per second."""
    def request_all(sim: Simulation) -> None:
        for caller in range(1, ROUTE_SESSIONS + 1):
            sim.request_session(caller, caller + ROUTE_SESSIONS)
        sim.run_until_idle()

    sim = Simulation(session_scenario(kind, ROUTE_SESSIONS))
    run_s = timed(lambda: sim, request_all)
    states = {rec.state for rec in sim.sessions.values()}
    if len(sim.sessions) != ROUTE_SESSIONS or states != {SessionState.ESTABLISHED}:
        sys.exit(f"{kind}: not every session was established")
    return ROUTE_SESSIONS / run_s


def lines_rate(sim: Simulation) -> float:
    """Bytes per second of the lines `trace_lines()` writes for the whole trace."""
    gc.collect()
    started = time.perf_counter()
    written = sum(len(line) + 1 for line in sim.trace_lines())
    return written / (time.perf_counter() - started)


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=7,
                        help=f"timed repeats per figure, at least {MIN_REPEATS} (default 7)")
    parser.add_argument("--frames", type=int, default=20_000,
                        help="frames per repeat (default 20000)")
    parser.add_argument("--out", help="write the JSON here (default: stdout)")
    args = parser.parse_args(argv)
    if args.repeats < MIN_REPEATS:
        parser.error(f"--repeats must be at least {MIN_REPEATS}, not {args.repeats}")
    if args.frames < 1:
        parser.error(f"--frames must be at least 1, not {args.frames}")

    rng = random.Random(1)
    frames = [rng.randbytes(FRAME_BYTES) for _ in range(args.frames)]
    message = bytes(range(251)) * (args.frames * FRAME_BYTES // 251 + 1)
    message = message[:args.frames * FRAME_BYTES]
    desk = Simulation(desk_scale_scenario(sessions=DESK_SESSIONS))
    desk.run_until_idle()
    samples: dict[str, list[float]] = {}
    for _ in range(args.repeats):  # the figures interleaved, so a slow spell hits each
        figures = codec_repeat(frames)
        for kind in KINDS:
            figures.update(hop_repeat(kind, message))
        figures["trace_lines.sessions"] = lines_rate(desk)
        for kind in EXAMPLE_KINDS:
            figures[f"session.{kind}"] = session_repeat(kind)
        for name, value in figures.items():
            samples.setdefault(name, []).append(value)

    report = {
        "settings": {"repeats": args.repeats, "frames": args.frames},
        "host": {"python": platform.python_version(), "cpu_count": os.cpu_count()},
        "figures": {name: spread(values, UNITS[name.split(".")[0]])
                    for name, values in samples.items()},
    }
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


if __name__ == "__main__":
    main()
