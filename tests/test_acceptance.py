"""Acceptance suite: one test per release criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is fixed here, not configurable.
"""

import random
import time

from conftest import is_subsequence

from entnet import (
    FRAME_BYTES,
    PLATE_WIDTH,
    MessageBuffer,
    PairPool,
    SessionState,
    Simulation,
    decode_frame,
    desk_scale_scenario,
    encode_frame,
    example_scenario,
    segment_message,
    with_uniform_distances,
)
from entnet.entanglement import ALL
from entnet.invariants import check_all, check_circuit_conservation
from entnet.qbs import FailureReason
from entnet.node import RejectAll
from entnet.scenario import ChildSpec, PlanetSpec, Scenario, UserSpec, WorkloadItem


def _passed(number, label):
    print(f"[acceptance] criterion {number} ({label}): PASS")


def test_criterion_1_codec_identity():
    started = time.perf_counter()
    pool = PairPool(99)
    tx, rx = pool.make_plate_pair()
    rng = random.Random(20240307)
    for _ in range(10_000):
        frame = rng.randbytes(FRAME_BYTES)
        encode_frame(pool, tx, frame)
        assert decode_frame(pool, rx) == frame
        pool.reset_plate_pair(tx, rx)
    for _ in range(1_000):
        payload = rng.randbytes(rng.randint(0, 4096))
        buffer = MessageBuffer()
        assert [buffer.push(f) for f in segment_message(payload)][-1] == payload
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"codec identity took {elapsed:.2f}s (budget 5s)"
    _passed(1, "codec identity")


def test_criterion_2_anti_correlation_and_uniformity():
    # freq(Up) has a standard deviation of 0.0016 here: the 0.005 tolerance is
    # 3.2 of them, so about one seed in 600 fails it by chance
    pool = PairPool(20240307)
    plates = -(-100_000 // PLATE_WIDTH)  # 782 fresh plate pairs: 100,096 particles
    n = plates * PLATE_WIDTH
    ups = 0
    opposite = 0
    for index in range(plates):
        tx, rx = pool.make_plate_pair()
        ups += pool.observe_plate(rx if index % 2 else tx).bit_count()  # a blind draw
        pool.observe_plate(tx if index % 2 else rx)
        opposite += tx.fixed == rx.fixed == ALL and tx.up ^ rx.up == ALL
    assert opposite == plates, f"only {opposite}/{plates} plate pairs anti-correlated"
    assert pool.plate_draws == plates
    frequency = ups / n
    assert abs(frequency - 0.5) < 0.005, f"freq(Up) = {frequency}"
    _passed(2, "anti-correlation")


def test_criterion_3_same_qbs_conformance():
    sim = Simulation(example_scenario("same-qbs"))
    sim.run_until_idle()
    types = [r.type for r in sim.trace]
    golden = ["SESSION_REQUEST", "LOOKUP_LOCAL_HIT", "NEGOTIATE", "ACCEPT",
              "ESTABLISHED", "DATA", "TEARDOWN", "CIRCUIT_RELEASED", "CLOSED"]
    assert is_subsequence(golden, types), f"trace types {types}"
    assert "MOTHER_LOOKUP" not in types
    assert "MOTHER_LOOKUP_MISS" not in types
    _passed(3, "same-station conformance")


def test_criterion_4_cross_qbs_conformance():
    sim = Simulation(example_scenario("cross-qbs"))
    sim.run_until_idle()
    types = [r.type for r in sim.trace]
    assert is_subsequence(
        ["LOOKUP_LOCAL_MISS", "MOTHER_LOOKUP", "CIRCUIT_PROVISIONED",
         "NEGOTIATE", "ACCEPT", "ESTABLISHED"], types)
    frame_indexes = {r.detail["index"] for r in sim.trace if r.type == "DATA"}
    for index in frame_indexes:
        hops = [r.node for r in sim.trace
                if r.type == "DATA" and r.detail["index"] == index]
        assert hops == ["user-a", "qbs-1", "qbs-2", "user-c"], hops
    assert set(sim.circuits) == sim.permanent_circuit_ids  # both homes routed
    provisioned = next(r.detail["circuit"] for r in sim.trace
                       if r.type == "CIRCUIT_PROVISIONED")
    released = {r.detail["circuit"] for r in sim.trace
                if r.type == "CIRCUIT_RELEASED"}
    assert provisioned in released and provisioned not in sim.circuits
    _passed(4, "cross-station conformance")


def test_criterion_5_distance_independence():
    base = example_scenario("cross-qbs")
    near = Simulation(with_uniform_distances(base, 1.0))
    far = Simulation(with_uniform_distances(base, 9.46e15))
    near.run_until_idle()
    far.run_until_idle()
    near_bytes = "\n".join(near.trace_lines()).encode()
    far_bytes = "\n".join(far.trace_lines()).encode()
    assert near_bytes == far_bytes
    near_report, far_report = near.latency_report(1), far.latency_report(1)
    assert near_report.entangled_channel_ticks == 0
    assert far_report.entangled_channel_ticks == 0
    ratio = (far_report.classical_baseline_seconds
             / near_report.classical_baseline_seconds)
    assert abs(ratio / 9.46e15 - 1.0) < 1e-9, f"baseline ratio {ratio}"
    _passed(5, "distance independence")


def test_criterion_6_failure_branches():
    rejecting = Scenario(
        seed=20,
        planets=(PlanetSpec("m", (
            ChildSpec("q1", (UserSpec("a", 1),)),
            ChildSpec("q2", (UserSpec("c", 3, RejectAll()),)),
        )),),
        workload=(WorkloadItem(0, 1, 3, b"refused"),),
    )
    sim = Simulation(rejecting)
    sim.run_until_idle()
    rec = sim.sessions[1]
    assert rec.state is SessionState.FAILED
    assert rec.failure is FailureReason.REJECTED
    assert not any(r.type == "DATA" for r in sim.trace)
    check_circuit_conservation(sim)

    sim = Simulation(example_scenario("same-qbs"))
    sim.run_until_idle()
    sid = sim.request_session(11, 424242)
    sim.run_until_idle()
    rec = sim.sessions[sid]
    assert rec.state is SessionState.FAILED
    assert rec.failure is FailureReason.NOT_FOUND
    session_types = [r.type for r in sim.trace if r.session == sid]
    assert "MOTHER_LOOKUP_MISS" in session_types
    assert session_types.index("MOTHER_LOOKUP_MISS") < len(session_types) - 1
    check_circuit_conservation(sim)
    _passed(6, "failure branches")


def test_criterion_7_determinism(tmp_path):
    scenario = example_scenario("cross-qbs")
    paths = []
    for run in range(2):
        sim = Simulation(scenario)
        sim.run_until_idle()
        path = tmp_path / f"run{run}.ndjson"
        sim.write_trace(str(path))
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()

    reseeded = Simulation(scenario, seed=0xDEADBEEF)
    reseeded.run_until_idle()
    baseline = Simulation(scenario)
    baseline.run_until_idle()
    assert ([r.type for r in reseeded.trace]
            == [r.type for r in baseline.trace])
    _passed(7, "determinism")


def test_criterion_8_desk_scale():
    started = time.perf_counter()
    sim = Simulation(desk_scale_scenario(seed=7, children=10,
                                         users_per_child=100, sessions=5000))
    sim.run_until_idle()
    check_all(sim)
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"desk scale took {elapsed:.1f}s (budget 60s)"
    outcomes = sim.stats()["sessions"]
    assert outcomes["total"] == 5000
    assert outcomes["established"] + outcomes["failed"] == 5000
    assert outcomes["closed"] == outcomes["established"]
    # delivery integrity across the whole randomized workload
    sent = sorted(rec.workload_payload for rec in sim.sessions.values()
                  if rec.path)
    received = sorted(payload for user in sim.users.values()
                      for _, _, payload in user.inbox)
    assert sent == received
    _passed(8, f"desk scale ({elapsed:.1f}s, "
               f"{outcomes['established']} established)")
