import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entnet import PLATE_WIDTH, PairPool, Simulation, Spin, decode_frame, example_scenario
from entnet.entanglement import ALL, RX, TX
from entnet.errors import (
    AlreadyFixed,
    MismatchedPlates,
    TriggerOnNonIonized,
    UnknownParticle,
)


def test_create_pair_contract():
    pool = PairPool(0)
    p1, p2 = pool.create_pair()
    assert pool.particle(p1).ionized
    assert not pool.particle(p2).ionized
    assert pool.particle(p1).spin is Spin.UNOBSERVED
    assert pool.particle(p2).spin is Spin.UNOBSERVED


def test_partner_relation_symmetric_irreflexive():
    pool = PairPool(0)
    p1, p2 = pool.create_pair()
    assert pool.partner(p1) == p2
    assert pool.partner(p2) == p1
    assert pool.partner(p1) != p1


def test_successive_pairs_have_distinct_ids():
    pool = PairPool(0)
    ids = [*pool.create_pair(), *pool.create_pair()]
    assert len(set(ids)) == 4


def test_trigger_up_fixes_partner_down():
    pool = PairPool(0)
    p1, p2 = pool.create_pair()
    pool.trigger_spin(p1, Spin.UP)
    assert pool.particle(p1).spin is Spin.UP
    assert pool.particle(p2).spin is Spin.DOWN


def test_trigger_down_fixes_partner_up():
    pool = PairPool(0)
    p1, p2 = pool.create_pair()
    pool.trigger_spin(p1, Spin.DOWN)
    assert pool.particle(p1).spin is Spin.DOWN
    assert pool.particle(p2).spin is Spin.UP


def test_trigger_requires_ionized():
    pool = PairPool(0)
    _, p2 = pool.create_pair()
    with pytest.raises(TriggerOnNonIonized):
        pool.trigger_spin(p2, Spin.UP)


def test_trigger_requires_unobserved():
    pool = PairPool(0)
    p1, _ = pool.create_pair()
    pool.trigger_spin(p1, Spin.UP)
    with pytest.raises(AlreadyFixed):
        pool.trigger_spin(p1, Spin.DOWN)


def test_observe_after_trigger_is_opposite():
    pool = PairPool(0)
    p1, p2 = pool.create_pair()
    pool.trigger_spin(p1, Spin.UP)
    assert pool.observe(p2) is Spin.DOWN


def test_observe_is_idempotent():
    pool = PairPool(3)
    p1, _ = pool.create_pair()
    first = pool.observe(p1)
    assert pool.observe(p1) is first
    assert pool.observe(p1) is first


def test_observe_fixes_partner_opposite():
    pool = PairPool(5)
    p1, p2 = pool.create_pair()
    assert pool.observe(p1).opposite() is pool.observe(p2)


def test_observe_unknown_particle():
    pool = PairPool(0)
    with pytest.raises(UnknownParticle):
        pool.observe(123)


def test_observe_sequence_is_seed_deterministic():
    def draws(seed):
        pool = PairPool(seed)
        return [pool.observe(pool.create_pair()[0]) for _ in range(64)]

    assert draws(11) == draws(11)
    assert draws(11) != draws(12)  # astronomically unlikely to collide


def test_lazy_stream_draws_like_an_eager_one():
    pool = PairPool(77)
    _, rx = pool.make_plate_pair()
    p1, _ = pool.create_pair()
    assert "rng" not in vars(pool)  # nothing built before the first draw
    eager = random.Random(77)
    assert pool.observe_plate(rx) == eager.getrandbits(PLATE_WIDTH)
    assert pool.observe(p1) is (Spin.UP if eager.getrandbits(1) else Spin.DOWN)


def test_engine_run_builds_no_pool_stream(run_example):
    final_tick = run_example("cross-qbs").now
    sim = Simulation(example_scenario("cross-qbs"))
    pools = {}
    for tick in range(final_tick + 1):  # session circuits live for a few ticks only
        sim.run_until(tick)
        pools.update((cid, circuit.pool) for cid, circuit in sim.circuits.items())
    assert len(pools) > len(sim.circuits)  # the session's circuit was seen and released
    assert not [cid for cid, pool in pools.items() if "rng" in vars(pool)]


def _blind_decode(seed, circuit_id=1):
    """Observe an unwritten Rx plate of a circuit of a fresh cross-QBS Simulation."""
    circuit = Simulation(example_scenario("cross-qbs"), seed=seed).circuits[circuit_id]
    return decode_frame(circuit.pool, circuit.channel(circuit.a, circuit.b).rx)


def test_blind_decode_on_a_circuit_follows_scenario_and_seed():
    assert _blind_decode(5) == _blind_decode(5)
    assert _blind_decode(5) != _blind_decode(6)
    assert _blind_decode(5, circuit_id=1) != _blind_decode(5, circuit_id=2)


def test_circuit_stream_is_seeded_from_its_label():
    circuit = Simulation(example_scenario("cross-qbs"), seed=5).circuits[2]
    rx = circuit.channel(circuit.a, circuit.b).rx
    expected = random.Random("5/circuit:2").getrandbits(PLATE_WIDTH)
    assert circuit.pool.observe_plate(rx) == expected


def test_make_plate_pair_contract():
    pool = PairPool(0)
    tx, rx = pool.make_plate_pair()
    assert len(pool) == PLATE_WIDTH  # one plate pair holds PLATE_WIDTH pairs
    assert tx.partner is rx and rx.partner is tx
    assert (tx.role, rx.role) == (TX, RX)
    # every particle on both sides unobserved
    assert tx.fixed == rx.fixed == 0 and tx.up == rx.up == 0
    assert pool.plate_fresh(tx) and pool.plate_fresh(rx)
    # only the Tx side is ionized, so only it can be triggered
    with pytest.raises(TriggerOnNonIonized):
        pool.trigger_plate(rx, 0)
    pool.trigger_plate(tx, 0)


def test_reset_reprovisions_used_pairs():
    pool = PairPool(1)
    tx, rx = pool.make_plate_pair()
    pool.trigger_plate(tx, ALL)
    pool.reset_plate_pair(tx, rx)
    assert tx.fixed == rx.fixed == 0 and tx.up == rx.up == 0
    assert pool.plate_fresh(tx) and pool.plate_fresh(rx)
    # the consumed pairs are gone for good: nothing accumulates
    assert len(pool) == PLATE_WIDTH
    pool.trigger_plate(tx, 0)
    assert rx.up == ALL


def test_reset_increments_generation_on_both_plates():
    pool = PairPool(1)
    tx, rx = pool.make_plate_pair()
    pool.reset_plate_pair(tx, rx)
    assert tx.generation == 1 and rx.generation == 1


def test_reset_of_unused_plates_keeps_pairs():
    pool = PairPool(1)
    tx, rx = pool.make_plate_pair()
    pool.reset_plate_pair(tx, rx)
    assert tx.fixed == rx.fixed == 0 and tx.up == rx.up == 0
    assert tx.partner is rx and len(pool) == PLATE_WIDTH
    assert tx.generation == 1 and rx.generation == 1


def test_reset_rejects_mismatched_plates():
    pool = PairPool(1)
    tx1, rx1 = pool.make_plate_pair()
    tx2, rx2 = pool.make_plate_pair()
    with pytest.raises(MismatchedPlates):
        pool.reset_plate_pair(tx1, rx2)
    with pytest.raises(MismatchedPlates):
        pool.reset_plate_pair(rx1, tx1)


def test_trigger_plate_requires_a_fresh_plate():
    pool = PairPool(1)
    tx, _ = pool.make_plate_pair()
    pool.trigger_plate(tx, 5)
    with pytest.raises(AlreadyFixed):
        pool.trigger_plate(tx, 5)


def test_trigger_plate_rejects_bits_wider_than_the_plate():
    pool = PairPool(1)
    tx, _ = pool.make_plate_pair()
    with pytest.raises(ValueError):
        pool.trigger_plate(tx, ALL + 1)
    with pytest.raises(ValueError):
        pool.trigger_plate(tx, -1)


def test_blind_observe_draws_once_and_fixes_both_plates():
    pool = PairPool(4)
    tx, rx = pool.make_plate_pair()
    up = pool.observe_plate(rx)
    assert pool.plate_draws == 1
    assert tx.fixed == rx.fixed == ALL and tx.up == up ^ ALL
    assert pool.observe_plate(rx) == up  # fixed spins never change
    assert pool.plate_draws == 1


def test_encoded_plate_decodes_without_drawing():
    pool = PairPool(4)
    tx, rx = pool.make_plate_pair()
    pool.trigger_plate(tx, 0x1234)
    assert pool.observe_plate(rx) == 0x1234 ^ ALL
    assert pool.plate_draws == 0


@given(st.lists(st.tuples(st.integers(0, 2), st.booleans()), max_size=40),
       st.integers(0, 2**32))
@settings(max_examples=60)
def test_fixed_spins_never_change(ops, seed):
    """Whatever the operation sequence, the first fixed value persists."""
    pool = PairPool(seed)
    p1, p2 = pool.create_pair()
    fixed: dict[int, Spin] = {}

    def snap():
        for pid in (p1, p2):
            spin = pool.particle(pid).spin
            if spin is not Spin.UNOBSERVED:
                assert fixed.setdefault(pid, spin) is spin

    for kind, first in ops:
        pid = p1 if first else p2
        try:
            if kind == 0:
                pool.observe(pid)
            elif kind == 1:
                pool.trigger_spin(pid, Spin.UP)
            else:
                pool.trigger_spin(pid, Spin.DOWN)
        except (AlreadyFixed, TriggerOnNonIonized):
            pass
        snap()


def _apply_pair_ops(pool, pairs, ops):
    """Observe either half or trigger the Tx half, ignoring refused triggers."""
    for kind, which in ops:
        p1, p2 = pairs[which]
        try:
            if kind == 0:
                pool.observe(p1)
            elif kind == 1:
                pool.observe(p2)
            elif kind == 2:
                pool.trigger_spin(p1, Spin.UP)
            else:
                pool.trigger_spin(p1, Spin.DOWN)
        except (AlreadyFixed, TriggerOnNonIonized):
            pass


def _assert_anti_correlated(pool, pairs):
    for p1, p2 in pairs:
        first, second = pool.particle(p1).spin, pool.particle(p2).spin
        assert (first is Spin.UNOBSERVED) == (second is Spin.UNOBSERVED)
        if first is not Spin.UNOBSERVED:
            assert first.opposite() is second


@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 7)), max_size=60),
       st.integers(0, 2**32))
@settings(max_examples=60)
def test_anti_correlation_holds_after_any_sequence(ops, seed):
    """Exhaustive pool scan: doubly-fixed pairs are always opposite."""
    pool = PairPool(seed)
    pairs = [pool.create_pair() for _ in range(8)]
    _apply_pair_ops(pool, pairs, ops)
    _assert_anti_correlated(pool, pairs)


@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 129)), max_size=80),
       st.integers(0, 2**32))
@settings(max_examples=60)
def test_anti_correlation_holds_across_a_plate_boundary(ops, seed):
    """130 pairs span two pair plates; every pair stays opposite and plate-coherent."""
    pool = PairPool(seed)
    pairs = [pool.create_pair() for _ in range(130)]
    assert len(pool.pair_plates) == 2
    _apply_pair_ops(pool, pairs, ops)
    _assert_anti_correlated(pool, pairs)
    for tx, rx in pool.pair_plates:
        assert tx.fixed == rx.fixed and tx.up ^ rx.up == tx.fixed


def test_pairs_on_either_side_of_a_plate_boundary():
    pool = PairPool(9)
    pairs = [pool.create_pair() for _ in range(129)]
    (a127, b127), (a128, b128) = pairs[127], pairs[128]
    (tx0, rx0), (tx1, rx1) = pool.pair_plates
    assert len(pool) == 2 * PLATE_WIDTH
    pool.trigger_spin(a127, Spin.UP)
    assert (tx0.fixed, tx0.up, rx0.up) == (1, 1, 0)  # pair 127 is the last bit of plate 0
    assert pool.particle(b127).spin is Spin.DOWN
    assert pool.particle(a128).spin is Spin.UNOBSERVED and tx1.fixed == 0
    assert pool.observe(b128).opposite() is pool.observe(a128)
    assert rx1.fixed == tx1.fixed == 1 << (PLATE_WIDTH - 1)  # pair 128 is bit 127 of plate 1
    assert pool.particle(a128).ionized and not pool.particle(b128).ionized
    with pytest.raises(TriggerOnNonIonized):
        pool.trigger_spin(b127, Spin.UP)


@pytest.mark.parametrize("created", [0, 1, 130])
def test_unknown_particle_outside_the_handed_out_ids(created):
    pool = PairPool(0)
    for _ in range(created):
        pool.create_pair()
    for bad in (-1, 2 * created):
        for op in (pool.particle, pool.partner, pool.observe):
            with pytest.raises(UnknownParticle):
                op(bad)
        with pytest.raises(UnknownParticle):
            pool.trigger_spin(bad, Spin.UP)
