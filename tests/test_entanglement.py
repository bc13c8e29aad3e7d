"""Pair state lives on plates: one generation of PLATE_WIDTH pairs as a Tx
plate and its partner Rx plate. These tests pin the pair properties of the
model on that representation: anti-correlation, uniform and seed-determined
blind draws, triggers only on the ionized (Tx) side, fixed spins that never
change until a reset, and a far side readable in the same call."""

import random
from functools import reduce
from operator import or_

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entnet import PLATE_WIDTH, PairPool, Simulation, decode_frame, example_scenario
from entnet.entanglement import ALL, RX, TX
from entnet.errors import MismatchedPlates, PlateAlreadyUsed, TriggerOnNonIonized


def test_create_pair_contract(monkeypatch):
    """`create_pair` is only a name for `make_plate_pair`, and no run calls it."""
    assert PairPool.create_pair is PairPool.make_plate_pair

    def called(self):
        raise AssertionError("a run called PairPool.create_pair")

    monkeypatch.setattr(PairPool, "create_pair", called)
    for kind in ("same-qbs", "cross-qbs", "interplanet"):
        Simulation(example_scenario(kind)).run_until_idle()


def test_partner_relation_symmetric_irreflexive():
    tx, rx = PairPool(0).make_plate_pair()
    assert tx.partner is rx and rx.partner is tx
    assert tx is not rx and tx.partner is not tx


def test_successive_pairs_have_distinct_ids():
    pool = PairPool(0)
    (tx1, rx1), (tx2, rx2) = pool.make_plate_pair(), pool.make_plate_pair()
    assert len({id(tx1), id(rx1), id(tx2), id(rx2)}) == 4
    assert tx1.partner is rx1 and tx2.partner is rx2
    assert len(pool) == 2 * PLATE_WIDTH


def test_trigger_up_fixes_partner_down():
    pool = PairPool(0)
    tx, rx = pool.make_plate_pair()
    pool.trigger_plate(tx, ALL)
    assert tx.fixed == rx.fixed == ALL
    assert (tx.up, rx.up) == (ALL, 0)


def test_trigger_down_fixes_partner_up():
    pool = PairPool(0)
    tx, rx = pool.make_plate_pair()
    pool.trigger_plate(tx, 0)
    assert tx.fixed == rx.fixed == ALL
    assert (tx.up, rx.up) == (0, ALL)


def test_trigger_requires_ionized():
    pool = PairPool(0)
    tx, rx = pool.make_plate_pair()
    for bits in (0, ALL):
        with pytest.raises(TriggerOnNonIonized):
            pool.trigger_plate(rx, bits)
    assert tx.fixed == rx.fixed == tx.up == rx.up == 0  # the refused trigger fixed nothing
    pool.trigger_plate(tx, ALL)
    pool.reset_plate_pair(tx, rx)
    with pytest.raises(TriggerOnNonIonized):
        pool.trigger_plate(rx, 0)  # not after a reset either


def test_trigger_requires_unobserved():
    pool = PairPool(0)
    tx, rx = pool.make_plate_pair()
    up = pool.observe_plate(rx)  # a blind observation fixes the Tx plate too
    with pytest.raises(PlateAlreadyUsed):
        pool.trigger_plate(tx, 0)
    assert (tx.up, rx.up) == (up ^ ALL, up)
    pool.reset_plate_pair(tx, rx)
    pool.trigger_plate(tx, 0)  # a reset makes it triggerable again


def test_observe_after_trigger_is_opposite():
    """The far plate is readable, opposite, in the same call as the trigger."""
    for bits in (1, 0x1234, 1 << (PLATE_WIDTH - 1), ALL ^ 0x5A):
        pool = PairPool(0)
        tx, rx = pool.make_plate_pair()
        pool.trigger_plate(tx, bits)
        assert rx.fixed == ALL and rx.up == bits ^ ALL
        assert pool.observe_plate(rx) == bits ^ ALL and pool.plate_draws == 0


def test_observe_is_idempotent():
    pool = PairPool(3)
    tx, rx = pool.make_plate_pair()
    first = pool.observe_plate(rx)
    for _ in range(3):
        assert pool.observe_plate(rx) == first
        assert pool.observe_plate(tx) == first ^ ALL
    assert pool.plate_draws == 1


def test_observe_fixes_partner_opposite():
    pool = PairPool(5)
    for observed in (TX, RX):
        tx, rx = pool.make_plate_pair()
        up = pool.observe_plate(tx if observed == TX else rx)
        assert tx.fixed == rx.fixed == ALL and tx.up ^ rx.up == ALL
        assert up == (tx.up if observed == TX else rx.up)


def _blind_draws(seed, plates=64, side=RX):
    """Blind observations of fresh plate pairs, one per pair, from one pool."""
    pool = PairPool(seed)
    return [pool.observe_plate(pool.make_plate_pair()[side == RX]) for _ in range(plates)]


def test_observe_sequence_is_seed_deterministic():
    assert _blind_draws(11) == _blind_draws(11)
    assert _blind_draws(11) != _blind_draws(12)  # astronomically unlikely to collide


def test_blind_draws_are_uniform():
    # 64 plates of 128 particles per side; freq(Up) has a standard deviation of 0.0055
    for side in (TX, RX):
        draws = _blind_draws(0x5EED, side=side)
        ups = sum(up.bit_count() for up in draws)
        assert abs(ups / (len(draws) * PLATE_WIDTH) - 0.5) < 0.03, side
        # and no particle position is stuck: every bit is seen both Up and Down
        assert reduce(or_, draws) == reduce(or_, (up ^ ALL for up in draws)) == ALL


def test_lazy_stream_draws_like_an_eager_one():
    pool = PairPool(77)
    (_, rx1), (tx2, _) = pool.make_plate_pair(), pool.make_plate_pair()
    assert "rng" not in vars(pool)  # nothing built before the first draw
    eager = random.Random(77)
    assert pool.observe_plate(rx1) == eager.getrandbits(PLATE_WIDTH)
    assert pool.observe_plate(tx2) == eager.getrandbits(PLATE_WIDTH)


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
    assert _blind_decode(5, circuit_id=1) != _blind_decode(5, circuit_id=3)


def test_circuit_stream_is_seeded_from_its_label():
    circuit = Simulation(example_scenario("cross-qbs"), seed=5).circuits[3]
    rx = circuit.channel(circuit.a, circuit.b).rx
    expected = random.Random("5/circuit:3").getrandbits(PLATE_WIDTH)
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
    tx, rx = pool.make_plate_pair()
    pool.trigger_plate(tx, 5)
    with pytest.raises(PlateAlreadyUsed):
        pool.trigger_plate(tx, 5)
    assert (tx.up, rx.up) == (5, 5 ^ ALL)  # the refused trigger changed nothing


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


# random plate operations -----------------------------------------------------

_OPS = ("observe_tx", "observe_rx", "trigger", "reset")
_plate_ops = st.lists(st.tuples(st.sampled_from(_OPS), st.integers(0, 3),
                                st.integers(0, ALL)), max_size=60)
# each plate pair starts in a legal, partly fixed state: (fixed mask, its Up bits on Tx)
_starts = st.lists(st.tuples(st.integers(0, ALL), st.integers(0, ALL)),
                   min_size=4, max_size=4)


def _run_plate_ops(ops, starts, seed):
    """Apply `ops` to four plate pairs of one pool, ignoring refused triggers.
    Yields, per op, the op, its plate pair, and every plate's state before it."""
    pool = PairPool(seed)
    pairs = [pool.make_plate_pair() for _ in starts]
    for (tx, rx), (mask, up) in zip(pairs, starts):
        tx.fixed = rx.fixed = mask
        tx.up, rx.up = up & mask, (up ^ mask) & mask
    for kind, which, bits in ops:
        tx, rx = pairs[which]
        before = [(p.fixed, p.up, p.generation) for pair in pairs for p in pair]
        if kind == "reset":
            pool.reset_plate_pair(tx, rx)
        elif kind == "trigger":
            try:
                pool.trigger_plate(tx, bits)
            except PlateAlreadyUsed:
                assert before[2 * which][0]  # refused only when something is fixed
        else:
            plate = tx if kind == "observe_tx" else rx
            assert pool.observe_plate(plate) == plate.up and plate.fixed == ALL
        yield kind, which, pairs, before


@given(_plate_ops, _starts, st.integers(0, 2**32))
@settings(max_examples=100)
def test_anti_correlation_holds_after_any_sequence(ops, starts, seed):
    """Observes of either side, triggers and resets keep every plate pair
    anti-correlated: one fixed mask, and opposite spins inside it only."""
    for _, _, pairs, _ in _run_plate_ops(ops, starts, seed):
        for tx, rx in pairs:
            assert tx.fixed == rx.fixed
            assert tx.up ^ rx.up == tx.fixed
            assert not (tx.up | rx.up) & ~tx.fixed


@given(_plate_ops, _starts, st.integers(0, 2**32))
@settings(max_examples=100)
def test_fixed_spins_never_change(ops, starts, seed):
    """A fixed particle keeps its spin until its plate pair is reset, which
    frees every particle and starts the next generation."""
    for kind, which, pairs, before in _run_plate_ops(ops, starts, seed):
        for plate, (fixed, up, generation) in zip(pairs[which], before[2 * which:]):
            if kind == "reset":
                assert (plate.fixed, plate.up, plate.generation) == (0, 0, generation + 1)
            else:
                assert plate.fixed & fixed == fixed and plate.up & fixed == up
                assert plate.generation == generation


@given(_plate_ops, _starts, st.integers(0, 2**32))
@settings(max_examples=100)
def test_anti_correlation_holds_across_a_plate_boundary(ops, starts, seed):
    """An operation on one plate pair leaves every other plate pair of the pool as it was."""
    for _, which, pairs, before in _run_plate_ops(ops, starts, seed):
        after = [(p.fixed, p.up, p.generation) for pair in pairs for p in pair]
        del after[2 * which:2 * which + 2], before[2 * which:2 * which + 2]
        assert after == before
