"""Anti-correlated spin pairs and the 128-particle plate channel primitive.

A pair starts Unobserved; the first trigger or observation fixes both ends
at the same instant, with opposite spins, and a fixed spin never changes.
Triggering requires an ionized particle (fixed measurement axis). Each pool
owns its own deterministic random stream, so observation draws never depend
on what any other pool did in the meantime. Its first draw builds the
stream from the seed; a `str` seed is hashed by sha512, not PYTHONHASHSEED.

A plate is one generation of PLATE_WIDTH pairs held as two ints: `fixed`
marks the fixed particles and `up` those fixed Up, bit 127 - i standing for
particle i (the MSB-first frame order). The Tx plate holds the ionized
halves and its partner Rx plate the others, so both always share one
`fixed` mask and `tx.up ^ rx.up == fixed`. Observing a plate that still has
unfixed particles (a blind decode) fixes them all with one 128-bit draw.
Single pairs from `PairPool.create_pair` live on the same kind of plates:
pair i is particle i % 128 of the pool's plate pair i // 128.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from enum import IntEnum
from functools import cached_property

from .errors import (AlreadyFixed, MismatchedPlates, PlateAlreadyUsed, TriggerOnNonIonized,
                     UnknownParticle)

PLATE_WIDTH = 128
ALL = (1 << PLATE_WIDTH) - 1  # every particle of a plate

TX = "tx"
RX = "rx"


class Spin(IntEnum):
    UNOBSERVED = 0
    UP = 1
    DOWN = 2

    def opposite(self) -> "Spin":
        if self is Spin.UNOBSERVED:
            raise ValueError("an unobserved spin has no opposite")
        return Spin.DOWN if self is Spin.UP else Spin.UP


@dataclass(frozen=True)
class Particle:
    """Read-only view of one half of a live pair."""

    particle_id: int
    ionized: bool
    spin: Spin
    partner_id: int


@dataclass(eq=False, slots=True)
class Plate:
    """One side of a channel: PLATE_WIDTH particles as `fixed`/`up` bit-fields."""

    role: str
    fixed: int = 0
    up: int = 0
    generation: int = 0
    partner: Plate | None = field(default=None, repr=False)


def _fix(plate: Plate, mask: int, up: int) -> None:
    """Fix the particles in `mask`: `up` of them Up here, the rest Up on the partner."""
    partner = plate.partner
    plate.fixed |= mask
    partner.fixed |= mask
    plate.up |= up
    partner.up |= up ^ mask


class PairPool:
    """Store of live entangled pairs with a pool-local random stream.

    Every pair lives on a plate pair. `create_pair` hands out pair i as
    particle i % PLATE_WIDTH of `pair_plates[i // PLATE_WIDTH]`, making a
    plate pair whenever the last one is used up: particle id 2i is its
    ionized Tx half and 2i + 1 its Rx half. Ids are never reused within a
    pool. `plate_draws` counts the blind decodes that drew from the stream.
    """

    def __init__(self, seed: int | str = 0) -> None:
        self.pair_plates: list[tuple[Plate, Plate]] = []
        self._next_pair = 0
        self._plate_pairs = 0
        self.plate_draws = 0
        self._seed = seed

    def __len__(self) -> int:
        """Live pairs: PLATE_WIDTH per plate pair, handed out or not."""
        return PLATE_WIDTH * self._plate_pairs

    def _locate(self, particle_id: int) -> tuple[Plate, int]:
        """The plate holding a particle handed out by create_pair, and its bit."""
        if not 0 <= particle_id < 2 * self._next_pair:
            raise UnknownParticle(f"no live particle {particle_id}")
        plate_index, i = divmod(particle_id >> 1, PLATE_WIDTH)
        return self.pair_plates[plate_index][particle_id & 1], 1 << (PLATE_WIDTH - 1 - i)

    @cached_property
    def rng(self) -> random.Random:
        """The pool's stream, built on its first draw."""
        return random.Random(self._seed)

    # pair-level operations -------------------------------------------------

    def create_pair(self) -> tuple[int, int]:
        """Hand out a fresh pair as (ionized Tx particle, Rx particle)."""
        index = self._next_pair
        if index % PLATE_WIDTH == 0:
            self.pair_plates.append(self.make_plate_pair())
        self._next_pair += 1
        return 2 * index, 2 * index + 1

    def partner(self, particle_id: int) -> int:
        self._locate(particle_id)
        return particle_id ^ 1

    def particle(self, particle_id: int) -> Particle:
        plate, bit = self._locate(particle_id)
        spin = (Spin.UNOBSERVED if not plate.fixed & bit
                else Spin.UP if plate.up & bit else Spin.DOWN)
        return Particle(particle_id, plate.role == TX, spin, particle_id ^ 1)

    def trigger_spin(self, particle_id: int, direction: Spin) -> None:
        """Fix this particle to `direction` and its partner to the opposite.

        Both ends change in the same call: the remote side is readable the
        very tick the trigger lands, whatever the distance.
        """
        if direction not in (Spin.UP, Spin.DOWN):
            raise ValueError(f"trigger direction must be Up or Down, got {direction!r}")
        plate, bit = self._locate(particle_id)
        if plate.role != TX:
            raise TriggerOnNonIonized(f"particle {particle_id} is not ionized")
        if plate.fixed & bit:
            raise AlreadyFixed(f"particle {particle_id} spin already fixed")
        _fix(plate, bit, bit if direction == Spin.UP else 0)

    def observe(self, particle_id: int) -> Spin:
        """Return the spin, fixing a fresh pair with a uniform draw first."""
        plate, bit = self._locate(particle_id)
        if not plate.fixed & bit:
            _fix(plate, bit, bit if self.rng.getrandbits(1) else 0)
        return Spin.UP if plate.up & bit else Spin.DOWN

    # plate-level operations ------------------------------------------------

    def make_plate_pair(self) -> tuple[Plate, Plate]:
        """Create an ionized Tx plate and its partner Rx plate, all unobserved."""
        tx, rx = Plate(TX), Plate(RX)
        tx.partner, rx.partner = rx, tx
        self._plate_pairs += 1
        return tx, rx

    def reset_plate_pair(self, tx: Plate, rx: Plate) -> None:
        """Re-provision a matched plate pair: all pairs fresh, next generation."""
        if tx.role != TX or rx.role != RX:
            raise MismatchedPlates(f"expected roles ({TX}, {RX}), got ({tx.role}, {rx.role})")
        if tx.partner is not rx:
            raise MismatchedPlates("plates are not partners")
        tx.fixed = tx.up = rx.fixed = rx.up = 0
        tx.generation += 1
        rx.generation += 1

    # batch helpers used by the frame codec ---------------------------------

    def plate_fresh(self, plate: Plate) -> bool:
        """True when every particle on the plate is still unobserved."""
        return not plate.fixed

    def trigger_plate(self, tx: Plate, bits: int) -> None:
        """Fix a whole fresh Tx plate, set bits Up; the Rx plate gets the opposite."""
        if tx.role != TX:
            raise TriggerOnNonIonized(f"{tx.role} plate is not ionized")
        if tx.fixed:
            raise PlateAlreadyUsed(f"tx plate generation {tx.generation} already carries data")
        if not 0 <= bits <= ALL:
            raise ValueError(f"a plate carries exactly {PLATE_WIDTH} bits")
        rx = tx.partner
        tx.fixed = rx.fixed = ALL
        tx.up = bits
        rx.up = bits ^ ALL

    def observe_plate(self, plate: Plate) -> int:
        """Fix any unfixed particles with one uniform draw; returns the up-bits."""
        free = plate.fixed ^ ALL
        if free:
            self.plate_draws += 1
            _fix(plate, free, self.rng.getrandbits(PLATE_WIDTH) & free)
        return plate.up

