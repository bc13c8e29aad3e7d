"""Anti-correlated spin pairs and the 128-particle plate channel primitive.

A pair starts Unobserved; the first trigger or observation fixes both ends
at the same instant, with opposite spins, and a fixed spin never changes.
Triggering requires an ionized particle (fixed measurement axis). Each pool
owns its own deterministic random stream, so observation draws never depend
on what any other pool did in the meantime.

A plate is one generation of PLATE_WIDTH pairs held as two ints: `fixed`
marks the fixed particles and `up` those fixed Up, bit 127 - i standing for
particle i (the MSB-first frame order). The Tx plate holds the ionized
halves and its partner Rx plate the others, so both always share one
`fixed` mask and `tx.up ^ rx.up == fixed`. Observing a plate that still has
unfixed particles (a blind decode) fixes them all with one 128-bit draw.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from enum import IntEnum
from functools import cached_property
from typing import Iterator

from .errors import AlreadyFixed, MismatchedPlates, TriggerOnNonIonized, UnknownParticle

PLATE_WIDTH = 128
ALL = (1 << PLATE_WIDTH) - 1  # every particle of a plate

TX = "tx"
RX = "rx"

_UNOBSERVED, _UP, _DOWN = 0, 1, 2
_OPPOSITE = {_UP: _DOWN, _DOWN: _UP}


class Spin(IntEnum):
    UNOBSERVED = _UNOBSERVED
    UP = _UP
    DOWN = _DOWN

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


def derive_seed(root: int, label: str) -> int:
    """Stable 64-bit child seed; sha256 keeps it independent of PYTHONHASHSEED."""
    digest = hashlib.sha256(f"{root}/{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


class PairPool:
    """Store of live entangled pairs with a pool-local random stream.

    Particle ids 2i and 2i+1 are the two halves of pair i; ids are never
    reused within a pool. Plate pairs keep their state in their own `Plate`
    bit-fields; `plate_draws` counts the blind decodes that drew from the
    stream.
    """

    def __init__(self, seed: int = 0) -> None:
        # pair record: [spin_a, spin_b, ionized_a, ionized_b]
        self._pairs: dict[int, list] = {}
        self._next_pair = 0
        self._plate_pairs = 0
        self.plate_draws = 0
        self._seed = seed

    def __len__(self) -> int:
        """Live pairs: per-pair records plus PLATE_WIDTH per plate pair."""
        return len(self._pairs) + PLATE_WIDTH * self._plate_pairs

    def _pair(self, particle_id: int) -> list:
        rec = self._pairs.get(particle_id >> 1)
        if rec is None:
            raise UnknownParticle(f"no live particle {particle_id}")
        return rec

    @cached_property
    def rng(self) -> random.Random:
        """The pool's stream, built on its first draw."""
        return random.Random(self._seed)

    # pair-level operations -------------------------------------------------

    def create_pair(self, ionize_first: bool) -> tuple[int, int]:
        """Create a fresh pair; the first particle is ionized iff ionize_first."""
        index = self._next_pair
        self._next_pair += 1
        self._pairs[index] = [_UNOBSERVED, _UNOBSERVED, bool(ionize_first), False]
        return 2 * index, 2 * index + 1

    def partner(self, particle_id: int) -> int:
        self._pair(particle_id)
        return particle_id ^ 1

    def particle(self, particle_id: int) -> Particle:
        rec = self._pair(particle_id)
        side = particle_id & 1
        return Particle(particle_id, rec[2 + side], Spin(rec[side]), particle_id ^ 1)

    def trigger_spin(self, particle_id: int, direction: Spin) -> None:
        """Fix this particle to `direction` and its partner to the opposite.

        Both ends change in the same call: the remote side is readable the
        very tick the trigger lands, whatever the distance.
        """
        d = int(direction)
        if d not in _OPPOSITE:
            raise ValueError(f"trigger direction must be Up or Down, got {direction!r}")
        rec = self._pair(particle_id)
        side = particle_id & 1
        if not rec[2 + side]:
            raise TriggerOnNonIonized(f"particle {particle_id} is not ionized")
        if rec[side] != _UNOBSERVED:
            raise AlreadyFixed(f"particle {particle_id} spin already fixed")
        rec[side] = d
        rec[1 - side] = _OPPOSITE[d]

    def observe(self, particle_id: int) -> Spin:
        """Return the spin, fixing a fresh pair with a uniform draw first."""
        rec = self._pair(particle_id)
        side = particle_id & 1
        if rec[side] == _UNOBSERVED:
            d = _UP if self.rng.getrandbits(1) else _DOWN
            rec[side] = d
            rec[1 - side] = _OPPOSITE[d]
        return Spin(rec[side])

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
            raise AlreadyFixed(f"plate generation {tx.generation} already fixed")
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
            drawn = self.rng.getrandbits(PLATE_WIDTH) & free
            partner = plate.partner
            plate.up |= drawn
            partner.up |= drawn ^ free
            plate.fixed = partner.fixed = ALL
        return plate.up

    def pairs_snapshot(self) -> Iterator[tuple[int, Spin, Spin]]:
        """(pair_index, spin_first, spin_second) for every pair from create_pair."""
        for index, rec in self._pairs.items():
            yield index, Spin(rec[0]), Spin(rec[1])
