"""Anti-correlated spin pairs and the 128-particle plate channel primitive.

A pair starts Unobserved; the first trigger or observation fixes both ends
at the same instant, with opposite spins, and a fixed spin never changes.
Triggering requires an ionized particle (fixed measurement axis). Each pool
owns its own deterministic random stream, so observation draws never depend
on what any other pool did in the meantime.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from enum import IntEnum
from typing import Iterator, Sequence

from .errors import AlreadyFixed, MismatchedPlates, TriggerOnNonIonized, UnknownParticle

PLATE_WIDTH = 128

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


@dataclass
class Plate:
    """Ordered array of exactly PLATE_WIDTH particle ids; one side of a channel."""

    role: str
    particle_ids: list[int]
    generation: int = 0


def derive_seed(root: int, label: str) -> int:
    """Stable 64-bit child seed; sha256 keeps it independent of PYTHONHASHSEED."""
    digest = hashlib.sha256(f"{root}/{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


class PairPool:
    """Store of live entangled pairs with a pool-local random stream.

    Particle ids 2i and 2i+1 are the two halves of pair i; ids are never
    reused within a pool. Pairs consumed by a plate reset are dropped, so a
    long run does not accumulate dead particles.
    """

    def __init__(self, seed: int = 0) -> None:
        # pair record: [spin_a, spin_b, ionized_a, ionized_b]
        self._pairs: dict[int, list] = {}
        self._next_pair = 0
        self.rng = random.Random(seed)

    def __len__(self) -> int:
        return len(self._pairs)

    def _pair(self, particle_id: int) -> list:
        rec = self._pairs.get(particle_id >> 1)
        if rec is None:
            raise UnknownParticle(f"no live particle {particle_id}")
        return rec

    # pair-level operations -------------------------------------------------

    def create_pair(self, ionize_first: bool) -> tuple[int, int]:
        """Create a fresh pair; the first particle is ionized iff ionize_first."""
        index = self._next_pair
        self._next_pair += 1
        self._pairs[index] = [_UNOBSERVED, _UNOBSERVED, bool(ionize_first), False]
        return 2 * index, 2 * index + 1

    def is_live(self, particle_id: int) -> bool:
        return (particle_id >> 1) in self._pairs

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
        """Create an ionized Tx plate and the index-aligned non-ionized Rx plate."""
        tx_ids: list[int] = []
        rx_ids: list[int] = []
        for _ in range(PLATE_WIDTH):
            a, b = self.create_pair(ionize_first=True)
            tx_ids.append(a)
            rx_ids.append(b)
        return Plate(TX, tx_ids), Plate(RX, rx_ids)

    def reset_plate_pair(self, tx: Plate, rx: Plate) -> None:
        """Re-provision every consumed pair of a matched plate pair.

        Pairs that are still fully unobserved are kept as they are; used ones
        are destroyed and replaced with fresh pairs. Both generation counters
        advance by one either way.
        """
        if tx.role != TX or rx.role != RX:
            raise MismatchedPlates(f"expected roles ({TX}, {RX}), got ({tx.role}, {rx.role})")
        if len(tx.particle_ids) != PLATE_WIDTH or len(rx.particle_ids) != PLATE_WIDTH:
            raise MismatchedPlates("plates must hold exactly PLATE_WIDTH particles")
        pairs = self._pairs
        for i, pid in enumerate(tx.particle_ids):
            if rx.particle_ids[i] != pid ^ 1 or (pid >> 1) not in pairs:
                raise MismatchedPlates(f"plates disagree at index {i}")
        for i, pid in enumerate(tx.particle_ids):
            rec = pairs[pid >> 1]
            if rec[0] == _UNOBSERVED and rec[1] == _UNOBSERVED:
                continue
            del pairs[pid >> 1]
            a, b = self.create_pair(ionize_first=True)
            tx.particle_ids[i] = a
            rx.particle_ids[i] = b
        tx.generation += 1
        rx.generation += 1

    # batch helpers used by the frame codec ---------------------------------

    def plate_fresh(self, plate: Plate) -> bool:
        """True when every particle on the plate is still unobserved."""
        pairs = self._pairs
        for pid in plate.particle_ids:
            rec = pairs.get(pid >> 1)
            if rec is None:
                raise UnknownParticle(f"no live particle {pid}")
            if rec[pid & 1] != _UNOBSERVED:
                return False
        return True

    def trigger_plate(self, plate: Plate, directions: Sequence[int]) -> None:
        """trigger_spin applied across a whole plate in one pass."""
        pairs = self._pairs
        for pid, d in zip(plate.particle_ids, directions):
            rec = pairs.get(pid >> 1)
            if rec is None:
                raise UnknownParticle(f"no live particle {pid}")
            side = pid & 1
            if not rec[2 + side]:
                raise TriggerOnNonIonized(f"particle {pid} is not ionized")
            if rec[side] != _UNOBSERVED:
                raise AlreadyFixed(f"particle {pid} spin already fixed")
            rec[side] = d
            rec[1 - side] = _OPPOSITE[d]

    def observe_plate(self, plate: Plate) -> list[int]:
        """observe applied across a whole plate; returns raw spin values."""
        pairs = self._pairs
        rng = self.rng
        out = []
        for pid in plate.particle_ids:
            rec = pairs.get(pid >> 1)
            if rec is None:
                raise UnknownParticle(f"no live particle {pid}")
            side = pid & 1
            v = rec[side]
            if v == _UNOBSERVED:
                v = _UP if rng.getrandbits(1) else _DOWN
                rec[side] = v
                rec[1 - side] = _OPPOSITE[v]
            out.append(v)
        return out

    def pairs_snapshot(self) -> Iterator[tuple[int, Spin, Spin]]:
        """(pair_index, spin_first, spin_second) for every live pair."""
        for index, rec in self._pairs.items():
            yield index, Spin(rec[0]), Spin(rec[1])
