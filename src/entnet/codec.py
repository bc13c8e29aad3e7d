"""Frames (the 128-bit image of one plate generation) and message segmentation.

Bit convention: Up carries raw 1 and Down raw 0; the receiving side inverts
every observed raw bit, so decode(encode(f)) == f across an anti-correlated
channel. Frames pack bits most-significant-bit-first into 16 bytes, and the
hex dump used in traces is 32 lowercase characters with bit 0 as the most
significant bit of the first character.
"""

from __future__ import annotations

from dataclasses import dataclass

from .entanglement import ALL, PLATE_WIDTH, PairPool, Plate
from .errors import LengthOverrun

FRAME_BITS = PLATE_WIDTH
FRAME_BYTES = FRAME_BITS // 8

# header layout: bits 0-63 payload byte count (big-endian), bits 64-127 zero
_LENGTH_BYTES = 8


@dataclass(frozen=True, slots=True)
class Frame:
    data: bytes

    def __post_init__(self) -> None:
        if not isinstance(self.data, bytes):
            object.__setattr__(self, "data", bytes(self.data))
        if len(self.data) != FRAME_BYTES:
            raise ValueError(f"a frame is exactly {FRAME_BYTES} bytes, got {len(self.data)}")

    def hex(self) -> str:
        return self.data.hex()


_set_data = Frame.data.__set__  # the slot's own setter, under the frozen __setattr__


def _built(data: bytes) -> Frame:
    """A Frame from exactly FRAME_BYTES bytes, built without re-checking them."""
    frame = object.__new__(Frame)
    _set_data(frame, data)
    return frame


def encode_frame(pool: PairPool, tx: Plate, frame: Frame) -> None:
    """Trigger the whole fresh Tx plate: bit 1 -> Up, bit 0 -> Down."""
    pool.trigger_plate(tx, int.from_bytes(frame.data, "big"))


def decode_frame(pool: PairPool, rx: Plate) -> Frame:
    """Observe the whole Rx plate and invert each raw bit."""
    frame = object.__new__(Frame)  # as _built, without the call: one per hop
    _set_data(frame, (pool.observe_plate(rx) ^ ALL).to_bytes(FRAME_BYTES, "big"))
    return frame


def segment_message(payload: bytes) -> list[Frame]:
    """Split a byte message into a header frame plus 16-byte data frames.

    The final data frame is zero-padded; an empty payload is just the header.
    """
    header = len(payload).to_bytes(_LENGTH_BYTES, "big") + bytes(FRAME_BYTES - _LENGTH_BYTES)
    frames = [_built(header)]
    for off in range(0, len(payload), FRAME_BYTES):
        chunk = bytes(payload[off : off + FRAME_BYTES])
        frames.append(_built(chunk.ljust(FRAME_BYTES, b"\x00")))
    return frames


class MessageBuffer:
    """Reassembles one segmented message from in-order frames."""

    def __init__(self) -> None:
        self.declared_length: int | None = None
        self._data = bytearray()
        self._complete = False

    def push(self, frame: Frame) -> bytes | None:
        """Feed the next frame; returns the payload once complete, else None."""
        if self._complete:
            raise LengthOverrun("data frame after message completion")
        if self.declared_length is None:
            self.declared_length = int.from_bytes(frame.data[:_LENGTH_BYTES], "big")
        else:
            self._data += frame.data
        if len(self._data) >= self.declared_length:
            self._complete = True
            return bytes(self._data[: self.declared_length])
        return None
