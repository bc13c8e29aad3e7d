"""Frames (the 128-bit image of one plate generation) and message segmentation.

Bit convention: Up carries raw 1 and Down raw 0; the receiving side inverts
every observed raw bit, so decode(encode(f)) == f across an anti-correlated
channel. A frame is a `bytes` of FRAME_BYTES (16): bits packed
most-significant-bit-first, and the hex dump used in traces is 32 lowercase
characters with bit 0 as the most significant bit of the first character.
"""

from __future__ import annotations

from .entanglement import ALL, PLATE_WIDTH, PairPool, Plate
from .errors import LengthOverrun

FRAME_BITS = PLATE_WIDTH
FRAME_BYTES = FRAME_BITS // 8

# header layout: bits 0-63 payload byte count (big-endian), bits 64-127 zero
_LENGTH_BYTES = 8


def encode_frame(pool: PairPool, tx: Plate, frame: bytes) -> None:
    """Trigger the whole fresh Tx plate: bit 1 -> Up, bit 0 -> Down."""
    pool.trigger_plate(tx, int.from_bytes(frame, "big"))


def decode_frame(pool: PairPool, rx: Plate) -> bytes:
    """Observe the whole Rx plate and invert each raw bit."""
    return (pool.observe_plate(rx) ^ ALL).to_bytes(FRAME_BYTES, "big")


def segment_message(payload: bytes) -> list[bytes]:
    """Split a byte message into a header frame plus 16-byte data frames.

    The final data frame is zero-padded; an empty payload is just the header.
    """
    header = len(payload).to_bytes(_LENGTH_BYTES, "big") + bytes(FRAME_BYTES - _LENGTH_BYTES)
    frames = [header]
    for off in range(0, len(payload), FRAME_BYTES):
        chunk = bytes(payload[off : off + FRAME_BYTES])
        frames.append(chunk.ljust(FRAME_BYTES, b"\x00"))
    return frames


class MessageBuffer:
    """Reassembles one segmented message from in-order frames."""

    def __init__(self) -> None:
        self.declared_length: int | None = None
        self._data = bytearray()
        self._complete = False

    def push(self, frame: bytes) -> bytes | None:
        """Feed the next frame; returns the payload once complete, else None."""
        if self._complete:
            raise LengthOverrun("data frame after message completion")
        if self.declared_length is None:
            self.declared_length = int.from_bytes(frame[:_LENGTH_BYTES], "big")
        else:
            self._data += frame
        if len(self._data) >= self.declared_length:
            self._complete = True
            return bytes(self._data[: self.declared_length])
        return None
