import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entnet import (
    FRAME_BYTES,
    MessageBuffer,
    PLATE_WIDTH,
    PairPool,
    Simulation,
    decode_frame,
    encode_frame,
    example_scenario,
    segment_message,
)
from entnet.entanglement import ALL
from entnet.errors import LengthOverrun, PlateAlreadyUsed

frames = st.binary(min_size=FRAME_BYTES, max_size=FRAME_BYTES)
ZEROS = bytes(FRAME_BYTES)
FIRST_BIT = b"\x80" + bytes(FRAME_BYTES - 1)  # bit 0 set, the rest clear


def pushed(frames_in):
    """What MessageBuffer.push returns for each frame in turn."""
    buffer = MessageBuffer()
    return [buffer.push(frame) for frame in frames_in]


def fresh_channel(seed=0):
    pool = PairPool(seed)
    tx, rx = pool.make_plate_pair()
    return pool, tx, rx


def test_frame_requires_exact_width():
    sim = Simulation(example_scenario("same-qbs"))
    sid = sim.request_session(11, 12)
    sim.run_until_idle()
    for size in (FRAME_BYTES - 1, FRAME_BYTES + 1):
        with pytest.raises(ValueError, match=f"exactly {FRAME_BYTES} bytes, got {size}"):
            sim.relay_data(sid, b"\x00" * size)


def test_frame_bit_order_is_msb_first():
    pool, tx, _ = fresh_channel()
    encode_frame(pool, tx, FIRST_BIT)
    assert tx.up == 1 << (PLATE_WIDTH - 1)  # bit 0 is the MSB of the first byte


def test_hex_dump_is_32_lowercase_chars_msb_first():
    dump = FIRST_BIT.hex()
    assert len(dump) == 32
    assert dump == dump.lower()
    assert dump[0] == "8"  # bit 0 is the MSB of the first character
    assert (b"\xAB" + b"\x00" * 15).hex().startswith("ab")


def test_encode_all_zeros_spins():
    pool, tx, rx = fresh_channel()
    encode_frame(pool, tx, ZEROS)
    assert tx.fixed == ALL and tx.up == 0  # every particle fixed Down
    assert pool.observe_plate(rx) == ALL  # every partner observed Up


def test_encode_single_one_bit():
    pool, tx, rx = fresh_channel()
    encode_frame(pool, tx, FIRST_BIT)
    assert tx.fixed == ALL
    # particle 0 (bit 127) Up, every other particle Down
    assert tx.up == 1 << (PLATE_WIDTH - 1)


def test_double_encode_raises():
    pool, tx, rx = fresh_channel()
    encode_frame(pool, tx, ZEROS)
    with pytest.raises(PlateAlreadyUsed):
        encode_frame(pool, tx, ZEROS)


def test_receiver_inverts_raw_bits():
    # sender writes 0 -> receiver observes Up (raw 1) -> decoded back to 0
    pool, tx, rx = fresh_channel()
    encode_frame(pool, tx, ZEROS)
    assert pool.observe_plate(rx) >> (PLATE_WIDTH - 1) == 1  # particle 0 is Up
    assert decode_frame(pool, rx) == ZEROS


def test_decode_encode_identity_all_ones():
    pool, tx, rx = fresh_channel()
    ones = b"\xff" * FRAME_BYTES
    encode_frame(pool, tx, ones)
    assert decode_frame(pool, rx) == ones


@given(frames, st.integers(0, 2**32))
@settings(max_examples=80)
def test_decode_encode_identity(frame, seed):
    pool, tx, rx = fresh_channel(seed)
    encode_frame(pool, tx, frame)
    assert decode_frame(pool, rx) == frame


def test_decode_of_unencoded_plate_is_seed_deterministic():
    pool_a, _, rx_a = fresh_channel(seed=77)
    pool_b, _, rx_b = fresh_channel(seed=77)
    pool_c, _, rx_c = fresh_channel(seed=78)
    assert decode_frame(pool_a, rx_a) == decode_frame(pool_b, rx_b)
    assert decode_frame(pool_a, rx_a) != decode_frame(pool_c, rx_c)


def test_segment_empty_payload_is_header_only():
    frames_out = segment_message(b"")
    assert len(frames_out) == 1
    assert frames_out[0] == ZEROS


def test_segment_sixteen_bytes_needs_no_padding():
    payload = bytes(range(16))
    frames_out = segment_message(payload)
    assert len(frames_out) == 2
    assert frames_out[1] == payload


def test_segment_hello_layout():
    frames_out = segment_message(b"HELLO")
    assert len(frames_out) == 2
    assert frames_out[0] == bytes(7) + b"\x05" + bytes(8)
    assert frames_out[1] == b"\x48\x45\x4c\x4c\x4f" + bytes(11)


@given(st.integers(0, 10_000))
def test_frame_count_formula(n):
    assert len(segment_message(bytes(n))) == 1 + (n + 15) // 16


@given(st.binary(max_size=4096))
@settings(max_examples=60)
def test_segment_reassemble_round_trip(payload):
    frames_out = segment_message(payload)
    assert pushed(frames_out) == [None] * (len(frames_out) - 1) + [payload]


def test_header_only_message_completes_immediately():
    buffer = MessageBuffer()
    assert buffer.push(segment_message(b"")[0]) == b""
    with pytest.raises(LengthOverrun):
        buffer.push(ZEROS)


def test_padding_is_discarded():
    assert pushed(segment_message(b"xyz")) == [None, b"xyz"]


def test_extra_frame_after_completion_overruns():
    buffer = MessageBuffer()
    for frame in segment_message(b"ok"):
        buffer.push(frame)
    with pytest.raises(LengthOverrun):
        buffer.push(ZEROS)


def test_incomplete_sequence_is_pending():
    frames_out = segment_message(b"A" * 40)
    buffer = MessageBuffer()
    assert buffer.push(frames_out[0]) is None
    assert buffer.push(frames_out[1]) is None
    assert buffer.push(frames_out[2]) is None
    assert buffer.push(frames_out[3]) == b"A" * 40


def test_round_trip_over_reset_channel():
    pool, tx, rx = fresh_channel(seed=5)
    rng = random.Random(9)
    for _ in range(50):
        frame = rng.randbytes(FRAME_BYTES)
        encode_frame(pool, tx, frame)
        assert decode_frame(pool, rx) == frame
        pool.reset_plate_pair(tx, rx)
