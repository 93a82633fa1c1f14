import random

import pytest
from hypothesis import given, settings, strategies as st

from semchan import (
    crc16,
    decode_frame,
    encode_frame,
    frame_to_wire,
    parse_proposition,
    receive,
    wire_to_frames,
)
from semchan.wire import SYNC, body_bytes, parse_body

from genprops import corpus


def crc16_oracle(data: bytes) -> int:
    """Independent bitwise CRC-16/IBM-3740 (formerly CCITT-FALSE)."""
    crc = 0xFFFF
    for byte in data:
        crc ^= byte << 8
        for _ in range(8):
            if crc & 0x8000:
                crc = ((crc << 1) ^ 0x1021) & 0xFFFF
            else:
                crc = (crc << 1) & 0xFFFF
    return crc


def test_crc_check_value():
    assert crc16_oracle(b"123456789") == 0x29B1
    assert crc16(b"123456789") == 0x29B1


def test_crc_empty_is_init():
    assert crc16(b"") == 0xFFFF


def test_crc_single_zero_byte_matches_oracle():
    assert crc16(b"\x00") == crc16_oracle(b"\x00")


def test_crc_matches_oracle_random():
    rng = random.Random(7)
    for _ in range(200):
        data = bytes(rng.randrange(256) for _ in range(rng.randrange(64)))
        assert crc16(data) == crc16_oracle(data)


@given(st.binary(max_size=300))
def test_crc_matches_oracle_property(data):
    assert crc16(data) == crc16_oracle(data)


def test_body_golden_on112():
    f = encode_frame(parse_proposition("ON(112)"))
    assert body_bytes(f).hex() == "0100024f4e00000170"


def test_body_golden_nt_all():
    f = encode_frame(parse_proposition("NT(*)"))
    assert body_bytes(f).hex() == "0100024e54020000"


def test_wire_layout_and_crc_field():
    f = encode_frame(parse_proposition("ON(112)"))
    wire = frame_to_wire(f)
    body = body_bytes(f)
    assert wire[:2] == SYNC
    assert wire[2] == 0x01
    assert int.from_bytes(wire[3:5], "big") == len(body)
    assert wire[5:-2] == body
    assert int.from_bytes(wire[-2:], "big") == crc16_oracle(wire[2:-2])


def test_single_frame_roundtrip_no_diagnostics():
    f = encode_frame(parse_proposition("ON(112)"))
    frames, diags = wire_to_frames(frame_to_wire(f))
    assert frames == [f]
    assert diags == []


def test_roundtrip_bulk_including_nested():
    for p in corpus(seed=303, count=500):
        f = encode_frame(p)
        frames, diags = wire_to_frames(frame_to_wire(f))
        assert frames == [f] and not diags


def test_canonical_serialization():
    f = encode_frame(parse_proposition("NT(*)"))
    assert frame_to_wire(f) == frame_to_wire(f)


def test_garbage_prefix_reported():
    f = encode_frame(parse_proposition("ON(112)"))
    stream = b"\x01\x02\x03" + frame_to_wire(f)
    frames, diags = wire_to_frames(stream)
    assert frames == [f]
    assert len(diags) == 1
    assert diags[0].kind == "garbage" and diags[0].offset == 0


def exhaustive_flip_detected(f):
    wire = bytearray(frame_to_wire(f))
    # VER/LEN/BODY region: bytes 2 .. len-2 (exclusive of CRC)
    for byte_idx in range(2, len(wire) - 2):
        for bit in range(8):
            corrupted = bytearray(wire)
            corrupted[byte_idx] ^= 0x80 >> bit
            frames, diags = wire_to_frames(bytes(corrupted))
            assert frames == [], (byte_idx, bit)
            assert diags, (byte_idx, bit)
            yield byte_idx, diags


def test_every_single_bit_flip_detected():
    f = encode_frame(parse_proposition("ON(112)"))
    body_start = 5
    for byte_idx, diags in exhaustive_flip_detected(f):
        if byte_idx >= body_start:
            # per-spec example: BODY flips must specifically fail the CRC
            assert any(d.kind == "crc" for d in diags), byte_idx


def test_every_single_bit_flip_detected_nested():
    inner = encode_frame(parse_proposition("P(5)"))
    from semchan import ObjectRef, PredicateCode, Proposition

    f = encode_frame(
        Proposition(False, PredicateCode("NT"), ObjectRef.nested(inner)))
    for _ in exhaustive_flip_detected(f):
        pass


@pytest.mark.parametrize("k", [1, 2, 5])
def test_resync_recovers_k_frames(k):
    rng = random.Random(404)
    props = corpus(seed=505 + k, count=k, max_depth=2)
    frames_sent = [encode_frame(p) for p in props]
    stream = bytearray()
    for f in frames_sent:
        # inter-frame garbage free of the sync word
        junk = bytes(rng.choice([0x00, 0x11, 0x22, 0x33]) for _ in range(rng.randrange(1, 8)))
        stream += junk + frame_to_wire(f)
    frames, diags = wire_to_frames(bytes(stream))
    assert frames == frames_sent
    assert all(d.kind == "garbage" for d in diags)


def test_parse_body_error_cases():
    from semchan.wire import BodyError

    with pytest.raises(BodyError):
        parse_body(b"\x01")  # too short
    with pytest.raises(BodyError):
        parse_body(b"\x02\x00\x01P\x00\x00\x01\x05")  # bad POL
    with pytest.raises(BodyError):
        parse_body(b"\x01\x00\x01P\x00\x00\x01\x00")  # zero number object
    with pytest.raises(BodyError):
        parse_body(b"\x01\x00\x01P\x00\x00\x02\x00\x05")  # non-minimal number
    with pytest.raises(BodyError):
        parse_body(b"\x01\x00\x01P\x02\x00\x01\xff")  # all-marker with payload
    with pytest.raises(BodyError):
        parse_body(b"\x01\x00\x01P\x07\x00\x00")  # unknown OTAG


def test_truncated_stream_diagnostic():
    f = encode_frame(parse_proposition("ON(112)"))
    wire = frame_to_wire(f)
    frames, diags = wire_to_frames(wire[:6])
    assert frames == []
    assert any(d.kind == "truncated" for d in diags)


def test_hex_dump_annotates_fields():
    from semchan.wire import hex_dump

    f = encode_frame(parse_proposition("ON(112)"))
    dump = hex_dump(f)
    assert "SYNC  a5 5a" in dump
    assert "VER   01" in dump
    assert "BODY  01 00 02 4f 4e 00 00 01 70" in dump
    assert dump.count("\n") == 4


def wrap(body: bytes) -> bytes:
    """A CRC-valid version-1 wire frame around arbitrary BODY bytes."""
    header = b"\x01" + len(body).to_bytes(2, "big")
    return SYNC + header + body + crc16(header + body).to_bytes(2, "big")


ON112_WIRE = frame_to_wire(encode_frame(parse_proposition("ON(112)")))
# ON(112) with name bytes ff fe: framing, CRC and BODY hold, decode fails
BAD_NAME_WIRE = wrap(b"\x01\x00\x02\xff\xfe\x00\x00\x01\x70")


def padded_number(max_bits):
    """Big-endian bytes of a number in 0..2**max_bits, after 0-2 zero bytes."""
    return st.builds(
        lambda pad, n: bytes(pad) + n.to_bytes((n.bit_length() + 7) // 8, "big"),
        st.integers(0, 2), st.integers(0, 2**max_bits))


def tlv_body(children):
    """Well-shaped TLV bodies with random fields, nesting children."""
    names = st.one_of(st.binary(max_size=6),
                      st.text("AZaz09-", max_size=6).map(str.encode))
    predicate = st.one_of(st.tuples(st.just(0x00), names),
                          st.tuples(st.just(0x01), padded_number(40)))
    number = st.tuples(st.just(0x00), padded_number(72))
    return st.builds(
        lambda pol, pred, obj: (bytes([pol, pred[0], len(pred[1])]) + pred[1]
                                + bytes([obj[0]]) + len(obj[1]).to_bytes(2, "big")
                                + obj[1]),
        st.sampled_from([0x00, 0x01]), predicate,
        st.one_of(number, st.just((0x02, b"")), children))


TLV_BODIES = st.recursive(
    tlv_body(st.nothing()),
    lambda inner: tlv_body(inner.map(lambda b: (0x01, b))),
    max_leaves=4)


@given(st.lists(st.one_of(st.binary(max_size=24), st.just(SYNC),
                          st.binary(max_size=24).map(wrap), TLV_BODIES.map(wrap)),
                max_size=6).map(b"".join))
def test_receive_never_raises(stream):
    props, diags = receive(stream)
    assert all(d.offset < len(stream) for d in diags)


@settings(max_examples=300)
@given(st.one_of(st.binary(max_size=40), TLV_BODIES))
def test_received_propositions_reencode_to_scanned_bytes(body):
    wire = wrap(body)
    props, diags = receive(wire)
    if props:
        assert [frame_to_wire(encode_frame(p)) for p in props] == [wire]
        assert diags == []
    for f in wire_to_frames(wire)[0]:
        decode_frame(f)


def test_undecodable_frame_resumes_at_frame_end():
    props, diags = receive(BAD_NAME_WIRE + ON112_WIRE)
    assert props == [parse_proposition("ON(112)")]
    assert [(d.kind, d.offset) for d in diags] == [("undecodable", 0)]


def test_non_minimal_predicate_index_is_body_diagnostic():
    minimal = wrap(b"\x01\x01\x01\x05\x00\x00\x01\x03")
    assert receive(minimal)[0] == [parse_proposition("#5(3)")]
    props, diags = receive(wrap(b"\x01\x01\x02\x00\x05\x00\x00\x01\x03"))
    assert props == []
    assert diags[0].kind == "body" and diags[0].offset == 0
