import random
from functools import reduce

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from semchan import (
    ObjectRef,
    PredicateCode,
    Proposition,
    crc16,
    decode_frame,
    encode_frame,
    frame_to_wire,
    parse_proposition,
    payload_bits,
    receive,
    render_proposition,
    wire_to_frames,
)
from semchan.wire import (
    OTAG_ALL,
    OTAG_NESTED,
    OTAG_NUMBER,
    PTAG_INDEX,
    PTAG_NAME,
    SYNC,
    VERSION,
    BodyError,
    Diagnostic,
    Frame,
    FrameDecodeError,
    body_bytes,
    encode,
    parse_body,
    proposition_body,
    receive_one,
)

from genprops import corpus, gen_proposition


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


FIG4_BITS = "1" + "0100111101001110" + "1110000"


def test_fig4_golden_vector():
    f = encode_frame(parse_proposition("ON(112)"))
    assert payload_bits(f) == FIG4_BITS
    assert len(payload_bits(f)) == 24
    assert f.triple() == (1, "4F4E", 112)


def test_fig4_negated():
    f = encode_frame(parse_proposition("~ON(112)"))
    assert payload_bits(f) == "0" + FIG4_BITS[1:]


def test_all_objects_payload_single_zero_bit():
    f = encode_frame(parse_proposition("NT(*)"))
    assert payload_bits(f) == "1" + "0100111001010100" + "0"


def test_nested_payload_recursive():
    inner = encode_frame(parse_proposition("ON(112)"))
    outer = encode_frame(
        Proposition(True, PredicateCode("NT"), ObjectRef.nested(inner)))
    assert payload_bits(outer) == "1" + "0100111001010100" + FIG4_BITS


def test_encode_decode_roundtrip_bulk():
    for p in corpus(seed=101, count=10_000):
        assert decode_frame(encode_frame(p)) == p


def test_injectivity_on_wire_bytes():
    props = list({p for p in corpus(seed=202, count=2_000)})[:1_000]
    wires = {frame_to_wire(encode_frame(p)) for p in props}
    assert len(wires) == len(props)


@pytest.mark.parametrize("m,bits", [(1, 1), (2, 2), (112, 7), (255, 8),
                                    (256, 9), (2**64 - 1, 64)])
def test_number_payload_length_is_floor_log2_plus_1(m, bits):
    f = encode_frame(Proposition(True, PredicateCode("P"), ObjectRef.num(m)))
    pred_bits = 8 * len(f.predicate_bytes)
    assert len(payload_bits(f)) == 1 + pred_bits + bits


def test_index_predicate_branch():
    p = Proposition(True, PredicateCode(5), ObjectRef.num(3))
    f = encode_frame(p)
    assert f.predicate_tag == "index"
    assert f.predicate_bytes == b"\x05"
    assert decode_frame(f) == p


def test_nested_triple_rendering():
    inner = encode_frame(parse_proposition("ON(112)"))
    outer = encode_frame(
        Proposition(True, PredicateCode("NT"), ObjectRef.nested(inner)))
    assert outer.triple() == (1, "4E54", (1, "4F4E", 112))


def test_decode_rejects_zero_number():
    f = Frame(True, "name", b"P", "number", 0)
    with pytest.raises(FrameDecodeError):
        decode_frame(f)


def test_decode_rejects_number_above_2_64():
    f = Frame(True, "name", b"P", "number", 2**64)
    with pytest.raises(FrameDecodeError):
        decode_frame(f)


def test_decode_rejects_bad_name_bytes():
    f = Frame(True, "name", b"\xff\xfe", "number", 3)
    with pytest.raises(FrameDecodeError):
        decode_frame(f)


def test_decode_rejects_index_over_255_bytes():
    # a Frame may hold any bytes, but no predicate index needs 256 of them
    f = Frame(True, "index", (2**2040).to_bytes(256, "big"), "number", 3)
    with pytest.raises(FrameDecodeError,
                       match=r"^bad predicate index: predicate index must be < 2\^2040$"):
        decode_frame(f)


def test_all_marker_decodes_to_all():
    f = encode_frame(parse_proposition("NT(*)"))
    p = decode_frame(f)
    assert p.object.kind == "all"


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


def wrap(body: bytes, version: int = VERSION) -> bytes:
    """A CRC-valid wire frame around arbitrary BODY bytes (version 1 unless
    another is given)."""
    header = bytes([version]) + len(body).to_bytes(2, "big")
    return SYNC + header + body + crc16(header + body).to_bytes(2, "big")


ON112_WIRE = frame_to_wire(encode_frame(parse_proposition("ON(112)")))
# LEN is one short of ON(112)'s 9-byte BODY, which the CRC covers whole
_LEN_SHORT = b"\x01\x00\x08" + ON112_WIRE[5:-2]
LEN_SHORT_WIRE = SYNC + _LEN_SHORT + crc16(_LEN_SHORT).to_bytes(2, "big")
# ON(112) with name bytes ff fe: framing, CRC and BODY hold, decode fails
BAD_NAME_WIRE = wrap(b"\x01\x00\x02\xff\xfe\x00\x00\x01\x70")


def long_number_body(size: int) -> bytes:
    """P(n) for an n of size bytes: the grammar holds; past 8 bytes the
    range does not, and from 1,787 bytes n has over 4,300 decimal digits."""
    return b"\x01\x00\x01P\x00" + size.to_bytes(2, "big") + b"\xff" * size


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


STREAMS = st.lists(st.one_of(st.binary(max_size=24), st.just(SYNC),
                            st.binary(max_size=24).map(wrap), TLV_BODIES.map(wrap),
                            # a version other than 1, and a LEN one byte past the BODY
                            TLV_BODIES.map(lambda body: wrap(body, version=2)),
                            TLV_BODIES.map(lambda body: wrap(body + b"\x00"))),
                  max_size=6).map(b"".join)


@example(wrap(long_number_body(1787)))
@given(STREAMS)
def test_receive_never_raises(stream):
    props, diags = receive(stream)
    assert all(d.offset < len(stream) for d in diags)


def nest(pol, pbytes, body):
    """A BODY whose name-predicate object is the given nested BODY."""
    return (bytes([pol, PTAG_NAME, len(pbytes)]) + pbytes + bytes([OTAG_NESTED])
            + len(body).to_bytes(2, "big") + body)


# CRC-valid frames whose grammar holds at every level but which nest, one
# to three levels down, a BODY with non-ASCII name bytes
UNDECODABLE_NESTED = st.builds(
    lambda pols, bad: wrap(reduce(lambda body, pol: nest(pol, b"NT", body), pols, bad)),
    st.lists(st.sampled_from([0x00, 0x01]), min_size=1, max_size=3),
    st.builds(lambda pol, name, obj: bytes([pol, PTAG_NAME, len(name)]) + name + obj,
              st.sampled_from([0x00, 0x01]),
              st.binary(max_size=4).map(lambda b: b + b"\xfe"),
              st.sampled_from([b"\x00\x00\x01\x70", b"\x02\x00\x00"])))


@settings(max_examples=300)
@given(st.lists(st.one_of(STREAMS, UNDECODABLE_NESTED), max_size=4).map(b"".join))
def test_received_propositions_parse_back_from_their_text(stream):
    for p in receive(stream)[0]:
        assert parse_proposition(render_proposition(p)) == p


@settings(max_examples=300)
@example(long_number_body(1787))
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


@pytest.mark.parametrize("size", [1787, 65_000])
def test_long_number_is_undecodable_and_named_by_its_size(size):
    wire = wrap(long_number_body(size))
    assert receive(wire) == ([], [Diagnostic(
        "undecodable", 0, f"number object out of range 1..2^64-1: {size} bytes")])
    assert receive_one(wire) is None


def test_nested_tag_with_no_frame_is_refused():
    f = Frame(True, "name", b"P", "nested")
    for fn in (decode_frame, body_bytes, frame_to_wire):
        assert outcome(fn, f) == (FrameDecodeError, "nested object tag with no frame")


def test_non_minimal_predicate_index_is_body_diagnostic():
    minimal = wrap(b"\x01\x01\x01\x05\x00\x00\x01\x03")
    assert receive(minimal)[0] == [parse_proposition("#5(3)")]
    props, diags = receive(wrap(b"\x01\x01\x02\x00\x05\x00\x00\x01\x03"))
    assert props == []
    assert diags[0].kind == "body" and diags[0].offset == 0


# Reference codec: body_bytes, frame_to_wire, parse_body and receive as
# they were before their inner loops were tightened.  The properties below
# require the codec to match them byte for byte, diagnostic for diagnostic
# and message for message.  The two writers match it on every frame that
# encode_frame writes, and refuse the rest as decode_frame does.

class WireSizeError(ValueError):
    """The reference writer's refusal of a frame past a wire size limit."""


MAX_BODY_LEN = 65535


def reference_min_be_bytes(n: int) -> bytes:
    return n.to_bytes(max(1, (n.bit_length() + 7) // 8), "big")


def reference_body_bytes(f: Frame, depth: int = 0) -> bytes:
    if depth > 8:
        raise WireSizeError("nesting depth exceeded")
    out = bytearray()
    out.append(0x01 if f.polarity else 0x00)
    out.append(PTAG_NAME if f.predicate_tag == "name" else PTAG_INDEX)
    if len(f.predicate_bytes) > 255:
        raise WireSizeError("predicate field too long")
    out.append(len(f.predicate_bytes))
    out += f.predicate_bytes
    if f.object_tag == "number":
        obytes = reference_min_be_bytes(f.object_number)
        out.append(OTAG_NUMBER)
        out += len(obytes).to_bytes(2, "big")
        out += obytes
    elif f.object_tag == "all":
        out.append(OTAG_ALL)
        out += (0).to_bytes(2, "big")
    else:
        nested = reference_body_bytes(f.object_frame, depth + 1)
        out.append(OTAG_NESTED)
        out += len(nested).to_bytes(2, "big")
        out += nested
    if len(out) > MAX_BODY_LEN:
        raise WireSizeError("BODY exceeds 65535 bytes")
    return bytes(out)


def reference_frame_to_wire(f: Frame) -> bytes:
    body = reference_body_bytes(f)
    header = bytes([VERSION]) + len(body).to_bytes(2, "big")
    crc = crc16(header + body)
    return SYNC + header + body + crc.to_bytes(2, "big")


def reference_parse_body(data: bytes, offset: int = 0, depth: int = 0):
    if depth > 8:
        raise BodyError("nesting depth exceeded")
    pos = offset
    if len(data) - pos < 3:
        raise BodyError("BODY shorter than fixed header")
    pol = data[pos]
    if pol not in (0x00, 0x01):
        raise BodyError(f"bad POL byte 0x{pol:02x}")
    ptag = data[pos + 1]
    if ptag not in (PTAG_NAME, PTAG_INDEX):
        raise BodyError(f"bad PTAG byte 0x{ptag:02x}")
    plen = data[pos + 2]
    pos += 3
    if len(data) - pos < plen:
        raise BodyError("truncated predicate field")
    pbytes = data[pos:pos + plen]
    pos += plen
    if ptag == PTAG_INDEX and (plen == 0 or pbytes[0] == 0):
        raise BodyError("empty or non-minimal predicate index")
    if len(data) - pos < 3:
        raise BodyError("truncated object header")
    otag = data[pos]
    olen = int.from_bytes(data[pos + 1:pos + 3], "big")
    pos += 3
    if len(data) - pos < olen:
        raise BodyError("truncated object field")
    obytes = data[pos:pos + olen]
    pos += olen
    ptag_name = "name" if ptag == PTAG_NAME else "index"
    if otag == OTAG_NUMBER:
        if olen == 0:
            raise BodyError("empty number object")
        if obytes[0] == 0:
            raise BodyError("non-minimal number encoding")
        n = int.from_bytes(obytes, "big")
        if n == 0:
            raise BodyError("zero number object")
        frame = Frame(bool(pol), ptag_name, bytes(pbytes), "number", n)
    elif otag == OTAG_ALL:
        if olen != 0:
            raise BodyError("all-objects marker with nonzero OLEN")
        frame = Frame(bool(pol), ptag_name, bytes(pbytes), "all")
    elif otag == OTAG_NESTED:
        nested, used = reference_parse_body(obytes, 0, depth + 1)
        if used != olen:
            raise BodyError("trailing bytes after nested body")
        frame = Frame(bool(pol), ptag_name, bytes(pbytes), "nested",
                      object_frame=nested)
    else:
        raise BodyError(f"bad OTAG byte 0x{otag:02x}")
    return frame, pos - offset


def reference_receive(stream: bytes):
    props = []
    diags = []
    pos = 0
    garbage_start = None

    def flush_garbage(upto: int):
        nonlocal garbage_start
        if garbage_start is not None:
            diags.append(Diagnostic(
                "garbage", garbage_start,
                f"{upto - garbage_start} unframed bytes"))
            garbage_start = None

    n = len(stream)
    while pos < n:
        idx = stream.find(SYNC, pos)
        if idx == -1:
            if garbage_start is None:
                garbage_start = pos
            flush_garbage(n)
            break
        if idx > pos and garbage_start is None:
            garbage_start = pos
        flush_garbage(idx)
        if n - idx < 7:
            diags.append(Diagnostic("truncated", idx,
                                    "incomplete frame header at end of stream"))
            break
        ver = stream[idx + 2]
        length = int.from_bytes(stream[idx + 3:idx + 5], "big")
        end = idx + 5 + length + 2
        if end > n:
            diags.append(Diagnostic("truncated", idx,
                                    "frame extends past end of stream"))
            pos = idx + 1
            continue
        body = stream[idx + 5:idx + 5 + length]
        crc_got = int.from_bytes(stream[end - 2:end], "big")
        crc_want = crc16(stream[idx + 2:idx + 5] + body)
        if crc_got != crc_want:
            diags.append(Diagnostic(
                "crc", idx,
                f"CRC mismatch: got 0x{crc_got:04X}, want 0x{crc_want:04X}"))
            pos = idx + 1
            continue
        if ver != VERSION:
            diags.append(Diagnostic("version", idx, f"bad version 0x{ver:02x}"))
            pos = idx + 1
            continue
        try:
            frame, used = reference_parse_body(body)
            if used != length:
                raise BodyError("trailing bytes in BODY")
            props.append(decode_frame(frame))
        except BodyError as e:
            diags.append(Diagnostic("body", idx, str(e)))
            pos = idx + 1
            continue
        except FrameDecodeError as e:
            diags.append(Diagnostic("undecodable", idx, str(e)))
        pos = end
    return props, diags


def outcome(fn, *args):
    """fn's result, or the type and message of what it raised."""
    try:
        return fn(*args)
    except Exception as e:
        return type(e), str(e)


def frame_chain(layers, leaf):
    """The frame nesting one layer in the next, innermost first."""
    (pol, tag, pbytes), *outer = layers
    f = Frame(pol, tag, pbytes, *leaf)
    for pol, tag, pbytes in outer:
        f = Frame(pol, tag, pbytes, "nested", object_frame=f)
    return f


def layers(field):
    """1-11 (polarity, tag, field) layers, every depth about equally likely."""
    return st.integers(1, 11).flatmap(lambda n: st.lists(field, min_size=n, max_size=n))


# about one predicate field in ten is longer than 255 bytes
PREDICATE_FIELDS = st.integers(0, 9).flatmap(lambda k: st.one_of(
    st.text(max_size=8).map(str.encode),  # non-ASCII names included
    st.binary(max_size=8)) if k else st.binary(min_size=250, max_size=300))
FRAMES = st.builds(
    frame_chain,
    layers(st.tuples(st.booleans(), st.sampled_from(["name", "index"]),
                     PREDICATE_FIELDS)),
    st.one_of(st.tuples(st.just("number"), st.integers(0, 2**72)),
              st.just(("all",))))


# PREDICATE_FIELDS' st.text makes Hypothesis build its unicode charmap on the
# first draw, a one-time cost of a few seconds when no .hypothesis/ directory
# caches it yet; that cost is not slow input generation, so only too_slow is
# suppressed
@settings(max_examples=300, suppress_health_check=[HealthCheck.too_slow])
@example(Frame(True, "index", b"\x00\x05", "number", 3))  # zero-padded index
@given(FRAMES)
def test_body_bytes_and_frame_to_wire_match_reference(f):
    decoded = outcome(decode_frame, f)
    if isinstance(decoded, Proposition):
        assert body_bytes(f) == reference_body_bytes(f)
        assert frame_to_wire(f) == reference_frame_to_wire(f)
        assert wire_to_frames(frame_to_wire(f)) == ([f], [])
    else:
        assert outcome(body_bytes, f) == outcome(frame_to_wire, f) == decoded


@pytest.mark.parametrize("f", [
    Frame(True, "name", b"P", "number", 2**(8 * 65530) - 1),  # BODY too long
    Frame(True, "name", b"P", "number", 2**(8 * 65536)),  # OLEN overflows
    Frame(False, "index", b"\x07", "nested",
          object_frame=Frame(True, "name", b"Q", "number", 2**(8 * 65520) - 1)),
], ids=["body-too-long", "olen-overflow", "nested-body-too-long"])
def test_body_bytes_size_limits_match_reference(f):
    # the reference writes or refuses each by its sizes; both writers refuse
    # it as decode_frame does, since its number is out of range
    refusal = outcome(decode_frame, f)
    assert refusal[0] is FrameDecodeError
    assert outcome(body_bytes, f) == outcome(frame_to_wire, f) == refusal


# Reference codec: encode_frame and decode_frame as they were before the
# field-tuple split.  The properties below require the codec to match them:
# equal results, or the same exception type and message.  The reference
# encoder recurses into itself, and the reference decoder decodes nested
# frames through reference_nested_object, so every nesting layer is checked
# against an encoding and a decoding the codec did not build.

def reference_encode_frame(p: Proposition) -> Frame:
    if p.predicate.is_name:
        ptag, pbytes = "name", p.predicate.value.encode("ascii")
    else:
        ptag, pbytes = "index", reference_min_be_bytes(p.predicate.value)
    if p.object.kind == "number":
        return Frame(p.polarity, ptag, pbytes, "number", p.object.number)
    if p.object.kind == "all":
        return Frame(p.polarity, ptag, pbytes, "all")
    return Frame(p.polarity, ptag, pbytes, "nested",
                 object_frame=reference_encode_frame(p.object.inner))


def shown_number(n: int):
    """An out-of-range number as a refusal names it: past 2^64-1, by its
    byte count, since str() refuses an int of more than 4,300 digits."""
    return f"{len(minimal_bytes(n))} bytes" if n > 2**64 - 1 else n


def reference_decode_frame(f: Frame) -> Proposition:
    if f.predicate_tag == "name":
        try:
            pred = PredicateCode(f.predicate_bytes.decode("ascii"))
        except (UnicodeDecodeError, ValueError) as e:
            raise FrameDecodeError(f"bad predicate name bytes: {e}") from e
    elif f.predicate_tag == "index":
        idx = int.from_bytes(f.predicate_bytes, "big")
        if idx < 1:
            raise FrameDecodeError("zero predicate index")
        try:
            pred = PredicateCode(idx)
        except ValueError as e:
            raise FrameDecodeError(f"bad predicate index: {e}") from e
    else:
        raise FrameDecodeError(f"bad predicate tag: {f.predicate_tag!r}")
    if f.object_tag == "number":
        if not 1 <= f.object_number <= 2**64 - 1:
            raise FrameDecodeError(
                f"number object out of range 1..2^64-1: {shown_number(f.object_number)}")
        obj = ObjectRef.num(f.object_number)
    elif f.object_tag == "all":
        obj = ObjectRef.all_objects()
    elif f.object_tag == "nested":
        if f.depth > 8:
            raise FrameDecodeError("nesting depth exceeded")
        obj = reference_nested_object(f.object_frame)
    else:
        raise FrameDecodeError(f"bad object tag: {f.object_tag!r}")
    return Proposition(f.polarity, pred, obj)


def minimal_bytes(n: int) -> bytes:
    return n.to_bytes((n.bit_length() + 7) // 8, "big")


NAME_CHARS = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789-"

# name bytes valid, too long, non-ASCII or empty; index bytes zero,
# zero-padded or over 255 bytes
PREDICATE_BYTES = st.one_of(
    st.text(NAME_CHARS, min_size=1, max_size=70).map(str.encode),
    st.text(max_size=6).map(str.encode),
    st.binary(max_size=6),
    st.integers(0, 2**72).map(minimal_bytes),
    st.integers(2**2040, 2**2400).map(minimal_bytes),
)


LAYERS = st.tuples(st.booleans(), st.sampled_from(["name", "index"] * 3 + ["bad"]),
                   PREDICATE_BYTES)
LEAVES = st.tuples(st.sampled_from(["number"] * 4 + ["all", "bad"]),
                   st.one_of(st.integers(0, 2**64), st.integers(0, 2**72)))
# well-typed frames: bad tags, zero or huge numbers, nesting depth 0-10,
# about half of them unnested
DECODE_FRAMES = st.builds(
    frame_chain,
    st.one_of(LAYERS.map(lambda layer: [layer]),
              st.integers(2, 11).flatmap(
                  lambda n: st.lists(LAYERS, min_size=n, max_size=n))),
    LEAVES)

PREDICATES = st.one_of(
    st.builds(PredicateCode, st.text(NAME_CHARS, min_size=1, max_size=64)),
    st.builds(PredicateCode, st.integers(1, 2**72)),
    st.builds(PredicateCode, st.integers(2**2032, 2**2040 - 1)),  # 255 bytes
)
# a nested object holds a valid proposition, so nested frames are drawn
# from the frames of valid propositions shallow enough to nest
OBJECTS = st.one_of(
    st.builds(ObjectRef.num, st.integers(1, 2**64 - 1)),
    st.just(ObjectRef.all_objects()),
    st.deferred(lambda: PROPOSITIONS).filter(lambda p: p.object.depth < 8)
    .map(lambda p: ObjectRef.nested(encode_frame(p))),
)
# genprops-style propositions, and ones with any valid nested proposition
PROPOSITIONS = st.one_of(
    st.integers(0, 2**32).map(lambda s: gen_proposition(random.Random(s))),
    st.builds(Proposition, st.booleans(), PREDICATES, OBJECTS),
)


@settings(max_examples=300)
@given(PROPOSITIONS)
def test_encode_frame_matches_reference(p):
    assert outcome(encode_frame, p) == outcome(reference_encode_frame, p)


def assert_decodes_as_reference(f, want):
    """decode_frame(f) against the reference's outcome want: the same
    refusal, p where f is the reference encoding of p, and FrameDecodeError
    where the reference decodes a frame it would not encode."""
    got = outcome(decode_frame, f)
    if isinstance(want, Proposition) and reference_encode_frame(want) != f:
        assert got[0] is FrameDecodeError
    else:
        assert got == want


@settings(max_examples=400)
@example(Frame(True, "name", b"P", "bad"))
@example(Frame(True, "index", b"\x05", "number", 2**64))
@example(Frame(False, "name", b"P", "number", 0))
# fields encode_frame never writes, which the reference decodes
@example(Frame(True, "index", b"\x00\x05", "number", 3))
@example(Frame(True, "name", b"P", "all", 3))
@example(Frame(True, "name", b"P", "number", 3, Frame(True, "name", b"Q", "all")))
@example(Frame(True, "name", b"P", "all", 0, Frame(True, "name", b"Q", "all")))
@example(Frame(True, "name", b"P", "nested", 3, Frame(True, "name", b"Q", "all")))
@given(st.one_of(DECODE_FRAMES, PROPOSITIONS.map(reference_encode_frame)))
def test_decode_frame_matches_reference(f):
    assert_decodes_as_reference(f, outcome(reference_decode_frame, f))


def test_codec_matches_reference_on_corpus():
    for p in corpus(seed=606, count=2_000):
        f = encode_frame(p)
        assert f == reference_encode_frame(p)
        assert decode_frame(f) == reference_decode_frame(f)


# Reference decoder: decode_frame over a frame's fields, written check by
# check.  Every decode must match it: an equal result, or the same exception type and message,
# whatever was decoded before it.

def reference_nested_object(f: Frame) -> ObjectRef:
    if f.depth >= 8:
        raise FrameDecodeError("nesting depth exceeded")
    try:
        inner = reference_decode_field_tuple(
            f.polarity, f.predicate_tag, f.predicate_bytes, f.object_tag,
            f.object_number, f.object_frame)
    except FrameDecodeError as e:
        raise FrameDecodeError(f"nested frame does not decode: {e}") from None
    return ObjectRef("nested", 0, inner)


def reference_decode_field_tuple(pol, ptag, pbytes, kind, number, nested) -> Proposition:
    if ptag == "name":
        try:
            pred = PredicateCode(pbytes.decode("ascii"))
        except (UnicodeDecodeError, ValueError) as e:
            raise FrameDecodeError(f"bad predicate name bytes: {e}") from e
    elif ptag == "index":
        idx = int.from_bytes(pbytes, "big")
        if idx < 1:
            raise FrameDecodeError("zero predicate index")
        try:
            pred = PredicateCode(idx)
        except ValueError as e:
            raise FrameDecodeError(f"bad predicate index: {e}") from e
    else:
        raise FrameDecodeError(f"bad predicate tag: {ptag!r}")
    if kind == "number":
        if not 1 <= number <= 2**64 - 1:
            raise FrameDecodeError(
                f"number object out of range 1..2^64-1: {shown_number(number)}")
        obj = ObjectRef.num(number)
    elif kind == "all":
        obj = ObjectRef.all_objects()
    elif kind == "nested":
        obj = reference_nested_object(nested)
    else:
        raise FrameDecodeError(f"bad object tag: {kind!r}")
    return Proposition(pol, pred, obj)


# the same bytes under both tags, names that are not ASCII, empty or over
# 64 bytes, index 0 and zero-padded indices, and a few repeated values so
# that later draws reuse earlier ones
FIELD_PREDICATE_BYTES = st.one_of(
    st.sampled_from([b"5", b"\x05", b"\x00", b"\x00\x05", b"", b"P", b"ON",
                     "é".encode(), b"\xff", b"A" * 64, b"A" * 65]),
    PREDICATE_BYTES,
)
FIELD_NUMBERS = st.one_of(
    st.sampled_from([0, 1, 2, 112, 2**64 - 1, 2**64]),
    st.integers(0, 300),
    st.integers(0, 2**72),
)
FIELDS = st.one_of(
    st.tuples(st.booleans(), st.sampled_from(["name", "index", "bad"]),
              FIELD_PREDICATE_BYTES,
              st.sampled_from(["number", "number", "all", "bad"]),
              FIELD_NUMBERS, st.none()),
    st.builds(lambda pol, tag, pbytes, f: (pol, tag, pbytes, "nested", 0, f),
              st.booleans(), st.sampled_from(["name", "index"]),
              FIELD_PREDICATE_BYTES,
              st.one_of(DECODE_FRAMES, PROPOSITIONS.map(reference_encode_frame))),
)


@settings(max_examples=200)
@example([(True, "name", b"5", "number", 1, None),
          (True, "index", b"5", "number", 1, None),
          (True, "name", b"\x05", "all", 0, None),
          (True, "index", b"\x05", "all", 0, None)])
@example([(False, "index", b"\x00", "number", 2**64 - 1, None),
          (False, "name", b"\x00", "number", 2**64, None)])
@example([(True, "name", b"P", "number", 1, None),
          (True, "name", b"P", "number", True, None)])
@example([(True, "name", b"P", "number", 5, None),
          (True, "name", b"P", "number", 5.0, None)])
@given(st.lists(FIELDS, min_size=1, max_size=6))
def test_decode_frame_of_fields_matches_reference(field_tuples):
    for _ in range(2):
        for fields in field_tuples:
            assert_decodes_as_reference(
                Frame(*fields), outcome(reference_decode_field_tuple, *fields))


def chain_body(layers, leaf):
    """BODY bytes nesting one layer in the next, innermost first; leaf is
    the innermost (OTAG, OBYTES), and a layer's extra bytes trail the
    object field it wraps."""
    otag, obytes = leaf
    for pol, ptag, pbytes, extra in layers:
        obytes = (bytes([pol, ptag, len(pbytes)]) + pbytes + bytes([otag])
                  + len(obytes).to_bytes(2, "big") + obytes)
        otag = OTAG_NESTED
        obytes += extra
    return obytes


CHAIN_BODIES = st.builds(
    chain_body,
    layers(st.builds(lambda pol, pred, extra: (pol, *pred, extra),
                     st.sampled_from([0x00, 0x01]),
                     st.one_of(st.tuples(st.just(PTAG_NAME), st.binary(max_size=4)),
                               st.tuples(st.just(PTAG_INDEX), st.integers(1, 2**16).map(
                                   lambda n: n.to_bytes((n.bit_length() + 7) // 8, "big")))),
                     st.sampled_from([b"", b"", b"", b"", b"\x00"]))),
    st.one_of(st.tuples(st.just(OTAG_NUMBER), padded_number(72)),
              st.tuples(st.just(OTAG_ALL), st.binary(max_size=1)),
              st.tuples(st.integers(0, 255), st.binary(max_size=3))))


@settings(max_examples=400)
@example(b"\x01\x00\x05PQ", 0, b"", b"", bytes)  # truncated predicate field
@example(b"\x01\x02\x01P\x00\x00\x01\x05", 0, b"", b"", bytearray)  # bad PTAG
@given(st.one_of(st.binary(max_size=40), TLV_BODIES, CHAIN_BODIES),
       st.integers(0, 3), st.binary(max_size=3), st.binary(max_size=2),
       st.sampled_from([bytes, bytearray]))
def test_parse_body_matches_reference(body, cut, prefix, suffix, kind):
    for data in (body, body[:len(body) - cut] + suffix):
        data = kind(prefix + data)
        assert (outcome(parse_body, data[len(prefix):])
                == outcome(reference_parse_body, data, len(prefix)))
        assert outcome(parse_body, data) == outcome(reference_parse_body, data)


@settings(max_examples=300)
@example(wrap(b"\x01\x00\x02ON\x00\x00\x01\x70", version=2), 8 * 200)  # bad version
@example(wrap(b"\x01\x00\x02ON\x00\x00\x01\x70\x00"), 8 * 200)  # trailing byte
@given(STREAMS, st.integers(0, 8 * 200))
def test_receive_matches_reference(stream, flip):
    assert receive(stream) == reference_receive(stream)
    if flip < 8 * len(stream):
        flipped = bytearray(stream)
        flipped[flip >> 3] ^= 0x80 >> (flip & 7)
        assert receive(bytes(flipped)) == reference_receive(bytes(flipped))


@settings(max_examples=300)
@example(ON112_WIRE, 7)  # one clean frame, and it with a SYNC bit flipped
@example(ON112_WIRE, 8 * 8 + 7)  # and it with ON turned to NN under its CRC
@example(ON112_WIRE + b"\x00", 8 * 200)  # a clean frame and one trailing byte
@example(b"\x00" + ON112_WIRE, 8 * 200)  # one leading garbage byte
@example(BAD_NAME_WIRE, 8 * 200)  # CRC-valid, undecodable
@example(LEN_SHORT_WIRE, 8 * 200)  # the CRC holds, LEN does not
@example(wrap(b"\x01\x00\x02ON\x00\x00\x01\x70", version=2), 8 * 200)  # version 2
# SYNC and an incomplete header: the frame check's resume offset is the
# stream's end, so only its outcome rejects these
@example(SYNC, 8 * 200)
@example(SYNC + b"\x01", 8 * 200)
@example(SYNC + b"\x01\x00", 8 * 200)
@example(SYNC + b"\x01\x00\x00", 8 * 200)
@example(SYNC + b"\x01\x00\x00\x00", 8 * 200)
@given(STREAMS, st.integers(0, 8 * 200))
def test_receive_one_is_receive_of_exactly_one_frame(stream, flip):
    streams = [stream]
    if flip < 8 * len(stream):
        flipped = bytearray(stream)
        flipped[flip >> 3] ^= 0x80 >> (flip & 7)
        streams.append(bytes(flipped))
    for s in streams:
        props, diags = receive(s)
        assert receive_one(s) == (props[0] if len(props) == 1 and not diags else None)


DEEPEST = reduce(lambda p, _: Proposition(False, PredicateCode(2**2040 - 1),
                                          ObjectRef("nested", 0, p)),
                 range(8), Proposition(True, PredicateCode("A" * 64),
                                       ObjectRef.num(2**64 - 1)))


@settings(max_examples=300)
@example(Proposition(True, PredicateCode(2**2040 - 1), ObjectRef.num(1)))  # 255 bytes
@example(DEEPEST)  # every field at its limit, at the deepest nesting
@given(PROPOSITIONS)
def test_encode_matches_frame_to_wire_of_encode_frame(p):
    expected = outcome(reference_frame_to_wire, reference_encode_frame(p))
    e = outcome(encode, p)
    assert e == expected
    assert outcome(lambda: frame_to_wire(encode_frame(p))) == expected
    # encode never raises on a valid proposition, and its frame receives as p
    assert isinstance(e, bytes)
    assert receive(e) == ([p], [])
    assert receive_one(e) == p


# proposition_body writes a valid proposition's BODY with no size check; it
# matches the reference writer byte for byte
@settings(max_examples=300)
@example(Proposition(True, PredicateCode(2**2040 - 1), ObjectRef.num(1)))  # 255 bytes
@example(DEEPEST)  # every field at its limit, at the deepest nesting
@given(PROPOSITIONS)
def test_proposition_body_matches_reference_body(p):
    assert proposition_body(p) == reference_body_bytes(reference_encode_frame(p))


@settings(max_examples=300)
@example(False, PredicateCode(2**2040 - 1), DEEPEST.object.inner)
@given(st.booleans(), PREDICATES, PROPOSITIONS.filter(lambda p: p.object.depth < 8))
def test_rendered_hex_is_the_reference_body_of_the_inner_proposition(pol, pred, inner):
    text = render_proposition(Proposition(pol, pred, ObjectRef("nested", 0, inner)))
    assert text[text.index("("):] == "(<" + reference_body_bytes(
        reference_encode_frame(inner)).hex() + ">)"


def test_predicate_index_over_255_bytes_is_refused_when_built():
    # a 256-byte index fits no one-byte PLEN, so the model refuses it
    # before anything tries to encode it
    with pytest.raises(ValueError, match=r"^predicate index must be < 2\^2040$"):
        PredicateCode(2**2040)
    with pytest.raises(ValueError, match=r"^predicate index must be < 2\^2040$"):
        parse_proposition("#" + str(2**2040) + "(1)")
    # a literal of more than 615 digits is refused by its length, at its offset
    with pytest.raises(ValueError,
                       match=r"^predicate index must be < 2\^2040: 633 digits \(at byte 1\)$"):
        parse_proposition("#" + str(2**2100) + "(1)")
    assert len(encode(parse_proposition("#" + str(2**2040 - 1) + "(1)"))) == 269


def test_body_bytes_checks_depth_before_predicate_length():
    # the innermost of ten layers sits at depth 9 with a 300-byte predicate
    f = frame_chain([(True, "name", b"P" * 300)] + [(True, "name", b"P")] * 9,
                    ("number", 1))
    assert outcome(reference_body_bytes, f) == (WireSizeError, "nesting depth exceeded")
    assert (outcome(body_bytes, f) == outcome(frame_to_wire, f)
            == (FrameDecodeError, "nesting depth exceeded"))


def test_diagnostic_str_is_kind_at_offset_detail():
    stream = b"xy" + encode(parse_proposition("ON(112)"))[:-1]
    diags = receive(stream)[1]
    assert [str(d) for d in diags] == [f"{d.kind}@{d.offset}: {d.detail}" for d in diags]
    assert str(diags[0]) == "garbage@0: 2 unframed bytes"
