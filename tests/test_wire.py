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
    receive,
    render_proposition,
    wire_to_frames,
)
from semchan.codec import Frame, FrameDecodeError
from semchan.wire import (
    MAX_BODY_LEN,
    OTAG_ALL,
    OTAG_NESTED,
    OTAG_NUMBER,
    PTAG_INDEX,
    PTAG_NAME,
    SYNC,
    VERSION,
    BodyError,
    Diagnostic,
    WireSizeError,
    body_bytes,
    encode,
    parse_body,
    receive_one,
)

from genprops import corpus
from test_codec import PROPOSITIONS, reference_encode_frame


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


# Reference codec: body_bytes, frame_to_wire, parse_body and receive as
# they were before their inner loops were tightened.  The properties below
# require the codec to match them byte for byte, diagnostic for diagnostic
# and message for message.

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
@given(FRAMES)
def test_body_bytes_and_frame_to_wire_match_reference(f):
    assert outcome(body_bytes, f) == outcome(reference_body_bytes, f)
    assert outcome(frame_to_wire, f) == outcome(reference_frame_to_wire, f)


@pytest.mark.parametrize("f", [
    Frame(True, "name", b"P", "number", 2**(8 * 65530) - 1),  # BODY too long
    Frame(True, "name", b"P", "number", 2**(8 * 65536)),  # OLEN overflows
    Frame(False, "index", b"\x07", "nested",
          object_frame=Frame(True, "name", b"Q", "number", 2**(8 * 65520) - 1)),
], ids=["body-too-long", "olen-overflow", "nested-body-too-long"])
def test_body_bytes_size_limits_match_reference(f):
    assert outcome(body_bytes, f) == outcome(reference_body_bytes, f)
    assert outcome(frame_to_wire, f) == outcome(reference_frame_to_wire, f)


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
        assert (outcome(parse_body, data, len(prefix))
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


@settings(max_examples=300)
@example(Proposition(True, PredicateCode(2**2040 - 1), ObjectRef.num(1)))  # 255 bytes
@example(Proposition(True, PredicateCode(2**2040), ObjectRef.num(1)))  # 256 bytes
@given(PROPOSITIONS)
def test_encode_matches_frame_to_wire_of_encode_frame(p):
    expected = outcome(reference_frame_to_wire, reference_encode_frame(p))
    assert outcome(encode, p) == expected
    assert outcome(lambda: frame_to_wire(encode_frame(p))) == expected


def test_body_bytes_checks_depth_before_predicate_length():
    # the innermost of ten layers sits at depth 9 with a 300-byte predicate
    f = frame_chain([(True, "name", b"P" * 300)] + [(True, "name", b"P")] * 9,
                    ("number", 1))
    assert (outcome(body_bytes, f) == outcome(reference_body_bytes, f)
            == (WireSizeError, "nesting depth exceeded"))


def test_diagnostic_str_is_kind_at_offset_detail():
    stream = b"xy" + encode(parse_proposition("ON(112)"))[:-1]
    diags = receive(stream)[1]
    assert [str(d) for d in diags] == [f"{d.kind}@{d.offset}: {d.detail}" for d in diags]
    assert str(diags[0]) == "garbage@0: 2 unframed bytes"
