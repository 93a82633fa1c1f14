import random

import pytest
from hypothesis import example, given, settings, strategies as st

from semchan import (
    ObjectRef,
    PredicateCode,
    Proposition,
    decode_frame,
    encode_frame,
    frame_to_wire,
    parse_proposition,
    payload_bits,
)
from semchan.wire import Frame, FrameDecodeError, decode_fields

from genprops import corpus, gen_proposition

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


# Reference codec: encode_frame and decode_frame as they were before the
# field-tuple split.  The properties below require the codec to match them:
# equal results, or the same exception type and message.  The reference
# encoder recurses into itself, and the reference decoder decodes nested
# frames through reference_nested_object, so every nesting layer is checked
# against an encoding and a decoding the codec did not build.

def reference_min_be_bytes(n: int) -> bytes:
    return n.to_bytes(max(1, (n.bit_length() + 7) // 8), "big")


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
                f"number object out of range 1..2^64-1: {f.object_number}")
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


def outcome(fn, *args):
    """fn's result, or the type and message of what it raised."""
    try:
        return fn(*args)
    except Exception as e:
        return type(e), str(e)


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


def frame_chain(layers, leaf):
    """The frame nesting one layer in the next, innermost first."""
    (pol, tag, pbytes), *outer = layers
    f = Frame(pol, tag, pbytes, *leaf)
    for pol, tag, pbytes in outer:
        f = Frame(pol, tag, pbytes, "nested", object_frame=f)
    return f


LAYERS = st.tuples(st.booleans(), st.sampled_from(["name", "index"] * 3 + ["bad"]),
                   PREDICATE_BYTES)
LEAVES = st.tuples(st.sampled_from(["number"] * 4 + ["all", "bad"]),
                   st.one_of(st.integers(0, 2**64), st.integers(0, 2**72)))
# well-typed frames: bad tags, zero or huge numbers, nesting depth 0-10,
# about half of them unnested
FRAMES = st.builds(
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


@settings(max_examples=400)
@example(Frame(True, "name", b"P", "bad"))
@example(Frame(True, "index", b"\x05", "number", 2**64))
@example(Frame(False, "name", b"P", "number", 0))
@given(st.one_of(FRAMES, PROPOSITIONS.map(reference_encode_frame)))
def test_decode_frame_matches_reference(f):
    assert outcome(decode_frame, f) == outcome(reference_decode_frame, f)


def test_codec_matches_reference_on_corpus():
    for p in corpus(seed=606, count=2_000):
        f = encode_frame(p)
        assert f == reference_encode_frame(p)
        assert decode_frame(f) == reference_decode_frame(f)


# Reference decoder: decode_fields written check by check.  Every decode
# must match it: an equal result, or the same exception type and message,
# whatever was decoded before it.

def reference_nested_object(f: Frame) -> ObjectRef:
    if f.depth >= 8:
        raise FrameDecodeError("nesting depth exceeded")
    try:
        inner = reference_decode_fields(
            f.polarity, f.predicate_tag, f.predicate_bytes, f.object_tag,
            f.object_number, f.object_frame)
    except FrameDecodeError as e:
        raise FrameDecodeError(f"nested frame does not decode: {e}") from None
    return ObjectRef("nested", 0, inner)


def reference_decode_fields(pol, ptag, pbytes, kind, number, nested) -> Proposition:
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
            raise FrameDecodeError(f"number object out of range 1..2^64-1: {number}")
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
              st.one_of(FRAMES, PROPOSITIONS.map(reference_encode_frame))),
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
def test_decode_fields_matches_reference(field_tuples):
    for _ in range(2):
        for fields in field_tuples:
            assert (outcome(decode_fields, *fields)
                    == outcome(reference_decode_fields, *fields))
