"""Proposition <-> frame codec and the display-style payload bit string.

A frame is the structured encoding of a proposition: a polarity bit, a
predicate field (name bytes or a numeric index) and an object field
(number, all-objects marker, or a recursively encoded nested frame).
``payload_bits`` renders the classic concatenated bit string
Polarity || predicate bits || object bits; that form is for display and
tests only and is not self-delimiting -- the wire module adds framing.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import (
    MAX_NESTING_DEPTH,
    MAX_OBJECT_NUMBER,
    ObjectRef,
    PredicateCode,
    Proposition,
)


class FrameDecodeError(ValueError):
    """Raised when a frame does not decode to a valid proposition."""


def _min_be_bytes(n: int) -> bytes:
    return n.to_bytes(max(1, (n.bit_length() + 7) // 8), "big")


@dataclass(frozen=True, slots=True)
class Frame:
    """Structured encoding of a proposition.

    predicate_tag is "name" (character bytes) or "index" (minimal
    big-endian bytes of the index); object_tag is "number", "all" or
    "nested".
    """

    polarity: bool
    predicate_tag: str
    predicate_bytes: bytes
    object_tag: str
    object_number: int = 0
    object_frame: "Frame | None" = None

    @property
    def depth(self) -> int:
        if self.object_tag == "nested":
            return 1 + self.object_frame.depth
        return 0

    def triple(self):
        """The (polarity, predicate, object) triple rendering."""
        pol = 1 if self.polarity else 0
        if self.object_tag == "number":
            obj = self.object_number
        elif self.object_tag == "all":
            obj = 0
        else:
            obj = self.object_frame.triple()
        return (pol, self.predicate_bytes.hex().upper(), obj)


def frame_fields(p: Proposition) -> tuple:
    """encode_frame's fields, in Frame's order, nesting a Proposition."""
    pred, obj = p.predicate.value, p.object
    if isinstance(pred, str):
        ptag, pbytes = "name", pred.encode("ascii")
    else:
        ptag, pbytes = "index", _min_be_bytes(pred)
    return p.polarity, ptag, pbytes, obj.kind, obj.number, obj.inner


def encode_frame(p: Proposition) -> Frame:
    """Encode a proposition as a frame; total on valid propositions."""
    *fields, inner = frame_fields(p)
    return Frame(*fields, None if inner is None else encode_frame(inner))


def decode_fields(pol, ptag, pbytes, kind, number, nested) -> Proposition:
    """decode_frame of a frame given as its fields, in Frame's order."""
    if ptag == "name":
        try:
            pred = PredicateCode(pbytes.decode("ascii"))
        except (UnicodeDecodeError, ValueError) as e:
            raise FrameDecodeError(f"bad predicate name bytes: {e}") from e
    elif ptag == "index":
        idx = int.from_bytes(pbytes, "big")
        if idx < 1:
            raise FrameDecodeError("zero predicate index")
        pred = PredicateCode(idx)
    else:
        raise FrameDecodeError(f"bad predicate tag: {ptag!r}")
    if kind == "number":
        if not 1 <= number <= MAX_OBJECT_NUMBER:
            raise FrameDecodeError(f"number object out of range 1..2^64-1: {number}")
        obj = ObjectRef("number", number)
    elif kind == "all":
        obj = ObjectRef("all")
    elif kind == "nested":
        obj = nested_object(nested)
    else:
        raise FrameDecodeError(f"bad object tag: {kind!r}")
    return Proposition(pol, pred, obj)


def decode_frame(f: Frame) -> Proposition:
    """Exact inverse of encode_frame on the valid domain; raises
    FrameDecodeError for every well-typed frame outside it."""
    return decode_fields(f.polarity, f.predicate_tag, f.predicate_bytes,
                         f.object_tag, f.object_number, f.object_frame)


def nested_object(f: Frame) -> ObjectRef:
    """ObjectRef.nested: the object naming f's proposition.  The one place
    a nested frame is decoded; raises FrameDecodeError if f does not decode."""
    if f.depth >= MAX_NESTING_DEPTH:
        raise FrameDecodeError("nesting depth exceeded")
    try:
        inner = decode_frame(f)
    except FrameDecodeError as e:
        raise FrameDecodeError(f"nested frame does not decode: {e}") from None
    return ObjectRef("nested", 0, inner)


def payload_bits(f: Frame) -> str:
    """Concatenated display bits: polarity || predicate || object.

    Predicate bytes render MSB-first; number objects render as minimal
    binary with no leading zeros; the all-objects marker is the single
    bit '0'; nested frames render recursively.
    """
    bits = ["1" if f.polarity else "0"]
    bits.extend(format(b, "08b") for b in f.predicate_bytes)
    if f.object_tag == "number":
        bits.append(format(f.object_number, "b"))
    elif f.object_tag == "all":
        bits.append("0")
    else:
        bits.append(payload_bits(f.object_frame))
    return "".join(bits)
