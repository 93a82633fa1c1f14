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


@dataclass(frozen=True)
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


def encode_frame(p: Proposition) -> Frame:
    """Encode a proposition as a frame; total on valid propositions."""
    if p.predicate.is_name:
        ptag, pbytes = "name", p.predicate.value.encode("ascii")
    else:
        ptag, pbytes = "index", _min_be_bytes(p.predicate.value)
    if p.object.kind == "number":
        return Frame(p.polarity, ptag, pbytes, "number", p.object.number)
    if p.object.kind == "all":
        return Frame(p.polarity, ptag, pbytes, "all")
    return Frame(p.polarity, ptag, pbytes, "nested",
                 object_frame=p.object.frame)


def decode_frame(f: Frame) -> Proposition:
    """Exact inverse of encode_frame on the valid domain; raises
    FrameDecodeError for every well-typed frame outside it."""
    if f.predicate_tag == "name":
        try:
            pred = PredicateCode(f.predicate_bytes.decode("ascii"))
        except (UnicodeDecodeError, ValueError) as e:
            raise FrameDecodeError(f"bad predicate name bytes: {e}") from e
    elif f.predicate_tag == "index":
        idx = int.from_bytes(f.predicate_bytes, "big")
        if idx < 1:
            raise FrameDecodeError("zero predicate index")
        pred = PredicateCode(idx)
    else:
        raise FrameDecodeError(f"bad predicate tag: {f.predicate_tag!r}")
    if f.object_tag == "number":
        if not 1 <= f.object_number <= MAX_OBJECT_NUMBER:
            raise FrameDecodeError(
                f"number object out of range 1..2^64-1: {f.object_number}")
        obj = ObjectRef.num(f.object_number)
    elif f.object_tag == "all":
        obj = ObjectRef.all_objects()
    elif f.object_tag == "nested":
        if f.depth > MAX_NESTING_DEPTH:
            raise FrameDecodeError("nesting depth exceeded")
        obj = ObjectRef.nested(f.object_frame)
    else:
        raise FrameDecodeError(f"bad object tag: {f.object_tag!r}")
    return Proposition(f.polarity, pred, obj)


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
