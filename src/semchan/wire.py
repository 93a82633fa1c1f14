"""A proposition's bytes: proposition -> BODY -> frame, and back.

A proposition's fields are a polarity bit, a predicate (name bytes or a
numeric index) and an object (number, all-objects marker, or a nested
proposition).  A ``Frame`` is that field tuple, a ``NamedTuple``.  There
is one BODY writer, one parser and one decoder.  ``proposition_body``
writes a valid proposition's BODY in one pass, with no size check, since
the model bounds every field (see its docstring); ``encode`` and the
``<hex>`` of ``render_proposition`` use it and build no ``Frame``.
``decode_frame`` is the exact inverse of ``encode_frame``: it refuses every
frame that ``encode_frame`` never writes.  So ``body_bytes`` serializes a
``Frame`` through the proposition it names, and refuses the rest with
``FrameDecodeError``.  ``parse_body`` parses a BODY to a ``Frame`` and
``decode_frame`` builds the proposition, so ``receive`` builds one
``Frame`` for each frame that reaches decode.  ``payload_bits`` renders
the display bits Polarity || predicate || object, which are not
self-delimiting.

Wire frame layout:

    SYNC  2 bytes  0xA5 0x5A
    VER   1 byte   0x01
    LEN   2 bytes  big-endian byte length of BODY
    BODY  encoded frame (grammar below)
    CRC   2 bytes  big-endian CRC-16/IBM-3740 (formerly CCITT-FALSE)
                   over VER || LEN || BODY; catalogue entry at
                   https://reveng.sourceforge.io/crc-catalogue/16.htm

BODY grammar:

    POL    1 byte   0x00 or 0x01
    PTAG   1 byte   0x00 predicate name bytes / 0x01 numeric index
    PLEN   1 byte   length of PBYTES
    PBYTES          name bytes, or a minimal big-endian nonzero index
    OTAG   1 byte   0x00 number / 0x01 nested body / 0x02 all-objects
    OLEN   2 bytes  big-endian length of OBYTES (0 for all-objects)
    OBYTES          minimal big-endian nonzero number, or a nested BODY

``encode`` is the one send path: it serializes a proposition to its wire
frame.  ``receive`` is the one scanner: it looks for SYNC and runs one
frame check at each, which validates LEN/CRC/VER and the BODY grammar
and decodes the frame to a proposition.  Every failure is a diagnostic
event, never an exception.  ``receive_one``, for a caller that would drop
the diagnostics, runs the same frame check at offset 0, with no scan, and
accepts only one intact frame that fills the stream.
A frame whose framing or BODY fails resumes the scan at the byte after
its SYNC; a frame whose framing and BODY hold but whose fields name no
valid proposition, in any nested BODY too ("undecodable"), resumes at the
frame's end.  Every proposition returned re-encodes to exactly the bytes
it was scanned from.
"""

from __future__ import annotations

import binascii
from dataclasses import dataclass
from typing import NamedTuple

from .model import (MAX_NESTING_DEPTH, MAX_OBJECT_NUMBER, ObjectRef, PredicateCode,
                    Proposition)

SYNC = b"\xa5\x5a"
VERSION = 0x01

PTAG_NAME = 0x00
PTAG_INDEX = 0x01
OTAG_NUMBER = 0x00
OTAG_NESTED = 0x01
OTAG_ALL = 0x02


class FrameDecodeError(ValueError):
    """Raised when a frame does not decode to a valid proposition."""


class BodyError(ValueError):
    """Raised when BODY bytes violate the grammar."""


class Frame(NamedTuple):
    """Structured encoding of a proposition: its field tuple.

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
    pred, obj = p.predicate.value, p.object
    if isinstance(pred, str):
        ptag, pbytes = "name", pred.encode("ascii")
    else:
        ptag, pbytes = "index", pred.to_bytes((pred.bit_length() + 7) // 8, "big")
    inner = obj.inner
    return Frame(p.polarity, ptag, pbytes, obj.kind, obj.number,
                 None if inner is None else encode_frame(inner))


def decode_frame(f: Frame) -> Proposition:
    """Exact inverse of encode_frame: p when f == encode_frame(p) for a valid
    p; raises FrameDecodeError for every other well-typed frame."""
    pol, ptag, pbytes, kind, number, nested = f
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
        if not 1 <= number <= MAX_OBJECT_NUMBER:
            # str() refuses an int of more than 4,300 digits, and a 1,787-byte
            # number has more, so a number past the range is named by its size
            shown = (f"{(number.bit_length() + 7) // 8} bytes"
                     if number > MAX_OBJECT_NUMBER else number)
            raise FrameDecodeError(f"number object out of range 1..2^64-1: {shown}")
        obj = ObjectRef("number", number)
    elif kind == "all":
        obj = ObjectRef("all")
    elif kind == "nested":
        if nested is None:
            raise FrameDecodeError("nested object tag with no frame")
        obj = ObjectRef.nested(nested)
    else:
        raise FrameDecodeError(f"bad object tag: {kind!r}")
    p = Proposition(pol, pred, obj)
    # fields encode_frame never writes, checked after every check above, so
    # a frame refused there keeps its refusal
    if ptag == "index" and not pbytes[0]:
        raise FrameDecodeError("zero-padded predicate index")
    if number and kind != "number":
        raise FrameDecodeError(f"{kind} object with a nonzero number")
    if nested is not None and kind != "nested":
        raise FrameDecodeError(f"{kind} object with a nested frame")
    return p


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


def crc16(data: bytes) -> int:
    """CRC-16/IBM-3740, formerly CCITT-FALSE: poly 0x1021, init 0xFFFF,
    no reflection, no xorout; check value 0x29B1.

    https://reveng.sourceforge.io/crc-catalogue/16.htm
    """
    return binascii.crc_hqx(data, 0xFFFF)


def proposition_body(p: Proposition) -> bytes:
    """A valid proposition's BODY, written from p's fields in one pass.

    It runs no size check: a name is at most 64 ASCII characters, an index
    is below 2^2040 (at most 255 bytes), a number takes at most 8 bytes and
    nesting is at most 8 deep, so a valid proposition's BODY is at most
    2,357 bytes and each OLEN fits its two bytes.
    """
    value, obj = p.predicate.value, p.object
    if type(value) is str:
        ptag, pbytes = PTAG_NAME, value.encode("ascii")
    else:
        ptag, pbytes = PTAG_INDEX, value.to_bytes((value.bit_length() + 7) // 8, "big")
    kind = obj.kind
    if kind == "number":
        number = obj.number
        otag, obytes = OTAG_NUMBER, number.to_bytes((number.bit_length() + 7) // 8, "big")
    elif kind == "all":
        otag, obytes = OTAG_ALL, b""
    else:
        otag, obytes = OTAG_NESTED, proposition_body(obj.inner)
    # OTAG || OLEN as one 3-byte big-endian int
    return b"".join((bytes((p.polarity, ptag, len(pbytes))), pbytes,
                     (otag << 16 | len(obytes)).to_bytes(3, "big"), obytes))


def body_bytes(f: Frame) -> bytes:
    """The BODY of the proposition f names; raises FrameDecodeError, as
    decode_frame does, for a frame that encode_frame never writes."""
    return proposition_body(decode_frame(f))


def parse_body(data: bytes, depth: int = 0):
    """Parse one BODY at the start of data; returns (Frame, bytes consumed)."""
    if depth > MAX_NESTING_DEPTH:
        raise BodyError("nesting depth exceeded")
    size = len(data)
    if size < 3:
        raise BodyError("BODY shorter than fixed header")
    pol, ptag, plen = data[:3]
    if pol > 0x01:
        raise BodyError(f"bad POL byte 0x{pol:02x}")
    if ptag > 0x01:
        raise BodyError(f"bad PTAG byte 0x{ptag:02x}")
    pend = 3 + plen
    if pend > size:
        raise BodyError("truncated predicate field")
    pbytes = bytes(data[3:pend])
    if ptag == PTAG_INDEX and (plen == 0 or pbytes[0] == 0):
        raise BodyError("empty or non-minimal predicate index")
    if size - pend < 3:
        raise BodyError("truncated object header")
    otag = data[pend]
    olen = data[pend + 1] << 8 | data[pend + 2]
    end = pend + 3 + olen
    if end > size:
        raise BodyError("truncated object field")
    ptag_name = "name" if ptag == PTAG_NAME else "index"
    if otag == OTAG_NUMBER:
        if olen == 0:
            raise BodyError("empty number object")
        if data[pend + 3] == 0:
            raise BodyError("non-minimal number encoding")
        obj = "number", int.from_bytes(data[pend + 3:end], "big"), None
    elif otag == OTAG_ALL:
        if olen != 0:
            raise BodyError("all-objects marker with nonzero OLEN")
        obj = "all", 0, None
    elif otag == OTAG_NESTED:
        nested, used = parse_body(data[pend + 3:end], depth + 1)
        if used != olen:
            raise BodyError("trailing bytes after nested body")
        obj = "nested", 0, nested
    else:
        raise BodyError(f"bad OTAG byte 0x{otag:02x}")
    # every field is set, so skip the Python-level __new__ NamedTuple makes
    return tuple.__new__(Frame, (bool(pol), ptag_name, pbytes, *obj)), end


def _framed(body: bytes) -> bytes:
    """SYNC || VER || LEN || BODY || CRC, joined once.  crc_hqx takes its
    starting register as an argument, so the CRC of VER || LEN, carried on
    over BODY, is crc16(VER || LEN || BODY) without joining that run."""
    head = (VERSION << 16 | len(body)).to_bytes(3, "big")
    crc = binascii.crc_hqx(body, binascii.crc_hqx(head, 0xFFFF))
    return b"".join((SYNC, head, body, crc.to_bytes(2, "big")))


def frame_to_wire(f: Frame) -> bytes:
    """Full wire frame, SYNC + VER + LEN + BODY + CRC: encode(decode_frame(f)).
    Raises FrameDecodeError for a frame that encode_frame never writes."""
    return _framed(body_bytes(f))


def encode(p: Proposition) -> bytes:
    """frame_to_wire(encode_frame(p)), without building the Frame; total on
    valid propositions, whose limits the model shares with the wire."""
    return _framed(proposition_body(p))


@dataclass(slots=True)
class Diagnostic:
    """One receive event: kind is 'garbage', 'crc', 'body', 'version',
    'truncated' or 'undecodable'; offset is into the scanned stream (the
    SYNC of the frame, or the first unframed byte)."""

    kind: str
    offset: int
    detail: str

    def __str__(self) -> str:
        return f"{self.kind}@{self.offset}: {self.detail}"


def _frame_at(stream: bytes, idx: int) -> tuple[Proposition | Diagnostic, int]:
    """Check the frame whose SYNC is at idx: header, LEN, CRC, VER, BODY,
    decode.  Returns (proposition, frame end) or (diagnostic, the offset
    where the scan resumes)."""
    n = len(stream)
    if n - idx < 7:
        return Diagnostic("truncated", idx,
                          "incomplete frame header at end of stream"), n
    length = stream[idx + 3] << 8 | stream[idx + 4]
    end = idx + 7 + length
    if end > n:
        return Diagnostic("truncated", idx,
                          "frame extends past end of stream"), idx + 1
    crc_got = stream[end - 2] << 8 | stream[end - 1]
    crc_want = crc16(stream[idx + 2:end - 2])
    if crc_got != crc_want:
        return Diagnostic("crc", idx, f"CRC mismatch: got 0x{crc_got:04X}, "
                          f"want 0x{crc_want:04X}"), idx + 1
    ver = stream[idx + 2]
    if ver != VERSION:
        return Diagnostic("version", idx, f"bad version 0x{ver:02x}"), idx + 1
    try:
        frame, used = parse_body(stream[idx + 5:end - 2])
        if used != length:
            raise BodyError("trailing bytes in BODY")
        return decode_frame(frame), end
    except BodyError as e:
        return Diagnostic("body", idx, str(e)), idx + 1
    except FrameDecodeError as e:
        return Diagnostic("undecodable", idx, str(e)), end


def receive(stream: bytes) -> tuple[list[Proposition], list[Diagnostic]]:
    """Scan arbitrary bytes for wire frames and decode them.

    Returns (propositions, diagnostics); never raises.  Garbage between
    frames is reported with offsets; truncation, CRC, version or grammar
    failures resume scanning at the byte after the failed SYNC, and a
    CRC-valid frame that does not decode is an 'undecodable' diagnostic
    that resumes at the frame's end.
    """
    props: list[Proposition] = []
    diags: list[Diagnostic] = []
    pos = 0
    n = len(stream)
    while pos < n:
        idx = stream.find(SYNC, pos)
        if idx == -1:
            diags.append(Diagnostic("garbage", pos, f"{n - pos} unframed bytes"))
            break
        if idx > pos:
            diags.append(Diagnostic("garbage", pos, f"{idx - pos} unframed bytes"))
        out, pos = _frame_at(stream, idx)
        (diags if isinstance(out, Diagnostic) else props).append(out)
    return props, diags


def receive_one(stream: bytes) -> Proposition | None:
    """p exactly when ``receive(stream) == ([p], [])``, else None; never
    raises.  It runs receive's frame check at offset 0, with no scan."""
    if stream[:2] != SYNC:
        return None
    out, end = _frame_at(stream, 0)
    return None if isinstance(out, Diagnostic) or end != len(stream) else out


def wire_to_frames(stream: bytes) -> tuple[list[Frame], list[Diagnostic]]:
    """``receive``, with each proposition as its frame."""
    props, diags = receive(stream)
    return [encode_frame(p) for p in props], diags

