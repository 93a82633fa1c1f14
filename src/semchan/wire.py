"""Self-delimiting byte framing: sync word, versioned TLV body, CRC-16.

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

from .codec import (Frame, FrameDecodeError, _min_be_bytes, decode_fields,
                    encode_frame, frame_fields)
from .model import MAX_NESTING_DEPTH, Proposition

SYNC = b"\xa5\x5a"
VERSION = 0x01
MAX_BODY_LEN = 65535

PTAG_NAME = 0x00
PTAG_INDEX = 0x01
OTAG_NUMBER = 0x00
OTAG_NESTED = 0x01
OTAG_ALL = 0x02

def crc16(data: bytes) -> int:
    """CRC-16/IBM-3740, formerly CCITT-FALSE: poly 0x1021, init 0xFFFF,
    no reflection, no xorout; check value 0x29B1.

    https://reveng.sourceforge.io/crc-catalogue/16.htm
    """
    return binascii.crc_hqx(data, 0xFFFF)


class BodyError(ValueError):
    """Raised when BODY bytes violate the grammar."""


class WireSizeError(ValueError):
    """Raised when a frame exceeds wire size limits."""


def fields_body(pol, ptag, pbytes, kind, number, nested, depth: int = 0) -> bytes:
    """body_bytes of a frame given as its fields, or as frame_fields."""
    if depth > MAX_NESTING_DEPTH:
        raise WireSizeError("nesting depth exceeded")
    if len(pbytes) > 255:
        raise WireSizeError("predicate field too long")
    if kind == "number":
        otag, obytes = OTAG_NUMBER, _min_be_bytes(number)
    elif kind == "all":
        otag, obytes = OTAG_ALL, b""
    elif isinstance(nested, Frame):
        otag, obytes = OTAG_NESTED, body_bytes(nested, depth + 1)
    else:
        otag, obytes = OTAG_NESTED, fields_body(*frame_fields(nested), depth + 1)
    out = (bytes((1 if pol else 0, PTAG_NAME if ptag == "name" else PTAG_INDEX,
                  len(pbytes)))
           + pbytes + bytes((otag,)) + len(obytes).to_bytes(2, "big") + obytes)
    if len(out) > MAX_BODY_LEN:
        raise WireSizeError("BODY exceeds 65535 bytes")
    return out


def body_bytes(f: Frame, depth: int = 0) -> bytes:
    """Serialize a frame's BODY per the grammar; deterministic."""
    return fields_body(f.polarity, f.predicate_tag, f.predicate_bytes,
                       f.object_tag, f.object_number, f.object_frame, depth)


def body_fields(data: bytes, offset: int = 0, depth: int = 0):
    """parse_body, with the frame's fields, in Frame's order, for the Frame."""
    if depth > MAX_NESTING_DEPTH:
        raise BodyError("nesting depth exceeded")
    size = len(data)
    if size - offset < 3:
        raise BodyError("BODY shorter than fixed header")
    pol, ptag, plen = data[offset:offset + 3]
    if pol > 0x01:
        raise BodyError(f"bad POL byte 0x{pol:02x}")
    if ptag > 0x01:
        raise BodyError(f"bad PTAG byte 0x{ptag:02x}")
    pend = offset + 3 + plen
    if pend > size:
        raise BodyError("truncated predicate field")
    pbytes = bytes(data[offset + 3:pend])
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
        nested, used = parse_body(data[pend + 3:end], 0, depth + 1)
        if used != olen:
            raise BodyError("trailing bytes after nested body")
        obj = "nested", 0, nested
    else:
        raise BodyError(f"bad OTAG byte 0x{otag:02x}")
    return (bool(pol), ptag_name, pbytes, *obj), end - offset


def parse_body(data: bytes, offset: int = 0, depth: int = 0):
    """Parse one BODY starting at offset; returns (Frame, bytes consumed)."""
    fields, used = body_fields(data, offset, depth)
    return Frame(*fields), used


def _framed(body: bytes) -> bytes:
    framed = (VERSION << 16 | len(body)).to_bytes(3, "big") + body
    return SYNC + framed + crc16(framed).to_bytes(2, "big")


def frame_to_wire(f: Frame) -> bytes:
    """Full wire frame: SYNC + VER + LEN + BODY + CRC."""
    return _framed(body_bytes(f))


def encode(p: Proposition) -> bytes:
    """frame_to_wire(encode_frame(p)), without building the Frame."""
    return _framed(fields_body(*frame_fields(p)))


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
        fields, used = body_fields(stream[idx + 5:end - 2])
        if used != length:
            raise BodyError("trailing bytes in BODY")
        return decode_fields(*fields), end
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

