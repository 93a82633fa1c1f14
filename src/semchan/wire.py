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
frame.  ``receive`` is the one scanner: it looks for SYNC, validates
VER/LEN/CRC and the BODY grammar, and decodes each frame to a
proposition.  Every failure is a diagnostic event, never an exception.
``receive_one``, for a caller that would drop the diagnostics, only asks
whether a stream is exactly one intact frame, with receive's checks.
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
        if n - idx < 7:
            diags.append(Diagnostic("truncated", idx,
                                    "incomplete frame header at end of stream"))
            break
        length = stream[idx + 3] << 8 | stream[idx + 4]
        end = idx + 7 + length
        if end > n:
            diags.append(Diagnostic("truncated", idx,
                                    "frame extends past end of stream"))
            pos = idx + 1
            continue
        crc_got = stream[end - 2] << 8 | stream[end - 1]
        crc_want = crc16(stream[idx + 2:end - 2])
        if crc_got != crc_want:
            diags.append(Diagnostic(
                "crc", idx,
                f"CRC mismatch: got 0x{crc_got:04X}, want 0x{crc_want:04X}"))
            pos = idx + 1
            continue
        ver = stream[idx + 2]
        if ver != VERSION:
            diags.append(Diagnostic("version", idx, f"bad version 0x{ver:02x}"))
            pos = idx + 1
            continue
        try:
            fields, used = body_fields(stream[idx + 5:end - 2])
            if used != length:
                raise BodyError("trailing bytes in BODY")
            props.append(decode_fields(*fields))
        except BodyError as e:
            diags.append(Diagnostic("body", idx, str(e)))
            pos = idx + 1
            continue
        except FrameDecodeError as e:
            diags.append(Diagnostic("undecodable", idx, str(e)))
        pos = end
    return props, diags


def receive_one(stream: bytes) -> Proposition | None:
    """p exactly when ``receive(stream) == ([p], [])``, else None; never
    raises.  Only a stream that is one whole frame from its first byte
    qualifies, so it builds no diagnostic and does not scan."""
    length = len(stream) - 7
    if (length < 0 or stream[:2] != SYNC or stream[2] != VERSION
            or stream[3] << 8 | stream[4] != length
            or stream[-2] << 8 | stream[-1] != crc16(stream[2:-2])):
        return None
    try:
        fields, used = body_fields(stream[5:-2])
        return decode_fields(*fields) if used == length else None
    except (BodyError, FrameDecodeError):
        return None


def wire_to_frames(stream: bytes) -> tuple[list[Frame], list[Diagnostic]]:
    """``receive``, with each proposition as its frame."""
    props, diags = receive(stream)
    return [encode_frame(p) for p in props], diags

