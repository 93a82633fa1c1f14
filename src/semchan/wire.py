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

``receive`` is the one receive path: it scans for SYNC, validates
VER/LEN/CRC and the BODY grammar, and decodes each frame to a
proposition.  Every failure is a diagnostic event, never an exception.
A frame whose framing or BODY fails resumes the scan at the byte after
its SYNC; a frame whose framing and BODY hold but whose fields name no
valid proposition ("undecodable") resumes at the frame's end.  Every
proposition returned re-encodes to exactly the bytes it was scanned from.
"""

from __future__ import annotations

import binascii
from dataclasses import dataclass

from .codec import Frame, FrameDecodeError, _min_be_bytes, decode_frame, encode_frame
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


def body_bytes(f: Frame, depth: int = 0) -> bytes:
    """Serialize a frame's BODY per the grammar; deterministic."""
    if depth > MAX_NESTING_DEPTH:
        raise WireSizeError("nesting depth exceeded")
    out = bytearray()
    out.append(0x01 if f.polarity else 0x00)
    out.append(PTAG_NAME if f.predicate_tag == "name" else PTAG_INDEX)
    if len(f.predicate_bytes) > 255:
        raise WireSizeError("predicate field too long")
    out.append(len(f.predicate_bytes))
    out += f.predicate_bytes
    if f.object_tag == "number":
        obytes = _min_be_bytes(f.object_number)
        out.append(OTAG_NUMBER)
        out += len(obytes).to_bytes(2, "big")
        out += obytes
    elif f.object_tag == "all":
        out.append(OTAG_ALL)
        out += (0).to_bytes(2, "big")
    else:
        nested = body_bytes(f.object_frame, depth + 1)
        out.append(OTAG_NESTED)
        out += len(nested).to_bytes(2, "big")
        out += nested
    if len(out) > MAX_BODY_LEN:
        raise WireSizeError("BODY exceeds 65535 bytes")
    return bytes(out)


def parse_body(data: bytes, offset: int = 0, depth: int = 0):
    """Parse one BODY starting at offset; returns (Frame, bytes consumed)."""
    if depth > MAX_NESTING_DEPTH:
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
        nested, used = parse_body(obytes, 0, depth + 1)
        if used != olen:
            raise BodyError("trailing bytes after nested body")
        frame = Frame(bool(pol), ptag_name, bytes(pbytes), "nested",
                      object_frame=nested)
    else:
        raise BodyError(f"bad OTAG byte 0x{otag:02x}")
    return frame, pos - offset


def frame_to_wire(f: Frame) -> bytes:
    """Full wire frame: SYNC + VER + LEN + BODY + CRC."""
    body = body_bytes(f)
    header = bytes([VERSION]) + len(body).to_bytes(2, "big")
    crc = crc16(header + body)
    return SYNC + header + body + crc.to_bytes(2, "big")


@dataclass(frozen=True)
class Diagnostic:
    """One receive event: kind is 'garbage', 'crc', 'body', 'version',
    'truncated' or 'undecodable'; offset is into the scanned stream (the
    SYNC of the frame, or the first unframed byte)."""

    kind: str
    offset: int
    detail: str


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
        # idx points at a SYNC candidate
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
            frame, used = parse_body(body)
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


def wire_to_frames(stream: bytes) -> tuple[list[Frame], list[Diagnostic]]:
    """``receive``, with each proposition as its frame."""
    props, diags = receive(stream)
    return [encode_frame(p) for p in props], diags


def hex_dump(f: Frame) -> str:
    """Annotated hex of a wire frame, one field per line."""
    body = body_bytes(f)
    wire = frame_to_wire(f)

    def group(data: bytes) -> str:
        return " ".join(f"{b:02x}" for b in data)

    return "\n".join([
        f"SYNC  {group(wire[:2])}",
        f"VER   {group(wire[2:3])}",
        f"LEN   {group(wire[3:5])}",
        f"BODY  {group(body)}",
        f"CRC   {group(wire[-2:])}",
    ])
