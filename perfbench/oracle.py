"""Reference model used to check the program's outputs.

It is written from the documented formats (the wire layout, the text
grammar, the transmission-system definitions and the two-branch liar
analysis), not by calling the program, so a defect in the program shows up
as a mismatch.  Propositions are plain trees ``(polarity, predicate,
object)``: the predicate is a name (``str``) or an index (``int``), and the
object is a number, ``"*"`` for all objects, or a nested tree.

The bit-flip model pins the documented RNG stream, one
``random.Random("bitflip:<seed>:<use>")`` draw per bit in order, so a change
to that stream counts as wrong output rather than as a speed-up.
"""

from __future__ import annotations

import binascii
import random
import re

SYNC = b"\xa5\x5a"
BUILTINS = frozenset({"NT", "Tr", "Err"})

TRANSFERABLE = "Transferable"
NON_TRANSFERABLE = "NonTransferable"
PARADOXICAL = "Paradoxical"

# Lines of the CLI receiver's report (``semchan serve``, ``handle_stream``).
RECEIVER_DIAGNOSTIC = re.compile(r"diagnostic (\w+)@(\d+): ")
RECEIVER_UNDECODABLE = re.compile(r"frame \d+: undecodable")


def min_be(n: int) -> bytes:
    return n.to_bytes(max(1, (n.bit_length() + 7) // 8), "big")


def raw_body(pol: bool, ptag: int, pbytes: bytes, otag: int,
             obytes: bytes) -> bytes:
    return (bytes([1 if pol else 0, ptag, len(pbytes)]) + pbytes
            + bytes([otag]) + len(obytes).to_bytes(2, "big") + obytes)


def body(tree) -> bytes:
    pol, pred, obj = tree
    if isinstance(pred, str):
        ptag, pbytes = 0, pred.encode("ascii")
    else:
        ptag, pbytes = 1, min_be(pred)
    if obj == "*":
        return raw_body(pol, ptag, pbytes, 2, b"")
    if isinstance(obj, tuple):
        return raw_body(pol, ptag, pbytes, 1, body(obj))
    return raw_body(pol, ptag, pbytes, 0, min_be(obj))


def wire(body_bytes: bytes) -> bytes:
    """SYNC | VER | LEN | BODY | CRC-16/IBM-3740 over VER..BODY."""
    header = b"\x01" + len(body_bytes).to_bytes(2, "big")
    crc = binascii.crc_hqx(header + body_bytes, 0xFFFF)
    return SYNC + header + body_bytes + crc.to_bytes(2, "big")


def render(tree) -> str:
    pol, pred, obj = tree
    name = pred if isinstance(pred, str) else f"#{pred}"
    if obj == "*":
        text = "*"
    elif isinstance(obj, tuple):
        text = "<" + body(obj).hex() + ">"
    else:
        text = str(obj)
    return f"{'' if pol else '~'}{name}({text})"


def depth(tree) -> int:
    obj = tree[2]
    return 1 + depth(obj) if isinstance(obj, tuple) else 0


def bits(data: bytes) -> str:
    return "".join(format(b, "08b") for b in data)


class Perfect:
    kind = "perfect"

    def apply(self, data: bytes, n: int) -> bytes:
        return data


class BitFlip:
    kind = "bitflip"

    def __init__(self, p: float, seed: int):
        self.p, self.seed = p, seed

    def apply(self, data: bytes, n: int) -> bytes:
        rng = random.Random(f"bitflip:{self.seed}:{n}")
        out = bytearray(data)
        for i in range(len(out) * 8):
            if rng.random() < self.p:
                out[i // 8] ^= 0x80 >> (i % 8)
        return bytes(out)


class Truncate:
    kind = "truncate"

    def __init__(self, max_bits: int):
        self.max_bits = max_bits

    def apply(self, data: bytes, n: int) -> bytes:
        if len(data) * 8 <= self.max_bits:
            return data
        whole, rest = divmod(self.max_bits, 8)
        tail = bytes([data[whole] & (0xFF << (8 - rest)) & 0xFF]) if rest else b""
        return data[:whole] + tail


class Substitute:
    kind = "substitute"

    def __init__(self, mapping: dict[int, int]):
        table = list(range(256))
        for k, v in mapping.items():
            table[k] = v
        self.table = bytes(table)

    def apply(self, data: bytes, n: int) -> bytes:
        return data.translate(self.table)


def model_for(config: dict):
    """Reference transmission system for a channel config dict."""
    kind = config["kind"]
    if kind == "perfect":
        return Perfect()
    if kind == "bitflip":
        return BitFlip(config["p"], config["seed"])
    if kind == "truncate":
        return Truncate(config["max_bits"])
    return Substitute(config["map"])


def check_verdict(ts, tree, n: int) -> tuple[str, bytes, bytes]:
    """(verdict, sent wire, received bytes) of one transmit at use n.

    The encoding is canonical, so the round trip is equivalent exactly when
    the received bytes equal the sent ones.
    """
    sent = wire(body(tree))
    recv = ts.apply(sent, n)
    return (TRANSFERABLE if recv == sent else NON_TRANSFERABLE), sent, recv


def analysis_verdict(ts, tree, n: int) -> tuple[str, int]:
    """Verdict of the two-branch self-reference analysis, and uses consumed.

    Branch (ii) ("not transferred") is consistent only when the round trip
    fails, which gives NonTransferable.  Otherwise branch (i) compares the
    asserted polarity with the builtin evaluated by running the channel
    again on the target (the frame itself for ``*``, else the nested frame).
    """
    sent = wire(body(tree))
    if ts.apply(sent, n) != sent:
        return NON_TRANSFERABLE, 1
    pol, name, obj = tree
    if name == "Err" and obj == "*":
        observed, uses = False, 1
    else:
        target = wire(body(tree if obj == "*" else obj))
        delivered = ts.apply(target, n + 1) == target
        observed = delivered if name == "Tr" else not delivered
        uses = 2
    return (PARADOXICAL if pol != observed else TRANSFERABLE), uses
