"""Active channel triple: encode, pluggable transmission system, decode.

The encoder/decoder halves are fixed to the wire module's ``encode`` and
``receive``; what varies is the transmission system applied to the
serialized wire bytes.  Noisy systems are seeded and counter-indexed so
every transcript is replayable.  ``transmit`` returns the ``Transcript``
of the use: decode failures are values in it, never exceptions, because
the receiver must be able to observe "did not arrive" as an outcome.

When the system returns exactly the bytes that were sent, ``transmit``
skips the scan: ``receive(encode(p)) == ([p], [])``, so the received
proposition is the sent object itself, equal to the one ``receive``
would build.
"""

from __future__ import annotations

import json
import math
import os
import random
import re
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from .model import Proposition, equivalent, render_proposition
from .wire import encode, receive


class ChannelConfigError(ValueError):
    """Raised for unknown TS kinds or invalid TS parameters."""


_INTEGER_RE = re.compile(r"-?[0-9]+")  # ASCII digits, as model._DIGITS_RE


def _integer(value, what: str) -> int:
    """An int, or a string of an optional '-' and ASCII digits; anything else
    (a bool, a float, None, ' 5', '+5', '1_0', '٣') is a ChannelConfigError
    naming what was wrong."""
    if isinstance(value, int) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, str) and _INTEGER_RE.fullmatch(value):
        return int(value)
    raise ChannelConfigError(f"{what} must be an integer, got {value!r}")


def _byte_values(values: list) -> bytes:
    """Byte values read as ``_integer`` reads integers: ints that are not
    bools, or strings of ASCII digits, each in 0..255; anything else raises
    TypeError or ValueError.  One check over the joined strings, not one per
    value, keeps a 256-entry JSON map about as cheap to read as plain
    ``int()`` calls."""
    try:
        digits = "".join(values)  # all strings, as JSON keys are
    except TypeError:
        types = set(map(type, values))
        if not types <= {int, str}:  # a bool, a float, None, ...
            bad = next(v for v in values if type(v) not in (int, str))
            raise TypeError(f"not an int or a string of digits: {bad!r}") from None
        if str not in types:
            return bytes(values)
        digits = "".join(v for v in values if type(v) is str)
    if digits and not (digits.isascii() and digits.isdigit()):
        bad = next(v for v in values
                   if type(v) is str and not (v.isascii() and v.isdigit()))
        raise ValueError(f"not ASCII digits: {bad!r}")
    return bytes(map(int, values))


def _bytes_to_bits(data: bytes) -> str:
    return format(int.from_bytes(data, "big"), f"0{8 * len(data)}b") if data else ""


class TransmissionSystem:
    """Base TS: a deterministic function of (seed, use counter, input)."""

    kind = "abstract"
    seed = 0
    # invert(data, n) undoes use n, so a system that has one is one-to-one by
    # construction; one without (truncate) is sampled over a corpus instead
    invert: Optional[Callable[[bytes, int], bytes]] = None

    @property
    def analytic_injective(self) -> bool:
        return self.invert is not None

    def apply(self, data: bytes, n: int) -> bytes:
        raise NotImplementedError


class PerfectTS(TransmissionSystem):
    kind = "perfect"

    def apply(self, data: bytes, n: int) -> bytes:
        return data

    invert = apply


class BitFlipTS(TransmissionSystem):
    """Flips each bit independently with probability p.

    The RNG is keyed on (seed, use counter) so identical uses reproduce
    identical outputs across processes.  At a fixed use the flip mask
    depends only on (seed, use, length), never on the data, so every use
    XORs a fixed mask and is a bijection.

    The stream that transcripts replay is one ``random()`` draw per bit,
    MSB first, from ``random.Random(f"bitflip:{seed}:{use}")``; a bit
    flips iff its draw is below p.  A draw is k / 2**53 with
    k = (a >> 5) << 26 | (b >> 6), where a and b are the next two 32-bit
    Mersenne Twister outputs, so it is below p iff k < ceil(p * 2**53).
    ``apply`` takes every a and b from one ``getrandbits`` call and
    settles most bits on the top byte of a (k >> 45) alone.
    """

    kind = "bitflip"

    def __init__(self, p: float, seed: int = 0):
        if not 0.0 <= p <= 1.0:
            raise ChannelConfigError(f"flip probability out of [0,1]: {p}")
        self.p = float(p)
        self.seed = seed

    def apply(self, data: bytes, n: int) -> bytes:
        if self.p == 0.0 or not data:
            return data
        bits = 8 * len(data)
        # the 2 * bits words that one random() per bit would draw, in order:
        # bit i's a is bytes 8i..8i+3, its b bytes 8i+4..8i+7
        raw = random.Random(f"bitflip:{self.seed}:{n}").getrandbits(
            64 * bits).to_bytes(8 * bits, "little")
        t = math.ceil(self.p * 2**53)  # bit i flips iff k_i < t
        edge = t >> 45  # 0..256: a top byte below it flips, above it does not
        top = raw[3::8]
        mask = int(top.translate(b"1" * edge + b"0" * (256 - edge)), 2)
        if edge < 256:
            # a top byte equal to edge: the whole k decides, about bits / 256
            i = top.find(edge)
            while i >= 0:
                a = int.from_bytes(raw[8 * i:8 * i + 4], "little")
                b = int.from_bytes(raw[8 * i + 4:8 * i + 8], "little")
                if ((a >> 5) << 26 | b >> 6) < t:
                    mask |= 1 << (bits - 1 - i)
                i = top.find(edge, i + 1)
        if not mask:
            return data
        return (int.from_bytes(data, "big") ^ mask).to_bytes(len(data), "big")

    invert = apply  # undo use n: the same mask XORed again


class TruncateTS(TransmissionSystem):
    """Keeps only the first max_bits bits of the stream, zero-padding a
    trailing partial byte.

    max_bits = 0 (drop everything) is allowed: the diagonal analyses
    need a channel over which nothing ever arrives.
    """

    kind = "truncate"

    def __init__(self, max_bits: int):
        if max_bits < 0:
            raise ChannelConfigError(f"max_bits must be >= 0: {max_bits}")
        self.max_bits = max_bits

    def apply(self, data: bytes, n: int) -> bytes:
        if len(data) * 8 <= self.max_bits:
            return data
        whole, rest = divmod(self.max_bits, 8)
        if not rest:
            return data[:whole]
        # a trailing partial byte keeps its top `rest` bits, zero-padded
        return data[:whole] + bytes([data[whole] & (0xFF00 >> rest) & 0xFF])


class SubstituteTS(TransmissionSystem):
    """Applies a bijective byte map; unspecified bytes map to themselves."""

    kind = "substitute"

    def __init__(self, mapping: dict[int, int]):
        try:
            keys = _byte_values(list(mapping))
            values = _byte_values(list(mapping.values()))
        except (AttributeError, TypeError, ValueError) as e:
            raise ChannelConfigError(
                f"config field 'map' must map byte values to byte values: {e}") from None
        self.table = bytes.maketrans(keys, values)
        if len(set(self.table)) != 256:
            raise ChannelConfigError("byte map is not a bijection")
        self.inverse_table = bytes.maketrans(self.table, bytes(range(256)))

    def apply(self, data: bytes, n: int) -> bytes:
        return data.translate(self.table)

    def invert(self, data: bytes, n: int) -> bytes:
        return data.translate(self.inverse_table)


@dataclass
class Channel:
    """Active channel: wire encode/receive, a TS and a monotone use counter."""

    ts: TransmissionSystem
    uses: int = 0


@dataclass(slots=True)
class Transcript:
    """Replayable record of one transmit.

    Stores what was sent and received; the text and bit-string forms are
    rendered from those facts when read.  A report, not a value: a plain
    slotted record, mutable and not hashable, because each transmit builds
    one and the library never keeps it, so it skips a frozen record's
    per-field cost.  The propositions it holds are frozen values.
    """

    sent_proposition: Proposition
    recv_proposition: Optional[Proposition]
    sent_bytes: bytes
    recv_bytes: bytes
    error: Optional[str]
    ts_kind: str
    seed: int
    n: int

    @property
    def ok(self) -> bool:
        """A single clean frame arrived and decoded."""
        return self.recv_proposition is not None

    @property
    def transferred(self) -> bool:
        """What arrived is equivalent to what was sent."""
        recv = self.recv_proposition
        return recv is not None and equivalent(recv, self.sent_proposition)

    @property
    def sent(self) -> str:
        return render_proposition(self.sent_proposition)

    @property
    def recv(self) -> Optional[str]:
        if self.recv_proposition is None:
            return None
        return render_proposition(self.recv_proposition)

    @property
    def sent_bits(self) -> str:
        return _bytes_to_bits(self.sent_bytes)

    @property
    def recv_bits(self) -> str:
        return _bytes_to_bits(self.recv_bytes)

    def to_json(self) -> dict:
        # fixed JSONL field set
        return {
            "sent": self.sent,
            "sent_bits": self.sent_bits,
            "recv_bits": self.recv_bits,
            "recv": self.recv,
            "ts": self.ts_kind,
            "seed": self.seed,
            "n": self.n,
        }


def make_channel(config: dict) -> Channel:
    """Build a channel from {kind, p, seed, max_bits, map}; Perfect if no kind.

    The SEMCHAN_SEED environment variable overrides the config seed.
    Every invalid field raises ChannelConfigError naming it.
    """
    if not isinstance(config, dict):
        raise ChannelConfigError(
            f"channel config must be a JSON object, got {type(config).__name__}")
    kind = config.get("kind", "perfect")
    env_seed = os.environ.get("SEMCHAN_SEED")
    if env_seed is None:
        seed = _integer(config.get("seed", 0), "config field 'seed'")
    else:
        seed = _integer(env_seed, "SEMCHAN_SEED")
    if kind == "perfect":
        ts: TransmissionSystem = PerfectTS()
    elif kind == "bitflip":
        p = config.get("p", 0.0)
        # a JSON number only: float() would take True, " 1e-1 " and "٠.٥"
        if type(p) not in (int, float):
            raise ChannelConfigError(f"config field 'p' must be a number, got {p!r}")
        ts = BitFlipTS(p, seed)
    elif kind == "truncate":
        ts = TruncateTS(_integer(config.get("max_bits"), "config field 'max_bits'"))
    elif kind == "substitute":
        ts = SubstituteTS(config.get("map", {}))
    else:
        raise ChannelConfigError(f"unknown TS kind: {kind!r}")
    return Channel(ts=ts)


def load_channel(path: str) -> Channel:
    with open(path, encoding="utf-8") as fh:
        return make_channel(json.load(fh))


def transmit(c: Channel, p: Proposition) -> Transcript:
    """Send one proposition: encode, serialize, TS, receive.

    Decode failure is a first-class outcome: the transcript's error says
    why nothing arrived.  Each call advances the channel's use counter.
    A stream that arrives untouched returns at once, unscanned, because
    ``receive(encode(p)) == ([p], [])``: its ``recv_proposition`` is then
    ``p`` itself, a frozen value equal to what ``receive`` would build.
    """
    n = c.uses
    c.uses += 1
    ts = c.ts
    sent_bytes = encode(p)
    recv_bytes = ts.apply(sent_bytes, n)
    if recv_bytes == sent_bytes:
        return Transcript(p, p, sent_bytes, recv_bytes, None, ts.kind, ts.seed, n)
    props, diags = receive(recv_bytes)
    recv_prop: Optional[Proposition] = None
    error: Optional[str] = None
    if len(props) == 1 and not diags:
        recv_prop = props[0]
    elif props:
        error = f"expected one clean frame, got {len(props)} with {len(diags)} diagnostics"
    else:
        detail = "; ".join(map(str, diags))
        error = f"no frame recovered ({detail or 'empty stream'})"
    return Transcript(p, recv_prop, sent_bytes, recv_bytes, error, ts.kind, ts.seed, n)


@dataclass(slots=True)
class ActivenessReport:
    injective: bool
    collision: Optional[tuple[str, str]] = None
    analytic: bool = False


def verify_activeness(ts: TransmissionSystem,
                      corpus: Iterable[Proposition]) -> ActivenessReport:
    """Check the one-to-one input/output condition over a corpus.

    Systems with an inverse (every kind but truncate) report true
    without sampling; truncate is sampled with a frozen use counter and
    any collision exhibited.
    """
    corpus = list(corpus)
    if not corpus:
        raise ValueError("activeness corpus must be nonempty")
    if ts.analytic_injective:
        return ActivenessReport(injective=True, analytic=True)
    return _sample_activeness(ts, corpus, [encode(p) for p in corpus])


def _sample_activeness(ts: TransmissionSystem, corpus: list[Proposition],
                       codes: list[bytes]) -> ActivenessReport:
    """Apply ts at use 0 to each row's code; report the first collision."""
    seen: dict[bytes, Proposition] = {}
    apply = ts.apply
    for p, code in zip(corpus, codes):
        q = seen.setdefault(apply(code, 0), p)
        if q is not p and q != p:
            return ActivenessReport(
                injective=False,
                collision=(render_proposition(q), render_proposition(p)),
            )
    return ActivenessReport(injective=True)


def append_transcript(path: str, t: Transcript) -> None:
    """Append one transcript as a JSON line."""
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(t.to_json()) + "\n")
