"""The channel <-> truth-predicate bridge over finite worlds.

One direction builds a code-indexed truth predicate from a transferable
channel: push the code through the transmission system, decode, and
evaluate the received proposition against the world.  The other builds a
decoder from a truth predicate by inverting an injective transmission
system.  verify_bridge checks the T-scheme row by row over a ground
corpus, carrying the diagonal frame as a flagged row that is reported
but never counted.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from .channel import Channel, TransmissionSystem, _sample_activeness
from .diagonal import build_enumeration, find_fixed_point
from .model import ObjectRef, Proposition, World, holds, render_proposition
from .wire import decode_frame, encode, frame_to_wire, receive_one

log = logging.getLogger(__name__)


class ChannelNotActiveError(ValueError):
    """Raised when a channel fails the one-to-one condition."""


class NotInvertibleError(ValueError):
    """Raised when a transmission system admits no inverse."""


def ground_corpus(w: World) -> list[Proposition]:
    """Both polarities of every predicate/object pair of the world."""
    objects = [ObjectRef.num(m) for m in sorted(w.domain)]
    return [Proposition(pol, pred, obj)
            for pred in w.predicates() for obj in objects for pol in (True, False)]


class TruthPredicate:
    """Total, deterministic map from frame codes (wire bytes) to booleans.

    Backed by a memo table filled on demand; codes that do not decode to
    a world-evaluable proposition map to False with a logged note.
    """

    def __init__(self, evaluate: Callable[[bytes], Optional[bool]]):
        self._evaluate = evaluate
        self._table: dict[bytes, bool] = {}
        self.notes: list[str] = []

    def __call__(self, code: bytes) -> bool:
        value = self._table.get(code)
        if value is None:
            value = self._evaluate(code)
            if value is None:
                self.notes.append(
                    f"code {code.hex()} undecodable or not world-evaluable; "
                    "mapped to False")
                log.info(self.notes[-1])
                value = False
            self._table[code] = value
        return value


def truth_from_channel(c: Channel, w: World) -> TruthPredicate:
    """T(n) := evaluate the proposition decoded from TS(n) against w.

    Only a system that is not analytically injective (truncate) is
    sampled, over the world's ground corpus; an analytic one needs no probe.
    Only TS(n) depends on the channel: decoding and evaluating the received
    bytes is shared, through w's memo, by every truth predicate over w.  The
    memo keeps a received stream only when it decoded to exactly one
    proposition over w's own predicates and over '*' or a domain object, so
    noise cannot grow it past 2 * |predicates| * (|domain| + 1) entries.
    A bridge seeds the same entries as it encodes its rows (see
    ``verify_bridge``).  Each call the predicate's table misses still
    advances the use counter and applies TS, so uses, noise and notes are as
    without the memo.
    """
    probe = [] if c.ts.analytic_injective else ground_corpus(w)
    return _truth(c, w, probe, [encode(p) for p in probe])


def _truth(c: Channel, w: World, probe: list[Proposition],
           codes: list[bytes]) -> TruthPredicate:
    """truth_from_channel, sampling a system that is not analytically
    injective over the probe rows, whose codes are given."""
    if probe and not c.ts.analytic_injective:
        report = _sample_activeness(c.ts, probe, codes)
        if not report.injective:
            raise ChannelNotActiveError(
                f"transmission system not one-to-one: collision {report.collision}")
    apply, evaluated = c.ts.apply, w._evaluated

    def evaluate(code: bytes) -> Optional[bool]:
        n = c.uses
        c.uses += 1
        received = bytes(apply(code, n))
        value = evaluated.get(received)
        if value is not None:
            return value
        p = receive_one(received)
        if p is None:
            return None
        try:
            value = holds(w, p)
        except ValueError:
            return None
        # received is exactly encode(p), so keeping only the world's own atoms
        # bounds the memo by 2 * |predicates| * (|domain| + 1) entries
        if w._owns(p):
            evaluated[received] = value
        return value

    return TruthPredicate(evaluate)


def decoder_from_truth(truth: TruthPredicate,
                       ts: TransmissionSystem) -> Callable[..., bool]:
    """d(n', n) = truth(TS^{-1}(n')) for the n-th use (default 0), which
    only a bit-flip system reads; requires a system that defines
    ``invert(data, n)``."""
    invert = ts.invert
    if invert is None:
        raise NotInvertibleError(
            f"transmission system {ts.kind!r} is not invertible")

    def decode(code: bytes, n: int = 0) -> bool:
        return truth(invert(code, n))

    return decode


@dataclass(slots=True)
class BridgeRow:
    """One row of a bridge report: the atom checked (the decoded frame, on
    the diagonal row), its wire code and the two truth values.  It keeps the
    facts; ``proposition`` and ``code_hex`` are rendered when read."""

    atom: Proposition
    code: bytes
    truth: bool
    world_holds: Optional[bool]
    agree: Optional[bool]
    diagonal: bool = False

    @property
    def proposition(self) -> str:
        return render_proposition(self.atom)

    @property
    def code_hex(self) -> str:
        return self.code.hex()


@dataclass(slots=True)
class BridgeReport:
    corpus_size: int
    rows: tuple[BridgeRow, ...]
    agree: bool
    failures: tuple[str, ...]
    notes: tuple[str, ...]

    def to_json(self) -> dict:
        return {
            "corpus_size": self.corpus_size,
            "agree": self.agree,
            "failures": list(self.failures),
            "notes": list(self.notes),
            "rows": [
                {
                    "proposition": r.proposition,
                    "code_hex": r.code_hex,
                    "T": r.truth,
                    "holds": r.world_holds,
                    "agree": r.agree,
                    "diagonal": r.diagonal,
                }
                for r in self.rows
            ],
        }

    def to_table(self) -> str:
        header = f"{'proposition':<28} {'code-hex':<40} {'T':<5} {'holds':<5} agree"
        lines = [header, "-" * len(header)]
        for r in self.rows:
            mark = " [diagonal]" if r.diagonal else ""
            lines.append(
                f"{r.proposition:<28} {r.code_hex:<40} {str(r.truth):<5} "
                f"{str(r.world_holds):<5} {r.agree}{mark}")
        lines.append(f"agreement: {self.agree} over {self.corpus_size} ground rows")
        return "\n".join(lines)


def verify_bridge(c: Channel, w: World,
                  corpus: Iterable[Proposition]) -> BridgeReport:
    """Check P <-> T(Encode(P)) row by row over a ground corpus.

    Each row is encoded, or its code looked up, before a sampled system
    (truncate) is probed over these rows' codes; over an empty corpus, over
    the world's ground corpus.  The diagonal fixed-point frame is appended as
    a flagged row excluded from the agreement flag, unless the world has no
    literals and the corpus is empty, which leaves no predicate to build it.

    Only T(code) depends on the channel.  So the bridges over one world share
    two memos (see ``World``): ``w._codes`` encodes each of the world's own
    atoms once per world, and when an own atom p is first encoded, the truth
    memo ``w._evaluated`` gets code -> holds(w, p).  That entry is exact:
    ``receive(encode(p))`` is ``([p], [])`` and ``holds`` never raises on an
    own atom, so it is what T would store once the code arrives intact, and
    a world's first bridge decodes only the received streams that are no
    row's code (over perfect, the diagonal row's).  So ``holds`` runs once
    per own atom per world; any other row (foreign atoms, builtins, nested
    objects) has a code that is never a key of ``w._evaluated`` and is
    evaluated by ``holds``.  T is still asked on every row, so uses, notes
    and errors are as without the memos.  Each report builds its own rows;
    only a failing row's text is rendered here, for ``failures``.
    """
    corpus = list(corpus)
    memo, evaluated = w._codes, w._evaluated
    codes: list[bytes] = []
    for p in corpus:
        code = memo.get(p)
        if code is None:
            code = encode(p)
            if w._owns(p):
                memo[p] = code
                evaluated[code] = holds(w, p)  # receive(code) is ([p], [])
        codes.append(code)
    truth = _truth(c, w, corpus, codes) if corpus else truth_from_channel(c, w)
    rows: list[BridgeRow] = []
    failures: list[str] = []
    for p, code in zip(corpus, codes):
        t = truth(code)
        h = evaluated.get(code)
        if h is None:
            h = holds(w, p)
        row = BridgeRow(p, code, t, h, t == h)
        if not row.agree:
            failures.append(row.proposition)
        rows.append(row)

    # any builtin row has already raised in holds
    preds = w.predicates() or sorted({p.predicate for p in corpus}, key=str)
    if preds:
        table = build_enumeration(preds, len(preds))
        star = find_fixed_point(table).frame_star
        star_code = frame_to_wire(star)
        rows.append(BridgeRow(decode_frame(star), star_code, truth(star_code),
                              None, None, diagonal=True))

    return BridgeReport(
        corpus_size=len(corpus),
        rows=tuple(rows),
        agree=not failures,
        failures=tuple(failures),
        notes=tuple(truth.notes),
    )
