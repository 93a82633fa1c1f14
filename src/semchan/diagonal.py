"""Diagonal constructions and the self-reference analyzer.

Enumerates all propositions over a predicate list (with NT and Tr
appended as ordinary enumerated predicates), builds the derived B/B'
rows, locates the diagonal fixed point where the NT row meets its own
index, and mechanizes the receiver's two-branch case analysis for
self-referential frames (NT, Tr, Err over all-objects or a nested
proposition).  Rows are built as propositions that nest their inner
proposition directly and are encoded once, where a public function
returns a Frame; the analyzer decodes its frame once and sends
propositions.  Paradox is a verdict, not an exception: the analyzer is
total on its precondition.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Optional

from .channel import Channel, transmit
from .model import ObjectRef, PredicateCode, Proposition
from .transfer import NON_TRANSFERABLE, PARADOXICAL, TRANSFERABLE, Verdict
from .wire import (Frame, body_bytes, decode_frame, encode, encode_frame,
                   frame_to_wire)

NT = PredicateCode("NT")
TR = PredicateCode("Tr")
ERR = PredicateCode("Err")


@dataclass(frozen=True, slots=True)
class EnumerationTable:
    """Ordered predicate list with NT/Tr appended, over objects 1..max_n.

    k_nt and k_tr are the 1-based indices of NT and Tr in the list.
    """

    predicates: tuple[PredicateCode, ...]
    max_n: int
    k_nt: int
    k_tr: int

    def rows(self) -> Iterator[Proposition]:
        """Base cells: both polarities of every P_i(m)."""
        for pred in self.predicates:
            for pol in (True, False):
                for m in range(1, self.max_n + 1):
                    yield Proposition(pol, pred, ObjectRef.num(m))


def build_enumeration(preds: list[PredicateCode], max_n: int) -> EnumerationTable:
    """Arrange predicates in a table, appending NT and Tr if absent."""
    if not preds:
        raise ValueError("predicate list must be nonempty")
    if max_n < 1:
        raise ValueError("max_n must be >= 1")
    # PredicateCode equality is equality of values, and 5 != "5", so the
    # values stand in for the codes without the generated __eq__/__hash__
    values = [pred.value for pred in preds]
    if len(set(values)) != len(values):
        raise ValueError("duplicate predicate in enumeration")
    full = list(preds)
    for builtin in (NT, TR):
        if builtin.value not in values:
            full.append(builtin)
            values.append(builtin.value)
    return EnumerationTable(
        predicates=tuple(full),
        max_n=max_n,
        k_nt=values.index(NT.value) + 1,
        k_tr=values.index(TR.value) + 1,
    )


def _about(polarity: bool, pred: PredicateCode, inner: Proposition) -> Proposition:
    """pred applied to the nested proposition inner."""
    return Proposition(polarity, pred, ObjectRef("nested", 0, inner))


def _cell(t: EnumerationTable, n: int, polarity: bool) -> Proposition:
    """P_n(n); raises IndexError for n outside the table."""
    if not 1 <= n <= len(t.predicates):
        raise IndexError(f"n out of range 1..{len(t.predicates)}: {n}")
    return Proposition(polarity, t.predicates[n - 1], ObjectRef.num(n))


def build_B(t: EnumerationTable, n: int) -> Frame:
    """Derived row B(n): the frame (1, NT, nested (1, P_n, n))."""
    return encode_frame(_about(True, NT, _cell(t, n, True)))


def build_Bprime(t: EnumerationTable, n: int) -> Frame:
    """Derived row B'(n): the frame (0, Tr, nested (0, P_n, n))."""
    return encode_frame(_about(False, TR, _cell(t, n, False)))


@dataclass(slots=True)
class FixedPointReport:
    k: int
    k_prime: int
    frame_star: Frame
    frame_star_prime: Frame
    identity_holds: bool
    identity_prime_holds: bool

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "k_prime": self.k_prime,
            "frame_star_hex": body_bytes(self.frame_star).hex(),
            "frame_star_prime_hex": body_bytes(self.frame_star_prime).hex(),
            "identity_holds": self.identity_holds,
            "identity_prime_holds": self.identity_prime_holds,
        }


@lru_cache(typed=True)
def _diagonal(pred: PredicateCode, k: int, pred_prime: PredicateCode,
              k_prime: int) -> tuple[Frame, Frame, bool, bool]:
    """Both diagonal rows and identities, from the two slots they read."""
    left = encode_frame(_about(True, NT, Proposition(True, pred, ObjectRef.num(k))))
    right = _about(True, NT, Proposition(True, pred, ObjectRef.num(k)))
    left_p = encode_frame(_about(False, TR, Proposition(
        False, pred_prime, ObjectRef.num(k_prime))))
    right_p = _about(False, TR, Proposition(
        False, pred_prime, ObjectRef.num(k_prime)))
    return (left, left_p, frame_to_wire(left) == encode(right),
            frame_to_wire(left_p) == encode(right_p))


def find_fixed_point(t: EnumerationTable) -> FixedPointReport:
    """Self-apply the derived rows at their own indices.

    Builds both sides of the diagonal identity independently -- the B
    row evaluated at n = k, and NT applied to the frame of the k-th
    predicate at object k -- and exhibits their bit-level equality.
    The index checks run on every call.  The frames and identities are
    built once per (slot predicate, index) pair of NT's and Tr's slots,
    in a typed memo of at most 128 entries, so ``1`` and ``True`` stay
    apart; each call returns a fresh report that shares the immutable
    ``Frame``s.
    """
    k, k_prime = t.k_nt, t.k_tr
    npred = len(t.predicates)
    if not (1 <= k <= npred and 1 <= k_prime <= npred):
        raise ValueError("NT/Tr missing from enumeration")
    return FixedPointReport(k, k_prime, *_diagonal(
        t.predicates[k - 1], k, t.predicates[k_prime - 1], k_prime))


def build_NT_all() -> Frame:
    """The frame asserting every code is non-transferable."""
    return encode_frame(Proposition(True, NT, ObjectRef.all_objects()))


def build_Err_all() -> Frame:
    """The frame asserting the channel erred on every string."""
    return encode_frame(Proposition(True, ERR, ObjectRef.all_objects()))


@dataclass(slots=True)
class TraceStep:
    assumption: str
    consequence: str
    contradiction: Optional[bool]

    def to_json(self) -> dict:
        return {
            "assumption": self.assumption,
            "consequence": self.consequence,
            "contradiction": self.contradiction,
        }


@dataclass(slots=True)
class ParadoxReport:
    frame: Frame
    structural_fidelity: bool
    asserted_self_instance: bool
    observed_self_instance: Optional[bool]
    case_trace: tuple[TraceStep, ...]
    verdict: Verdict

    def to_json(self) -> dict:
        return {
            "frame_hex": body_bytes(self.frame).hex(),
            "structural_fidelity": self.structural_fidelity,
            "asserted_self_instance": self.asserted_self_instance,
            "observed_self_instance": self.observed_self_instance,
            "case_trace": [s.to_json() for s in self.case_trace],
            "verdict": self.verdict.to_json(),
        }


def analyze_self_reference(c: Channel, f: Frame) -> ParadoxReport:
    """Receiver-side two-branch case analysis of a self-referential frame.

    Branch (i) assumes the received content is true and derives the
    claim's own instance; branch (ii) assumes the frame was not
    transferred.  The verdict turns on structural fidelity alone.  An
    intact round trip contradicts (ii): the verdict is Paradoxical when
    the channel's execution also contradicts (i), else Transferable.  A
    failed round trip leaves (i) unreachable and (ii) consistent, so the
    verdict is NonTransferable.  A frame that does not decode, nested
    frames included, is a FrameDecodeError (a ValueError) raised before
    the channel is used.
    """
    p = decode_frame(f)
    if not p.predicate.is_builtin:
        raise ValueError(f"not a builtin self-referential frame: {p.predicate}")
    if p.object.kind == "number":
        raise ValueError("self-reference analysis needs object '*' or a nested frame")

    transcript = transmit(c, p)
    fidelity = transcript.transferred
    name = p.predicate.value
    asserted = p.polarity
    self_desc = "its own code" if p.object.kind == "all" else "the nested frame"
    case_i, case_ii = "(i) received content is true", "(ii) frame was not transferred"

    observed: Optional[bool] = None
    if fidelity:
        target = p if p.object.kind == "all" else p.object.inner
        if name == "Err":  # byte-level error on the target's own transmission
            t = transcript if target is p else transmit(c, target)
            observed = t.sent_bytes != t.recv_bytes
        else:  # NT holds of what fails its round trip, Tr of what passes
            observed = transmit(c, target).transferred == (name == "Tr")
        claim = f"{name} holds of {self_desc}" if asserted \
            else f"{name} fails of {self_desc}"
        trace = (
            TraceStep(case_i, f"content implies {claim}: asserted {name}={asserted}, "
                              f"channel execution gives {name}={observed}",
                      asserted != observed),
            TraceStep(case_ii, "round trip reproduced the frame "
                               "(structural fidelity holds)", True),
        )
        kind = PARADOXICAL if asserted != observed else TRANSFERABLE
    else:
        trace = (
            TraceStep(case_i, "no equivalent content was received; "
                              "branch unreachable", True),
            TraceStep(case_ii, "round trip failed to reproduce the frame; "
                               "assumption consistent", False),
        )
        kind = NON_TRANSFERABLE
    reasons = tuple(f"{s.assumption} -> {s.consequence}" for s in trace)
    return ParadoxReport(
        frame=f, structural_fidelity=fidelity, asserted_self_instance=asserted,
        observed_self_instance=observed, case_trace=trace,
        verdict=Verdict(kind, transcript, reasons))
