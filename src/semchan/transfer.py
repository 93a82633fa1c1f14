"""Transferability verdicts and the executable NT/Tr predicates.

A proposition is transferable over a channel when its round trip through
encode, transmission and decode is equivalent to what was sent.  NT and
Tr are channel-indexed predicates over frame codes, evaluated here by
actually running the channel.  Evaluation advances the channel's use
counter: the predicates are operational, not declarative.
"""

from __future__ import annotations

from dataclasses import dataclass

from .channel import Channel, Transcript, transmit
from .model import Proposition
from .wire import Frame, decode_frame

TRANSFERABLE = "Transferable"
NON_TRANSFERABLE = "NonTransferable"
PARADOXICAL = "Paradoxical"


@dataclass(slots=True, init=False)
class Verdict:
    """A transferability verdict and the transcript behind it.

    A report, like ``Transcript``: a plain slotted record, mutable and not
    hashable, because each check builds one and the library never keeps it.
    ``notes`` given to the constructor are kept as given; left out, they are
    the transcript's error, if any, read from it on first access and then
    stored, so a caller that reads only ``kind`` never decodes the stream.
    """

    kind: str
    evidence: Transcript
    notes: tuple[str, ...]

    def __init__(self, kind: str, evidence: Transcript,
                 notes: tuple[str, ...] | None = None):
        self.kind = kind
        self.evidence = evidence
        if notes is not None:
            self.notes = notes

    def __getattr__(self, name: str):
        # called only when a slot is unset, so for notes left out at init
        if name != "notes":
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}")
        error = self.evidence.error
        self.notes = notes = () if error is None else (error,)
        return notes

    def to_json(self) -> dict:
        return {
            "verdict": self.kind,
            "sent": self.evidence.sent,
            "recv": self.evidence.recv,
            "trace": list(self.notes),
        }


def check_transferable(c: Channel, p: Proposition) -> Verdict:
    """Run one transmit and compare: Transferable iff what arrived is
    equivalent to what was sent, which is the byte comparison of
    ``Transcript.transferred``.  The stream is decoded only if the
    verdict's notes or the transcript's received side are read."""
    t = transmit(c, p)
    return Verdict(TRANSFERABLE if t.transferred else NON_TRANSFERABLE, t)


def eval_NT(c: Channel, f: Frame) -> bool:
    """True iff the frame's proposition fails its round trip over c."""
    return not transmit(c, decode_frame(f)).transferred


def eval_Tr(c: Channel, f: Frame) -> bool:
    """Definitional complement of eval_NT on the same inputs."""
    return not eval_NT(c, f)
