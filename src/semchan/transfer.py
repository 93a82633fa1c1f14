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


@dataclass(slots=True)
class Verdict:
    """A transferability verdict and the transcript behind it.

    A report, like ``Transcript``: a plain slotted record, mutable and not
    hashable, because each check builds one and the library never keeps it.
    """

    kind: str
    evidence: Transcript
    notes: tuple[str, ...] = ()

    def to_json(self) -> dict:
        return {
            "verdict": self.kind,
            "sent": self.evidence.sent,
            "recv": self.evidence.recv,
            "trace": list(self.notes),
        }


def check_transferable(c: Channel, p: Proposition) -> Verdict:
    """Run one transmit and compare: Transferable iff the received
    proposition is equivalent to the sent one."""
    t = transmit(c, p)
    if t.transferred:
        return Verdict(TRANSFERABLE, t)
    return Verdict(NON_TRANSFERABLE, t, () if t.error is None else (t.error,))


def eval_NT(c: Channel, f: Frame) -> bool:
    """True iff the frame's proposition fails its round trip over c."""
    return not transmit(c, decode_frame(f)).transferred


def eval_Tr(c: Channel, f: Frame) -> bool:
    """Definitional complement of eval_NT on the same inputs."""
    return not eval_NT(c, f)
