"""Semantic communication-channel toolkit.

Proposition frames, active channels with pluggable transmission systems,
transferability checking, diagonal self-reference analysis, and the
channel <-> truth-predicate bridge over finite worlds.
"""

from .model import (
    ObjectRef,
    PredicateCode,
    Proposition,
    World,
    equivalent,
    holds,
    load_world,
    negate,
    parse_proposition,
    render_proposition,
)
from .codec import Frame, decode_frame, encode_frame, payload_bits
from .wire import crc16, frame_to_wire, receive, wire_to_frames
from .channel import (
    BitFlipTS,
    Channel,
    PerfectTS,
    SubstituteTS,
    Transcript,
    TransmissionSystem,
    TruncateTS,
    make_channel,
    transmit,
    verify_activeness,
)
from .transfer import Verdict, check_transferable, eval_NT, eval_Tr
from .diagonal import (
    EnumerationTable,
    FixedPointReport,
    ParadoxReport,
    analyze_self_reference,
    build_B,
    build_Bprime,
    build_Err_all,
    build_NT_all,
    build_enumeration,
    find_fixed_point,
)
from .tarski import (
    BridgeReport,
    TruthPredicate,
    decoder_from_truth,
    ground_corpus,
    truth_from_channel,
    verify_bridge,
)

__version__ = "0.1.0"
