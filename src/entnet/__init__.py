"""entnet: deterministic simulator of an entanglement-signaling data network."""

from . import errors
from .codec import (
    FRAME_BITS,
    FRAME_BYTES,
    MessageBuffer,
    decode_frame,
    encode_frame,
    segment_message,
)
from .engine import SPEED_OF_LIGHT_M_PER_S, LatencyReport, Simulation, TraceRecord
from .entanglement import PLATE_WIDTH, PairPool, Plate
from .node import AcceptAll, AcceptList, RejectAll, UserNode
from .qbs import Circuit, FailureReason, QbsNode, SessionRecord, SessionState
from .scenario import (
    Scenario,
    desk_scale_scenario,
    example_scenario,
    load_scenario,
    scenario_from_dict,
    scenario_to_dict,
    scenario_to_json,
    validate_scenario,
    with_uniform_distances,
)

__version__ = "0.1.0"

__all__ = [
    "AcceptAll",
    "AcceptList",
    "Circuit",
    "FRAME_BITS",
    "FRAME_BYTES",
    "FailureReason",
    "LatencyReport",
    "MessageBuffer",
    "PLATE_WIDTH",
    "PairPool",
    "Plate",
    "QbsNode",
    "RejectAll",
    "SPEED_OF_LIGHT_M_PER_S",
    "Scenario",
    "SessionRecord",
    "SessionState",
    "Simulation",
    "TraceRecord",
    "UserNode",
    "decode_frame",
    "desk_scale_scenario",
    "encode_frame",
    "errors",
    "example_scenario",
    "load_scenario",
    "scenario_from_dict",
    "scenario_to_dict",
    "scenario_to_json",
    "segment_message",
    "validate_scenario",
    "with_uniform_distances",
]
