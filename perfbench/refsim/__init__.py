"""refsim: a frozen copy of entnet's simulator, the benchmark's yardstick.

These modules are entnet's `src/entnet` (without the command line) as it
stood when the benchmark was defined, kept verbatim and never edited. The
benchmark runs the same workload on this copy in turn with the checkout's
entnet and reports entnet's phase times relative to this copy's, so a host
that runs everything slower for a while moves both alike. See
perfbench/README.md.
"""

from . import errors
from .codec import (
    FRAME_BITS,
    FRAME_BYTES,
    Frame,
    MessageBuffer,
    decode_frame,
    encode_frame,
    frame_count,
    random_frame,
    reassemble,
    segment_message,
)
from .engine import SPEED_OF_LIGHT_M_PER_S, LatencyReport, Simulation, TraceRecord
from .entanglement import PLATE_WIDTH, PairPool, Particle, Plate, Spin, derive_seed
from .node import AcceptAll, AcceptList, RejectAll, UserNode
from .qbs import (
    ChildQbs,
    Circuit,
    FailureReason,
    LocalUser,
    QbsNode,
    RemotePlanet,
    SessionRecord,
    SessionState,
)
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
    "ChildQbs",
    "Circuit",
    "FRAME_BITS",
    "FRAME_BYTES",
    "FailureReason",
    "Frame",
    "LatencyReport",
    "LocalUser",
    "MessageBuffer",
    "PLATE_WIDTH",
    "PairPool",
    "Particle",
    "Plate",
    "QbsNode",
    "RejectAll",
    "RemotePlanet",
    "SPEED_OF_LIGHT_M_PER_S",
    "Scenario",
    "SessionRecord",
    "SessionState",
    "Simulation",
    "Spin",
    "TraceRecord",
    "UserNode",
    "decode_frame",
    "derive_seed",
    "desk_scale_scenario",
    "encode_frame",
    "errors",
    "example_scenario",
    "frame_count",
    "load_scenario",
    "random_frame",
    "reassemble",
    "scenario_from_dict",
    "scenario_to_dict",
    "scenario_to_json",
    "segment_message",
    "validate_scenario",
    "with_uniform_distances",
]
