"""Child and Mother base stations: registries, sessions, and circuits.

A station's registry maps each QID it knows to the id of the node to ask
next. A Child maps its users' QIDs to their node ids and negotiates on their
behalf. A Mother maps every QID of its planet to that user's Child, and each
QID owned by a peer planet to that planet's Mother (a delegation); it answers
lookups and brokers on-demand child<->child circuits for cross-station
sessions, but never relays user data itself. All mutable state here is owned
by the simulation event loop.
"""

from __future__ import annotations

import sys
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from types import MappingProxyType
from typing import TYPE_CHECKING, Mapping

from .codec import MessageBuffer
from .entanglement import PairPool, Plate
from .errors import IllegalTransition

if TYPE_CHECKING:  # pragma: no cover
    from .engine import Simulation

# session state machine --------------------------------------------------------


class SessionState(str, Enum):
    IDLE = "idle"
    QUERYING_MOTHER = "querying_mother"
    NEGOTIATING = "negotiating"
    ESTABLISHED = "established"
    TEARING_DOWN = "tearing_down"
    CLOSED = "closed"
    FAILED = "failed"


class FailureReason(str, Enum):
    NOT_FOUND = "not_found"
    REJECTED = "rejected"


TRANSITIONS: dict[SessionState, frozenset[SessionState]] = {
    SessionState.IDLE: frozenset({SessionState.NEGOTIATING, SessionState.QUERYING_MOTHER}),
    SessionState.QUERYING_MOTHER: frozenset({SessionState.NEGOTIATING, SessionState.FAILED}),
    SessionState.NEGOTIATING: frozenset({SessionState.ESTABLISHED, SessionState.FAILED}),
    SessionState.ESTABLISHED: frozenset({SessionState.TEARING_DOWN}),
    SessionState.TEARING_DOWN: frozenset({SessionState.CLOSED}),
    SessionState.CLOSED: frozenset(),
    SessionState.FAILED: frozenset(),
}

# read once: on Python 3.11 a member read through its class takes EnumType's
# slow `__getattr__` path, and each session tests its state a dozen times
_QUERYING_MOTHER, _NEGOTIATING, _ESTABLISHED, _TEARING_DOWN, _CLOSED, _FAILED = (
    SessionState.QUERYING_MOTHER, SessionState.NEGOTIATING, SessionState.ESTABLISHED,
    SessionState.TEARING_DOWN, SessionState.CLOSED, SessionState.FAILED)


@dataclass
class SessionRecord:
    """One caller<->callee association and everything it holds."""

    session_id: int
    caller: int
    callee: int
    caller_node: str
    caller_qbs: str
    state: SessionState = SessionState.IDLE
    failure: FailureReason | None = None
    callee_node: str | None = None
    callee_qbs: str | None = None
    path: list[str] = field(default_factory=list)
    circuits: list[int] = field(default_factory=list)
    # per direction, hop i of the path as (src, dst, circuit, channel): forward
    # set at establish, reverse at the first reverse send; release clears it
    route: dict[str, list[tuple]] = field(default_factory=dict)
    # per direction, the message its receiving user is reassembling
    rx_buffers: dict[str, MessageBuffer] = field(default_factory=dict)
    # workload plumbing: a payload queued at request time, sent on establish
    workload_payload: bytes | None = None
    timeout_key: tuple[int, int] | None = None

    def transition(self, new: SessionState, failure: FailureReason | None = None) -> None:
        if new not in TRANSITIONS[self.state]:
            raise IllegalTransition(
                f"session {self.session_id}: {self.state.value} -> {new.value}"
            )
        self.state = new
        if new is _FAILED:
            self.failure = failure

    @property
    def terminal(self) -> bool:
        return self.state in (_CLOSED, _FAILED)


# circuits ---------------------------------------------------------------------


@dataclass
class DirectedChannel:
    """One send direction of a circuit: tx plate at the sender, rx at the receiver.

    The queue holds (frame event payload, frame) items waiting for the plate
    pair to be re-provisioned by the decoding side; it drains one per reset.
    It is made when a frame has to wait, and dropped when it drains: only
    home circuits queue.
    """

    tx: Plate
    rx: Plate
    queue: deque | None = None


@dataclass
class Circuit:
    """A provisioned plate-pair link between two nodes, one channel per direction.

    Each channel, and the plates under it, is made the first time a route
    asks for it: most permanent circuits never carry a frame, and most
    sessions send one way only."""

    circuit_id: int
    a: str
    b: str
    pool: PairPool
    owner_session: int | None = None
    channels: dict[tuple[str, str], DirectedChannel] = field(default_factory=dict)

    @classmethod
    def build(cls, circuit_id: int, a: str, b: str, seed: int | str,
              owner_session: int | None = None) -> "Circuit":
        return cls(circuit_id, a, b, PairPool(seed), owner_session)

    def channel(self, src: str, dst: str) -> DirectedChannel:
        """The src->dst channel, made with its plate pair on the first call."""
        channel = self.channels.get((src, dst))
        if channel is None:
            channel = self.channels[src, dst] = DirectedChannel(*self.pool.make_plate_pair())
        return channel


# event dispatch -----------------------------------------------------------------


class _HandlerNames(dict):
    def __missing__(self, verb: str) -> str:
        return "_on_" + verb  # handled nowhere: getattr then names what is missing


_handler_names = _HandlerNames()
# verb -> interned "_on_<verb>", for every handler a station or user class defines
HANDLER_NAMES: Mapping[str, str] = MappingProxyType(_handler_names)


def handles_events(cls: type) -> type:
    """Class decorator: add the class's `_on_<verb>` methods to HANDLER_NAMES."""
    _handler_names.update((name[4:], sys.intern(name))
                          for name in vars(cls) if name.startswith("_on_"))
    return cls


# base-station node --------------------------------------------------------------


@handles_events
class QbsNode:
    """One base station, Child or Mother."""

    def __init__(self, qbs_id: str, mother_id: str | None = None) -> None:
        self.qbs_id = qbs_id
        self.mother_id = mother_id  # home Mother, set on children only
        # QID -> node id: a Child's user, or a Mother's Child or peer Mother
        self.registry: dict[int, str] = {}
        self.peer_mothers: dict[str, "QbsNode"] = {}
        self.negotiation_budget = 100  # ticks a callee may take to answer

    # pure reads ---------------------------------------------------------

    def lookup_local(self, qid: int) -> str | None:
        """Node id of a locally attached user, or None (always, at a Mother)."""
        return None if self.mother_id is None else self.registry.get(qid)

    # event handlers -------------------------------------------------------

    def handle(self, sim: "Simulation", verb: str, payload: dict) -> None:
        # looked up on the instance, so a handler set on one station wins
        getattr(self, HANDLER_NAMES[verb])(sim, payload)

    def _on_session_lookup(self, sim: "Simulation", p: dict) -> None:
        rec = sim.sessions[p["session"]]
        rec.callee_node = self.lookup_local(rec.callee)
        if rec.callee_node is not None:
            sim.emit(self.qbs_id, "LOOKUP_LOCAL_HIT", rec.session_id, (rec.callee,))
            rec.callee_qbs = self.qbs_id
            self._start_negotiation(sim, rec)
        else:
            sim.emit(self.qbs_id, "LOOKUP_LOCAL_MISS", rec.session_id, (rec.callee,))
            rec.transition(_QUERYING_MOTHER)
            sim.schedule(sim.now + 1, self.mother_id, "mother_lookup",
                         {"session": rec.session_id})

    def _start_negotiation(self, sim: "Simulation", rec: SessionRecord) -> None:
        """At the caller's Child: ask the callee's station (inline if here), arm the timeout."""
        rec.transition(_NEGOTIATING)
        if rec.callee_qbs == self.qbs_id:
            self._ask_callee(sim, rec)
        else:
            sim.schedule(sim.now + 1, rec.callee_qbs, "session_ask", {"session": rec.session_id})
        rec.timeout_key = sim.schedule(
            sim.now + self.negotiation_budget, self.qbs_id,
            "negotiation_timeout", {"session": rec.session_id})

    def _ask_callee(self, sim: "Simulation", rec: SessionRecord) -> None:
        """At the callee's station, once rec.callee_node is resolved."""
        sim.emit(self.qbs_id, "NEGOTIATE", rec.session_id, (rec.callee, rec.caller))
        sim.schedule(sim.now + 1, rec.callee_node, "negotiate_ask", {"session": rec.session_id})

    def _on_mother_lookup(self, sim: "Simulation", p: dict) -> None:
        rec = sim.sessions[p["session"]]
        owner = self.registry.get(rec.callee)
        if owner in self.peer_mothers:  # delegated to another planet's Mother
            # values in key order (child, qid, remote): no child here
            sim.emit(self.qbs_id, "MOTHER_LOOKUP", rec.session_id, (None, rec.callee, owner))
            sim.schedule(sim.now + 1, owner, "peer_lookup", {"session": rec.session_id})
        else:
            self._answer_child(sim, rec, self._resolve_child(sim, rec))

    def _on_peer_lookup(self, sim: "Simulation", p: dict) -> None:
        rec = sim.sessions[p["session"]]
        answer = {"session": rec.session_id, "callee_qbs": self._resolve_child(sim, rec)}
        sim.schedule(sim.now + 1, sim.nodes[rec.caller_qbs].mother_id, "peer_answer", answer)

    def _on_peer_answer(self, sim: "Simulation", p: dict) -> None:
        self._answer_child(sim, sim.sessions[p["session"]], p["callee_qbs"])

    def _resolve_child(self, sim: "Simulation", rec: SessionRecord) -> str | None:
        """Log this Mother's lookup; the callee's Child on this planet, or None.
        Never called on a delegation: the QID's own Mother holds its Child."""
        child = self.registry.get(rec.callee)
        if child is not None:
            # values in key order (child, qid, remote): no remote Mother here
            sim.emit(self.qbs_id, "MOTHER_LOOKUP", rec.session_id, (child, rec.callee, None))
            return child
        sim.emit(self.qbs_id, "MOTHER_LOOKUP_MISS", rec.session_id, (rec.callee,))
        return None

    def _answer_child(self, sim: "Simulation", rec: SessionRecord,
                      callee_qbs: str | None) -> None:
        """Caller's home Mother: broker the circuit if the callee was found, answer its Child."""
        if callee_qbs is not None:
            sim.provision_interqbs_circuit(self.qbs_id, rec.caller_qbs,
                                           callee_qbs, rec.session_id)
        sim.schedule(sim.now + 1, rec.caller_qbs, "mother_answer",
                     {"session": rec.session_id, "callee_qbs": callee_qbs})

    def _on_mother_answer(self, sim: "Simulation", p: dict) -> None:
        rec = sim.sessions[p["session"]]
        rec.callee_qbs = p["callee_qbs"]
        if rec.callee_qbs is None:
            rec.transition(_FAILED, FailureReason.NOT_FOUND)
            sim.release_session_circuits(rec, self.qbs_id)
        else:
            self._start_negotiation(sim, rec)

    def _on_session_ask(self, sim: "Simulation", p: dict) -> None:
        rec = sim.sessions[p["session"]]
        if rec.state is not _NEGOTIATING:
            return  # the owner already timed the negotiation out
        rec.callee_node = self.lookup_local(rec.callee)
        self._ask_callee(sim, rec)

    def _on_negotiation_answer(self, sim: "Simulation", p: dict) -> None:
        rec = sim.sessions[p["session"]]
        if self.qbs_id != rec.caller_qbs:
            # callee-side station forwards the verdict to the session owner
            sim.schedule(sim.now + 1, rec.caller_qbs, "negotiation_answer", dict(p))
            return
        if rec.state is not _NEGOTIATING:
            return  # answer landed after a timeout already failed the session
        sim.cancel(rec.timeout_key)
        rec.timeout_key = None
        if not p["accepted"]:
            rec.transition(_FAILED, FailureReason.REJECTED)
            sim.release_session_circuits(rec, self.qbs_id)
            return
        sim.establish_session(rec)

    def _on_negotiation_timeout(self, sim: "Simulation", p: dict) -> None:
        rec = sim.sessions[p["session"]]
        if rec.state is not _NEGOTIATING:
            return
        rec.timeout_key = None
        sim.emit(self.qbs_id, "REJECT", rec.session_id, (rec.caller, "timeout"))
        rec.transition(_FAILED, FailureReason.REJECTED)
        sim.release_session_circuits(rec, self.qbs_id)

    def _on_teardown(self, sim: "Simulation", p: dict) -> None:
        sim.teardown_session(p["session"])
