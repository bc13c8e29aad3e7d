"""End-user agents: QID holders that request sessions and exchange messages."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Union

from .qbs import _ESTABLISHED, _NEGOTIATING, HANDLER_NAMES, Circuit, handles_events

if TYPE_CHECKING:  # pragma: no cover
    from .engine import Simulation


@dataclass(frozen=True)
class AcceptAll:
    def allows(self, caller: int) -> bool:
        return True


@dataclass(frozen=True)
class RejectAll:
    def allows(self, caller: int) -> bool:
        return False


@dataclass(frozen=True)
class AcceptList:
    qids: frozenset[int]

    def allows(self, caller: int) -> bool:
        return caller in self.qids


AcceptPolicy = Union[AcceptAll, RejectAll, AcceptList]


@handles_events
@dataclass
class UserNode:
    """One end device, attached to exactly one Child base station.

    Its `inbox` and `raw_frames` lists are made on first use: most users of
    a large network never receive anything. Its `home` circuit, id
    `home_circuit`, is built when a session first routes over it. Its home
    hops, `(node, child, home, channel)` up and `(child, node, home,
    channel)` down, are each made for the first route that needs that
    direction, and every later route starts or ends with the same tuple."""

    node_id: str
    qid: int
    home_qbs: str
    policy: AcceptPolicy = field(default_factory=AcceptAll)
    home_circuit: int | None = None
    home: Circuit | None = field(default=None, repr=False)
    up_hop: tuple | None = field(default=None, init=False, repr=False)
    down_hop: tuple | None = field(default=None, init=False, repr=False)
    _inbox: list | None = field(default=None, init=False, repr=False)
    _raw_frames: list | None = field(default=None, init=False, repr=False)

    @property
    def inbox(self) -> list[tuple[int, int, bytes]]:
        """Completed messages: (arrival_tick, session_id, payload)."""
        if self._inbox is None:
            self._inbox = []
        return self._inbox

    @property
    def raw_frames(self) -> list[tuple[int, bytes]]:
        """Frames relayed outside any message: (session_id, frame bytes)."""
        if self._raw_frames is None:
            self._raw_frames = []
        return self._raw_frames

    def decide(self, caller: int) -> bool:
        """Accept or reject a session ask; a pure function of the policy."""
        return self.policy.allows(caller)

    def receive_poll(self) -> list[tuple[int, bytes]]:
        """Drain completed messages, ordered by arrival tick then session id."""
        if not self._inbox:
            return []
        entries = sorted(self._inbox, key=lambda e: (e[0], e[1]))
        self._inbox.clear()
        return [(session_id, payload) for _, session_id, payload in entries]

    # event handlers -------------------------------------------------------

    def handle(self, sim: "Simulation", verb: str, payload: dict) -> None:
        # looked up on the instance, so a handler set on one user wins
        getattr(self, HANDLER_NAMES[verb])(sim, payload)

    def _on_workload_send(self, sim: "Simulation", p: dict) -> None:
        session_id = sim.request_session(self.qid, p["to_qid"])
        rec = sim.sessions[session_id]
        rec.workload_payload = p["payload"]

    def _on_session_ready(self, sim: "Simulation", p: dict) -> None:
        rec = sim.sessions[p["session"]]
        if rec.state is _ESTABLISHED:  # not torn down before it was sent
            sim.send_message(rec.session_id, rec.workload_payload, sender=self.qid)

    def _on_negotiate_ask(self, sim: "Simulation", p: dict) -> None:
        rec = sim.sessions[p["session"]]
        if rec.state is not _NEGOTIATING:
            return  # the owner already timed the negotiation out
        accepted = self.decide(rec.caller)
        if accepted:
            sim.emit(self.node_id, "ACCEPT", rec.session_id, (rec.caller,))
        else:
            sim.emit(self.node_id, "REJECT", rec.session_id, (rec.caller, None))  # no reason
        sim.schedule(sim.now + 1, rec.callee_qbs, "negotiation_answer",
                     {"session": rec.session_id, "accepted": accepted})
