"""Deterministic discrete-event loop, topology construction, traces, latency.

Time is an integer tick. Entangled channels deliver in zero ticks at any
distance; each relaying station spends one tick of processing per frame,
which keeps same-tick cascades well founded. Events execute in strict
(tick, seq) order, and seq values come from one per-tick allocator shared
with trace records, so the trace byte stream is a pure function of
(scenario, seed). Link distances feed only the classical light-speed
baseline report; they never delay anything.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import json
import math
from collections import Counter, deque, namedtuple
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _json_str
from operator import itemgetter
from typing import Callable, Iterable, Iterator

from .codec import FRAME_BYTES, MessageBuffer, decode_frame, encode_frame, segment_message
from .errors import (
    CallerUnknown,
    DuplicateNode,
    DuplicateQid,
    SchedulingError,
    SelfCall,
    SessionNotEstablished,
    TickBudgetExceeded,
    UnknownSession,
    ValidationError,
)
from .node import AcceptAll, AcceptPolicy, UserNode
from .qbs import (_CLOSED, _ESTABLISHED, _TEARING_DOWN, Circuit, FailureReason, QbsNode,
                  SessionRecord, SessionState)
from .scenario import Scenario, is_u64, validate_scenario, validate_user

SPEED_OF_LIGHT_M_PER_S = 299_792_458.0

FORWARD = "fwd"
REVERSE = "rev"


class _Escaped(dict):
    """The JSON text of each string, int or None, made the first time it is
    asked for."""

    def __missing__(self, value: str | int | None) -> str:
        text = self[value] = (_json_str(value) if isinstance(value, str)
                              else "null" if value is None else f"{value}")
        return text


# Every trace record type, with its detail's keys, sorted, and a writer of the
# detail's JSON text from (values, _Escaped). A record keeps its detail's values
# in the keys' order. A tuple stands for a JSON array, and None for a key that
# the record's shape lacks: a MOTHER_LOOKUP names its `child` or a `remote`
# Mother, and only a Child's timeout gives a REJECT its `reason`. DATA keeps
# its frame as bytes; `_trace_lines` writes its lines itself.
_VALUES_TYPES: dict[str, tuple[tuple[str, ...], Callable[[tuple, _Escaped], str] | None]] = {
    "SESSION_REQUEST": (("callee", "caller"),
                        lambda v, e: f'"callee":{v[0]},"caller":{v[1]}'),
    "LOOKUP_LOCAL_HIT": (("qid",), lambda v, e: f'"qid":{v[0]}'),
    "LOOKUP_LOCAL_MISS": (("qid",), lambda v, e: f'"qid":{v[0]}'),
    "MOTHER_LOOKUP": (("child", "qid", "remote"),
                      lambda v, e: f'"child":{e[v[0]]},"qid":{v[1]}' if v[2] is None
                      else f'"qid":{v[1]},"remote":{e[v[2]]}'),
    "MOTHER_LOOKUP_MISS": (("qid",), lambda v, e: f'"qid":{v[0]}'),
    "CIRCUIT_PROVISIONED": (("a", "b", "circuit"),
                            lambda v, e: f'"a":{e[v[0]]},"b":{e[v[1]]},"circuit":{v[2]}'),
    "NEGOTIATE": (("callee", "caller"), lambda v, e: f'"callee":{v[0]},"caller":{v[1]}'),
    "ACCEPT": (("caller",), lambda v, e: f'"caller":{v[0]}'),
    "REJECT": (("caller", "reason"),
               lambda v, e: f'"caller":{v[0]}' if v[1] is None
               else f'"caller":{v[0]},"reason":{e[v[1]]}'),
    "ESTABLISHED": (("path",), lambda v, e: f'"path":[{",".join(map(e.__getitem__, v[0]))}]'),
    "SEND": (("bytes", "dir", "frames"),
             lambda v, e: f'"bytes":{v[0]},"dir":{e[v[1]]},"frames":{v[2]}'),
    "DATA": (("dir", "frame", "index"), None),
    "DELIVER": (("bytes", "dir"), lambda v, e: f'"bytes":{v[0]},"dir":{e[v[1]]}'),
    "CIRCUIT_RELEASED": (("circuit", "scope"),
                         lambda v, e: f'"circuit":{v[0]},"scope":{e[v[1]]}'),
    "TEARDOWN": ((), lambda v, e: ""),
    "CLOSED": ((), lambda v, e: ""),
}
_ARITY = {record_type: len(keys) for record_type, (keys, _) in _VALUES_TYPES.items()}


def _check_values(record_type: str, values: tuple) -> None:
    """Raise as `emit` does for values that `record_type` cannot take."""
    if type(values) is not tuple:
        raise TypeError(f"record type {record_type!r} takes a tuple of values, "
                        f"not {type(values).__name__}")
    if _ARITY.get(record_type) != len(values):
        raise ValueError(f"record type {record_type!r} takes no {len(values)}-value tuple")


class TraceRecord(namedtuple("TraceRecord", ("tick", "seq", "node", "type", "session",
                                             "detail"))):
    """A record whose last field keeps its detail's values, as `emit` takes
    them (see `_VALUES_TYPES`); DATA's are `(dir, frame bytes, index)`.
    `detail` builds the trace's dict each time it is read, with DATA's frame
    in hex; `_asdict`, `repr` and the line show that dict. Built directly, or by
    `_make` or `_replace`, it checks its values as `emit` does; the engine's
    own records skip the check."""

    __slots__ = ()

    def __new__(cls, tick: int, seq: int, node: str, type: str, session: int | None,
                detail: tuple) -> "TraceRecord":
        _check_values(type, detail)
        return tuple.__new__(cls, (tick, seq, node, type, session, detail))

    @classmethod
    def _make(cls, iterable: Iterable) -> "TraceRecord":
        return cls(*iterable)

    @property
    def detail(self) -> dict:
        _, _, _, record_type, _, values = self
        if record_type == "DATA":
            direction, data, index = values
            return {"dir": direction, "frame": data.hex(), "index": index}
        return {key: list(value) if type(value) is tuple else value
                for key, value in zip(_VALUES_TYPES[record_type][0], values)
                if value is not None}

    def _asdict(self) -> dict:
        return dict(zip(self._fields, (*self[:5], self.detail)))

    def __repr__(self) -> str:
        fields = ", ".join(f"{key}={value!r}" for key, value in self._asdict().items())
        return f"TraceRecord({fields})"

    def to_json_line(self) -> str:
        """Same bytes as `json.dumps(self._asdict(), separators=(",", ":"))`."""
        return next(_trace_lines((self,)))


# records from a checked 6-tuple, without TraceRecord.__new__
_new_record = functools.partial(tuple.__new__, TraceRecord)


# a frame's hops are a few records apart, so a small tail cache keeps them all
_TAILS_MAX = 1024


def _trace_lines(records: Iterable[TraceRecord]) -> Iterator[str]:
    """Each record's line, joined from pieces formatted once per call: the
    `{"tick":T,"seq":` head per run of records at one tick, the JSON text of
    each seq, session and name, and the rest from the type's writer. A DATA
    line's rest is its middle, from `,"node":` up to `"dir":`, per (node,
    session), and its tail, from the direction on, per values tuple, which
    every hop of a frame shares. The tails are dropped at `_TAILS_MAX`; a
    tuple that cannot be hashed gets its tail formatted alone."""
    texts = _Escaped()
    middles: dict[int | None, dict[str, str]] = {}  # by session, then node
    tails: dict[tuple, str] = {}
    head_tick, head = object(), ""  # no tick equals the first head_tick
    for tick, seq, node, record_type, session, values in records:
        if tick != head_tick:
            head_tick, head = tick, f'{{"tick":{tick},"seq":'
        if record_type == "DATA":
            try:
                tail = tails.get(values)
            except TypeError:  # unhashable: a bytearray frame, say
                tail = key = None
            else:
                key = values
            if tail is None:
                direction, data, index = values
                tail = (f'{texts[direction]},"frame":"{data.hex()}",'
                        f'"index":{"null" if index is None else index}}}}}')
                if key is not None:
                    if len(tails) == _TAILS_MAX:
                        tails.clear()
                    tails[key] = tail
            by_node = middles.get(session)
            if by_node is None:
                by_node = middles[session] = {}
            middle = by_node.get(node)
            if middle is None:
                middle = by_node[node] = (f',"node":{texts[node]},"type":"DATA",'
                                          f'"session":{texts[session]},"detail":{{"dir":')
            yield f"{head}{texts[seq]}{middle}{tail}"
        else:
            yield (f'{head}{texts[seq]},"node":{texts[node]},"type":{texts[record_type]},'
                   f'"session":{texts[session]},'
                   f'"detail":{{{_VALUES_TYPES[record_type][1](values, texts)}}}}}')


@dataclass(frozen=True)
class LatencyReport:
    """Delivery cost of one established session's path.

    The entangled channel itself is free at any distance; the only simulated
    cost is one processing tick per relaying station. The classical baseline
    is what light-speed propagation over the declared link graph would cost
    for the same path, reported for contrast only.
    """

    session_id: int
    entangled_channel_ticks: int
    processing_ticks: int
    classical_baseline_seconds: float


class Simulation:
    """One deterministic run over a scenario."""

    def __init__(self, scenario: Scenario, seed: int | None = None) -> None:
        # scenario_from_dict validated its own output, and that cannot change
        findings = [] if scenario.parsed else validate_scenario(scenario)
        if seed is not None and not is_u64(seed):
            findings.append("seed: must be an unsigned 64-bit integer")
        if findings:
            raise ValidationError(findings)
        self.scenario = scenario
        self.seed = scenario.seed if seed is None else seed
        self.now = 0
        self.tick_budget = 10**6

        # per tick, a FIFO of (seq, target, verb, payload) in seq order; _ticks heaps its keys
        self._calendar: dict[int, deque[tuple[int, str, str, dict]]] = {}
        self._ticks: list[int] = []
        # next seq of `now` and each later tick in use; _idle_ticks heaps later ticks
        # whose events were all cancelled: their seqs last until `now` passes them
        self._seq_by_tick: dict[int, int] = {0: 0}
        self._idle_ticks: list[int] = []
        self._cancelled: set[tuple[int, int]] = set()
        self._tick_events = 0

        # plain (tick, seq, node, type, session, values) tuples until `trace` is read
        self._trace: list[tuple] = []
        self._keep: Callable[[tuple], None] = self._trace.append
        self.nodes: dict[str, QbsNode | UserNode] = {}
        self.users: dict[int, UserNode] = {}
        self.sessions: dict[int, SessionRecord] = {}
        # built circuits only: a user's home circuit joins when a route first uses it
        self.circuits: dict[int, Circuit] = {}
        self._permanent: set[int] = set()  # station circuits; each user has its `home_circuit`
        self._next_circuit = itertools.count(1)
        self._next_session = itertools.count(1)
        self.released_plate_draws = 0  # blind-decode draws of destroyed circuits
        self.dropped_frames: Counter[str] = Counter()  # frames never delivered, by reason

        # light-speed graph and its shortest paths, built on the first report
        self._classical_adj: dict[str, list[tuple[str, float]]] | None = None
        self._dijkstra_cache: dict[str, dict[str, float]] = {}

        self._build_topology()
        self._schedule_workload()

    # scheduling -----------------------------------------------------------

    def schedule(self, tick: int, target: str, verb: str,
                 payload: dict | None = None) -> tuple[int, int]:
        """Queue an event; returns a key usable with cancel(). A tick that is
        not an int (a bool included) is a TypeError, and a past one a
        SchedulingError; neither queues anything."""
        if type(tick) is not int or tick < self.now:
            if type(tick) is not int:
                raise TypeError(f"a tick is an int, not {type(tick).__name__}")
            raise SchedulingError(f"cannot schedule at tick {tick} while at {self.now}")
        seq = self._seq_by_tick.get(tick, 0)
        self._seq_by_tick[tick] = seq + 1
        events = self._calendar.get(tick)
        if events is None:
            events = self._calendar[tick] = deque()
            heapq.heappush(self._ticks, tick)
        events.append((seq, target, verb, {} if payload is None else payload))
        return (tick, seq)

    def cancel(self, key: tuple[int, int]) -> None:
        self._cancelled.add(key)

    def emit(self, node: str, record_type: str, session: int | None,
             values: tuple) -> None:
        """Append a trace record of `values`, the detail's values in the order
        of its type's keys in `_VALUES_TYPES`. Anything but a tuple is a
        TypeError; a tuple for a type the table lacks, or of another length,
        is a ValueError. Neither takes a seq. emit is the engine's own call:
        it checks no value's type."""
        now = self.now
        seq_by_tick = self._seq_by_tick
        seq = seq_by_tick[now]  # `now` always has an entry
        if type(values) is not tuple or _ARITY.get(record_type) != len(values):
            _check_values(record_type, values)
        self._keep((now, seq, node, record_type, session, values))
        seq_by_tick[now] = seq + 1  # taken only by a record that was kept

    @property
    def trace(self) -> list[TraceRecord]:
        """The records. A run keeps plain tuples, which the collector soon stops
        tracking; the first read turns them into TraceRecords in place, a chunk
        at a time, and from then on each record is built as one."""
        records = self._trace
        if self._keep == records.append:
            for start in range(0, len(records), 4096):
                records[start:start + 4096] = map(_new_record, records[start:start + 4096])
            self._keep = lambda record: records.append(_new_record(record))
        return records

    def run_until_idle(self) -> int:
        """Process every queued event; returns the tick of the last one run."""
        return self._run(math.inf)

    def run_until(self, tick_limit: int) -> int:
        """Process queued events up to and including tick_limit."""
        return self._run(tick_limit)

    def _run(self, tick_limit: float) -> int:
        calendar, ticks, cancelled = self._calendar, self._ticks, self._cancelled
        seq_by_tick, idle, nodes = self._seq_by_tick, self._idle_ticks, self.nodes
        # `now` and the events run at it, mirrored here; handlers read self.now
        now, count, budget = self.now, self._tick_events, self.tick_budget
        try:
            while ticks:
                tick = ticks[0]
                if tick > tick_limit:
                    break
                events = calendar[tick]
                while events:  # handlers may append to the tick being drained
                    seq, target, verb, payload = events.popleft()
                    if cancelled and (tick, seq) in cancelled:
                        cancelled.discard((tick, seq))
                        continue
                    if tick != now:  # nothing is scheduled before `tick` any more
                        del seq_by_tick[now]
                        while idle and idle[0] < tick:
                            seq_by_tick.pop(heapq.heappop(idle), None)
                        self.now = now = tick
                        count = 0
                    count += 1
                    if count > budget:
                        raise TickBudgetExceeded(f"more than {budget} events at tick {tick}")
                    # the data plane's verbs are the engine's own; the rest are nodes'
                    if verb == "frame_arrival":
                        self._on_frame_arrival(target, payload)
                    elif verb == "channel_send":
                        self._on_channel_send(target, payload)
                    else:
                        nodes[target].handle(self, verb, payload)
                heapq.heappop(ticks)
                del calendar[tick]
                if tick != now:  # all cancelled: `now` stays, so does the seq
                    heapq.heappush(idle, tick)
        finally:  # the budget counts a tick's events across run_until calls
            self._tick_events = count
        return now

    # topology -------------------------------------------------------------

    def _build_topology(self) -> None:
        mothers: list[QbsNode] = []
        for planet in self.scenario.planets:
            mother = QbsNode(planet.mother_id)
            self.nodes[mother.qbs_id] = mother
            mothers.append(mother)
            for child_spec in planet.children:
                self.nodes[child_spec.qbs_id] = QbsNode(child_spec.qbs_id, mother.qbs_id)
        for mother in mothers:
            mother.peer_mothers = {m.qbs_id: m for m in mothers if m is not mother}

        for planet in self.scenario.planets:
            for child_spec in planet.children:
                self._create_circuit(child_spec.qbs_id, planet.mother_id)
                child = self.nodes[child_spec.qbs_id]
                for user_spec in child_spec.users:  # validated with the scenario
                    self._attach_user(child, user_spec.qid, user_spec.node_id,
                                      user_spec.accept_policy)
        for i, mother_a in enumerate(mothers):
            for mother_b in mothers[i + 1:]:
                self._create_circuit(mother_a.qbs_id, mother_b.qbs_id)

    @property
    def permanent_circuit_ids(self) -> frozenset[int]:
        """Circuits that outlive sessions: user<->child, child<->mother, mother<->mother."""
        return frozenset(self._permanent).union(user.home_circuit for user in self.users.values())

    def _create_circuit(self, a: str, b: str, owner_session: int | None = None) -> Circuit:
        circuit_id = next(self._next_circuit)
        if owner_session is None:
            self._permanent.add(circuit_id)
        return self._build_circuit(circuit_id, a, b, owner_session)

    def _build_circuit(self, circuit_id: int, a: str, b: str,
                       owner_session: int | None = None) -> Circuit:
        # a str seed: the pool hashes it only if it ever draws, and no clean run does
        circuit = self.circuits[circuit_id] = Circuit.build(
            circuit_id, a, b, f"{self.seed}/circuit:{circuit_id}", owner_session)
        return circuit

    def register_user(self, child_id: str, qid: int, node_id: str,
                      policy: AcceptPolicy | None = None) -> None:
        """Attach a user to a Child: registries updated everywhere, circuit provisioned.
        Raises ValidationError on a user the scenario would reject."""
        policy = AcceptAll() if policy is None else policy
        findings = validate_user(node_id, qid, policy)
        if findings:
            raise ValidationError(findings)
        child = self.nodes.get(child_id)
        if not isinstance(child, QbsNode) or child.mother_id is None:
            raise ValueError(f"{child_id!r} is not a Child station")
        if qid in self.users:
            raise DuplicateQid(f"QID {qid} already registered")
        if node_id in self.nodes:
            raise DuplicateNode(f"node id {node_id!r} already in use")
        self._attach_user(child, qid, node_id, policy)
        self._classical_adj = None  # the next report sees the new link
        self._dijkstra_cache = {}

    def _attach_user(self, child: QbsNode, qid: int, node_id: str,
                     policy: AcceptPolicy) -> None:
        """Add a valid, new user: registries updated everywhere, circuit provisioned."""
        mother = self.nodes[child.mother_id]
        user = self.nodes[node_id] = UserNode(node_id, qid, child.qbs_id, policy)
        self.users[qid] = user
        child.registry[qid] = node_id
        mother.registry[qid] = child.qbs_id
        for peer in mother.peer_mothers.values():
            peer.registry[qid] = mother.qbs_id
        # the id now, in attach order; the circuit when a session first routes over it
        user.home_circuit = next(self._next_circuit)

    def _schedule_workload(self) -> None:
        for item in self.scenario.workload:
            sender = self.users[item.from_qid]
            self.schedule(item.at_tick, sender.node_id, "workload_send",
                          {"to_qid": item.to_qid, "payload": item.payload})

    # session control plane --------------------------------------------------

    def request_session(self, caller_qid: int, callee_qid: int) -> int:
        """Create a session at the caller's Child and start the lookup chain.
        A QID that is not an int (a bool included) is a TypeError, and one
        outside [0, 2**64) a ValueError; both are checked before anything changes."""
        for qid in (caller_qid, callee_qid):
            if not is_u64(qid):
                if type(qid) is not int:
                    raise TypeError(f"a QID is an int, not {type(qid).__name__}")
                raise ValueError(f"QID {qid} is not an unsigned 64-bit integer")
        user = self.users.get(caller_qid)
        if user is None:
            raise CallerUnknown(f"QID {caller_qid} is not attached anywhere")
        if caller_qid == callee_qid:
            raise SelfCall(f"QID {caller_qid} cannot call itself")
        session_id = next(self._next_session)
        rec = SessionRecord(session_id, caller_qid, callee_qid, user.node_id,
                            user.home_qbs, circuits=(user.home_circuit,))
        self.sessions[session_id] = rec
        self.emit(user.node_id, "SESSION_REQUEST", session_id, (callee_qid, caller_qid))
        self.schedule(self.now + 1, user.home_qbs, "session_lookup", {"session": session_id})
        return session_id

    def provision_interqbs_circuit(self, mother_id: str, qbs_a: str, qbs_b: str,
                                   session_id: int) -> int:
        """Broker a direct child<->child circuit, owned by the session it serves."""
        circuit = self._create_circuit(qbs_a, qbs_b, owner_session=session_id)
        self.sessions[session_id].circuits += (circuit.circuit_id,)
        self.emit(mother_id, "CIRCUIT_PROVISIONED", session_id,
                  (qbs_a, qbs_b, circuit.circuit_id))
        return circuit.circuit_id

    def establish_session(self, rec: SessionRecord) -> None:
        rec.circuits += (self.users[rec.callee].home_circuit,)
        route = self._route(rec, rec.caller, rec.callee)
        rec.route, rec.rx_buffers = {FORWARD: route}, {}
        # hop i rides rec.circuits[i]: caller home, owned child<->child, callee home
        assert tuple(c.circuit_id for _, _, c, _ in route) == rec.circuits and route[-1][:2] == (
            rec.callee_qbs, rec.callee_node), (route, rec.circuits)
        rec.path = (*(src for src, _, _, _ in route), rec.callee_node)
        rec.transition(_ESTABLISHED)
        self.emit(rec.caller_qbs, "ESTABLISHED", rec.session_id, (rec.path,))
        if rec.workload_payload is not None:
            self.schedule(self.now + 1, rec.caller_node, "session_ready",
                          {"session": rec.session_id})

    def _route(self, rec: SessionRecord, sender_qid: int, receiver_qid: int) -> list[tuple]:
        """The hops of `rec` from sender to receiver: the sender's home hop up,
        the session's own child<->child circuit when their Children differ, and
        the receiver's home hop down. Each channel is made on its first route."""
        sender, receiver = self.users[sender_qid], self.users[receiver_qid]
        src, dst = sender.home_qbs, receiver.home_qbs
        route = [self._home_hop(sender, sender.node_id, src)]
        if src != dst:
            owned = self.circuits[rec.circuits[1]]
            assert {owned.a, owned.b} == {src, dst}, (rec.session_id, owned)
            route.append((src, dst, owned, owned.channel(src, dst)))
        route.append(self._home_hop(receiver, dst, receiver.node_id))
        return route

    def _home_hop(self, user: UserNode, src: str, dst: str) -> tuple:
        """The hop from src to dst over the user's home circuit, which the
        first route over it builds."""
        circuit = user.home
        if circuit is None:
            circuit = user.home = self._build_circuit(user.home_circuit, user.node_id, user.home_qbs)
        assert (circuit.circuit_id, circuit.a, circuit.b) == (
            user.home_circuit, user.node_id, user.home_qbs), (user.qid, circuit)
        return src, dst, circuit, circuit.channel(src, dst)

    def release_session_circuits(self, rec: SessionRecord, releasing_node: str) -> None:
        """Unbind every circuit the session holds; destroy the session-owned
        ones and drop any message still being reassembled.

        A frame still in flight keeps its own hop list: it is decoded, its
        plate reset and its channel drained, then dropped as session_closed."""
        for circuit_id in rec.circuits:
            circuit = self.circuits.get(circuit_id)  # an unbuilt one is a home circuit
            owned = circuit is not None and circuit.owner_session == rec.session_id
            self.emit(releasing_node, "CIRCUIT_RELEASED", rec.session_id,
                      (circuit_id, "session" if owned else "permanent"))
            if owned:
                self.released_plate_draws += circuit.pool.plate_draws
                del self.circuits[circuit_id]
        rec.circuits, rec.route, rec.rx_buffers = (), None, None

    def _session(self, session_id: int) -> SessionRecord:
        if type(session_id) is not int:  # a bool or 2.0 would find session 1 or 2
            raise TypeError(f"a session id is an int, not {type(session_id).__name__}")
        rec = self.sessions.get(session_id)
        if rec is None:
            raise UnknownSession(f"no session {session_id}")
        return rec

    def teardown_session(self, session_id: int) -> None:
        """Close an established session and release everything it holds."""
        rec = self._session(session_id)
        if rec.terminal:
            return
        if rec.state is not _ESTABLISHED:
            raise SessionNotEstablished(
                f"session {session_id} is {rec.state.value}, not established")
        self.emit(rec.caller_qbs, "TEARDOWN", session_id, ())
        rec.transition(_TEARING_DOWN)
        self.release_session_circuits(rec, rec.caller_qbs)
        rec.transition(_CLOSED)
        self.emit(rec.caller_qbs, "CLOSED", session_id, ())

    # data plane -------------------------------------------------------------

    def send_message(self, session_id: int, payload: bytes,
                     sender: int | None = None) -> None:
        """Segment a byte message and stream its frames down the session path."""
        rec, direction = self._established(session_id, sender)
        frames = segment_message(payload)
        sender_node = rec.route[direction][0][0]
        self.emit(sender_node, "SEND", session_id, (len(payload), direction, len(frames)))
        for index, frame in enumerate(frames):
            self._submit_frame(rec, direction, frame, index)

    def relay_data(self, session_id: int, frame: bytes, sender: int | None = None) -> None:
        """Push a single raw frame, FRAME_BYTES bytes, down the path, outside any
        message. Any type but bytes is a TypeError (a mutable buffer would alias
        the logged frame), and another length a ValueError."""
        if type(frame) is not bytes:
            raise TypeError(f"relay_data takes bytes, not {type(frame).__name__}")
        if len(frame) != FRAME_BYTES:
            raise ValueError(f"a frame is exactly {FRAME_BYTES} bytes, got {len(frame)}")
        self._submit_frame(*self._established(session_id, sender), frame, index=None)

    def _established(self, session_id: int, sender: int | None) -> tuple[SessionRecord, str]:
        """The established session and the direction `sender` (default: caller) sends in."""
        if sender is not None and type(sender) is not int:
            raise TypeError(f"a sender QID is an int, not {type(sender).__name__}")
        rec = self._session(session_id)
        if rec.state is not _ESTABLISHED:
            raise SessionNotEstablished(
                f"session {session_id} is {rec.state.value}, not established")
        if sender not in (None, rec.caller, rec.callee):
            raise CallerUnknown(f"QID {sender} does not own session {session_id}")
        if sender != rec.callee:
            return rec, FORWARD
        if REVERSE not in rec.route:  # its channels, and their plates, made on first use
            rec.route[REVERSE] = self._route(rec, rec.callee, rec.caller)
        return rec, REVERSE

    def _submit_frame(self, rec: SessionRecord, direction: str, frame: bytes,
                      index: int | None) -> None:
        """Start a frame down its route with the one event payload for all its hops:
        `pos` counts the hops it was encoded onto; hops[pos - 1] it arrives over.
        `values` is the DATA detail, and its bytes the frame each hop encodes."""
        self._hop({"session": rec.session_id, "rec": rec, "values": (direction, frame, index),
                   "pos": 0, "hops": rec.route[direction]})

    def _hop(self, p: dict, dequeued: bool = False) -> None:
        """Encode the frame, `p["values"][1]`, onto hop `pos` and schedule its
        arrival at the far end. A frame not just taken off the channel's queue
        joins the back of it while it holds frames or the plate pair is in use."""
        pos, hops = p["pos"], p["hops"]
        src, dst, circuit, channel = hops[pos]
        if not dequeued and (channel.queue or not circuit.pool.plate_fresh(channel.tx)):
            if channel.queue is None:
                channel.queue = deque()
            channel.queue.append(p)
            return
        encode_frame(circuit.pool, channel.tx, p["values"][1])
        if pos == 0:
            # relays already logged this frame at their decode step
            self.emit(src, "DATA", p["session"], p["values"])
        p["pos"] = pos = pos + 1
        # a relaying station spends a tick; delivery at the route's end is same-tick
        self.schedule(self.now if pos == len(hops) else self.now + 1, dst,
                      "frame_arrival", p)

    def _on_channel_send(self, target: str, p: dict) -> None:
        # Only home circuits queue (a session's own channel gets one frame a tick,
        # decoded before the next), and they outlive sessions. The arrival that
        # scheduled this reset the plate, and `_hop` has queued every frame since.
        channel = p["channel"]
        queue = channel.queue
        while queue:
            item = queue.popleft()
            if not queue:  # drained: the next frame that has to wait makes another
                channel.queue = None
            if item["rec"].state is _ESTABLISHED:
                self._hop(item, dequeued=True)
                return
            self.dropped_frames["session_closed"] += 1

    def _on_frame_arrival(self, target: str, p: dict) -> None:
        """Decode, reset and drain the inbound channel and log DATA; then relay
        the frame on its next hop, or deliver it at the route's end."""
        pos, hops, rec = p["pos"], p["hops"], p["rec"]
        src, _, inbound, channel = hops[pos - 1]
        pool = inbound.pool
        frame = decode_frame(pool, channel.rx)
        pool.reset_plate_pair(channel.tx, channel.rx)
        if channel.queue:
            self.schedule(self.now, src, "channel_send", {"channel": channel})
        if rec.state is not _ESTABLISHED:
            self.dropped_frames["session_closed"] += 1
            return
        direction, data, index = values = p["values"]
        if frame != data:  # this hop decoded other bytes: it logs, and passes on, its own
            p["values"] = values = (direction, frame, index)
            data = frame
        self.emit(target, "DATA", p["session"], values)
        if pos < len(hops):
            self._hop(p)
            return
        user = self.nodes[target]
        if index is None:  # relayed outside any message
            user.raw_frames.append((rec.session_id, data))
            return
        buffer = rec.rx_buffers.get(direction)
        if buffer is None:  # the message's header frame
            buffer = rec.rx_buffers[direction] = MessageBuffer()
        payload = buffer.push(data)
        if payload is None:
            return
        del rec.rx_buffers[direction]
        user.inbox.append((self.now, rec.session_id, payload))
        self.emit(target, "DELIVER", rec.session_id, (len(payload), direction))
        if rec.workload_payload is not None and direction == FORWARD:
            self.schedule(self.now + 1, rec.caller_qbs, "teardown",
                          {"session": rec.session_id})

    # reporting ----------------------------------------------------------------

    def latency_report(self, session_id: int) -> LatencyReport:
        rec = self._session(session_id)
        if not rec.path:
            raise SessionNotEstablished(f"session {session_id} never established")
        baseline_meters = sum(
            self._classical_distance(a, b) for a, b in zip(rec.path, rec.path[1:])
        )
        return LatencyReport(
            session_id=session_id,
            entangled_channel_ticks=0,
            processing_ticks=len(rec.path) - 2,
            classical_baseline_seconds=baseline_meters / SPEED_OF_LIGHT_M_PER_S,
        )

    def _classical_graph(self) -> dict[str, list[tuple[str, float]]]:
        """Every permanent link, plus any extra declared links, weighted by
        declared distance (0 when undeclared). Session circuits stay out."""
        link_distances: dict[frozenset, float] = {
            frozenset((link.a, link.b)): link.distance_meters
            for link in self.scenario.links
        }
        edges = {frozenset((user.node_id, user.home_qbs)) for user in self.users.values()}
        edges.update(frozenset((c.a, c.b)) for c in self.circuits.values()
                     if c.owner_session is None)
        edges.update(link_distances)
        adj: dict[str, list[tuple[str, float]]] = {}
        for edge in sorted(edges, key=sorted):
            a, b = sorted(edge)
            d = link_distances.get(edge, 0.0)
            adj.setdefault(a, []).append((b, d))
            adj.setdefault(b, []).append((a, d))
        return adj

    def _classical_distance(self, src: str, dst: str) -> float:
        """Shortest light-path distance over the declared link graph."""
        if self._classical_adj is None:
            self._classical_adj = self._classical_graph()
        dist = self._dijkstra_cache.get(src)
        if dist is None:
            dist = {src: 0.0}
            frontier = [(0.0, src)]
            while frontier:
                d, node = heapq.heappop(frontier)
                if d > dist.get(node, math.inf):
                    continue
                for neighbour, weight in self._classical_adj.get(node, ()):
                    nd = d + weight
                    if nd < dist.get(neighbour, math.inf):
                        dist[neighbour] = nd
                        heapq.heappush(frontier, (nd, neighbour))
            self._dijkstra_cache[src] = dist
        return dist.get(dst, math.inf)

    def stats(self) -> dict:
        by_state = Counter(rec.state for rec in self.sessions.values())
        by_failure = Counter(rec.failure for rec in self.sessions.values()
                             if rec.failure is not None)
        established = sum(1 for rec in self.sessions.values() if rec.path)
        return {
            "final_tick": self.now,
            "record_counts": dict(sorted(Counter(map(itemgetter(3), self._trace)).items())),
            "sessions": {
                "total": len(self.sessions),
                "established": established,
                "failed": by_state[SessionState.FAILED],
                "rejected": by_failure[FailureReason.REJECTED],
                "not_found": by_failure[FailureReason.NOT_FOUND],
                "closed": by_state[SessionState.CLOSED],
            },
        }

    def trace_lines(self) -> Iterator[str]:
        """Each record's line, as its `to_json_line` writes it."""
        return _trace_lines(self._trace)

    def write_trace(self, path: str) -> None:
        """Write the trace as NDJSON, one line at a time."""
        with open(path, "w") as handle:
            for line in self.trace_lines():
                handle.write(line + "\n")

    def write_stats(self, path: str) -> None:
        with open(path, "w") as handle:
            handle.write(json.dumps(self.stats(), indent=2, sort_keys=True) + "\n")
