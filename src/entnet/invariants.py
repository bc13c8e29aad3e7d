"""Whole-run checks; each raises InvariantViolation with the first offence found.

These are the properties any completed run must satisfy, whatever the
scenario: anti-correlation of every fixed pair, no blind decodes (a plate
observed before anything was encoded on it), circuit conservation at
quiescence, registry coherence, trace/state-machine conformance (which
includes "no data outside an established window"), and send/deliver
causality.
"""

from __future__ import annotations

from typing import Iterable

from .engine import Simulation, TraceRecord
from .entanglement import Plate
from .errors import InvariantViolation
from .node import UserNode
from .qbs import QbsNode, SessionState

# replay-only state after a REJECT: the caller's Child's timeout may still log another
_REFUSED = "refused"

# session states in which each record type may appear; entries marked with a
# target state move the replayed machine along the legal-transition relation
_RECORD_RULES: dict[str, tuple[frozenset, SessionState | str | None]] = {
    "SESSION_REQUEST": (frozenset({None}), SessionState.IDLE),
    "LOOKUP_LOCAL_HIT": (frozenset({SessionState.IDLE}), SessionState.NEGOTIATING),
    "LOOKUP_LOCAL_MISS": (frozenset({SessionState.IDLE}), SessionState.QUERYING_MOTHER),
    "MOTHER_LOOKUP": (frozenset({SessionState.QUERYING_MOTHER}), None),
    "MOTHER_LOOKUP_MISS": (frozenset({SessionState.QUERYING_MOTHER}), SessionState.FAILED),
    # the last record before the caller's Child starts negotiating a cross-station path
    "CIRCUIT_PROVISIONED": (frozenset({SessionState.QUERYING_MOTHER}), SessionState.NEGOTIATING),
    "NEGOTIATE": (frozenset({SessionState.NEGOTIATING}), None),
    "ACCEPT": (frozenset({SessionState.NEGOTIATING}), None),
    "REJECT": (frozenset({SessionState.NEGOTIATING, _REFUSED}), _REFUSED),
    "ESTABLISHED": (frozenset({SessionState.NEGOTIATING}), SessionState.ESTABLISHED),
    "SEND": (frozenset({SessionState.ESTABLISHED}), None),
    "DATA": (frozenset({SessionState.ESTABLISHED}), None),
    "DELIVER": (frozenset({SessionState.ESTABLISHED}), None),
    "TEARDOWN": (frozenset({SessionState.ESTABLISHED}), SessionState.TEARING_DOWN),
    "CIRCUIT_RELEASED": (frozenset({SessionState.TEARING_DOWN, SessionState.FAILED, _REFUSED}),
                         None),
    "CLOSED": (frozenset({SessionState.TEARING_DOWN}), SessionState.CLOSED),
}


# Both checks read a record by position, so a TraceRecord or the engine's plain
# (tick, seq, node, type, session, values) tuple will do.


def check_trace_state_machine(records: Iterable[TraceRecord]) -> None:
    """Replay every session's records against the legal transition relation."""
    states: dict[int, SessionState | str] = {}
    for record in records:
        session = record[4]
        if session is None:
            continue
        record_type = record[3]
        allowed, target = _RECORD_RULES[record_type]
        state = states.get(session)
        if state not in allowed:
            raise InvariantViolation(
                f"session {session}: {record_type} at tick {record[0]} "
                f"not legal in state {getattr(state, 'value', state)}")
        if target is not None:
            states[session] = target


def check_causality(records: Iterable[TraceRecord]) -> None:
    """Every DELIVER pairs with an earlier SEND of the same session+direction.
    The direction is read from the record's stored values, second after
    `bytes` in both types, without building its detail dict."""
    pending: dict[tuple[int, str], int] = {}
    for record in records:
        record_type = record[3]
        if record_type == "SEND":
            key = (record[4], record[5][1])
            pending[key] = pending.get(key, 0) + 1
        elif record_type == "DELIVER":
            key = (record[4], record[5][1])
            if pending.get(key, 0) < 1:
                raise InvariantViolation(
                    f"session {record[4]}: DELIVER at tick {record[0]} "
                    f"precedes its SEND")
            pending[key] -= 1


def _plate_fault(tx: Plate, rx: Plate) -> str | None:
    if tx.fixed != rx.fixed:
        return "fixed masks differ"
    if (tx.up | rx.up) & ~tx.fixed:
        return "up-bit outside the fixed mask"
    if tx.up ^ rx.up != tx.fixed:
        return "fixed spins not opposite"
    return None


def check_anti_correlation(sim: Simulation) -> None:
    """Every channel plate pair of every live circuit carries opposite spins.
    A home circuit that no route has used is not built and holds no plates."""
    for circuit in sim.circuits.values():
        for (src, dst), channel in circuit.channels.items():
            fault = _plate_fault(channel.tx, channel.rx)
            if fault:
                raise InvariantViolation(
                    f"circuit {circuit.circuit_id} channel {src}->{dst} generation "
                    f"{channel.tx.generation}: {fault}")


def check_no_blind_decodes(sim: Simulation) -> None:
    """No plate of any circuit, live or released, was decoded before it was encoded."""
    for circuit in sim.circuits.values():
        if circuit.pool.plate_draws:
            raise InvariantViolation(
                f"circuit {circuit.circuit_id}: {circuit.pool.plate_draws} blind decode(s)")
    if sim.released_plate_draws:
        raise InvariantViolation(
            f"released circuits: {sim.released_plate_draws} blind decode(s)")


def check_circuit_conservation(sim: Simulation) -> None:
    """At quiescence the live circuits are exactly the permanent topology ones.
    A home circuit that no route has built counts as live under its id."""
    live = [rec for rec in sim.sessions.values() if not rec.terminal]
    if live:
        raise InvariantViolation(
            f"not at quiescence: sessions {[r.session_id for r in live]} still live")
    # each user's home id is its own: an int, apart from the station circuits
    # and every other user's, so an unbuilt one cannot stand in for another
    expected = set(sim._permanent)
    for qid, user in sim.users.items():
        circuit_id = user.home_circuit
        if type(circuit_id) is not int or circuit_id in expected:
            raise InvariantViolation(f"user {qid}: home circuit {circuit_id!r} is not its own id")
        expected.add(circuit_id)
    actual = set(sim.circuits)
    actual.update(user.home_circuit for user in sim.users.values() if user.home is None)
    if actual != expected:
        raise InvariantViolation(
            f"circuit sets differ: extra={sorted(actual - expected)} "
            f"missing={sorted(expected - actual)}")


def check_registry_coherence(sim: Simulation) -> None:
    """Each station's registry equals the one its attached users imply: a Child
    maps its users' QIDs to their node ids, and a Mother maps each QID on its
    planet to the user's Child and every other QID to that planet's Mother.
    First, the links that routing reads match the scenario's planets: each
    Mother's `peer_mothers` maps every other Mother's id to its node, and each
    Child's `mother_id` names its planet's Mother."""
    stations = {node_id: node for node_id, node in sim.nodes.items() if isinstance(node, QbsNode)}
    planets = sim.scenario.planets
    for planet in planets:
        peers = {other.mother_id: stations.get(other.mother_id) for other in planets
                 if other is not planet}
        mother = stations.get(planet.mother_id)
        if mother is None or mother.peer_mothers != peers:
            held = {key: getattr(node, "qbs_id", None)
                    for key, node in getattr(mother, "peer_mothers", {}).items()}
            raise InvariantViolation(f"{planet.mother_id}: peer_mothers maps {held}, "
                                     f"should map {dict(zip(peers, peers))}")
        for child_spec in planet.children:
            mother_id = getattr(stations.get(child_spec.qbs_id), "mother_id", None)
            if mother_id != planet.mother_id:
                raise InvariantViolation(f"{child_spec.qbs_id}: mother_id is {mother_id!r}, "
                                         f"should be {planet.mother_id!r}")
    implied = {node_id: {} for node_id in stations}
    for qid, user in sim.users.items():
        node_id = getattr(user, "node_id", None)
        if not isinstance(user, UserNode) or user.qid != qid or sim.nodes.get(node_id) is not user:
            raise InvariantViolation(f"QID {qid}: node {node_id!r} is not the user of that QID")
        child = stations.get(user.home_qbs)
        if child is None or child.mother_id is None:
            raise InvariantViolation(
                f"QID {qid}: user {node_id} is attached to {user.home_qbs!r}, not a Child")
        implied[user.home_qbs][qid] = node_id
    mothers = [node_id for node_id, node in stations.items() if node.mother_id is None]
    for child_id, child in stations.items():
        if child.mother_id is not None:
            for mother in mothers:
                entry = child_id if mother == child.mother_id else child.mother_id
                implied[mother].update(dict.fromkeys(implied[child_id], entry))
    for station, entries in implied.items():  # in sim.nodes order
        registry = stations[station].registry
        if registry != entries:
            qid = min(q for q in registry.keys() | entries.keys()
                      if registry.get(q) != entries.get(q))
            raise InvariantViolation(f"QID {qid}: {station} holds {registry.get(qid)!r}, "
                                     f"should hold {entries.get(qid)!r}")


def check_active_session_membership(sim: Simulation) -> None:
    """Every session's caller node, and its callee node once resolved, is the
    user registered under that QID."""
    for rec in sim.sessions.values():
        for qid, node_id in ((rec.caller, rec.caller_node), (rec.callee, rec.callee_node)):
            user = sim.users.get(qid)
            if node_id is not None and (user is None or user.node_id != node_id):
                raise InvariantViolation(
                    f"session {rec.session_id}: {node_id} is not the user of QID {qid}")


def check_session_circuit_binding(sim: Simulation) -> None:
    """A session's circuit list is empty exactly in the terminal states."""
    for rec in sim.sessions.values():
        if rec.terminal == bool(rec.circuits):
            raise InvariantViolation(
                f"session {rec.session_id} ({rec.state.value}) holds "
                f"circuits {rec.circuits}")


def check_all(sim: Simulation) -> None:
    # the records as the run keeps them: reading `sim.trace` would convert them
    check_trace_state_machine(sim._trace)
    check_causality(sim._trace)
    check_anti_correlation(sim)
    check_no_blind_decodes(sim)
    check_circuit_conservation(sim)
    check_registry_coherence(sim)
    check_active_session_membership(sim)
    check_session_circuit_binding(sim)
