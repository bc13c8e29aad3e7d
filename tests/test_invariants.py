import re

import pytest

from entnet import RejectAll, Simulation, decode_frame, encode_frame, example_scenario
from entnet.errors import InvariantViolation
from entnet.invariants import (
    check_active_session_membership,
    check_all,
    check_anti_correlation,
    check_causality,
    check_circuit_conservation,
    check_registry_coherence,
    check_session_circuit_binding,
    check_trace_state_machine,
)


def live_channel(sim):
    """A permanent circuit and its a->b channel, after the run."""
    circuit = sim.circuits[min(sim.permanent_circuit_ids)]
    return circuit, circuit.channel(circuit.a, circuit.b)


@pytest.fixture
def encoded(run_example):
    """A finished run with one frame encoded on a live channel."""
    sim = run_example("cross-qbs")
    circuit, channel = live_channel(sim)
    encode_frame(circuit.pool, channel.tx, bytes(range(16)))
    check_anti_correlation(sim)
    return sim, channel


def test_flipped_rx_bit_is_caught(encoded):
    sim, channel = encoded
    channel.rx.up ^= 1 << 40
    with pytest.raises(InvariantViolation, match="not opposite"):
        check_anti_correlation(sim)


def test_mismatched_fixed_masks_are_caught(encoded):
    sim, channel = encoded
    channel.rx.fixed ^= 1
    with pytest.raises(InvariantViolation, match="fixed masks differ"):
        check_anti_correlation(sim)


def test_up_bit_outside_fixed_mask_is_caught(run_example):
    sim = run_example("cross-qbs")
    _, channel = live_channel(sim)
    assert channel.tx.fixed == 0  # nothing encoded on it
    channel.tx.up = channel.rx.up = 1  # equal bits: tx.up ^ rx.up still == fixed
    with pytest.raises(InvariantViolation, match="outside the fixed mask"):
        check_anti_correlation(sim)


def test_blind_decode_on_live_circuit_is_caught(run_example):
    sim = run_example("cross-qbs")
    check_all(sim)
    circuit, channel = live_channel(sim)
    decode_frame(circuit.pool, channel.rx)
    with pytest.raises(InvariantViolation, match="blind decode"):
        check_all(sim)


def test_blind_decode_on_released_circuit_is_caught():
    sim = Simulation(example_scenario("cross-qbs"))
    sim.run_until_idle()
    sid = sim.request_session(11, 13)
    sim.run_until_idle()
    owned = [c for c in sim.circuits.values() if c.owner_session == sid]
    assert len(owned) == 1
    decode_frame(owned[0].pool, owned[0].channel(owned[0].a, owned[0].b).rx)
    sim.teardown_session(sid)
    sim.run_until_idle()
    assert owned[0].circuit_id not in sim.circuits
    with pytest.raises(InvariantViolation, match="released circuits"):
        check_all(sim)


@pytest.mark.parametrize("end, closed", [("caller_node", False), ("callee_node", False),
                                         ("caller_node", True)],
                         ids=["caller_node", "callee_node", "closed-caller_node"])
def test_live_session_naming_a_foreign_user_is_caught(end, closed):
    sim = Simulation(example_scenario("cross-qbs"))
    sim.run_until(4)  # the workload session is live and its callee resolved
    rec = sim.sessions[1]
    assert not rec.terminal and rec.callee_node == "user-c"
    check_active_session_membership(sim)
    if closed:  # a closed session is checked too, so check_all sees the offence
        sim.run_until_idle()
        assert rec.terminal
        check_all(sim)
    setattr(rec, end, "user-a" if end == "callee_node" else "user-c")
    check = check_all if closed else check_active_session_membership
    with pytest.raises(InvariantViolation, match="is not the user of QID"):
        check(sim)


def cross_station_trace(kind, budget):
    sim = Simulation(example_scenario(kind))
    sim.nodes["qbs-1"].negotiation_budget = budget  # the caller's Child
    sim.run_until_idle()
    return [r for r in sim.trace if r.session == 1]


@pytest.mark.parametrize("kind", ["cross-qbs", "interplanet"])
def test_negotiate_ahead_of_the_brokered_circuit_is_caught(kind):
    records = cross_station_trace(kind, 100)
    check_trace_state_machine(records)
    types = [r.type for r in records]
    provisioned, negotiate = types.index("CIRCUIT_PROVISIONED"), types.index("NEGOTIATE")
    records.insert(provisioned, records.pop(negotiate))
    with pytest.raises(InvariantViolation, match="NEGOTIATE .* state querying_mother"):
        check_trace_state_machine(records)


@pytest.mark.parametrize("kind", ["cross-qbs", "interplanet"])
def test_zero_tick_timeout_needs_the_brokered_circuit(kind):
    records = cross_station_trace(kind, 0)  # the timeout fires before NEGOTIATE
    types = [r.type for r in records]
    assert "NEGOTIATE" not in types and types[types.index("CIRCUIT_PROVISIONED") + 1] == "REJECT"
    check_trace_state_machine(records)
    records = [r for r in records if r.type != "CIRCUIT_PROVISIONED"]
    with pytest.raises(InvariantViolation, match="REJECT .* state querying_mother"):
        check_trace_state_machine(records)


def refused_trace(kind, budget):
    """Session 1's records when its callee refuses under the caller's Child's budget."""
    sim = Simulation(example_scenario(kind))
    sim.users[12 if kind == "same-qbs" else 13].policy = RejectAll()
    sim.nodes["qbs-1"].negotiation_budget = budget
    sim.run_until_idle()
    return sim, [r for r in sim.trace if r.session == 1]


@pytest.mark.parametrize("kind, budget", [("same-qbs", 1), ("same-qbs", 2),
                                          ("cross-qbs", 3), ("interplanet", 4)])
def test_timeout_racing_the_callees_refusal_is_legal(kind, budget):
    sim, records = refused_trace(kind, budget)
    rejects = [r.detail for r in records if r.type == "REJECT"]
    assert rejects[0] == {"caller": 11} and rejects[1]["reason"] == "timeout"
    check_all(sim)


# a well-formed detail for each record type inserted below
_DETAILS = {"ESTABLISHED": (("user-a", "qbs-1", "user-b"),), "ACCEPT": (11,),
            "NEGOTIATE": (12, 11), "SEND": (5, "fwd", 2), "DATA": ("fwd", bytes(16), 0)}


@pytest.mark.parametrize("record_type", ["ESTABLISHED", "ACCEPT", "NEGOTIATE", "SEND", "DATA"])
def test_records_after_a_refusal_are_caught(record_type):
    _, records = refused_trace("same-qbs", 1)
    check_trace_state_machine(records)
    reject = [r.type for r in records].index("REJECT")
    records.insert(reject + 1, records[reject]._replace(type=record_type,
                                                        detail=_DETAILS[record_type]))
    with pytest.raises(InvariantViolation, match=f"{record_type} .* state refused"):
        check_trace_state_machine(records)


def corrupt(kind, *edits):
    """A finished run after `edits`: each (station, key, value) sets that
    station's registry entry, or, when station is None, points `sim.nodes[key]`
    at node `value`; a value of None deletes the entry."""
    sim = Simulation(example_scenario(kind))
    sim.run_until_idle()
    check_registry_coherence(sim)
    for station, key, value in edits:
        table = sim.nodes if station is None else sim.nodes[station].registry
        if value is None:
            del table[key]
        else:
            table[key] = sim.nodes[value] if station is None else value
    return sim


@pytest.mark.parametrize("kind, edits, message", [
    # the Mother a delegation names no longer holds the QID
    ("interplanet", [("mars-mother", 13, None)],
     "QID 13: mars-mother holds None, should hold 'qbs-2'"),
    # the Mother routes QID 11 to the Child of QID 13
    ("cross-qbs", [("earth-mother", 11, "qbs-2")],
     "QID 11: earth-mother holds 'qbs-2', should hold 'qbs-1'"),
    # the Mother holds a Child's entry: the user, not a Child
    ("cross-qbs", [("earth-mother", 11, "user-a")],
     "QID 11: earth-mother holds 'user-a', should hold 'qbs-1'"),
    # the Child routes QID 11 to the user of QID 12
    ("same-qbs", [("qbs-1", 11, "user-b")], "QID 11: qbs-1 holds 'user-b', should hold 'user-a'"),
    # a Child entry for a QID its Mother does not know, naming the user of QID 12
    ("same-qbs", [("qbs-1", 99, "user-b")], "QID 99: qbs-1 holds 'user-b', should hold None"),
    # a stray Child entry: qbs-2 also claims user-a, who sits on qbs-1
    ("cross-qbs", [("qbs-2", 11, "user-a")], "QID 11: qbs-2 holds 'user-a', should hold None"),
    # the Mother forgets a QID its Child still holds
    ("cross-qbs", [("earth-mother", 11, None)],
     "QID 11: earth-mother holds None, should hold 'qbs-1'"),
    # the home Mother forgets the delegation of a QID on another planet
    ("interplanet", [("earth-mother", 13, None)],
     "QID 13: earth-mother holds None, should hold 'mars-mother'"),
    # a QID gone from its Child and its Mother alike, while its user stays attached
    ("cross-qbs", [("qbs-2", 13, None), ("earth-mother", 13, None)],
     "QID 13: earth-mother holds None, should hold 'qbs-2'"),
    # user-a's node id names user-b
    ("same-qbs", [(None, "user-a", "user-b")], "QID 11: node 'user-a' is not the user of that QID"),
], ids=["dangling-delegation", "child-lacks-qid", "mother-holds-user", "chain-ends-at-non-owner",
        "child-holds-unrouted-qid", "stray-child-entry", "mother-lacks-child-qid",
        "mother-lacks-delegation", "qid-gone-from-child-and-mother", "node-id-names-another-user"])
def test_incoherent_registry_is_caught(kind, edits, message):
    sim = corrupt(kind, *edits)
    with pytest.raises(InvariantViolation, match=message):
        check_registry_coherence(sim)
    with pytest.raises(InvariantViolation, match=message):
        check_all(sim)


@pytest.mark.parametrize("kind, edit, message", [
    # earth-mother forgets its peer: a lookup of QID 13 would be sent to node None
    ("interplanet", lambda nodes: nodes["earth-mother"].peer_mothers.pop("mars-mother"),
     "earth-mother: peer_mothers maps {}, should map {'mars-mother': 'mars-mother'}"),
    # the peer entry points at mars's Child, not its Mother
    ("interplanet", lambda nodes: nodes["earth-mother"].peer_mothers.update(
        {"mars-mother": nodes["qbs-2"]}),
     "earth-mother: peer_mothers maps {'mars-mother': 'qbs-2'}, "
     "should map {'mars-mother': 'mars-mother'}"),
    # a Child names another Child as its Mother
    ("cross-qbs", lambda nodes: setattr(nodes["qbs-2"], "mother_id", "qbs-1"),
     "qbs-2: mother_id is 'qbs-1', should be 'earth-mother'"),
], ids=["peer-mother-deleted", "peer-mother-is-a-child", "child-names-another-mother"])
def test_a_broken_station_link_is_caught(kind, edit, message):
    sim = corrupt(kind)
    edit(sim.nodes)
    with pytest.raises(InvariantViolation, match=re.escape(message)):
        check_registry_coherence(sim)
    with pytest.raises(InvariantViolation, match=re.escape(message)):
        check_all(sim)


def test_a_qid_moved_to_another_child_with_its_user_is_caught():
    # the stations agree with each other that QID 11 sits on qbs-2, but its
    # user, user-a, is attached to qbs-1
    sim = corrupt("cross-qbs", ("earth-mother", 11, "qbs-2"), ("qbs-1", 11, None),
                  ("qbs-2", 11, "user-a"))
    with pytest.raises(InvariantViolation,
                       match="QID 11: earth-mother holds 'qbs-2', should hold 'qbs-1'"):
        check_registry_coherence(sim)


@pytest.mark.parametrize("home_qbs", ["earth-mother", "user-b", "qbs-9"])
def test_a_user_attached_to_no_child_is_caught(home_qbs):
    sim = corrupt("same-qbs")
    sim.users[11].home_qbs = home_qbs
    with pytest.raises(InvariantViolation,
                       match=f"QID 11: user user-a is attached to '{home_qbs}', not a Child"):
        check_registry_coherence(sim)


def test_a_users_entry_that_is_not_its_user_is_caught():
    sim = corrupt("same-qbs")
    sim.users[11] = sim.nodes["qbs-1"]
    with pytest.raises(InvariantViolation, match="QID 11: node None is not the user"):
        check_registry_coherence(sim)
    sim.users[11] = sim.nodes["user-b"]
    with pytest.raises(InvariantViolation, match="QID 11: node 'user-b' is not the user"):
        check_registry_coherence(sim)


def test_a_deliver_ahead_of_its_send_is_caught(run_example):
    records = list(run_example("same-qbs").trace)
    check_causality(records)
    types = [r.type for r in records]
    deliver = types.index("DELIVER")
    # the one DELIVER repeated after its SEND: that SEND pairs with the first only
    with pytest.raises(InvariantViolation, match="session 1: DELIVER .* precedes its SEND"):
        check_causality(records[:deliver + 1] + records[deliver:])
    records.insert(types.index("SEND"), records.pop(deliver))
    with pytest.raises(InvariantViolation, match="session 1: DELIVER .* precedes its SEND"):
        check_causality(records)


def test_a_record_without_a_session_is_not_replayed(run_example):
    sim = run_example("same-qbs")
    states = check_trace_state_machine(sim.trace)
    # DATA is legal in no state but ESTABLISHED: replayed, this record would raise
    sim.emit("qbs-1", "DATA", None, ("fwd", bytes(16), None))
    assert check_trace_state_machine(sim.trace) == states


def test_circuit_conservation_needs_quiescence():
    sim = Simulation(example_scenario("same-qbs"))
    sim.run_until(4)  # the workload session is live
    assert not sim.sessions[1].terminal
    with pytest.raises(InvariantViolation, match=r"not at quiescence: sessions \[1\] still live"):
        check_circuit_conservation(sim)
    sim.run_until_idle()
    check_circuit_conservation(sim)


@pytest.mark.parametrize("terminal", [True, False], ids=["closed-with-circuit", "live-without"])
def test_a_session_circuit_list_at_odds_with_its_state_is_caught(terminal):
    sim = Simulation(example_scenario("same-qbs"))
    if terminal:
        sim.run_until_idle()
    else:
        sim.run_until(4)
    rec = sim.sessions[1]
    assert rec.terminal == terminal
    check_session_circuit_binding(sim)
    if terminal:
        rec.circuits += (sim.users[11].home_circuit,)
    else:
        rec.circuits = ()
    state = "closed" if terminal else rec.state.value
    with pytest.raises(InvariantViolation, match=rf"session 1 \({state}\) holds circuits"):
        check_session_circuit_binding(sim)
