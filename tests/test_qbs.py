import dataclasses
import json
import sys

import pytest
from conftest import is_subsequence, record_types

from entnet import (
    PLATE_WIDTH,
    Circuit,
    QbsNode,
    SessionState,
    Simulation,
    encode_frame,
    desk_scale_scenario,
    example_scenario,
)
from entnet.engine import FORWARD, REVERSE
from entnet.errors import (
    CallerUnknown,
    DuplicateNode,
    DuplicateQid,
    IllegalTransition,
    InvariantViolation,
    SelfCall,
    SessionNotEstablished,
    UnknownSession,
    ValidationError,
)
from entnet.invariants import check_all, check_anti_correlation, check_circuit_conservation
from entnet.qbs import HANDLER_NAMES, FailureReason, SessionRecord
from entnet.scenario import (
    ChildSpec,
    PlanetSpec,
    Scenario,
    UserSpec,
    WorkloadItem,
    validate_scenario,
)
from entnet.node import AcceptAll, RejectAll, UserNode


def two_station_scenario(**kwargs):
    """One planet, two children, two users per child."""
    return Scenario(
        seed=kwargs.get("seed", 4),
        planets=(PlanetSpec("m", (
            ChildSpec("qbs-1", (UserSpec("a1", 1), UserSpec("a2", 2))),
            ChildSpec("qbs-2", (UserSpec("c1", 3), UserSpec("c2", 4))),
        )),),
        workload=tuple(kwargs.get("workload", ())),
    )


# registries -------------------------------------------------------------------


def registries(sim):
    """Everything register_user may mutate."""
    return (dict(sim.nodes), dict(sim.users), dict(sim.circuits),
            {n.qbs_id: dict(n.registry) for n in sim.nodes.values()
             if isinstance(n, QbsNode)})


def test_register_then_lookup_local():
    sim = Simulation(two_station_scenario())
    sim.register_user("qbs-1", 99, "user-x")
    assert sim.nodes["qbs-1"].lookup_local(99) == "user-x"


def test_late_registered_user_fits_the_topology():
    sim = Simulation(two_station_scenario())
    sim.register_user("qbs-2", 99, "user-x")
    sid = sim.request_session(1, 99)
    sim.run_until_idle()
    assert sim.sessions[sid].state is SessionState.ESTABLISHED
    sim.send_message(sid, b"welcome aboard")
    sim.run_until_idle()
    sim.teardown_session(sid)
    assert sim.users[99].receive_poll() == [(sid, b"welcome aboard")]
    check_all(sim)


def test_register_then_mother_entry():
    sim = Simulation(two_station_scenario())
    assert sim.nodes["m"].registry[3] == "qbs-2"


def test_duplicate_registration_rejected():
    # QID 1 sits on qbs-1: the same Child, then another Child of its Mother
    for child_id in ("qbs-1", "qbs-2"):
        sim = Simulation(two_station_scenario())
        before = registries(sim)
        with pytest.raises(DuplicateQid, match="QID 1 already registered"):
            sim.register_user(child_id, 1, "user-x")
        assert registries(sim) == before
    # QID 11 sits on earth's qbs-1; qbs-2 is the Child on mars
    sim = Simulation(example_scenario("interplanet"))
    before = registries(sim)
    with pytest.raises(DuplicateQid, match="QID 11 already registered"):
        sim.register_user("qbs-2", 11, "user-x")
    assert registries(sim) == before
    check_all(sim)


@pytest.mark.parametrize("node_id", ["qbs-2", "user-c"])
def test_registration_under_a_node_id_in_use_rejected(node_id):
    sim = Simulation(example_scenario("cross-qbs"))
    before = registries(sim)
    with pytest.raises(DuplicateNode):
        sim.register_user("qbs-1", 99, node_id)
    assert registries(sim) == before
    check_all(sim)


@pytest.mark.parametrize("child_id", ["earth-mother", "user-a", "qbs-9"])
def test_registration_at_a_non_child_rejected(child_id):
    sim = Simulation(example_scenario("cross-qbs"))
    before = registries(sim)
    with pytest.raises(ValueError, match="not a Child station"):
        sim.register_user(child_id, 99, "user-y")
    assert registries(sim) == before
    check_all(sim)


@pytest.mark.parametrize("qid, node_id, policy", [
    (-5, "user-x", None), (True, "user-x", None), ("x", "user-x", None),
    (2**64, "user-x", None), (99, "", None), (99, 5, None), (99, "user-x", "accept_all"),
])
def test_registration_of_a_user_the_scenario_rejects(qid, node_id, policy):
    sim = Simulation(two_station_scenario())
    before = registries(sim)
    with pytest.raises(ValidationError) as err:
        sim.register_user("qbs-1", qid, node_id, policy)
    assert registries(sim) == before
    lone = Scenario(seed=1, planets=(PlanetSpec("m", (ChildSpec("qbs-1", (
        UserSpec(node_id, qid, policy or AcceptAll()),)),)),))
    expected = [f.replace("planets[0].children[0].users[0]", "user")
                for f in validate_scenario(lone)]
    assert expected and err.value.findings == expected
    check_all(sim)


def test_registration_takes_the_childs_own_mother():
    sim = Simulation(example_scenario("interplanet"))
    sim.register_user("qbs-2", 99, "user-x")  # a Mars Child
    assert sim.nodes["mars-mother"].registry[99] == "qbs-2"
    assert sim.nodes["earth-mother"].registry[99] == "mars-mother"
    sid = sim.request_session(11, 99)
    sim.run_until_idle()
    assert sim.sessions[sid].path == ["user-a", "qbs-1", "qbs-2", "user-x"]
    sim.teardown_session(sid)
    check_all(sim)


def test_lookup_local_misses_remote_user():
    sim = Simulation(two_station_scenario())
    assert sim.nodes["qbs-1"].lookup_local(3) is None
    assert sim.nodes["qbs-1"].lookup_local(424242) is None


def test_unregistered_qid_has_no_mother_entry():
    sim = Simulation(two_station_scenario())
    assert sim.nodes["m"].registry.get(424242) is None


def test_peer_mother_entry_delegates_to_owner_child():
    sim = Simulation(example_scenario("interplanet"))
    earth = sim.nodes["earth-mother"]
    entry = earth.registry[13]
    assert entry == "mars-mother"
    assert earth.peer_mothers[entry].registry[13] == "qbs-2"
    assert earth.lookup_local(13) is None


def test_mother_registry_mirrors_children():
    sim = Simulation(two_station_scenario())
    mother = sim.nodes["m"]
    for qid, child_id in ((1, "qbs-1"), (2, "qbs-1"), (3, "qbs-2"), (4, "qbs-2")):
        assert mother.registry[qid] == child_id
        assert sim.nodes[child_id].registry[qid] == sim.users[qid].node_id


# session setup ------------------------------------------------------------------


def test_same_qbs_session_establishes_with_path_of_three():
    sim = Simulation(two_station_scenario())
    sid = sim.request_session(1, 2)
    sim.run_until_idle()
    rec = sim.sessions[sid]
    assert rec.state is SessionState.ESTABLISHED
    assert rec.path == ["a1", "qbs-1", "a2"]


def test_cross_qbs_session_path_is_caller_qbs1_qbs2_callee():
    sim = Simulation(two_station_scenario())
    sid = sim.request_session(1, 3)
    sim.run_until_idle()
    assert sim.sessions[sid].path == ["a1", "qbs-1", "qbs-2", "c1"]


def test_rejected_session_holds_no_circuits():
    scenario = Scenario(
        seed=4,
        planets=(PlanetSpec("m", (
            ChildSpec("qbs-1", (UserSpec("a1", 1),)),
            ChildSpec("qbs-2", (UserSpec("c1", 3, RejectAll()),)),
        )),),
        workload=(WorkloadItem(0, 1, 3, b"never arrives"),),
    )
    sim = Simulation(scenario)
    sim.run_until_idle()
    rec = sim.sessions[1]
    assert rec.state is SessionState.FAILED
    assert rec.failure is FailureReason.REJECTED
    assert rec.circuits == []
    assert "DATA" not in record_types(sim)
    check_circuit_conservation(sim)


def test_request_session_rejects_unknown_caller():
    sim = Simulation(two_station_scenario())
    with pytest.raises(CallerUnknown):
        sim.request_session(777, 3)


def test_request_session_rejects_self_call():
    sim = Simulation(two_station_scenario())
    with pytest.raises(SelfCall):
        sim.request_session(1, 1)


# brokered circuits ---------------------------------------------------------------


def test_provisioned_circuit_joins_both_stations():
    sim = Simulation(two_station_scenario())
    sid = sim.request_session(1, 3)
    cid = sim.provision_interqbs_circuit("m", "qbs-1", "qbs-2", sid)
    circuit = sim.circuits[cid]
    assert {circuit.a, circuit.b} == {"qbs-1", "qbs-2"}
    assert circuit.owner_session == sid


def test_concurrent_sessions_get_distinct_circuits():
    scenario = two_station_scenario(workload=[
        WorkloadItem(0, 1, 3, b"one"),
        WorkloadItem(0, 2, 4, b"two"),
    ])
    sim = Simulation(scenario)
    sim.run_until(9)  # both sessions established, data still flowing
    owned = [c for c in sim.circuits.values() if c.owner_session is not None]
    assert len(owned) == 2
    assert owned[0].circuit_id != owned[1].circuit_id
    assert {c.owner_session for c in owned} == {1, 2}
    sim.run_until_idle()
    check_circuit_conservation(sim)


def test_teardown_removes_provisioned_circuit():
    sim = Simulation(two_station_scenario(workload=[WorkloadItem(0, 1, 3, b"x")]))
    sim.run_until_idle()
    assert sim.sessions[1].state is SessionState.CLOSED
    unrouted = {sim.users[2].home_circuit, sim.users[4].home_circuit}
    assert set(sim.circuits) == sim.permanent_circuit_ids - unrouted
    provisioned = [r.detail["circuit"] for r in sim.trace
                   if r.type == "CIRCUIT_PROVISIONED"]
    assert provisioned and provisioned[0] not in sim.circuits


# lazy channels ---------------------------------------------------------------------


def established_example(kind):
    """An example topology with its workload call opened by hand and left established."""
    scenario = example_scenario(kind)
    item = scenario.workload[0]
    sim = Simulation(dataclasses.replace(scenario, workload=()))
    sid = sim.request_session(item.from_qid, item.to_qid)
    sim.run_until_idle()
    rec = sim.sessions[sid]
    assert rec.state is SessionState.ESTABLISHED
    return sim, rec


def test_a_channel_request_makes_only_its_direction():
    circuit = Circuit.build(1, "x", "y", 0)
    assert circuit.channels == {} and len(circuit.pool) == 0
    back = circuit.channel("y", "x")
    assert list(circuit.channels) == [("y", "x")] and len(circuit.pool) == PLATE_WIDTH
    assert circuit.channel("y", "x") is back and len(circuit.pool) == PLATE_WIDTH
    there = circuit.channel("x", "y")
    assert list(circuit.channels) == [("y", "x"), ("x", "y")] and there is not back
    assert len(circuit.pool) == 2 * PLATE_WIDTH


@pytest.mark.parametrize("kind", ["same-qbs", "cross-qbs", "interplanet"])
def test_fresh_simulation_holds_no_plates(kind):
    sim = Simulation(example_scenario(kind))
    assert sim.circuits
    for circuit in sim.circuits.values():
        assert circuit.channels == {} and len(circuit.pool) == 0


def assert_plates_on_routes_only(sim, *routes):
    """Each built circuit holds a channel for each direction the routes use,
    PLATE_WIDTH pairs apiece, and nothing else."""
    used = {}
    for route in routes:
        for src, dst, circuit, channel in route:
            assert channel is circuit.channels[src, dst]
            used.setdefault(circuit.circuit_id, set()).add((src, dst))
    for circuit in sim.circuits.values():
        directions = used.get(circuit.circuit_id, set())
        assert set(circuit.channels) == directions, circuit.circuit_id
        assert len(circuit.pool) == len(directions) * PLATE_WIDTH, circuit.circuit_id


@pytest.mark.parametrize("kind", ["same-qbs", "cross-qbs", "interplanet"])
def test_established_session_builds_plates_on_its_route_only(kind):
    sim, rec = established_example(kind)
    forward = rec.route[FORWARD]
    assert [circuit.circuit_id for _, _, circuit, _ in forward] == rec.circuits
    assert list(rec.route) == [FORWARD]
    assert_plates_on_routes_only(sim, forward)
    for _, _, _, channel in forward:
        assert channel.queue is None  # made when a frame first has to wait
    # the same caller again, to another callee on the same path: the caller's
    # home hop is the very tuple of the first route, and no plate pair is added
    sim.register_user(rec.callee_qbs, 99, "user-z")
    second = sim.sessions[sim.request_session(rec.caller, 99)]
    sim.run_until_idle()
    assert second.state is SessionState.ESTABLISHED and second.path[-1] == "user-z"
    first_hop = second.route[FORWARD][0]
    assert first_hop is forward[0] and first_hop[3] is forward[0][3]
    assert_plates_on_routes_only(sim, forward, second.route[FORWARD])


@pytest.mark.parametrize("kind", ["same-qbs", "cross-qbs", "interplanet"])
def test_a_reverse_send_builds_its_route_and_plates_then(kind):
    sim, rec = established_example(kind)
    forward = rec.route[FORWARD]
    sim.send_message(rec.session_id, b"HI")  # forward again: nothing new is made
    assert list(rec.route) == [FORWARD] and sum(len(c.pool) for _, _, c, _ in forward) \
        == len(forward) * PLATE_WIDTH
    sim.send_message(rec.session_id, b"BACK", sender=rec.callee)
    reverse = rec.route[REVERSE]
    assert [(src, dst, c) for src, dst, c, _ in reverse] \
        == [(dst, src, c) for src, dst, c, _ in reversed(forward)]
    for (src, dst, circuit, channel), (_, _, _, there) in zip(reverse, reversed(forward)):
        assert list(circuit.channels) == [(dst, src), (src, dst)]
        assert channel is circuit.channels[src, dst] is not there
        assert len(circuit.pool) == 2 * PLATE_WIDTH
    sim.run_until_idle()
    assert sim.users[rec.caller].receive_poll() == [(rec.session_id, b"BACK")]
    assert sim.users[rec.callee].receive_poll() == [(rec.session_id, b"HI")]
    # another caller on the same path to the same callee: the callee's reverse
    # route starts with the very up hop of the first, and no plate pair is added
    sim.register_user(rec.caller_qbs, 99, "user-z")
    second = sim.sessions[sim.request_session(99, rec.callee)]
    sim.run_until_idle()
    sim.send_message(second.session_id, b"AGAIN", sender=rec.callee)
    up_hop = second.route[REVERSE][0]
    assert up_hop is reverse[0] and up_hop[3] is reverse[0][3]
    assert second.route[FORWARD][-1] is forward[-1]
    assert_plates_on_routes_only(sim, forward, reverse, *second.route.values())
    sim.run_until_idle()
    assert sim.users[99].receive_poll() == [(second.session_id, b"AGAIN")]
    check_anti_correlation(sim)


def test_flipped_rx_bit_on_a_routed_channel_is_caught():
    sim, rec = established_example("cross-qbs")
    src, dst, circuit, channel = rec.route[FORWARD][1]  # the session's own circuit
    assert circuit.owner_session == rec.session_id
    encode_frame(circuit.pool, channel.tx, bytes(range(16)))
    check_anti_correlation(sim)
    channel.rx.up ^= 1 << 40
    with pytest.raises(InvariantViolation,
                       match=f"circuit {circuit.circuit_id} channel {src}->{dst} .*not opposite"):
        check_anti_correlation(sim)


# data and teardown ----------------------------------------------------------------


def test_relay_on_closed_session_raises():
    sim = Simulation(two_station_scenario(workload=[WorkloadItem(0, 1, 2, b"x")]))
    sim.run_until_idle()
    assert sim.sessions[1].state is SessionState.CLOSED
    with pytest.raises(SessionNotEstablished):
        sim.relay_data(1, bytes(16))


def test_teardown_unknown_session():
    sim = Simulation(two_station_scenario())
    with pytest.raises(UnknownSession):
        sim.teardown_session(17)


def test_double_teardown_is_noop():
    sim = Simulation(two_station_scenario())
    sid = sim.request_session(1, 2)
    sim.run_until_idle()
    sim.teardown_session(sid)
    closed_count = record_types(sim).count("CLOSED")
    sim.teardown_session(sid)
    assert record_types(sim).count("CLOSED") == closed_count == 1


def test_teardown_before_establishment_raises():
    sim = Simulation(two_station_scenario())
    sid = sim.request_session(1, 2)
    sim.run_until(1)  # still negotiating
    with pytest.raises(SessionNotEstablished):
        sim.teardown_session(sid)


def test_teardown_restores_interqbs_circuit_count():
    sim = Simulation(two_station_scenario(workload=[WorkloadItem(0, 1, 3, b"x")]))
    def interqbs():
        return sum(1 for c in sim.circuits.values()
                   if {c.a, c.b} == {"qbs-1", "qbs-2"})
    before = interqbs()
    sim.run_until_idle()
    assert interqbs() == before


# conformance ------------------------------------------------------------------------


def test_same_qbs_trace_never_touches_mother():
    sim = Simulation(two_station_scenario(workload=[WorkloadItem(0, 1, 2, b"hi")]))
    sim.run_until_idle()
    types = record_types(sim)
    assert "MOTHER_LOOKUP" not in types
    assert "MOTHER_LOOKUP_MISS" not in types


def test_cross_qbs_trace_provisions_before_negotiation():
    sim = Simulation(two_station_scenario(workload=[WorkloadItem(0, 1, 3, b"hi")]))
    sim.run_until_idle()
    assert is_subsequence(
        ["LOOKUP_LOCAL_MISS", "MOTHER_LOOKUP", "CIRCUIT_PROVISIONED",
         "NEGOTIATE", "ACCEPT", "ESTABLISHED"],
        record_types(sim))
    check_all(sim)


def test_illegal_transition_is_a_loud_bug():
    rec = SessionRecord(1, 1, 2, "a1", "qbs-1")
    with pytest.raises(IllegalTransition):
        rec.transition(SessionState.ESTABLISHED)


def test_negotiation_timeout_fails_session_as_rejected():
    sim = Simulation(two_station_scenario())
    sim.nodes["qbs-1"].negotiation_budget = 5
    sid = sim.request_session(1, 2)
    # the callee never answers: swallow the ask on the user instance
    sim.users[2]._on_negotiate_ask = lambda _sim, _p: None
    sim.run_until_idle()
    rec = sim.sessions[sid]
    assert rec.state is SessionState.FAILED
    assert rec.failure is FailureReason.REJECTED
    rejects = [r for r in sim.trace if r.type == "REJECT"]
    assert rejects and rejects[0].detail["reason"] == "timeout"
    assert rejects[0].tick == 1 + 5
    assert rec.timeout_key is None  # the fired timeout's key is not kept
    check_circuit_conservation(sim)


def test_answer_after_timeout_is_ignored():
    sim = Simulation(two_station_scenario())
    sim.nodes["qbs-1"].negotiation_budget = 0
    sid = sim.request_session(1, 2)
    sim.run_until_idle()
    rec = sim.sessions[sid]
    assert rec.state is SessionState.FAILED
    assert record_types(sim, sid).count("ESTABLISHED") == 0


def test_no_finished_session_keeps_its_timeout_key():
    sim = Simulation(desk_scale_scenario(children=4, users_per_child=20, sessions=200,
                                         reject_fraction=0.2))
    sim.run_until_idle()
    finished = list(sim.sessions.values())
    assert len(finished) == 200 and all(rec.terminal for rec in finished)
    assert {rec.state for rec in finished} == {SessionState.CLOSED, SessionState.FAILED}
    assert [rec.session_id for rec in finished if rec.timeout_key is not None] == []


# event dispatch ----------------------------------------------------------------------


def handler_verbs(cls):
    return [name[len("_on_"):] for name in vars(cls) if name.startswith("_on_")]


def test_the_handler_table_is_every_handler_of_both_classes():
    verbs = handler_verbs(QbsNode) + handler_verbs(UserNode)
    assert "session_lookup" in verbs and "negotiate_ask" in verbs
    assert dict(HANDLER_NAMES) == {verb: "_on_" + verb for verb in verbs}
    for verb, name in HANDLER_NAMES.items():
        assert name is sys.intern("_on_" + verb)
    with pytest.raises(TypeError):
        HANDLER_NAMES["bogus"] = "_on_bogus"  # read-only


@pytest.mark.parametrize("make", [lambda: QbsNode("qbs-1", "m"), lambda: UserNode("a1", 1, "qbs-1")],
                         ids=["station", "user"])
def test_every_handler_is_reached_through_handle(make, monkeypatch):
    node = make()
    verbs = handler_verbs(type(node))
    calls = []
    for verb in verbs:  # each class method in turn, then one set on the instance
        monkeypatch.setattr(type(node), "_on_" + verb,
                            lambda self, sim, p, verb=verb: calls.append((self, sim, verb, p)))
    for verb in verbs:
        node.handle("sim", verb, {"session": verb})
    assert calls == [(node, "sim", verb, {"session": verb}) for verb in verbs]
    for verb in verbs:  # a handler set on the instance wins over its class's
        setattr(node, "_on_" + verb, lambda sim, p, verb=verb: calls.append(("own", verb)))
        node.handle("sim", verb, {})
    assert calls[len(verbs):] == [("own", verb) for verb in verbs]


@pytest.mark.parametrize("target", ["qbs-1", "earth-mother", "user-a", "user-c"])
def test_an_unknown_verb_raises_and_changes_nothing(target):
    sim, rec = established_example("cross-qbs")

    def state():
        return (list(sim.trace_lines()), json.dumps(sim.stats()),
                [(r.state, r.failure, list(r.path), list(r.circuits), dict(r.route),
                  r.timeout_key) for r in sim.sessions.values()])

    before = state()
    with pytest.raises(AttributeError, match="'_on_bogus'"):
        sim.nodes[target].handle(sim, "bogus", {"session": rec.session_id})
    assert state() == before
    sim.schedule(sim.now, target, "bogus", {"session": rec.session_id})
    with pytest.raises(AttributeError, match="'_on_bogus'"):
        sim.run_until_idle()
    assert state() == before
    assert "bogus" not in HANDLER_NAMES
