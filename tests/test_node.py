import pytest
from conftest import is_subsequence, record_types

from entnet import (
    AcceptAll,
    AcceptList,
    RejectAll,
    SessionState,
    Simulation,
    UserNode,
    example_scenario,
)
from entnet.errors import SelfCall, SessionNotEstablished
from entnet.invariants import check_all
from entnet.qbs import FailureReason
from entnet.scenario import ChildSpec, PlanetSpec, Scenario, UserSpec, WorkloadItem


def test_accept_all_accepts_anyone():
    user = UserNode("u", 1, "q", AcceptAll())
    assert user.decide(7) and user.decide(424242)


def test_reject_all_rejects_anyone():
    user = UserNode("u", 1, "q", RejectAll())
    assert not user.decide(7)


def test_accept_list_is_membership():
    user = UserNode("u", 1, "q", AcceptList(frozenset({7})))
    assert user.decide(7)
    assert not user.decide(9)


def test_request_session_returns_id_immediately():
    sim = Simulation(example_scenario("same-qbs"))
    sid = sim.request_session(11, 12)
    assert sid == 1
    assert sim.sessions[sid].state is SessionState.IDLE
    sim.run_until_idle()
    assert is_subsequence(["SESSION_REQUEST", "ESTABLISHED"], record_types(sim, sid))


def test_request_to_own_qid_raises():
    sim = Simulation(example_scenario("same-qbs"))
    with pytest.raises(SelfCall):
        sim.request_session(11, 11)


def test_request_to_unknown_qid_fails_not_found():
    sim = Simulation(example_scenario("same-qbs"))
    sid = sim.request_session(11, 999)
    sim.run_until_idle()
    rec = sim.sessions[sid]
    assert rec.state is SessionState.FAILED
    assert rec.failure is FailureReason.NOT_FOUND
    assert is_subsequence(["LOOKUP_LOCAL_MISS", "MOTHER_LOOKUP_MISS"],
                          record_types(sim, sid))


def test_send_hello_arrives_exactly(run_example):
    sim = run_example("same-qbs")
    assert sim.users[12].receive_poll() == [(1, b"HELLO")]


def test_send_empty_message_delivers_empty_bytes():
    sim = Simulation(example_scenario("same-qbs"))
    sim.run_until_idle()
    sid = sim.request_session(11, 12)
    sim.run_until_idle()
    sim.send_message(sid, b"")
    sim.run_until_idle()
    assert (sid, b"") in sim.users[12].receive_poll()


def test_send_after_teardown_raises(run_example):
    sim = run_example("same-qbs")  # workload session auto-tears down
    with pytest.raises(SessionNotEstablished):
        sim.send_message(1, b"late")


def test_reverse_direction_send():
    sim = Simulation(example_scenario("same-qbs"))
    sim.run_until_idle()
    sid = sim.request_session(11, 12)
    sim.run_until_idle()
    sim.send_message(sid, b"pong", sender=12)
    sim.run_until_idle()
    assert sim.users[11].receive_poll() == [(sid, b"pong")]


def test_receive_poll_drains_and_empties(run_example):
    sim = run_example("same-qbs")
    user = sim.users[12]
    assert len(user.receive_poll()) == 1
    assert user.receive_poll() == []


def test_receive_poll_orders_by_tick_then_session():
    user = UserNode("u", 1, "q")
    user.inbox.extend([(5, 9, b"third"), (5, 2, b"second"), (3, 7, b"first")])
    assert user.receive_poll() == [(7, b"first"), (2, b"second"), (9, b"third")]


def test_two_senders_deliver_in_trace_order():
    scenario = Scenario(
        seed=6,
        planets=(PlanetSpec("m", (
            ChildSpec("q1", (UserSpec("a", 1), UserSpec("b", 2), UserSpec("c", 3))),
        )),),
        workload=(WorkloadItem(0, 1, 3, b"from-a"), WorkloadItem(0, 2, 3, b"from-b")),
    )
    sim = Simulation(scenario)
    sim.run_until_idle()
    delivered = sim.users[3].receive_poll()
    assert sorted(p for _, p in delivered) == [b"from-a", b"from-b"]
    deliver_order = [r.session for r in sim.trace if r.type == "DELIVER"]
    assert [sid for sid, _ in delivered] == deliver_order
    check_all(sim)


def test_every_inbox_entry_has_a_send(run_example):
    sim = run_example("cross-qbs")
    sends = sum(1 for r in sim.trace if r.type == "SEND")
    delivers = sum(1 for r in sim.trace if r.type == "DELIVER")
    assert sends == delivers == 1


def test_partial_message_buffer_dropped_at_close():
    sim = Simulation(example_scenario("cross-qbs"))
    sim.run_until_idle()
    sid = sim.request_session(11, 13)
    sim.run_until_idle()
    sim.send_message(sid, bytes(64))  # a header and four data frames
    rec = sim.sessions[sid]
    while not rec.rx_buffers:
        sim.run_until(sim.now + 1)
    assert list(rec.rx_buffers) == ["fwd"]
    sim.teardown_session(sid)
    assert rec.rx_buffers is None
    sim.run_until_idle()
    assert rec.rx_buffers is None
    assert not any(r.type == "DELIVER" and r.session == sid for r in sim.trace)
    check_all(sim)


def test_teardown_before_the_workload_payload_is_sent():
    sim = Simulation(example_scenario("same-qbs"))
    sim.run_until(0)  # the workload opens session 1 at tick 0
    while sim.sessions[1].state is not SessionState.ESTABLISHED:
        sim.run_until(sim.now + 1)
    sim.teardown_session(1)
    sim.run_until_idle()
    assert sim.sessions[1].state is SessionState.CLOSED
    types = record_types(sim, 1)
    assert "SEND" not in types[types.index("CLOSED"):]
    assert "DATA" not in types[types.index("CLOSED"):]
    check_all(sim)
