"""A home circuit's id is handed out at attach, and its circuit is built when a
session first routes over it; set-up holds only what a run routes over."""

import tracemalloc
from dataclasses import replace

import pytest

from entnet import Simulation, desk_scale_scenario, example_scenario
from entnet.errors import InvariantViolation
from entnet.invariants import check_all, check_circuit_conservation
from entnet.node import RejectAll
from entnet.qbs import Circuit, SessionState
from entnet.scenario import ChildSpec, PlanetSpec, Scenario, UserSpec, WorkloadItem


@pytest.fixture
def builds(monkeypatch):
    """The ids passed to Circuit.build, in call order."""
    built = []
    original = Circuit.build.__func__

    def build(cls, circuit_id, a, b, seed, owner_session=None):
        built.append(circuit_id)
        return original(cls, circuit_id, a, b, seed, owner_session)
    monkeypatch.setattr(Circuit, "build", classmethod(build))
    return built


def unbuilt(sim) -> set[int]:
    """The home circuit ids that no route has built."""
    return {user.home_circuit for user in sim.users.values() if user.home is None}


def test_a_new_simulation_builds_only_station_circuits(builds):
    sim = Simulation(example_scenario("interplanet"))
    # 1 qbs-1<->earth, 2 user-a home, 3 qbs-2<->mars, 4 user-c home, 5 earth<->mars
    assert builds == [1, 3, 5]
    assert list(sim.circuits) == [1, 3, 5]
    assert sim.permanent_circuit_ids == {1, 2, 3, 4, 5}
    assert unbuilt(sim) == {2, 4}
    with pytest.raises(KeyError):
        sim.circuits[2]
    assert builds == [1, 3, 5]


def test_reading_the_circuit_table_builds_nothing(builds):
    sim = Simulation(example_scenario("interplanet"))
    builds.clear()
    assert list(dict(sim.circuits)) == [1, 3, 5]
    assert [c.circuit_id for c in sim.circuits.values()] == [1, 3, 5]
    assert [cid for cid, _ in sim.circuits.items()] == [1, 3, 5]
    assert sum(len(c.pool) for c in sim.circuits.values()) == 0
    assert builds == [] and unbuilt(sim) == {2, 4}


def test_a_route_builds_a_home_circuit_once_with_its_seed_label(builds):
    sim = Simulation(example_scenario("same-qbs"), seed=77)
    sim.run_until_idle()
    user = sim.users[12]
    circuit = user.home
    assert builds == [1, sim.users[11].home_circuit, user.home_circuit]
    assert (circuit.circuit_id, circuit.a, circuit.b, circuit.owner_session) == (
        user.home_circuit, "user-b", "qbs-1", None)
    assert circuit.pool._seed == f"77/circuit:{user.home_circuit}"
    assert sim.circuits[user.home_circuit] is circuit


def test_the_first_session_builds_its_home_circuits_and_a_second_none(builds):
    sim = Simulation(example_scenario("same-qbs"))  # one session, 11 -> 12
    builds.clear()
    sim.run_until_idle()
    assert builds == [sim.users[11].home_circuit, sim.users[12].home_circuit]
    builds.clear()
    sid = sim.request_session(12, 11)
    sim.run_until_idle()
    assert sim.sessions[sid].state is SessionState.ESTABLISHED
    sim.send_message(sid, b"again", sender=11)
    sim.run_until_idle()
    assert sim.users[12].receive_poll() == [(1, b"HELLO"), (sid, b"again")]
    assert builds == []


def test_a_refused_session_builds_no_circuit(builds):
    scenario = Scenario(seed=4, planets=(PlanetSpec("m", (ChildSpec("q", (
        UserSpec("a", 1), UserSpec("b", 2, accept_policy=RejectAll()),)),)),),
        workload=(WorkloadItem(0, 1, 2, b"x"),))
    sim = Simulation(scenario)
    builds.clear()
    sim.run_until_idle()
    assert sim.sessions[1].state is SessionState.FAILED
    assert builds == [] and unbuilt(sim) == {2, 3}
    check_all(sim)


def test_checks_and_latency_reports_build_nothing(builds):
    sim = Simulation(desk_scale_scenario(seed=3, children=3, users_per_child=20, sessions=15))
    sim.run_until_idle()
    builds.clear()
    check_all(sim)
    assert [sim.latency_report(sid) for sid, rec in sim.sessions.items() if rec.path]
    assert builds == [] and len(unbuilt(sim)) > 30


def test_the_light_speed_graph_holds_unbuilt_home_circuits():
    # no declared user links: a user's only edge is its home circuit
    base = example_scenario("cross-qbs")
    scenario = replace(base, links=tuple(l for l in base.links if not l.a.startswith("user")))
    lazy, routed = Simulation(scenario), Simulation(scenario)
    routed.run_until_idle()  # its one session routes over both home circuits
    graph = lazy._classical_graph()
    assert unbuilt(lazy) == {2, 4} and not unbuilt(routed)
    assert graph == routed._classical_graph()
    assert ("user-a", 0.0) in graph["qbs-1"] and ("user-c", 0.0) in graph["qbs-2"]


def test_a_dropped_built_home_circuit_is_still_missing():
    sim = Simulation(example_scenario("cross-qbs"))
    sim.run_until_idle()
    sim.register_user("qbs-1", 99, "user-z")
    assert unbuilt(sim) == {sim.users[99].home_circuit}
    check_circuit_conservation(sim)
    home = sim.users[11].home_circuit
    assert sim.circuits[home] is sim.users[11].home
    del sim.circuits[home]
    with pytest.raises(InvariantViolation, match=rf"missing=\[{home}\]"):
        check_circuit_conservation(sim)


@pytest.mark.parametrize("corrupt", ["none", "another_users", "a_station_circuits"])
def test_an_unbuilt_home_id_that_is_not_its_own_is_caught(corrupt):
    sim = Simulation(example_scenario("cross-qbs"))
    sim.run_until_idle()
    sim.register_user("qbs-1", 99, "user-z")
    check_all(sim)
    user = sim.users[99]
    assert user.home is None
    user.home_circuit = {"none": None, "another_users": sim.users[11].home_circuit,
                         "a_station_circuits": min(sim.circuits)}[corrupt]
    with pytest.raises(InvariantViolation, match="user 99: home circuit"):
        check_circuit_conservation(sim)
    with pytest.raises(InvariantViolation, match="user 99: home circuit"):
        check_all(sim)


def test_a_drained_channel_queue_is_released():
    # two sessions over the same two home circuits: frames wait their turn
    scenario = Scenario(seed=5, planets=(PlanetSpec("m", (ChildSpec("q", (
        UserSpec("a", 1), UserSpec("b", 2))),)),),
        workload=(WorkloadItem(0, 1, 2, b"x" * 200), WorkloadItem(0, 1, 2, b"y" * 200)))
    sim = Simulation(scenario)
    waited = False
    for tick in range(100):
        sim.run_until(tick)
        waited |= any(ch.queue for c in sim.circuits.values() for ch in c.channels.values())
    sim.run_until_idle()
    assert waited
    # one channel per home circuit: both sessions send from user a to user b
    assert [ch.queue for c in sim.circuits.values() for ch in c.channels.values()] == [None] * 2
    assert sorted(sim.users[2].receive_poll()) == [(1, b"x" * 200), (2, b"y" * 200)]


def test_sparse_desk_build_heap_stays_small():
    # 10,000 users, 100 sessions: at most 200 home circuits will ever route
    scenario = desk_scale_scenario(children=10, users_per_child=1000, sessions=100)
    tracemalloc.start()
    try:
        sim = Simulation(scenario)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(sim.permanent_circuit_ids) == 10_010
    assert len(sim.circuits) == 10  # the child<->mother circuits
    # 3.09 MB on Python 3.11 (3.72 on 3.10), 3.42 with every home circuit id in a
    # set as well; about 1.25 times the first
    assert held <= 3_860_000, held


def test_a_user_gets_its_lists_on_first_use():
    sim = Simulation(example_scenario("same-qbs"))
    sim.run_until_idle()
    caller, callee = sim.users[11], sim.users[12]
    assert caller._inbox is None and caller._raw_frames is None and callee._raw_frames is None
    assert callee.receive_poll() == [(1, b"HELLO")] and callee.receive_poll() == []
    assert caller.receive_poll() == [] and caller._inbox is None
    assert caller.inbox == [] and caller.raw_frames == []
