import json
import signal
import tracemalloc
from collections import Counter
from contextlib import contextmanager
from dataclasses import asdict, replace
from itertools import chain, repeat

import pytest
from conftest import record_types
from hypothesis import given
from hypothesis import strategies as st
from test_differential import CALLEE, _play, raw_frames, refsim
from test_golden import GOLDEN, build
from test_qbs import established_example

import entnet.engine
import entnet.scenario
from entnet import (
    FailureReason,
    RejectAll,
    SPEED_OF_LIGHT_M_PER_S,
    Simulation,
    TraceRecord,
    desk_scale_scenario,
    example_scenario,
    with_uniform_distances,
)
from entnet.engine import FORWARD, _VALUES_TYPES
from entnet.errors import (
    CallerUnknown,
    SchedulingError,
    SessionNotEstablished,
    TickBudgetExceeded,
    UnknownSession,
    ValidationError,
)
from entnet.invariants import _RECORD_RULES, check_all, check_causality
from entnet.scenario import (
    ChildSpec,
    LinkSpec,
    PlanetSpec,
    Scenario,
    UserSpec,
    WorkloadItem,
    scenario_from_dict,
    scenario_to_dict,
    validate_scenario,
)


def empty_scenario():
    return Scenario(seed=0, planets=(PlanetSpec("m", (
        ChildSpec("q", (UserSpec("a", 1), UserSpec("b", 2))),
    )),))


# scheduler ----------------------------------------------------------------------


def test_empty_workload_finishes_at_tick_zero():
    sim = Simulation(empty_scenario())
    assert sim.run_until_idle() == 0


def test_events_run_in_tick_seq_order():
    sim = Simulation(empty_scenario())
    seen = []

    class Probe:
        def handle(self, _sim, verb, payload):
            seen.append(payload["n"])
            if payload.get("respawn"):
                _sim.schedule(_sim.now, "probe", "poke", {"n": payload["n"] + 100})

    sim.nodes["probe"] = Probe()
    sim.schedule(5, "probe", "poke", {"n": 2})
    sim.schedule(3, "probe", "poke", {"n": 1, "respawn": True})
    sim.schedule(3, "probe", "poke", {"n": 1.5})
    sim.run_until_idle()
    # same-tick respawn lands after everything already queued for that tick
    assert seen == [1, 1.5, 101, 2]


def test_scheduling_in_the_past_is_a_bug():
    sim = Simulation(empty_scenario())

    class Probe:
        def handle(self, _sim, verb, payload):
            with pytest.raises(SchedulingError):
                _sim.schedule(_sim.now - 1, "probe", "poke", {})

    sim.nodes["probe"] = Probe()
    sim.schedule(2, "probe", "poke", {})
    sim.run_until_idle()


def _refused_call_state(sim):
    """What a refused call must leave as it was."""
    return (list(sim.trace_lines()), sim.stats(), dict(sim.sessions),
            sum(map(len, sim._calendar.values())), sorted(sim._calendar), dict(sim._seq_by_tick))


@pytest.mark.parametrize("busy", [False, True], ids=["free-tick", "busy-tick"])
def test_schedule_refuses_a_tick_that_is_not_an_int(busy):
    sim = Simulation(example_scenario("same-qbs"))  # its workload sends at tick 0
    if busy:
        sim.run_until(0)  # the send's session lookup now waits at tick 1
    assert (1 in sim._calendar) is busy
    for bad in (True, 1.0, sim.now + 0.5):  # True and 1.0 would both land on tick 1
        before = _refused_call_state(sim)
        with pytest.raises(TypeError, match=f"not {type(bad).__name__}"):
            sim.schedule(bad, "user-a", "workload_send", {"to_qid": 12, "payload": b"x"})
        assert _refused_call_state(sim) == before, bad
    sim.run_until_idle()
    clean = Simulation(example_scenario("same-qbs"))
    clean.run_until_idle()
    assert _refused_call_state(sim) == _refused_call_state(clean)
    check_all(sim)


def test_per_tick_budget_catches_same_tick_storms():
    sim = Simulation(empty_scenario())
    sim.tick_budget = 50

    class Storm:
        def handle(self, _sim, verb, payload):
            _sim.schedule(_sim.now, "storm", "again", {})

    sim.nodes["storm"] = Storm()
    sim.schedule(1, "storm", "again", {})
    with pytest.raises(TickBudgetExceeded):
        sim.run_until_idle()


def test_per_tick_budget_counts_across_run_until_calls():
    sim = Simulation(empty_scenario())
    sim.tick_budget = 3
    sim.nodes["idle"] = _Idle()
    sim.schedule(4, "idle", "poke", {})
    sim.schedule(4, "idle", "poke", {})
    assert sim.run_until(4) == 4
    sim.schedule(sim.now, "idle", "poke", {})
    sim.schedule(sim.now, "idle", "poke", {})
    with pytest.raises(TickBudgetExceeded):
        sim.run_until(4)


def test_seq_entries_of_past_ticks_are_pruned():
    sim = Simulation(desk_scale_scenario(seed=7, sessions=500))
    limit = 0
    while sim._ticks:
        limit += 25
        sim.run_until(limit)
        assert min(sim._seq_by_tick) >= sim.now
        assert sorted(sim._calendar) == sorted(sim._ticks)
        assert all(tick > limit for tick in sim._ticks)
    assert sim.now > 100
    # what is left: `now`, and later ticks whose events were all cancelled
    assert set(sim._seq_by_tick) == {sim.now, *sim._idle_ticks}
    assert sim._calendar == {}


class _Idle:
    def handle(self, _sim, verb, payload):
        pass


def test_seq_entries_of_cancelled_only_ticks_are_pruned():
    sim = Simulation(example_scenario("same-qbs"))
    sim.run_until_idle()
    # the workload session's negotiation timeout, cancelled when it established
    timeout_tick = max(sim._seq_by_tick)
    assert timeout_tick > sim.now and sim._calendar == {}
    assert sim._idle_ticks == [timeout_tick]
    sim.nodes["probe"] = _Idle()
    sim.schedule(timeout_tick + 1, "probe", "poke")
    sim.run_until_idle()
    assert sim.now == timeout_tick + 1
    assert sorted(sim._seq_by_tick) == [sim.now]
    assert sim._idle_ticks == []


def test_cancelled_only_tick_keeps_its_seq_numbering():
    sim = Simulation(example_scenario("same-qbs"))
    sim.run_until_idle()
    timeout_tick = max(sim._seq_by_tick)
    next_seq = sim._seq_by_tick[timeout_tick]
    assert timeout_tick > sim.now and next_seq > 0
    sim.nodes["probe"] = _Idle()
    assert sim.schedule(timeout_tick, "probe", "poke") == (timeout_tick, next_seq)
    assert sim.run_until_idle() == timeout_tick


class _OrderProbe:
    """Runs a fixed plan of ops, one op list per event in execution order:
    schedule at `now`, schedule `k` ticks ahead, or cancel a pending key.
    Each event's payload carries its own (tick, seq) key."""

    def __init__(self, sim, plan):
        self.sim, self.plan = sim, plan
        self.executed, self.scheduled, self.cancelled = [], set(), set()
        self.pending = set()

    def post(self, tick):
        payload = {"key": None}
        payload["key"] = key = self.sim.schedule(tick, "probe", "poke", payload)
        self.scheduled.add(key)
        self.pending.add(key)

    def handle(self, sim, verb, payload):
        key = payload["key"]
        self.pending.remove(key)  # a key runs once, and never after its cancel
        self.executed.append(key)
        ops = self.plan[len(self.executed) - 1] if len(self.executed) <= len(self.plan) else ()
        for op, arg in ops:
            if op == "now":
                self.post(sim.now)
            elif op == "later":
                self.post(sim.now + arg)
            elif self.pending:
                victim = sorted(self.pending)[arg % len(self.pending)]
                sim.cancel(victim)
                self.pending.remove(victim)
                self.cancelled.add(victim)


def run_order_probe(plan, starts, chunks=None):
    """Executed keys of a probe run, checking `now` after every run call;
    chunks=None runs to idle at once, else run_until advances by each chunk."""
    sim = Simulation(empty_scenario())
    probe = sim.nodes["probe"] = _OrderProbe(sim, plan)
    for tick in starts:
        probe.post(tick)

    def last_ran():
        return probe.executed[-1][0] if probe.executed else 0

    if chunks is None:
        assert sim.run_until_idle() == sim.now == last_ran()
    else:
        limit = 0
        for step in chain([0], chunks, repeat(1)):
            limit += step
            assert sim.run_until(limit) == sim.now == last_ran() <= limit
            if not probe.pending:
                break
    executed = probe.executed
    assert all(a < b for a, b in zip(executed, executed[1:]))
    assert set(executed) == probe.scheduled - probe.cancelled
    assert not set(executed) & probe.cancelled
    return executed


_ops = st.lists(st.one_of(st.tuples(st.just("now"), st.just(0)),
                          st.tuples(st.just("later"), st.integers(1, 3)),
                          st.tuples(st.just("cancel"), st.integers(0, 50))), max_size=3)


@given(plan=st.lists(_ops, max_size=40),
       starts=st.lists(st.integers(0, 5), min_size=1, max_size=4),
       chunks=st.lists(st.integers(0, 3), max_size=10))
def test_event_order_holds_across_run_until_chunks(plan, starts, chunks):
    whole = run_order_probe(plan, starts)
    assert run_order_probe(plan, starts, chunks) == whole


class _Canceller:
    """Logs each verb it handles; "first" cancels the key in its payload."""

    def __init__(self):
        self.ran = []

    def handle(self, sim, verb, payload):
        self.ran.append(verb)
        if verb == "first":
            sim.cancel(payload["victim"])


def test_a_handler_cancels_a_later_event_of_its_own_tick():
    sim = Simulation(empty_scenario())
    probe = sim.nodes["probe"] = _Canceller()
    payload = {"victim": None}
    sim.schedule(1, "probe", "first", payload)
    payload["victim"] = sim.schedule(1, "probe", "second")
    sim.schedule(1, "probe", "third")
    assert sim.run_until_idle() == 1
    assert probe.ran == ["first", "third"]
    assert not sim._cancelled  # a cancel is forgotten once it takes effect


class _Payloads:
    """Keeps the payload of each verb it handles."""

    def __init__(self):
        self.got = {}

    def handle(self, sim, verb, payload):
        self.got[verb] = payload


def test_a_handler_reads_a_key_added_to_its_payload_after_scheduling():
    sim = Simulation(empty_scenario())
    probe = sim.nodes["probe"] = _Payloads()
    payload = {}
    sim.schedule(1, "probe", "filled", payload)
    payload["key"] = "added"  # after schedule returned
    sim.run_until_idle()
    assert probe.got["filled"] is payload and payload == {"key": "added"}


def test_each_event_scheduled_without_a_payload_gets_its_own_dict():
    sim = Simulation(empty_scenario())
    probe = sim.nodes["probe"] = _Payloads()
    sim.schedule(1, "probe", "first")
    sim.schedule(1, "probe", "second", None)
    sim.run_until_idle()
    assert probe.got["first"] == probe.got["second"] == {}
    assert probe.got["first"] is not probe.got["second"]


def test_run_until_stops_at_limit():
    sim = Simulation(example_scenario("same-qbs"))
    sim.run_until(2)
    assert sim.now <= 2
    assert "ESTABLISHED" not in record_types(sim)
    sim.run_until_idle()
    assert "CLOSED" in record_types(sim)


# topology -----------------------------------------------------------------------


def test_permanent_circuit_count():
    scenario = Scenario(seed=0, planets=(PlanetSpec("m", (
        ChildSpec("q1", (UserSpec("a", 1),)),
        ChildSpec("q2", (UserSpec("b", 2),)),
    )),))
    sim = Simulation(scenario)
    assert len(sim.permanent_circuit_ids) == 4  # 2 user<->child + 2 child<->mother
    assert len(sim.circuits) == 2  # a home circuit is built when a route first uses it


def test_two_planets_get_one_mother_link():
    sim = Simulation(example_scenario("interplanet"))
    mother_links = [c for c in sim.circuits.values()
                    if {c.a, c.b} == {"earth-mother", "mars-mother"}]
    assert len(mother_links) == 1


def test_duplicate_qid_scenario_is_rejected():
    scenario = Scenario(seed=0, planets=(PlanetSpec("m", (
        ChildSpec("q1", (UserSpec("a", 7),)),
        ChildSpec("q2", (UserSpec("b", 7),)),
    )),))
    with pytest.raises(ValidationError) as err:
        Simulation(scenario)
    assert any("7" in f for f in err.value.findings)


# determinism ----------------------------------------------------------------------


def trace_bytes(sim):
    return "\n".join(sim.trace_lines())


def test_same_seed_runs_are_byte_identical():
    first = Simulation(example_scenario("cross-qbs"))
    second = Simulation(example_scenario("cross-qbs"))
    assert first.run_until_idle() == second.run_until_idle()
    assert trace_bytes(first) == trace_bytes(second)


def test_seed_override_keeps_protocol_sequence():
    first = Simulation(example_scenario("cross-qbs"), seed=101)
    second = Simulation(example_scenario("cross-qbs"), seed=202)
    first.run_until_idle()
    second.run_until_idle()
    assert record_types(first) == record_types(second)


@pytest.mark.parametrize("seed", [-1, 2**64, True])
def test_seed_override_must_be_unsigned_64_bit(seed):
    with pytest.raises(ValidationError) as err:
        Simulation(example_scenario("same-qbs"), seed=seed)
    assert err.value.findings == ["seed: must be an unsigned 64-bit integer"]


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
def test_seed_override_accepts_the_unsigned_64_bit_range(seed):
    sim = Simulation(example_scenario("same-qbs"), seed=seed)
    assert sim.seed == seed
    sim.run_until_idle()
    check_all(sim)


# validation ---------------------------------------------------------------------


@pytest.fixture
def validations(monkeypatch):
    """Every validate_scenario call, wherever it is looked up, and every
    validate_user call the engine makes itself."""
    calls = Counter()

    def counted(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    scenario_check = counted("scenario", validate_scenario)
    monkeypatch.setattr(entnet.scenario, "validate_scenario", scenario_check)
    monkeypatch.setattr(entnet.engine, "validate_scenario", scenario_check)
    monkeypatch.setattr(entnet.engine, "validate_user",
                        counted("engine_user", entnet.engine.validate_user))
    return calls


def test_parsed_scenario_is_validated_once(validations):
    raw = scenario_to_dict(example_scenario("cross-qbs"))
    sim = Simulation(scenario_from_dict(raw))
    assert validations == {"scenario": 1}
    sim.run_until_idle()
    check_all(sim)
    sim.register_user("qbs-1", 777, "user-x")  # a user added mid-run is checked
    assert validations == {"scenario": 1, "engine_user": 1}


def test_hand_built_scenario_is_validated_even_when_equal_to_a_parsed_one(validations):
    parsed = scenario_from_dict(scenario_to_dict(example_scenario("cross-qbs")))
    Simulation(replace(parsed))
    assert validations == {"scenario": 2}


def test_replaced_parsed_scenario_is_validated_again():
    parsed = scenario_from_dict(scenario_to_dict(example_scenario("cross-qbs")))
    with pytest.raises(ValidationError) as err:
        Simulation(replace(parsed, seed=-1))
    assert err.value.findings == ["seed: must be an unsigned 64-bit integer"]


def test_parsed_scenario_holding_a_given_list_is_validated_again():
    children = [ChildSpec("q", (UserSpec("a", 1), UserSpec("b", 2)))]
    parsed = scenario_from_dict({"seed": 1, "planets": [PlanetSpec("m", children)]})
    children.append(ChildSpec("q2", (UserSpec("c", 1),)))  # valid when parsed, not now
    with pytest.raises(ValidationError) as err:
        Simulation(parsed)
    assert any("duplicate QID 1" in finding for finding in err.value.findings)


def test_parsed_scenario_still_takes_the_seed_override_check():
    parsed = scenario_from_dict(scenario_to_dict(example_scenario("same-qbs")))
    with pytest.raises(ValidationError) as err:
        Simulation(parsed, seed=2**64)
    assert err.value.findings == ["seed: must be an unsigned 64-bit integer"]


def test_register_user_mid_run_rejects_a_bad_qid():
    sim = Simulation(scenario_from_dict(scenario_to_dict(example_scenario("same-qbs"))))
    sim.run_until_idle()
    nodes, users = dict(sim.nodes), dict(sim.users)
    with pytest.raises(ValidationError) as err:
        sim.register_user("qbs-1", -1, "user-x")
    assert err.value.findings == ["user.qid: must be an unsigned 64-bit integer"]
    assert (sim.nodes, sim.users) == (nodes, users)


def test_distance_independence_of_traces():
    base = example_scenario("cross-qbs")
    near = Simulation(with_uniform_distances(base, 1.0))
    far = Simulation(with_uniform_distances(base, 9.46e15))
    near.run_until_idle()
    far.run_until_idle()
    assert trace_bytes(near) == trace_bytes(far)
    assert near.latency_report(1).classical_baseline_seconds > 0
    ratio = (far.latency_report(1).classical_baseline_seconds
             / near.latency_report(1).classical_baseline_seconds)
    assert ratio == pytest.approx(9.46e15, rel=1e-12)


def test_arrival_is_send_plus_two_regardless_of_distance():
    for distance in (1.0, 9.46e15):
        sim = Simulation(with_uniform_distances(example_scenario("cross-qbs"), distance))
        sim.run_until_idle()
        send_tick = next(r.tick for r in sim.trace if r.type == "SEND")
        arrivals = {r.detail["index"]: r.tick for r in sim.trace
                    if r.type == "DATA" and r.node == "user-c"}
        # frame i leaves i ticks after SEND (channel pacing), then crosses
        # both stations at one processing tick each
        for index, tick in arrivals.items():
            assert tick == send_tick + index + 2


# latency accounting ---------------------------------------------------------------


def test_same_qbs_latency_report(run_example):
    sim = run_example("same-qbs")
    report = sim.latency_report(1)
    assert report.entangled_channel_ticks == 0
    assert report.processing_ticks == 1
    assert report.classical_baseline_seconds == pytest.approx(
        20.0 / SPEED_OF_LIGHT_M_PER_S)


def test_interplanet_latency_report(run_example):
    sim = run_example("interplanet")
    report = sim.latency_report(1)
    assert report.entangled_channel_ticks == 0
    assert report.processing_ticks == 2
    assert report.classical_baseline_seconds == pytest.approx(
        (10 + 1000 + 2.25e11 + 1000 + 10) / SPEED_OF_LIGHT_M_PER_S)
    assert report.classical_baseline_seconds == pytest.approx(750.5, abs=0.1)


def test_zero_distance_baseline_is_zero():
    scenario = Scenario(
        seed=0,
        planets=(PlanetSpec("m", (
            ChildSpec("q", (UserSpec("a", 1), UserSpec("b", 2))),
        )),),
        links=(LinkSpec("a", "q", 0.0), LinkSpec("b", "q", 0.0)),
        workload=(WorkloadItem(0, 1, 2, b"x"),),
    )
    sim = Simulation(scenario)
    sim.run_until_idle()
    report = sim.latency_report(1)
    assert report.classical_baseline_seconds == 0.0
    assert report.entangled_channel_ticks == 0


def test_latency_report_covers_a_user_registered_mid_run(run_example):
    sim = run_example("same-qbs")
    assert sim.latency_report(1).classical_baseline_seconds == 20.0 / SPEED_OF_LIGHT_M_PER_S
    sim.register_user("qbs-1", 777, "user-x")
    sid = sim.request_session(11, 777)
    sim.run_until_idle()
    # user-a's declared 10 m to qbs-1, then user-x's undeclared (0 m) home circuit
    assert sim.latency_report(sid).classical_baseline_seconds == 10.0 / SPEED_OF_LIGHT_M_PER_S


def test_latency_report_ignores_session_circuits():
    sim = Simulation(example_scenario("cross-qbs"))
    sid = sim.request_session(13, 11)
    sim.run_until_idle()
    assert [c.owner_session for c in sim.circuits.values()].count(sid) == 1
    # qbs-2 -> qbs-1 goes through the Mother, not over the session's own 0 m circuit
    assert sim.latency_report(sid).classical_baseline_seconds == pytest.approx(
        (10 + 1000 + 1000 + 10) / SPEED_OF_LIGHT_M_PER_S)


def test_latency_report_errors():
    sim = Simulation(example_scenario("same-qbs"))
    with pytest.raises(UnknownSession):
        sim.latency_report(99)
    sid = sim.request_session(11, 12)
    with pytest.raises(SessionNotEstablished):
        sim.latency_report(sid)


# trace format ---------------------------------------------------------------------


def test_trace_lines_have_fixed_key_order(run_example):
    sim = run_example("same-qbs")
    for line in sim.trace_lines():
        assert list(json.loads(line)) == ["tick", "seq", "node", "type",
                                          "session", "detail"]


def test_every_record_type_is_emitted_with_sorted_detail_keys(run_example):
    runs = [run_example(kind) for kind in ("same-qbs", "cross-qbs", "interplanet")]
    sid = runs[1].request_session(11, 13)
    runs[1].run_until_idle()
    runs[1].relay_data(sid, bytes(range(16)))
    refused = Simulation(example_scenario("same-qbs"))  # a refusal racing a 1-tick timeout
    refused.users[12].policy = RejectAll()
    refused.nodes["qbs-1"].negotiation_budget = 1
    refused.request_session(11, 404)  # nobody holds QID 404
    for sim in (*runs, refused):
        sim.run_until_idle()
    records = [r for sim in (*runs, refused) for r in sim.trace]
    assert {r.type for r in records} >= set(_RECORD_RULES)
    for r in records:
        assert list(r.detail) == sorted(r.detail), r


def reference_line(record):
    return json.dumps({"tick": record.tick, "seq": record.seq, "node": record.node,
                       "type": record.type, "session": record.session,
                       "detail": record.detail}, separators=(",", ":"))


def reference_repr(record):
    """refsim's repr of the record, whose detail is a dict."""
    return repr(refsim.TraceRecord(**record._asdict()))


# quotes, backslashes, control, non-ASCII and astral characters, lone surrogates
_texts = st.text(st.one_of(st.sampled_from('"\\\n\t\x00\x1f\x7fé\u2028\U0001F600'),
                           st.characters(exclude_categories=())), max_size=8)
_ints = st.one_of(st.integers(), st.integers(min_value=2**64), st.integers(max_value=-2**64))


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_trace_lines_equal_json_dumps(name):
    sim = build(name)
    lines = list(sim.trace_lines())
    assert len(lines) == len(sim.trace)
    for line, record in zip(lines, sim.trace):
        assert line == reference_line(record)


def awkward_node_ids():
    """A run whose node ids need JSON escaping, with a cross-Child session each way."""
    scenario = Scenario(seed=0, planets=(PlanetSpec('m"é', (
        ChildSpec("q\\1", (UserSpec('a"\n\\é', 1),)),
        ChildSpec("q\n2", (UserSpec("b\\é", 2),)),
    )),), workload=(WorkloadItem(0, 1, 2, b"hi"), WorkloadItem(0, 2, 1, b"yo")))
    sim = Simulation(scenario)
    sim.run_until_idle()
    return sim


def test_trace_escapes_awkward_node_ids():
    sim = awkward_node_ids()
    check_all(sim)
    lines = list(sim.trace_lines())
    assert {"CIRCUIT_PROVISIONED", "ESTABLISHED", "DELIVER"} <= set(record_types(sim))
    assert len(lines) == len(sim.trace)
    for line, record in zip(lines, sim.trace):
        assert line == reference_line(record)
        assert json.loads(line) == record._asdict()


# TraceRecord: the data plane's DATA keeps (dir, frame bytes, index); its line is
# written from them directly, and its detail dict is built when it is read

def relayed_raw_frame():
    """A same-QBS session that relays one raw frame, whose DATA index is null."""
    sim = Simulation(example_scenario("same-qbs"))
    sim.run_until_idle()
    sid = sim.request_session(11, 12)
    sim.run_until_idle()
    sim.relay_data(sid, bytes(range(16)))
    sim.run_until_idle()
    return sim


_RUNS = {"relay-data": relayed_raw_frame, "awkward-node-ids": awkward_node_ids}


@pytest.mark.parametrize("name", [*sorted(GOLDEN), *_RUNS])
def test_data_record_json_line_on_runs(name):
    sim = _RUNS[name]() if name in _RUNS else build(name)
    lines = list(sim.trace_lines())
    data = [(line, record) for line, record in zip(lines, sim.trace) if record.type == "DATA"]
    assert data and all(type(record) is TraceRecord for _, record in data)
    if name == "relay-data":
        assert [record.detail["index"] for _, record in data[-3:]] == [None] * 3
    for line, record in data:
        assert record.to_json_line() == line == reference_line(record)
        assert json.loads(line) == record._asdict()
        direction, frame, index = record[5]
        assert record.detail == {"dir": direction, "frame": frame.hex(), "index": index}


@pytest.mark.parametrize("kind", sorted(CALLEE))
def test_records_json_line_and_detail_match_refsim(kind):
    """refsim builds every detail as a dict, where entnet keeps its values:
    messages and raw frames both ways give the same records and lines."""
    sim, _, lines, _ = _play(entnet, kind, raw_frames)
    ref, _, ref_lines, _ = _play(refsim, kind, raw_frames)
    assert lines == ref_lines
    assert {type(record) for record in sim.trace} == {TraceRecord}
    assert [record._asdict() for record in sim.trace] == list(map(asdict, ref.trace))
    assert list(map(repr, sim.trace)) == list(map(repr, ref.trace))


# node, dir and session also come from small pools, so a trace repeats hops
_data_records = st.builds(
    lambda tick, seq, node, session, direction, frame, index: TraceRecord._make(
        (tick, seq, node, "DATA", session, (direction, frame, index))),
    _ints, _ints, _texts | st.sampled_from(["a", 'q"é\n']),
    st.none() | _ints | st.sampled_from([1, 2**70]),
    _texts | st.sampled_from(["fwd", "rev"]), st.binary(min_size=16, max_size=16),
    st.none() | _ints)


@given(_data_records)
def test_data_record_json_line_matches_json_dumps(record):
    line = record.to_json_line()
    direction, frame, index = record[5]
    assert record.detail == {"dir": direction, "frame": frame.hex(), "index": index}
    assert line == reference_line(record)
    assert json.loads(line) == record._asdict()
    assert repr(record) == reference_repr(record)


@given(st.lists(_data_records, max_size=8))
def test_trace_lines_json_line_matches_json_dumps(records):
    sim = Simulation(empty_scenario())
    sim.trace[:] = records
    assert list(sim.trace_lines()) == list(map(reference_line, records))


# every type the engine emits, with the values its sites pass:
# ids that need escaping, any ints, and both shapes of MOTHER_LOOKUP and REJECT.
# Node ids, directions and scopes also come from small pools, so the escaped-text
# cache of one trace_lines call is hit across records and types.
_ids = _texts | st.sampled_from(["qbs-1", 'q"é\n'])
_dirs = _texts | st.sampled_from(["fwd", "rev"])
_VALUES = {
    "SESSION_REQUEST": st.tuples(_ints, _ints),
    "LOOKUP_LOCAL_HIT": st.tuples(_ints),
    "LOOKUP_LOCAL_MISS": st.tuples(_ints),
    "MOTHER_LOOKUP": st.tuples(_ids, _ints, st.none()) | st.tuples(st.none(), _ints, _ids),
    "MOTHER_LOOKUP_MISS": st.tuples(_ints),
    "CIRCUIT_PROVISIONED": st.tuples(_ids, _ids, _ints),
    "NEGOTIATE": st.tuples(_ints, _ints),
    "ACCEPT": st.tuples(_ints),
    "REJECT": st.tuples(_ints, st.none() | st.just("timeout") | _texts),
    "ESTABLISHED": st.tuples(st.lists(_ids, max_size=4).map(tuple)),
    "SEND": st.tuples(_ints, _dirs, _ints),
    "DATA": st.tuples(_dirs, st.binary(min_size=16, max_size=16), st.none() | _ints),
    "DELIVER": st.tuples(_ints, _dirs),
    "CIRCUIT_RELEASED": st.tuples(_ints, st.sampled_from(["session", "permanent"]) | _texts),
    "TEARDOWN": st.just(()),
    "CLOSED": st.just(()),
}
_values_records = st.sampled_from(sorted(_VALUES)).flatmap(
    lambda record_type: st.builds(
        lambda tick, seq, node, session, values: TraceRecord._make(
            (tick, seq, node, record_type, session, values)),
        _ints, _ints, _ids, st.none() | _ints, _VALUES[record_type]))


def test_values_strategies_cover_every_engine_record_type():
    assert set(_VALUES) == set(_VALUES_TYPES) == set(_RECORD_RULES)


@given(st.lists(_values_records, max_size=8))
def test_values_record_json_line_matches_json_dumps(records):
    sim = Simulation(empty_scenario())
    sim.trace[:] = records
    for record, line in zip(records, sim.trace_lines(), strict=True):
        assert record.to_json_line() == line == json.dumps(record._asdict(),
                                                            separators=(",", ":"))
        assert repr(record) == reference_repr(record)


# trace_lines() joins each line from pieces it formats once per call: a head per
# run of records at one tick, the text of each seq and session, a DATA middle per
# (node, session) and a DATA tail per values tuple

def dumped_lines(records):
    return [json.dumps(record._asdict(), separators=(",", ":")) for record in records]


@contextmanager
def deadline(seconds):
    """Raise TimeoutError, rather than hang, if the block outlasts `seconds`."""
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(signum, frame):
        raise TimeoutError(f"took over {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_trace_lines_json_line_for_extreme_ticks_and_seqs():
    """A seq is a key of the text cache, never an index: a negative seq
    reads its own text, and a seq of 10**30 costs what a small one does."""
    extremes = (-1, 0, 2**64, 10**30)
    records = [TraceRecord(tick, seq, "q", record_type, session, values)
               for tick in extremes for seq in extremes
               for record_type, session, values in (("ACCEPT", 7, (1,)),
                                                    ("DATA", tick, ("fwd", bytes(16), seq)))]
    sim = Simulation(empty_scenario())
    sim.trace[:] = records * 2  # the second pass reads every piece from the caches
    with deadline(5):
        lines = list(sim.trace_lines())
    assert lines == dumped_lines(records * 2)


def test_data_record_json_line_with_a_bytearray_frame():
    """Values that cannot be hashed skip the tail cache and are formatted whole."""
    record = TraceRecord(3, 1, "q", "DATA", 5, ("fwd", bytearray(range(16)), 2))
    hashable = record._replace(detail=("fwd", bytes(range(16)), 2))
    assert record.to_json_line() == dumped_lines([record])[0] == hashable.to_json_line()
    sim = Simulation(empty_scenario())
    sim.trace[:] = [record, hashable, record]
    assert list(sim.trace_lines()) == dumped_lines([record]) * 3


def test_trace_lines_json_line_for_two_sessions_sending_equal_bytes():
    """Both sessions cross the same stations with equal values tuples: a tail
    is shared, while each (node, session) keeps its own middle."""
    message = b"the same bytes, frame for frame" * 3
    scenario = Scenario(seed=0, planets=(PlanetSpec("m", (
        ChildSpec("q1", (UserSpec("a", 1), UserSpec("b", 2))),
        ChildSpec("q2", (UserSpec("c", 3), UserSpec("d", 4))),
    )),), workload=(WorkloadItem(0, 1, 3, message), WorkloadItem(0, 2, 4, message)))
    sim = Simulation(scenario)
    sim.run_until_idle()
    sessions_by_values = {}
    for record in sim.trace:
        if record.type == "DATA":
            sessions_by_values.setdefault(record[5], set()).add(record.session)
    assert len(sessions_by_values) == 7  # a header and 6 data frames
    assert all(len(sessions) == 2 for sessions in sessions_by_values.values())
    assert list(sim.trace_lines()) == dumped_lines(sim.trace)


def test_trace_lines_json_line_when_a_relay_decodes_other_bytes():
    """qbs-2 decodes flipped bytes into a tuple of its own, and a later frame
    sends those same bytes from the start."""
    sim, rec = established_example("cross-qbs")
    frame = bytes(range(16))
    flipped = (int.from_bytes(frame, "big") ^ 1 << 40).to_bytes(16, "big")
    sim.relay_data(rec.session_id, frame)
    sim.run_until(sim.now + 1)  # qbs-1 encoded it onto the session's circuit
    rec.route[FORWARD][1][3].rx.up ^= 1 << 40
    sim.relay_data(rec.session_id, flipped)
    sim.run_until_idle()
    data = [r for r in sim.trace if r.type == "DATA"]
    assert sorted((r.node, r[5][1]) for r in data) == sorted(
        [("user-a", frame), ("qbs-1", frame), ("qbs-2", flipped), ("user-c", flipped),
         ("user-a", flipped), ("qbs-1", flipped), ("qbs-2", flipped), ("user-c", flipped)])
    assert data[0][5] is data[1][5] is not data[2][5]
    assert list(sim.trace_lines()) == dumped_lines(sim.trace)


def test_trace_lines_peak_memory_is_bounded():
    """The caches stay small over a long trace: the tails are dropped at a
    fixed size, since a frame's hops are only a few records apart."""
    sim, rec = established_example("cross-qbs")
    sim.send_message(rec.session_id, bytes(range(256)) * 1024)  # 256 KiB
    sim.run_until_idle()
    assert len(sim.trace) == 65_549
    tracemalloc.start()
    try:
        for _ in sim.trace_lines():
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


@pytest.mark.parametrize("record_type, values, error", [
    ("UNKNOWN", (1,), ValueError), ("ACCEPT", (1, None), ValueError),
    ("TEARDOWN", (1,), ValueError), ("MOTHER_LOOKUP", (1,), ValueError),
    ("ACCEPT", {"caller": 1}, TypeError), ("ACCEPT", [1], TypeError)],
    ids=["UNKNOWN-values0", "ACCEPT-values1", "TEARDOWN-values2", "MOTHER_LOOKUP-values3",
         "ACCEPT-dict", "ACCEPT-list"])
def test_emit_rejects_a_values_tuple_that_its_type_lacks(record_type, values, error):
    sim = Simulation(empty_scenario())
    with pytest.raises(error, match=record_type):
        sim.emit("a", record_type, 1, values)
    assert sim.trace == []
    sim.emit("a", "ACCEPT", 1, (1,))  # the rejected detail took no seq
    assert sim.trace[0].seq == 0


@pytest.mark.parametrize("record_type, values, error", [
    ("UNKNOWN", (1,), ValueError), ("ACCEPT", (1, None), ValueError),
    ("ACCEPT", {"caller": 7}, TypeError), ("ACCEPT", [7], TypeError)],
    ids=["unknown-type", "arity", "dict", "list"])
def test_a_record_built_directly_checks_its_values(record_type, values, error):
    fields = (0, 0, "a", record_type, 1, values)
    record = TraceRecord(0, 0, "a", "ACCEPT", 1, (7,))
    assert record.detail == {"caller": 7}
    assert record.to_json_line() == ('{"tick":0,"seq":0,"node":"a","type":"ACCEPT",'
                                     '"session":1,"detail":{"caller":7}}')
    for build in (lambda: TraceRecord(*fields), lambda: TraceRecord._make(fields),
                  lambda: record._replace(type=record_type, detail=values)):
        with pytest.raises(error, match=record_type):
            build()


def test_the_engines_own_records_skip_the_record_check(monkeypatch):
    checked = []
    monkeypatch.setattr(entnet.engine, "_check_values", lambda *args: checked.append(args))
    sim = Simulation(example_scenario("interplanet"))
    held = sim.trace  # read before the run: every record is built as a TraceRecord
    sim.run_until_idle()
    unread = Simulation(example_scenario("interplanet"))
    unread.run_until_idle()
    assert unread.trace == held and {type(r) for r in (*held, *unread.trace)} == {TraceRecord}
    assert checked == []


def test_reading_the_trace_mid_run_changes_no_byte():
    scenario = desk_scale_scenario(sessions=400)
    unread, read, early = (Simulation(scenario) for _ in range(3))
    held = early.trace  # a reference taken before the run
    for sim in (unread, early):
        sim.run_until_idle()
    read.run_until(600)
    mid = read.trace
    assert len(mid) > 4096  # converted in more than one chunk
    assert {type(record) for record in mid} == {TraceRecord}
    read.run_until_idle()
    # records emitted after the read, and a list taken before the run, hold no tuple
    for records in (mid, held):
        assert {type(record) for record in records} == {TraceRecord}
    assert read.trace is mid and early.trace is held
    for sim in (unread, read, early):
        check_all(sim)
    lines = [list(sim.trace_lines()) for sim in (unread, read, early)]
    stats = [sim.stats() for sim in (unread, read, early)]
    # none of these reads turned the unread run's plain tuples into records
    assert {type(record) for record in unread._trace} == {tuple}
    assert lines[0] == lines[1] == lines[2] and stats[0] == stats[1] == stats[2]
    assert {type(record) for record in unread.trace} == {TraceRecord}
    assert unread.trace == mid == held


# trace bytes per DATA record on Python 3.10-3.13: 128-129 with one detail
# tuple per frame, 197-198 with one per hop; about 1.25 times the first
_DATA_RECORD_HEAP_BOUND = 161


def test_trace_heap_per_data_record_is_bounded():
    sim = Simulation(example_scenario("cross-qbs"))
    sim.run_until_idle()
    sid = sim.request_session(11, 13)
    sim.run_until_idle()
    start = len(sim.trace)
    tracemalloc.start()
    try:
        sim.send_message(sid, bytes(range(256)) * 64)  # a header and 1,024 data frames
        sim.run_until_idle()
        held = tracemalloc.get_traced_memory()[0]
        data = sum(1 for record in sim.trace[start:] if record.type == "DATA")
        del sim.trace[start:]
        freed = held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert data == 4 * 1025  # logged at the caller, at both stations and at the callee
    assert freed / data < _DATA_RECORD_HEAP_BOUND, freed / data


# trace bytes per record of a 2,000-session desk run (43,503 records, 39 % DATA)
# on Python 3.10-3.13: 123-124 with one DATA detail per frame, 168-169 with one
# per hop; about 1.25 times the first
_DESK_RECORD_HEAP_BOUND = 155


def test_trace_heap_per_desk_record_is_bounded():
    sim = Simulation(desk_scale_scenario(sessions=2000))
    tracemalloc.start()
    try:
        sim.run_until_idle()
        held = tracemalloc.get_traced_memory()[0]
        records = len(sim.trace)
        del sim.trace[:]
        freed = held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert records == 43_503
    assert freed / records < _DESK_RECORD_HEAP_BOUND, freed / records


def test_trace_file_round_trip(tmp_path, run_example):
    sim = run_example("cross-qbs")
    path = tmp_path / "trace.ndjson"
    sim.write_trace(str(path))
    lines = path.read_text().splitlines()
    assert len(lines) == len(sim.trace)
    assert json.loads(lines[0])["type"] == "SESSION_REQUEST"


def test_stats_shape(run_example):
    sim = run_example("same-qbs")
    stats = sim.stats()
    assert stats["sessions"] == {"total": 1, "established": 1, "failed": 0,
                                 "rejected": 0, "not_found": 0, "closed": 1}
    assert stats["record_counts"]["DATA"] == 6
    assert stats["final_tick"] == sim.now


def test_causality_and_full_invariants(run_example):
    for kind in ("same-qbs", "cross-qbs", "interplanet"):
        sim = run_example(kind)
        check_causality(sim.trace)
        check_all(sim)


# data plane corner cases -------------------------------------------------------------


def test_raw_relay_data_arrives_identically():
    sim = Simulation(example_scenario("same-qbs"))
    sim.run_until_idle()
    sim.users[12].receive_poll()  # drain the workload transfer
    sid = sim.request_session(11, 12)
    sim.run_until_idle()
    frame = bytes(range(16))
    sim.relay_data(sid, frame)
    sim.run_until_idle()
    assert sim.users[12].raw_frames == [(sid, frame)]
    assert sim.users[12].receive_poll() == []  # raw frames are not messages


def test_raw_frame_from_the_callee_reaches_the_caller():
    sim = Simulation(example_scenario("interplanet"))
    sim.run_until_idle()
    sid = sim.request_session(11, 13)
    sim.run_until_idle()
    frame = bytes(range(16))
    sim.relay_data(sid, frame, sender=13)
    sim.run_until_idle()
    assert sim.users[11].raw_frames == [(sid, frame)]
    assert sim.users[13].raw_frames == []
    assert [r.detail["dir"] for r in sim.trace if r.type == "DATA" and r.session == sid] \
        == ["rev"] * 4  # logged at the callee, at both stations and at the caller
    sim.teardown_session(sid)
    check_all(sim)


def test_relay_data_from_a_stranger_rejected_before_scheduling():
    sim = Simulation(example_scenario("same-qbs"))
    sim.run_until_idle()
    sid = sim.request_session(11, 12)
    sim.run_until_idle()
    records, events = len(sim.trace), sum(map(len, sim._calendar.values()))
    with pytest.raises(CallerUnknown, match="999"):
        sim.relay_data(sid, bytes(16), sender=999)
    assert (len(sim.trace), sum(map(len, sim._calendar.values()))) == (records, events)
    sim.run_until_idle()
    assert sim.users[11].raw_frames == sim.users[12].raw_frames == []


# what request_session refuses for either QID, and the error it raises: a QID
# is an int in [0, 2**64), as a scenario's are
_NOT_QIDS = [
    ("abc", TypeError, "not str"),
    (True, TypeError, "not bool"),
    (None, TypeError, "not NoneType"),
    (12.0, TypeError, "not float"),
    (-1, ValueError, "QID -1 is not"),
    (2**64, ValueError, f"QID {2**64} is not"),
]


@pytest.mark.parametrize("end", ["caller", "callee"])
def test_request_session_refuses_a_bad_qid_before_anything_changes(end):
    sim, rec = established_example("same-qbs")
    for bad, error, message in _NOT_QIDS:
        before = _refused_call_state(sim)
        with pytest.raises(error, match=message):
            sim.request_session(*((bad, rec.callee) if end == "caller" else (rec.caller, bad)))
        assert _refused_call_state(sim) == before, bad
    sid = sim.request_session(rec.caller, 424242)  # a valid QID that nobody holds
    sim.run_until_idle()
    assert sim.sessions[sid].failure is FailureReason.NOT_FOUND
    sim.teardown_session(rec.session_id)
    check_all(sim)


# each call that takes a session id, with a valid payload or frame; `sender` is
# passed on where the call takes one
_SESSION_CALLS = {
    "send_message": lambda sim, sid, sender: sim.send_message(sid, b"x", sender=sender),
    "relay_data": lambda sim, sid, sender: sim.relay_data(sid, bytes(16), sender=sender),
    "teardown_session": lambda sim, sid, sender: sim.teardown_session(sid),
    "latency_report": lambda sim, sid, sender: sim.latency_report(sid),
}


@pytest.mark.parametrize("call", sorted(_SESSION_CALLS))
def test_a_session_id_or_sender_that_is_not_an_int_is_refused(call):
    sim, rec = established_example("same-qbs")
    sid, callee = rec.session_id, rec.callee
    # True and 1.0 equal session 1, and 12.0 the callee's QID: none may stand for it
    bad_calls = [(bad, None, bad) for bad in (True, float(sid), str(sid), None)]
    if call in ("send_message", "relay_data"):
        bad_calls += [(sid, bad, bad) for bad in (True, float(callee), str(callee))]
    for bad_sid, bad_sender, bad in bad_calls:
        before = _refused_call_state(sim)
        with pytest.raises(TypeError, match=f"not {type(bad).__name__}$"):
            _SESSION_CALLS[call](sim, bad_sid, bad_sender)
        assert _refused_call_state(sim) == before, (bad_sid, bad_sender)
    _SESSION_CALLS[call](sim, sid, callee)  # the same call with ints goes through
    sim.run_until_idle()
    if not rec.terminal:
        sim.teardown_session(sid)
    check_all(sim)


# what relay_data refuses, and the error it raises: a frame is 16 immutable bytes
_NOT_FRAMES = [
    ("0123456789abcdef", TypeError, "takes bytes, not str"),
    (bytearray(16), TypeError, "takes bytes, not bytearray"),
    (memoryview(bytes(16)), TypeError, "takes bytes, not memoryview"),
    (None, TypeError, "takes bytes, not NoneType"),
    (b"", ValueError, "exactly 16 bytes, got 0"),
    (bytes(15), ValueError, "exactly 16 bytes, got 15"),
    (bytes(17), ValueError, "exactly 16 bytes, got 17"),
]


def _relay_state(sim):
    """What a refused relay_data must leave as it was."""
    return (len(sim.trace), sum(map(len, sim._calendar.values())),
            list(sim.users[12].raw_frames), sim.stats())


@pytest.mark.parametrize("busy", [False, True], ids=["free-channel", "busy-channel"])
def test_relay_data_rejects_a_non_frame_before_scheduling(busy):
    for bad, error, message in _NOT_FRAMES:  # each on a run of its own, checked whole
        sim = Simulation(example_scenario("same-qbs"))
        sim.run_until_idle()
        sid = sim.request_session(11, 12)
        sim.run_until_idle()
        frame = bytes(range(16))
        if busy:  # the bad frame would queue behind this one on the caller's home channel
            sim.relay_data(sid, frame)
        before = _relay_state(sim)
        with pytest.raises(error, match=message):
            sim.relay_data(sid, bad)
        assert _relay_state(sim) == before, bad
        sim.run_until_idle()
        assert sim.users[12].raw_frames == ([(sid, frame)] if busy else []), bad
        sim.teardown_session(sid)
        check_all(sim)


def test_shared_channel_contention_keeps_messages_intact():
    scenario = Scenario(
        seed=9,
        planets=(PlanetSpec("m", (
            ChildSpec("q1", (UserSpec("a", 1),)),
            ChildSpec("q2", (UserSpec("b", 2), UserSpec("c", 3))),
        )),),
        workload=(
            WorkloadItem(0, 1, 2, bytes(range(90))),
            WorkloadItem(0, 1, 3, bytes(reversed(range(90)))),
        ),
    )
    sim = Simulation(scenario)
    sim.run_until_idle()
    assert sim.users[2].receive_poll() == [(1, bytes(range(90)))]
    assert sim.users[3].receive_poll() == [(2, bytes(reversed(range(90))))]
    check_all(sim)


def test_teardown_with_frames_in_flight_stays_clean():
    sim = Simulation(example_scenario("cross-qbs"))
    sim.run_until_idle()
    sim.users[13].receive_poll()
    sid = sim.request_session(11, 13)
    sim.run_until_idle()
    sim.send_message(sid, bytes(600))  # 39 frames, ~40 ticks of pipeline
    sim.run_until(sim.now + 5)
    sim.teardown_session(sid)
    closed_at = max(r.tick for r in sim.trace if r.type == "CLOSED")
    sim.run_until_idle()
    late_data = [r for r in sim.trace
                 if r.type == "DATA" and r.session == sid and r.tick > closed_at]
    assert late_data == []
    assert sim.users[13].receive_poll() == []  # message never completed
    check_all(sim)


def test_teardown_mid_stream_counts_every_dropped_frame():
    sim = Simulation(example_scenario("cross-qbs"))
    sim.run_until_idle()
    sid = sim.request_session(11, 13)
    sim.run_until_idle()
    sim.send_message(sid, bytes(600))  # 39 frames
    sim.run_until(sim.now + 5)
    sim.teardown_session(sid)
    sim.run_until_idle()
    consumed = sum(1 for r in sim.trace
                   if r.type == "DATA" and r.session == sid and r.node == "user-c")
    # every frame not consumed was decoded on its hop (the destroyed qbs-1 ->
    # qbs-2 one included), or still queued for user-a's home circuit, after
    # the session closed
    assert sim.dropped_frames == Counter(session_closed=35)
    assert consumed + sum(sim.dropped_frames.values()) == 39
    check_all(sim)


def test_release_leaves_the_route_of_frames_in_flight_unchanged():
    sim = Simulation(example_scenario("cross-qbs"))
    sim.run_until_idle()
    sid = sim.request_session(11, 13)
    sim.run_until_idle()
    rec = sim.sessions[sid]
    hops = rec.route["fwd"]
    before = list(hops)
    sim.send_message(sid, bytes(40))  # 4 frames
    sim.run_until(sim.now + 1)
    sim.teardown_session(sid)
    assert rec.route is None and hops == before  # frames in flight keep their hops
    sim.run_until_idle()
    assert set(sim.dropped_frames) == {"session_closed"}
    check_all(sim)


def test_multi_frame_message_survives_pipelining():
    sim = Simulation(example_scenario("cross-qbs"))
    sim.run_until_idle()
    sim.users[13].receive_poll()  # drain the workload transfer
    sid = sim.request_session(11, 13)
    sim.run_until_idle()
    payload = bytes(i % 251 for i in range(1000))
    sim.send_message(sid, payload)
    sim.run_until_idle()
    assert sim.users[13].receive_poll() == [(sid, payload)]


def test_a_frame_logs_one_detail_at_every_hop():
    sim, rec = established_example("cross-qbs")
    sim.send_message(rec.session_id, bytes(range(40)))  # a header and 3 data frames
    sim.run_until_idle()
    by_index = {}
    for record in sim.trace:
        if record.type == "DATA":
            by_index.setdefault(record.detail["index"], []).append(record)
    assert sorted(by_index) == [0, 1, 2, 3]
    for records in by_index.values():
        assert [r.node for r in records] == ["user-a", "qbs-1", "qbs-2", "user-c"]
        assert all(r[5] is records[0][5] for r in records)


@pytest.mark.parametrize("sender", [11, 13], ids=["forward", "reverse"])
def test_a_relayed_frame_is_one_bytes_object_from_end_to_end(sender):
    sim, rec = established_example("cross-qbs")
    frame = bytes(range(16))
    sim.relay_data(rec.session_id, frame, sender=sender)
    sim.run_until_idle()
    data = [r for r in sim.trace if r.type == "DATA"]
    assert len(data) == 4 and data[0][5][1] is frame  # the first hop logs the object passed in
    assert all(r[5] is data[0][5] for r in data)  # and no hop makes a copy of it
    receiver = 11 if sender == 13 else 13
    assert sim.users[receiver].raw_frames == [(rec.session_id, frame)]
    assert sim.users[receiver].raw_frames[0][1] is frame


def test_a_relay_that_decodes_other_bytes_logs_its_own():
    sim, rec = established_example("cross-qbs")
    frame = bytes(range(16))
    sim.relay_data(rec.session_id, frame)
    sim.run_until(sim.now + 1)  # qbs-1 decoded it and encoded it onto the session's circuit
    _, _, circuit, channel = rec.route[FORWARD][1]
    assert circuit.owner_session == rec.session_id and channel.tx.fixed
    channel.rx.up ^= 1 << 40  # flipped in flight, as in the anti-correlation test
    sim.run_until_idle()
    flipped = (int.from_bytes(frame, "big") ^ 1 << 40).to_bytes(16, "big")
    data = [r for r in sim.trace if r.type == "DATA"]
    assert [(r.node, r[5]) for r in data] == [("user-a", ("fwd", frame, None)),
                                             ("qbs-1", ("fwd", frame, None)),
                                             ("qbs-2", ("fwd", flipped, None)),
                                             ("user-c", ("fwd", flipped, None))]
    assert data[0][5] is data[1][5] and data[2][5] is data[3][5]
    assert sim.users[13].raw_frames == [(rec.session_id, flipped)]
    assert sim.users[13].raw_frames[0][1] is data[2][5][1]  # the bytes qbs-2 decoded


@pytest.mark.parametrize("raw", [True, False], ids=["raw-frame", "message"])
def test_a_receiver_that_decodes_other_bytes_keeps_its_own(raw):
    """The last hop arrives in the tick it was encoded, so the flip is made
    as the receiver's arrival starts."""
    sim, rec = established_example("cross-qbs")
    arrive = sim._on_frame_arrival

    def flipped_at_the_receiver(target, p):
        if target == "user-c" and p["values"][2] in (None, 1):  # the raw or first data frame
            p["hops"][-1][3].rx.up ^= 1 << 40
        arrive(target, p)

    sim._on_frame_arrival = flipped_at_the_receiver
    sent = bytes(range(16))
    if raw:
        sim.relay_data(rec.session_id, sent)
    else:
        sim.send_message(rec.session_id, sent)
    sim.run_until_idle()
    flipped = (int.from_bytes(sent, "big") ^ 1 << 40).to_bytes(16, "big")
    last = [r for r in sim.trace if r.type == "DATA" and r.node == "user-c"][-1]
    assert last[5][1] == flipped
    if raw:
        assert sim.users[13].raw_frames == [(rec.session_id, flipped)]
        assert sim.users[13].raw_frames[0][1] is last[5][1]
    else:
        assert sim.users[13].receive_poll() == [(rec.session_id, flipped)]
