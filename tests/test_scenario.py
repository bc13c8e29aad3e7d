from dataclasses import replace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from entnet import (
    Scenario,
    Simulation,
    desk_scale_scenario,
    example_scenario,
    scenario_from_dict,
    scenario_to_dict,
    validate_scenario,
    with_uniform_distances,
)
from entnet.errors import ValidationError
from entnet.node import AcceptAll, AcceptList, RejectAll
from entnet.scenario import ChildSpec, PlanetSpec, UserSpec, WorkloadItem


def minimal_dict(**overrides):
    raw = {
        "seed": 1,
        "planets": [{"mother_id": "m", "children": [{"qbs_id": "q", "users": [
            {"node_id": "a", "qid": 1},
            {"node_id": "b", "qid": 2, "accept_policy": "reject_all"},
        ]}]}],
        "links": [{"a": "a", "b": "q", "distance_meters": 5.0}],
        "workload": [{"at_tick": 0, "from_qid": 1, "to_qid": 2, "payload": "hi"}],
    }
    raw.update(overrides)
    return raw


def findings_for(**overrides):
    with pytest.raises(ValidationError) as err:
        scenario_from_dict(minimal_dict(**overrides))
    return err.value.findings


def test_minimal_scenario_parses():
    scenario = scenario_from_dict(minimal_dict())
    assert scenario.seed == 1
    assert scenario.planets[0].children[0].users[1].accept_policy == RejectAll()
    assert scenario.workload[0].payload == b"hi"


def test_examples_validate():
    for kind in ("same-qbs", "cross-qbs", "interplanet"):
        assert validate_scenario(example_scenario(kind)) == []


def test_duplicate_qid_finding_names_the_qid():
    raw = minimal_dict()
    raw["planets"][0]["children"][0]["users"][1]["qid"] = 1
    with pytest.raises(ValidationError) as err:
        scenario_from_dict(raw)
    assert any("duplicate QID 1" in f and "users[1].qid" in f
               for f in err.value.findings)


def test_duplicate_node_id_finding():
    raw = minimal_dict()
    raw["planets"][0]["children"][0]["users"][1]["node_id"] = "a"
    with pytest.raises(ValidationError) as err:
        scenario_from_dict(raw)
    assert any("duplicate id 'a'" in f for f in err.value.findings)


def test_link_findings():
    assert any("unknown node id" in f for f in findings_for(
        links=[{"a": "a", "b": "ghost", "distance_meters": 1.0}]))
    assert any("must differ" in f for f in findings_for(
        links=[{"a": "a", "b": "a", "distance_meters": 1.0}]))
    assert any("finite and >= 0" in f for f in findings_for(
        links=[{"a": "a", "b": "q", "distance_meters": -1.0}]))
    assert any("finite and >= 0" in f for f in findings_for(  # JSON ints are unbounded
        links=[{"a": "a", "b": "q", "distance_meters": 10**400}]))
    assert any("duplicate link" in f for f in findings_for(
        links=[{"a": "a", "b": "q", "distance_meters": 1.0},
               {"a": "q", "b": "a", "distance_meters": 2.0}]))


def test_workload_findings():
    assert any("unknown QID 99" in f for f in findings_for(
        workload=[{"at_tick": 0, "from_qid": 1, "to_qid": 99, "payload": ""}]))
    assert any("must differ" in f for f in findings_for(
        workload=[{"at_tick": 0, "from_qid": 1, "to_qid": 1, "payload": ""}]))
    assert any("at_tick" in f for f in findings_for(
        workload=[{"at_tick": -2, "from_qid": 1, "to_qid": 2, "payload": ""}]))


def test_payload_cap_is_enforced():
    big = Scenario(
        seed=0,
        planets=(PlanetSpec("m", (ChildSpec("q", (UserSpec("a", 1),
                                                  UserSpec("b", 2))),)),),
        workload=(WorkloadItem(0, 1, 2, b"\x00" * (1 << 21)),),
    )
    assert any("exceeds" in f for f in validate_scenario(big))
    assert validate_scenario(big, max_payload_bytes=1 << 22) == []


def test_payload_forms():
    raw = minimal_dict(workload=[
        {"at_tick": 0, "from_qid": 1, "to_qid": 2, "payload": {"hex": "00ff10"}}])
    assert scenario_from_dict(raw).workload[0].payload == b"\x00\xff\x10"
    assert any("not valid hex" in f for f in findings_for(
        workload=[{"at_tick": 0, "from_qid": 1, "to_qid": 2,
                   "payload": {"hex": "zz"}}]))


def test_unknown_top_level_field_flagged():
    assert any("unknown field" in f for f in findings_for(surprise=1))


def test_missing_seed_flagged():
    raw = minimal_dict()
    del raw["seed"]
    with pytest.raises(ValidationError) as err:
        scenario_from_dict(raw)
    assert any(f.startswith("seed:") for f in err.value.findings)


def test_accept_policy_round_trip():
    scenario = Scenario(
        seed=3,
        planets=(PlanetSpec("m", (ChildSpec("q", (
            UserSpec("a", 1, AcceptList(frozenset({2, 5}))),
            UserSpec("b", 2, RejectAll()),
        )),)),),
    )
    assert scenario_from_dict(scenario_to_dict(scenario)) == scenario


def test_dict_round_trip_for_examples():
    for kind in ("same-qbs", "cross-qbs", "interplanet"):
        scenario = example_scenario(kind)
        assert scenario_from_dict(scenario_to_dict(scenario)) == scenario


def test_binary_payload_round_trips_via_hex():
    scenario = Scenario(
        seed=0,
        planets=(PlanetSpec("m", (ChildSpec("q", (UserSpec("a", 1),
                                                  UserSpec("b", 2))),)),),
        workload=(WorkloadItem(0, 1, 2, bytes(range(256))),),
    )
    raw = scenario_to_dict(scenario)
    assert raw["workload"][0]["payload"] == {"hex": bytes(range(256)).hex()}
    assert scenario_from_dict(raw) == scenario


def test_with_uniform_distances_changes_only_links():
    base = example_scenario("interplanet")
    flat = with_uniform_distances(base, 2.0)
    assert all(link.distance_meters == 2.0 for link in flat.links)
    assert flat.planets == base.planets and flat.workload == base.workload


def test_desk_scale_scenario_is_valid_and_deterministic():
    first = desk_scale_scenario(seed=7, children=2, users_per_child=5, sessions=20)
    second = desk_scale_scenario(seed=7, children=2, users_per_child=5, sessions=20)
    assert first == second
    assert validate_scenario(first) == []
    assert sum(len(c.users) for c in first.planets[0].children) == 10
    assert len(first.workload) == 20


# ill-typed fields of code-built scenarios ------------------------------------------

_WELL_TYPED = {
    "id": lambda v: isinstance(v, str) and v != "",
    "int": lambda v: type(v) is int,
    "distance": lambda v: type(v) in (int, float),
    "bytes": lambda v: isinstance(v, bytes),
    "policy": lambda v: isinstance(v, (AcceptAll, AcceptList, RejectAll)),
}


def _leaf_fields(scenario):
    """(path, kind) of every leaf field; a path is attribute names and tuple indexes."""
    yield ("seed",), "int"
    for i, planet in enumerate(scenario.planets):
        yield ("planets", i, "mother_id"), "id"
        for j, child in enumerate(planet.children):
            child_path = ("planets", i, "children", j)
            yield (*child_path, "qbs_id"), "id"
            for k in range(len(child.users)):
                for name, kind in (("node_id", "id"), ("qid", "int"),
                                   ("accept_policy", "policy")):
                    yield (*child_path, "users", k, name), kind
    for i in range(len(scenario.links)):
        for name, kind in (("a", "id"), ("b", "id"), ("distance_meters", "distance")):
            yield ("links", i, name), kind
    for i in range(len(scenario.workload)):
        for name, kind in (("at_tick", "int"), ("from_qid", "int"), ("to_qid", "int"),
                           ("payload", "bytes")):
            yield ("workload", i, name), kind


def _replaced(obj, path, value):
    if not path:
        return value
    head, *rest = path
    if isinstance(head, int):
        items = list(obj)
        items[head] = _replaced(items[head], rest, value)
        return tuple(items)
    return replace(obj, **{head: _replaced(getattr(obj, head), rest, value)})


_INTERPLANET = example_scenario("interplanet")


@given(st.sampled_from(list(_leaf_fields(_INTERPLANET))),
       st.one_of(st.none(), st.booleans(), st.integers(), st.floats(),
                 st.text(max_size=3), st.binary(max_size=3),
                 st.lists(st.integers(), max_size=2), st.just({}), st.just(AcceptAll)))
@settings(max_examples=200)
def test_one_ill_typed_field_is_a_finding(field, value):
    path, kind = field
    assume(not _WELL_TYPED[kind](value))
    with pytest.raises(ValidationError) as err:
        Simulation(_replaced(_INTERPLANET, path, value))
    assert err.value.findings
    if path == ("seed",) and value is not None:  # None means "no override"
        with pytest.raises(ValidationError):
            Simulation(_INTERPLANET, seed=value)
