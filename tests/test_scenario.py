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
from entnet.scenario import PAYLOAD_CAP, ChildSpec, LinkSpec, PlanetSpec, UserSpec, WorkloadItem


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
    at_cap = replace(big, workload=(WorkloadItem(0, 1, 2, b"\x00" * PAYLOAD_CAP),))
    assert PAYLOAD_CAP == 1 << 20 and validate_scenario(at_cap) == []


def test_payload_forms():
    raw = minimal_dict(workload=[
        {"at_tick": 0, "from_qid": 1, "to_qid": 2, "payload": {"hex": "00ff10"}}])
    assert scenario_from_dict(raw).workload[0].payload == b"\x00\xff\x10"
    assert any("not valid hex" in f for f in findings_for(
        workload=[{"at_tick": 0, "from_qid": 1, "to_qid": 2,
                   "payload": {"hex": "zz"}}]))
    assert "workload[0].payload: not valid UTF-8" in findings_for(  # a lone surrogate
        workload=[{"at_tick": 0, "from_qid": 1, "to_qid": 2, "payload": "\ud800"}])


def test_unknown_top_level_field_flagged():
    assert any("unknown field" in f for f in findings_for(surprise=1))


def _at(raw, *keys):
    for key in keys:
        raw = raw[key]
    return raw


def _rendered(path) -> str:
    return "".join(f"[{part}]" if isinstance(part, int) else f".{part}"
                   for part in path).lstrip(".")


@pytest.mark.parametrize("where", [
    ("planets", 0), ("planets", 0, "children", 0), ("planets", 0, "children", 0, "users", 1),
    ("links", 0), ("workload", 0),
], ids=str)
def test_unknown_nested_field_flagged(where):
    raw = minimal_dict()
    _at(raw, *where)["acept_policy"] = "reject_all"
    with pytest.raises(ValidationError) as err:
        scenario_from_dict(raw)
    assert f"{_rendered(where)}.acept_policy: unknown field" in err.value.findings


@pytest.mark.parametrize("qids", [[True], [-5], [2**64], [2**70], ["1"], [[1]], [{}],
                                  [None], [1.0], "12", 5, None, {"1": 1},
                                  [1, True], [1, 1.0]])
def test_accept_list_holds_unsigned_64_bit_qids(qids):
    raw = minimal_dict()
    raw["planets"][0]["children"][0]["users"][1]["accept_policy"] = {"accept_list": qids}
    with pytest.raises(ValidationError) as err:
        scenario_from_dict(raw)
    assert any(f.startswith("planets[0].children[0].users[1].accept_policy: must be")
               for f in err.value.findings)


def test_accept_list_of_true_does_not_admit_qid_1():
    raw = minimal_dict()
    raw["planets"][0]["children"][0]["users"][1]["accept_policy"] = {"accept_list": [True]}
    with pytest.raises(ValidationError):
        Simulation(scenario_from_dict(raw))
    raw["planets"][0]["children"][0]["users"][1]["accept_policy"] = {"accept_list": [1]}
    sim = Simulation(scenario_from_dict(raw))
    sim.run_until_idle()
    assert sim.users[2].receive_poll() == [(1, b"hi")]


@pytest.mark.parametrize("where, value, finding", [
    (("planets",), None, "planets: must be a list"),
    (("planets",), {}, "planets: must be a list"),
    (("links",), "x", "links: must be a list"),
    (("workload",), 5, "workload: must be a list"),
    (("planets", 0, "children"), {}, "planets[0].children: must be a list"),
    (("planets", 0, "children", 0, "users"), "ab",
     "planets[0].children[0].users: must be a list"),
    (("planets", 0), "m", "planets[0]: must be an object"),
    (("planets", 0, "children", 0), None, "planets[0].children[0]: must be an object"),
    (("planets", 0, "children", 0, "users", 1), [2],
     "planets[0].children[0].users[1]: must be an object"),
    (("links", 0), 3, "links[0]: must be an object"),
    (("workload", 0), "hi", "workload[0]: must be an object"),
], ids=str)
def test_json_container_of_the_wrong_shape_is_a_finding(where, value, finding):
    raw = minimal_dict()
    *parents, key = where
    _at(raw, *parents)[key] = value
    with pytest.raises(ValidationError) as err:
        scenario_from_dict(raw)
    assert finding in err.value.findings


def test_null_optional_lists_are_empty():
    raw = minimal_dict(links=None, workload=None)
    raw["planets"][0]["children"].append({"qbs_id": "empty", "users": None})
    raw["planets"].append({"mother_id": "m2", "children": None})
    scenario = scenario_from_dict(raw)
    assert scenario.links == scenario.workload == ()
    assert scenario.planets[0].children[1].users == scenario.planets[1].children == ()


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


# the parsed mark ------------------------------------------------------------------


def test_parsed_mark_is_not_a_constructor_argument():
    with pytest.raises(TypeError):
        Scenario(seed=1, parsed=True)


@pytest.mark.parametrize("kind", ["same-qbs", "cross-qbs", "interplanet"])
def test_parsed_scenario_equals_its_hand_built_twin(kind):
    twin = example_scenario(kind)
    parsed = scenario_from_dict(scenario_to_dict(twin))
    assert parsed.parsed and not twin.parsed
    assert parsed == twin
    assert hash(parsed) == hash(twin)
    assert repr(parsed) == repr(twin)


def test_only_a_scenario_built_from_json_values_is_marked():
    parsed = scenario_from_dict(minimal_dict())
    assert parsed.parsed
    assert not replace(parsed).parsed
    assert not with_uniform_distances(parsed, 1.0).parsed
    given = scenario_from_dict(minimal_dict(links=[LinkSpec("a", "q", 5.0)]))
    assert given == parsed and not given.parsed


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


# ill-typed fields and containers of code-built scenarios ----------------------------

_WELL_TYPED = {
    "id": lambda v: isinstance(v, str) and v != "",
    "int": lambda v: type(v) is int,
    "distance": lambda v: type(v) in (int, float),
    "bytes": lambda v: isinstance(v, bytes),
    "policy": lambda v: isinstance(v, (AcceptAll, RejectAll)) or (
        isinstance(v, AcceptList) and type(v.qids) is frozenset
        and all(type(q) is int and 0 <= q < 2**64 for q in v.qids)),
}


def _well_typed(kind, value) -> bool:
    if isinstance(kind, type):  # an element of a list field
        return isinstance(value, kind)
    if isinstance(kind, tuple):  # a list field of kind[0] elements
        return isinstance(value, (tuple, list)) and all(isinstance(v, kind[0]) for v in value)
    return _WELL_TYPED[kind](value)


def _fields(scenario):
    """(path, kind) of every leaf field, list field and list element; a path is
    attribute names and tuple indexes."""
    yield ("seed",), "int"
    yield ("planets",), (PlanetSpec,)
    for i, planet in enumerate(scenario.planets):
        yield ("planets", i), PlanetSpec
        yield ("planets", i, "mother_id"), "id"
        yield ("planets", i, "children"), (ChildSpec,)
        for j, child in enumerate(planet.children):
            child_path = ("planets", i, "children", j)
            yield child_path, ChildSpec
            yield (*child_path, "qbs_id"), "id"
            yield (*child_path, "users"), (UserSpec,)
            for k in range(len(child.users)):
                yield (*child_path, "users", k), UserSpec
                for name, kind in (("node_id", "id"), ("qid", "int"),
                                   ("accept_policy", "policy")):
                    yield (*child_path, "users", k, name), kind
    for name, cls, fields in (
            ("links", LinkSpec, (("a", "id"), ("b", "id"), ("distance_meters", "distance"))),
            ("workload", WorkloadItem, (("at_tick", "int"), ("from_qid", "int"),
                                        ("to_qid", "int"), ("payload", "bytes")))):
        yield (name,), (cls,)
        for i in range(len(getattr(scenario, name))):
            yield (name, i), cls
            for field_name, kind in fields:
                yield (name, i, field_name), kind


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


_ODD_SPECS = (PlanetSpec("p"), ChildSpec("c"), UserSpec("u", 99),
              LinkSpec("user-a", "qbs-1", 1.0), WorkloadItem(0, 11, 13, b""),
              AcceptList(frozenset({True})), AcceptList(frozenset({-5})),
              AcceptList(frozenset({2**64})), AcceptList(None))


@given(st.sampled_from(list(_fields(_INTERPLANET))),
       st.one_of(st.none(), st.booleans(), st.integers(), st.floats(),
                 st.text(max_size=3), st.binary(max_size=3),
                 st.lists(st.integers(), max_size=2), st.just({}), st.just(AcceptAll),
                 st.sampled_from(_ODD_SPECS), st.lists(st.sampled_from(_ODD_SPECS),
                                                       min_size=1, max_size=2)))
@settings(max_examples=300)
def test_one_ill_typed_field_is_a_finding(field, value):
    path, kind = field
    assume(not _well_typed(kind, value))
    with pytest.raises(ValidationError) as err:
        Simulation(_replaced(_INTERPLANET, path, value))
    assert any(f.startswith(_rendered(path)) for f in err.value.findings), err.value.findings
    if path == ("seed",) and value is not None:  # None means "no override"
        with pytest.raises(ValidationError):
            Simulation(_INTERPLANET, seed=value)
