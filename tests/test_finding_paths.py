"""Exact finding texts, paths included, for scenarios with faults at every depth.

Parsing and validation keep list indices and format a path only when they
report a finding; these lists pin every byte of what they report.
"""

import pytest

from entnet import scenario_from_dict
from entnet.errors import ValidationError
from entnet.scenario import validate_user


def findings_of(raw: dict) -> list[str]:
    with pytest.raises(ValidationError) as err:
        scenario_from_dict(raw)
    return err.value.findings


def test_duplicates_name_the_first_use_by_its_full_path():
    raw = {"seed": 1, "planets": [
        {"mother_id": "m0", "children": [
            {"qbs_id": "c0", "users": [{"node_id": "a", "qid": 1},
                                       {"node_id": "b", "qid": 2}]},
            {"qbs_id": "c1", "users": [{"node_id": "a", "qid": 3},  # node id across Children
                                       {"node_id": "c", "qid": 4}]}]},
        {"mother_id": "m1", "children": [
            {"qbs_id": "c2", "users": [{"node_id": "d", "qid": 1},  # QID across planets
                                       {"node_id": "c1", "qid": 5}]},
            {"qbs_id": "m0", "users": []}]}]}
    assert findings_of(raw) == [
        "planets[0].children[1].users[0].node_id: duplicate id 'a' "
        "(also used at planets[0].children[0].users[0].node_id)",
        "planets[1].children[0].users[0].qid: duplicate QID 1 "
        "(also used at planets[0].children[0].users[0])",
        "planets[1].children[0].users[1].node_id: duplicate id 'c1' "
        "(also used at planets[0].children[1].qbs_id)",
        "planets[1].children[1].qbs_id: duplicate id 'm0' "
        "(also used at planets[0].mother_id)",
    ]


def test_parse_and_validation_findings_at_every_depth():
    raw = {"seed": 1, "extra": 0, "planets": [
        {"mother_id": "m0", "children": [
            {"qbs_id": "c0", "users": [{"node_id": "a", "qid": 1}]}]},
        {"mother_id": "m1", "children": [
            {"qbs_id": "c1", "users": [
                {"node_id": "b", "qid": 2},
                {"node_id": "", "qid": -1, "accept_policy": "maybe", "x": 1},
                7]},
            {"qbs_id": "", "users": {}, "y": 2},
            None]},
        "p"],
        "links": [{"a": "a", "b": "c1", "distance_meters": 1.0},
                  {"a": "c1", "b": "a", "distance_meters": -1},
                  {"a": "ghost", "b": "ghost", "distance_meters": 1.0, "z": 3}],
        "workload": [{"at_tick": 0, "from_qid": 1, "to_qid": 2, "payload": "hi"},
                     {"at_tick": -1, "from_qid": 9, "to_qid": 9, "payload": {"hex": "zz"}},
                     {"at_tick": 0, "from_qid": 1, "to_qid": 2, "payload": 5, "w": 0}]}
    assert findings_of(raw) == [
        "extra: unknown field",
        "planets[1].children[0].users[1].x: unknown field",
        "planets[1].children[1].y: unknown field",
        "links[2].z: unknown field",
        "workload[1].payload.hex: not valid hex",
        "workload[2].w: unknown field",
        "workload[2].payload: payload must be a UTF-8 string or {'hex': '..'}",
        "planets[1].children[0].users[1].node_id: must be a non-empty string",
        "planets[1].children[0].users[1].accept_policy: must be 'accept_all', "
        "'reject_all' or {'accept_list': [unsigned 64-bit QIDs]}",
        "planets[1].children[0].users[1].qid: must be an unsigned 64-bit integer",
        "planets[1].children[0].users[2]: must be an object",
        "planets[1].children[1].qbs_id: must be a non-empty string",
        "planets[1].children[1].users: must be a list",
        "planets[1].children[2]: must be an object",
        "planets[2]: must be an object",
        "links[1].distance_meters: must be a number, finite and >= 0",
        "links[1]: duplicate link between 'c1' and 'a'",
        "links[2].a: unknown node id 'ghost'",
        "links[2].b: unknown node id 'ghost'",
        "links[2]: link endpoints must differ",
        "workload[1].at_tick: must be an integer >= 0",
        "workload[1].from_qid: unknown QID 9",
        "workload[1].to_qid: unknown QID 9",
        "workload[1]: from_qid and to_qid must differ",
    ]


def test_a_user_outside_any_scenario_is_reported_under_its_path():
    assert validate_user("", -1, "maybe") == [
        "user.node_id: must be a non-empty string",
        "user.accept_policy: must be 'accept_all', 'reject_all' or "
        "{'accept_list': [unsigned 64-bit QIDs]}",
        "user.qid: must be an unsigned 64-bit integer",
    ]
    assert validate_user("a", 1.0, "maybe", "x")[1] == "x.qid: must be an unsigned 64-bit integer"
