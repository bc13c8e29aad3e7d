"""Scenario files end to end: the bytes the serialiser writes, the JSON keys
each spec owns, and files that `json` cannot read, which must be findings.
"""

import hashlib
import json
import sys
from dataclasses import fields

import pytest

from entnet.cli import main
from entnet.scenario import (
    ChildSpec,
    LinkSpec,
    PlanetSpec,
    Scenario,
    UserSpec,
    WorkloadItem,
    desk_scale_scenario,
    scenario_to_dict,
    scenario_to_json,
)

EXAMPLE_SHA256 = {
    "same-qbs": "e28b9e8457941a99d613ae5f7165dace4c6e309f27ac1d0d25309a9b6b0fa31f",
    "cross-qbs": "4d5da0f35002e1d8b784ea9c1d185b323204e9f0c3dedcfe27421aa0d4c098a7",
    "interplanet": "e26df23c2aa745c1def0a9b0cb5884d533909089cf756b39aca5b97dd06df2a0",
}
# hex payloads and reject_all policies, which no example holds
DESK_SHA256 = "3a4d83b099d6434ba267951b329a09d6ccb809cfef86298bbbea4c048cc95ed8"


@pytest.mark.parametrize("kind", sorted(EXAMPLE_SHA256))
def test_example_bytes_are_pinned(capsys, kind):
    assert main(["example", kind]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == EXAMPLE_SHA256[kind]


def test_desk_scale_bytes_are_pinned():
    text = scenario_to_json(desk_scale_scenario(seed=7, children=2, users_per_child=5,
                                                sessions=20))
    assert hashlib.sha256(text.encode()).hexdigest() == DESK_SHA256


def test_json_keys_are_the_init_fields_in_field_order():
    raw = scenario_to_dict(Scenario(
        1, (PlanetSpec("m", (ChildSpec("q", (UserSpec("a", 1), UserSpec("b", 2))),)),),
        (LinkSpec("a", "q", 1.0),), (WorkloadItem(0, 1, 2, b"x"),)))
    planet = raw["planets"][0]
    child = planet["children"][0]
    objects = [(Scenario, raw), (PlanetSpec, planet), (ChildSpec, child),
               (UserSpec, child["users"][0]), (LinkSpec, raw["links"][0]),
               (WorkloadItem, raw["workload"][0])]
    for spec, obj in objects:
        assert list(obj) == [f.name for f in fields(spec) if f.init], spec


def _assert_dollar_finding(tmp_path, capsys, data: bytes) -> str:
    path = tmp_path / "bad.json"
    path.write_bytes(data)
    errors = []
    for command in ("validate", "run"):
        assert main([command, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("invalid: $: not valid JSON: ")
        assert captured.err.count("\n") == 1
        errors.append(captured.err)
    assert errors[0] == errors[1]
    return errors[0]


def test_a_file_that_is_not_utf8_is_a_finding(tmp_path, capsys):
    err = _assert_dollar_finding(tmp_path, capsys, b'{"seed": 1, "planets": []}\xff\n')
    assert "utf-8" in err


@pytest.mark.skipif(getattr(sys, "get_int_max_str_digits", lambda: 0)() == 0,
                    reason="this interpreter parses integers of any length")
def test_an_integer_past_the_digit_limit_is_a_finding(tmp_path, capsys):
    data = json.dumps({"seed": 1, "planets": []}).replace("1", "9" * 5000, 1)
    _assert_dollar_finding(tmp_path, capsys, data.encode())


# a user's QID given twice: json.load alone keeps the last, and the file passed
REPEATED_KEYS = (b'{"seed": 1, "seed": 2, "planets": [{"mother_id": "m", "children": '
                 b'[{"qbs_id": "q", "users": [{"node_id": "a", "qid": 1, "qid": 5}, '
                 b'{"node_id": "b", "qid": 2}]}]}], "workload": []}\n')


def test_a_key_repeated_in_an_object_is_a_finding_at_its_path(tmp_path, capsys):
    path = tmp_path / "repeated.json"
    path.write_bytes(REPEATED_KEYS)
    for command in ("validate", "run"):
        assert main([command, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("invalid: seed: repeated field\n"
                                "invalid: planets[0].children[0].users[0].qid: repeated field\n")


@pytest.mark.parametrize("text", ["[]", "5"], ids=["array", "number"])
def test_a_top_level_that_is_not_an_object_is_a_finding(tmp_path, capsys, text):
    path = tmp_path / "bad.json"
    path.write_text(text + "\n")
    for command in ("validate", "run"):
        assert main([command, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "invalid: $: scenario must be a JSON object\n"
