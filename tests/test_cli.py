import json

import pytest

from entnet.cli import main


@pytest.fixture
def example_file(tmp_path, capsys):
    def _write(kind):
        assert main(["example", kind]) == 0
        text = capsys.readouterr().out
        path = tmp_path / f"{kind}.json"
        path.write_text(text)
        return str(path)

    return _write


def test_validate_shipped_example_ok(example_file, capsys):
    path = example_file("same-qbs")
    assert main(["validate", path]) == 0
    assert "ok" in capsys.readouterr().out


def test_validate_duplicate_qid_names_it(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "seed": 0,
        "planets": [{"mother_id": "m", "children": [{"qbs_id": "q", "users": [
            {"node_id": "a", "qid": 7}, {"node_id": "b", "qid": 7}]}]}],
    }))
    assert main(["validate", str(path)]) == 2
    assert "7" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["validate", "run"])
def test_every_finding_is_printed_and_exits_two(tmp_path, capsys, command):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "seed": 0, "colour": "red",
        "planets": [{"mother_id": "m", "children": [{"qbs_id": "q", "users": [
            {"node_id": "a", "qid": 7}, {"node_id": "b", "qid": 7}]}]}],
    }))
    assert main([command, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        "invalid: colour: unknown field\n"
        "invalid: planets[0].children[0].users[1].qid: duplicate QID 7 "
        "(also used at planets[0].children[0].users[0])\n")
    assert captured.out == ""


@pytest.mark.parametrize("text", ["{", "[" * 100_000 + "]" * 100_000], ids=["cut", "deep"])
def test_validate_unreadable_json_is_a_finding(tmp_path, capsys, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    assert main(["validate", str(path)]) == 2
    assert capsys.readouterr().err.startswith("invalid: $: not valid JSON: ")


def test_validate_missing_file_is_io_failure(tmp_path, capsys):
    assert main(["validate", str(tmp_path / "nope.json")]) == 1
    assert "error" in capsys.readouterr().err


def test_run_writes_trace_and_stats(example_file, tmp_path, capsys):
    path = example_file("same-qbs")
    trace = tmp_path / "trace.ndjson"
    stats = tmp_path / "stats.json"
    assert main(["run", path, "--trace", str(trace), "--stats", str(stats)]) == 0
    assert "1 established, 0 failed" in capsys.readouterr().out
    loaded = json.loads(stats.read_text())
    assert loaded["sessions"]["established"] == 1
    assert trace.read_text().count("\n") == len(trace.read_text().splitlines())
    # the emitted example reproduces the single-station walkthrough
    types = iter(json.loads(line)["type"] for line in trace.read_text().splitlines())
    golden = ["SESSION_REQUEST", "LOOKUP_LOCAL_HIT", "NEGOTIATE", "ACCEPT",
              "ESTABLISHED", "DATA", "TEARDOWN", "CIRCUIT_RELEASED", "CLOSED"]
    assert all(step in types for step in golden)


def test_run_quiet_silences_summary(example_file, capsys):
    path = example_file("same-qbs")
    assert main(["run", path, "--quiet"]) == 0
    assert capsys.readouterr().out == ""


def test_repeated_runs_are_byte_identical(example_file, tmp_path):
    path = example_file("cross-qbs")
    first, second = tmp_path / "a.ndjson", tmp_path / "b.ndjson"
    assert main(["run", path, "--trace", str(first), "--quiet"]) == 0
    assert main(["run", path, "--trace", str(second), "--quiet"]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_seed_override_keeps_record_type_sequence(example_file, tmp_path):
    path = example_file("cross-qbs")
    first, second = tmp_path / "a.ndjson", tmp_path / "b.ndjson"
    assert main(["run", path, "--seed", "111", "--trace", str(first), "--quiet"]) == 0
    assert main(["run", path, "--seed", "222", "--trace", str(second), "--quiet"]) == 0
    types_a = [json.loads(line)["type"] for line in first.read_text().splitlines()]
    types_b = [json.loads(line)["type"] for line in second.read_text().splitlines()]
    assert types_a == types_b


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_run_rejects_out_of_range_seed_override(example_file, capsys, seed):
    path = example_file("same-qbs")
    assert main(["run", path, "--seed", seed]) == 2
    captured = capsys.readouterr()
    assert captured.err == "invalid: seed: must be an unsigned 64-bit integer\n"
    assert captured.out == ""


def test_cross_qbs_run_traces_mother_lookup(example_file, tmp_path):
    path = example_file("cross-qbs")
    trace = tmp_path / "trace.ndjson"
    assert main(["run", path, "--trace", str(trace), "--quiet"]) == 0
    types = [json.loads(line)["type"] for line in trace.read_text().splitlines()]
    assert "MOTHER_LOOKUP" in types
    assert "CIRCUIT_PROVISIONED" in types


def test_example_interplanet_has_two_planets(example_file):
    path = example_file("interplanet")
    raw = json.loads(open(path).read())
    assert len(raw["planets"]) == 2
    assert {p["mother_id"] for p in raw["planets"]} == {"earth-mother", "mars-mother"}


def test_unknown_example_kind_exits_two(capsys):
    with pytest.raises(SystemExit) as err:
        main(["example", "bogus"])
    assert err.value.code == 2


def test_run_rejects_invalid_scenario(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["run", str(path)]) == 2
    assert "invalid" in capsys.readouterr().err
