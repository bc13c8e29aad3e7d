"""scripts/bench_layers.py at toy size: the report's figures and its usage errors.

No time is checked, only that each figure is there with its spread.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
UNITS = {"codec": "s/frame", "hop": "hops/s", "trace_lines": "B/s", "session": "sessions/s"}
NAMES = {"codec.encode_frame", "codec.decode_frame", "codec.segment_message",
         "codec.message_push", "hop.same-qbs", "hop.cross-qbs",
         "trace_lines.same-qbs", "trace_lines.cross-qbs", "trace_lines.sessions",
         "session.same-qbs", "session.cross-qbs", "session.interplanet"}


def bench_layers(*args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH")))))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / "bench_layers.py"), *args],
                          env=env, capture_output=True, text=True)


def test_a_toy_run_reports_every_figure_with_its_spread(tmp_path):
    out = tmp_path / "layers.json"
    done = bench_layers("--repeats", "5", "--frames", "20", "--out", str(out))
    assert done.returncode == 0, done.stderr
    report = json.loads(out.read_text())
    assert report["settings"] == {"repeats": 5, "frames": 20}
    assert set(report["figures"]) == NAMES
    for name, figure in report["figures"].items():
        assert figure["unit"] == UNITS[name.split(".")[0]], name
        assert figure["repeats"] == 5, name
        assert 0 < figure["q1"] <= figure["median"] <= figure["q3"], name
        assert figure["iqr"] == pytest.approx(figure["q3"] - figure["q1"]), name


@pytest.mark.parametrize("args", [("--repeats", "4"), ("--frames", "0")])
def test_too_few_repeats_or_frames_is_a_usage_error(args):
    done = bench_layers(*args)
    assert done.returncode == 2 and "must be at least" in done.stderr, done.stderr
