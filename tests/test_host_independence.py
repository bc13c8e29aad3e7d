"""Host independence: the trace and stats bytes do not depend on the string
hash seed of the interpreter that runs them.

Each run happens in a subprocess under its own PYTHONHASHSEED, since the seed
is fixed when an interpreter starts. The digests are of the files that
`write_trace` and `write_stats` produce, as in test_golden.py.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from test_golden import GOLDEN

SRC = Path(__file__).resolve().parent.parent / "src"
HASH_SEEDS = ("0", "12345")

RUNS = r"""
import hashlib, json, sys
from pathlib import Path
from entnet import Simulation, desk_scale_scenario, example_scenario

out = Path(sys.argv[1])
scenarios = {kind: example_scenario(kind) for kind in ("same-qbs", "cross-qbs", "interplanet")}
scenarios["desk"] = desk_scale_scenario(children=4, users_per_child=25, sessions=200)
digests = {}
for name, scenario in scenarios.items():
    sim = Simulation(scenario)
    sim.run_until_idle()
    sim.write_trace(str(out / "trace.ndjson"))
    sim.write_stats(str(out / "stats.json"))
    digests[name] = [hashlib.sha256((out / f).read_bytes()).hexdigest()
                     for f in ("trace.ndjson", "stats.json")]
print(json.dumps(digests))
"""


def digests_under(hash_seed, tmp_path):
    out = tmp_path / hash_seed
    out.mkdir()
    env = dict(os.environ, PYTHONHASHSEED=hash_seed,
               PYTHONPATH=os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH")))))
    done = subprocess.run([sys.executable, "-c", RUNS, str(out)], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def test_trace_and_stats_bytes_do_not_depend_on_the_hash_seed(tmp_path):
    first, second = (digests_under(seed, tmp_path) for seed in HASH_SEEDS)
    assert set(first) == {"same-qbs", "cross-qbs", "interplanet", "desk"}
    assert first == second
    for kind in ("same-qbs", "cross-qbs", "interplanet"):
        assert tuple(first[kind]) == GOLDEN[kind]
