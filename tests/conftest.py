import pytest
from hypothesis import settings

from entnet import Simulation, example_scenario

# "fast" is the default; `--hypothesis-profile=long` runs a deeper search,
# e.g. `pytest tests/test_random_scenarios.py --hypothesis-profile=long`
settings.register_profile("fast", max_examples=100)
settings.register_profile("long", max_examples=2000)
settings.load_profile("fast")


@pytest.fixture
def run_example():
    """Build one of the shipped example scenarios and run it to completion."""

    def _run(kind: str, seed: int | None = None) -> Simulation:
        sim = Simulation(example_scenario(kind), seed=seed)
        sim.run_until_idle()
        return sim

    return _run


def record_types(sim, session=None):
    return [r.type for r in sim.trace if session is None or r.session == session]


def is_subsequence(needle, haystack):
    it = iter(haystack)
    return all(item in it for item in needle)
