"""The stripped suite summaries at seed 0 must match the committed
reference files byte for byte.

Regenerate a reference only for a change that is meant to alter the
suite's output, with
``json.dumps(strip_timings(run_suite(name, 0)), sort_keys=True)``.
"""

import json
from pathlib import Path

import pytest

from framelab.suite import run_suite, strip_timings

DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize("name", ["fast", "full"])
def test_suite_matches_reference(name):
    blob = json.dumps(strip_timings(run_suite(name, 0)), sort_keys=True)
    assert blob == (DATA / f"suite_seed0_{name}.json").read_text()
