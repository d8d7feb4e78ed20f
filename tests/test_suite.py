"""What the verification suite detects, and its per-run operator draws.

The kill table scales the one Galerkin core, ``theorems._galerkin``, and
pins which checks fail and the details they report at seed 0, so a change
to how the suite scores its trials cannot change what it detects.
"""

import threading

import pytest

from framelab import suite, theorems
from framelab.suite import run_suite, strip_timings

MISSED_AT_HALF = {
    "outer_onb_equality": {"failed_trial": 0},
    "schur_onb_exact": {"failed": [0, 1.0, "i"]},
    "inner_decomposition": {"failed_trial": 0},
}
KILL_TABLE = {
    0.5: {
        **MISSED_AT_HALF,
        "schur_gabor_budget": {"failed": [0, 2.0, "ii"], "ratio": 8.531418710593842},
    },
    1.5: MISSED_AT_HALF,
    2.0: MISSED_AT_HALF,
    3.0: {
        **MISSED_AT_HALF,
        "schur_gabor_budget": {"failed": [0, 2.0, "i"], "ratio": 1.0271758683620325},
        "outer_gabor_budget": {"failed_trial": 0, "ratio": 0.9313170942492242},
    },
}


@pytest.mark.parametrize("factor", sorted(KILL_TABLE))
def test_kill_table(factor, monkeypatch):
    real = theorems._galerkin
    monkeypatch.setattr(
        theorems, "_galerkin", lambda A, pair1, pair2: factor * real(A, pair1, pair2)
    )
    summary = run_suite("full", 0)
    failed = {c["name"]: c["details"] for c in summary["checks"] if not c["pass"]}
    assert failed == KILL_TABLE[factor]


def counting_draws(monkeypatch):
    """Count ``suite.random_operator`` draws by ``(d2, d1, seed)``."""
    draws = []
    real = suite.random_operator

    def counting(d2, d1, **kwargs):
        draws.append((d2, d1, kwargs["seed"]))
        return real(d2, d1, **kwargs)

    monkeypatch.setattr(suite, "random_operator", counting)
    return draws


class TestDraws:
    def test_each_trial_operator_is_drawn_once_per_run(self, monkeypatch):
        draws = counting_draws(monkeypatch)
        first = run_suite("full", 0)
        assert len(draws) == len(set(draws)) == 390
        del draws[:]
        second = run_suite("full", 0)
        # a second run draws every operator again: nothing outlives a run
        assert len(draws) == 390
        assert strip_timings(first) == strip_timings(second)

    def test_drawn_operators_are_read_only(self):
        draws = {}
        O = suite._random_op(draws, 4, 4, 0, 1)
        assert suite._random_op(draws, 4, 4, 0, 1) is O
        with pytest.raises(ValueError):
            O[0, 0] = 1.0

    def test_concurrent_runs_share_no_draws(self, monkeypatch):
        draws = counting_draws(monkeypatch)
        results = [None, None]

        def run(i):
            results[i] = run_suite("fast", 0)

        threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        assert len(draws) == 2 * len(set(draws))
        assert results[0]["pass"]
        assert strip_timings(results[0]) == strip_timings(results[1])
