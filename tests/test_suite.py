"""What the verification suite detects, its per-run operator draws and
frame families, and the memory of its stacked checks.

The kill table scales the one Galerkin core, ``theorems._galerkin``, and
pins which checks fail and the details they report at seed 0, so a change
to how the suite scores its trials cannot change what it detects.
"""

import gc
import threading
import tracemalloc

import pytest

from framelab import coorbit, suite, theorems
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


class TestStackedChecks:
    @pytest.mark.parametrize(
        "check", [suite.check_kernel_roundtrip, suite.check_correspondence]
    )
    def test_chunked_stack_memory_is_bounded(self, check):
        """The full suite's round-trip and correspondence checks score
        each family's trials in chunks of at most ``_SCORE_ELEMENTS``
        entries: the peak above what the checks keep stays within eight
        such complex temporaries (it reads about 6 and 5.5 of them, 1.6
        and 1.5 MB), where one stack of all trials takes about 16 and 48."""
        draws = {}
        check(0, False, draws)  # fills the run's families and operators
        gc.collect()
        tracemalloc.start()
        try:
            check(0, False, draws)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - kept <= 8 * coorbit._SCORE_ELEMENTS * 16

    def test_each_family_is_built_once_per_run(self, monkeypatch):
        """One ``run_suite`` builds each frame pair it uses once, for all
        the checks that use it: the three families, the ONBs of the
        op-norm, sandwich, independence and Schatten checks, Mercedes and
        the rotated ONB, 10 pairs in a full run and 7 in a fast one."""
        families = {fast: suite._families(fast, {}) for fast in (False, True)}
        built = []
        real = suite.canonical_dual

        def counting(frame):
            built.append(frame.vectors.tobytes())
            return real(frame)

        monkeypatch.setattr(suite, "canonical_dual", counting)
        for name, pairs in (("full", 10), ("fast", 7)):
            del built[:]
            run_suite(name, 0)
            assert len(built) == len(set(built)) == pairs, name
            for pair in families[name == "fast"].values():
                assert pair.frame.vectors.tobytes() in built
