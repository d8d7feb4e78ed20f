"""Inputs are checked once, at the public verifiers; the private cores
trust the arrays they build.  Every input a verifier rejected before the
cores stopped re-checking is still rejected, with the same message."""

import sys
from contextlib import nullcontext

import numpy as np
import pytest

from framelab import coorbit, localisation, numeric, theorems
from framelab.coorbit import MixedSpaceSpec
from framelab.frames import Frame, canonical_dual, linear_index_set
from framelab.generators import (
    decaying_perturbation,
    finite_gabor,
    gaussian_window,
    onb,
    random_operator,
    substream,
)
from framelab.localisation import poly_weight
from framelab.numeric import PreconditionError
from framelab.suite import run_suite
from framelab.theorems import (
    schatten_check,
    schur_characterization,
    verify_frame_independence,
    verify_inner,
    verify_outer,
    verify_projective,
)

GABOR = canonical_dual(finite_gabor(8, 2, 2, gaussian_window(8)))
N = GABOR.frame.cardinality  # 16 elements in C^8


@pytest.fixture
def count_calls(monkeypatch):
    """``count(home, name)`` wraps ``home.name`` in every framelab module
    that binds it and returns the list of first arguments it was called
    with."""

    def count(home, name):
        real = getattr(home, name)
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[0] if args else None)
            return real(*args, **kwargs)

        for mod_name, module in list(sys.modules.items()):
            if mod_name.startswith("framelab") and getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, counting)
        return calls

    return count


def rotated_onb(d, seed):
    rng = substream(seed, "test-boundary", "rotation", d)
    q, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return canonical_dual(Frame(d, linear_index_set(d), q))


class TestCheckedOnce:
    def test_verifiers_make_no_public_schur_calls(self, count_calls):
        calls = count_calls(localisation, "schur_weighted_bound")
        w = poly_weight(GABOR.frame.index_set, 1.0)
        O = random_operator(8, 8, seed=1)
        verify_outer(O, GABOR, GABOR, w, w)
        schur_characterization(O, GABOR, GABOR, w, w, 1.5, "ii")
        verify_inner(O, GABOR, GABOR, w, w)
        verify_projective(O, GABOR, GABOR, w, w)
        pair, rot = canonical_dual(onb(4)), rotated_onb(4, 0)
        grid = np.outer(poly_weight(pair.frame.index_set, 1.0), np.ones(4))
        for p, q in ((2.0, 2.0), (3.0, np.inf)):
            spec = MixedSpaceSpec(p, q, 0, grid)
            verify_frame_independence(
                random_operator(4, 4, seed=2), (pair, pair), (rot, rot), spec
            )
        assert calls == []

    def test_one_spec_is_factored_once(self, count_calls):
        calls = count_calls(theorems, "_factor_grid")
        pair, rot = canonical_dual(onb(4)), rotated_onb(4, 0)
        O = random_operator(4, 4, seed=3)
        spec = MixedSpaceSpec(np.inf, np.inf, 0, np.ones((4, 4)))
        verify_frame_independence(O, (pair, pair), (rot, rot), spec)
        assert len(calls) == 1
        # families with different index grids get a second, constant grid
        mixed = canonical_dual(Frame.from_vectors(np.vstack([np.eye(4), np.eye(4)])))
        verify_frame_independence(O, (pair, pair), (mixed, mixed), spec)
        assert len(calls) == 3

    @pytest.mark.parametrize(
        "run",
        [
            lambda O: schatten_check(O, GABOR, GABOR, 1.5),
            lambda O: verify_inner(O, GABOR, GABOR, np.ones(N), np.ones(N)),
            lambda O: verify_projective(O, GABOR, GABOR, np.ones(N), np.ones(N)),
            lambda O: verify_outer(O, GABOR, GABOR, np.ones(N), np.ones(N)),
        ],
        ids=["schatten_check", "verify_inner", "verify_projective", "verify_outer"],
    )
    def test_operator_is_checked_once(self, count_calls, run):
        O = random_operator(8, 8, seed=4)
        calls = count_calls(numeric, "as_matrix")
        run(O)
        assert sum(arg is O for arg in calls) == 1

    def test_full_suite_call_counts(self, count_calls):
        """Bounds on the checkers' calls in one ``run_suite("full", 0)``;
        before the cores trusted their own arrays the counts were 1086,
        5108 and 5394."""
        schur = count_calls(localisation, "schur_weighted_bound")
        weights = count_calls(localisation, "as_weight")
        matrices = count_calls(numeric, "as_matrix")
        assert run_suite("full", 0)["pass"]
        assert len(schur) <= 6
        assert len(weights) <= 1468
        assert len(matrices) <= 3434


# ---------------------------------------------------------------------------
# rejections


def _with_first(value):
    w = np.ones(N)
    w[0] = value
    return w


ONES = np.ones(N)
OP = random_operator(8, 8, seed=1)

WEIGHTED = {
    "verify_outer": lambda O, w1, w2: verify_outer(O, GABOR, GABOR, w1, w2),
    "schur_characterization": lambda O, w1, w2: schur_characterization(
        O, GABOR, GABOR, w1, w2, 1.5, "ii"
    ),
    "verify_inner": lambda O, w1, w2: verify_inner(O, GABOR, GABOR, w1, w2),
    "verify_projective": lambda O, w1, w2: verify_projective(O, GABOR, GABOR, w1, w2),
}

POSITIVE = "weights must be positive and finite"
GRID = "weight grid must be 2-D, positive, finite"
WEIGHT_CASES = {
    "nan": ((_with_first(np.nan), ONES), POSITIVE),
    "inf": ((ONES, _with_first(np.inf)), POSITIVE),
    "zero": ((_with_first(0.0), ONES), POSITIVE),
    "negative": ((ONES, _with_first(-1.0)), POSITIVE),
    "too-few": ((np.ones(N - 1), ONES), "15 weights for 16 indices"),
    "too-many": ((ONES, np.ones(N + 1)), "17 weights for 16 indices"),
    "grid-underflows": ((np.full(N, 1e-200), np.full(N, 1e-200)), GRID),
    "grid-overflows": ((np.full(N, 1e200), np.full(N, 1e200)), GRID),
}

FINITE = "matrix contains NaN or Inf entries"
OPERATOR_CASES = {
    "nan": (np.where(np.eye(8) > 0, np.nan, OP), FINITE),
    "inf": (np.where(np.eye(8) > 0, np.inf, OP), FINITE),
    "shape": (random_operator(8, 7, seed=1), r"operator shape \(8, 7\) does not map"),
    "ndim": (np.ones(8), "expected a 2-D matrix, got ndim=1"),
}
OPERATOR_RUNS = {
    **{
        name: (lambda run: lambda O: run(O, ONES, ONES))(run)
        for name, run in WEIGHTED.items()
    },
    "verify_frame_independence": lambda O: verify_frame_independence(
        O, (GABOR, GABOR), (GABOR, GABOR), MixedSpaceSpec(2.0, 2.0, 0, np.ones((N, N)))
    ),
    "schatten_check": lambda O: schatten_check(O, GABOR, GABOR, 1.5),
}

RANK_ONE = "frame-independence budgets need a rank-one weight grid"
GRID_CASES = {
    "not-rank-one": (np.ones((N, N)) + np.eye(N), RANK_ONE, RANK_ONE),
    # reciprocal of the subnormal column factor overflows on the
    # outer-sup route; the p = q route never inverts it
    "column-factor-inverse-overflows": (
        np.outer(_with_first(1e-310), np.ones(N)),
        None,
        POSITIVE,
    ),
    "row-factor-underflows": (
        np.outer(np.ones(N), np.r_[1e300, np.full(N - 1, 1e-300)]),
        RANK_ONE,
        RANK_ONE,
    ),
    "row-factor-overflows": (
        np.outer(np.ones(N), np.r_[1e-300, np.full(N - 1, 1e10)]),
        RANK_ONE,
        RANK_ONE,
    ),
}


class TestRejectionsUnchanged:
    @pytest.mark.parametrize("case", sorted(WEIGHT_CASES))
    @pytest.mark.parametrize("verifier", sorted(WEIGHTED))
    def test_bad_weights(self, verifier, case):
        (w1, w2), message = WEIGHT_CASES[case]
        with np.errstate(over="ignore", divide="ignore"):
            with pytest.raises(PreconditionError, match=message):
                WEIGHTED[verifier](OP, w1, w2)

    @pytest.mark.parametrize("verifier", ["verify_outer", "schur_characterization"])
    def test_dual_weight_reciprocal_overflows(self, verifier):
        # 1 / 4e-309 is inf, while the kernel grid 1 / (1e10 * 4e-309) is finite
        with np.errstate(over="ignore"):
            with pytest.raises(PreconditionError, match=POSITIVE):
                WEIGHTED[verifier](OP, np.full(N, 1e10), _with_first(4e-309))

    @pytest.mark.parametrize("case", sorted(OPERATOR_CASES))
    @pytest.mark.parametrize("verifier", sorted(OPERATOR_RUNS))
    def test_bad_operator(self, verifier, case):
        O, message = OPERATOR_CASES[case]
        with pytest.raises(PreconditionError, match=message):
            OPERATOR_RUNS[verifier](O)

    @pytest.mark.parametrize(
        "verifier", sorted(set(OPERATOR_RUNS) - {"schatten_check"})
    )
    def test_overflowing_galerkin_matrix(self, verifier):
        """A finite operator whose Galerkin matrix overflows is rejected
        as a non-finite matrix."""
        pair = canonical_dual(decaying_perturbation(16, 4.0, 0.05, seed=3))
        n = pair.frame.cardinality
        O = np.full((16, 16), 1.7e308)
        w = np.ones(n)
        W = np.ones((n, n))
        run = {
            "verify_outer": lambda: verify_outer(O, pair, pair, w, w),
            "schur_characterization": lambda: schur_characterization(
                O, pair, pair, w, w, 1.5, "ii"
            ),
            "verify_inner": lambda: verify_inner(O, pair, pair, w, w),
            "verify_projective": lambda: verify_projective(O, pair, pair, w, w),
            "verify_frame_independence": lambda: verify_frame_independence(
                O, (pair, pair), (pair, pair), MixedSpaceSpec(2.0, 2.0, 0, W)
            ),
        }[verifier]
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(PreconditionError, match=FINITE):
                run()

    @pytest.mark.parametrize("case", sorted(GRID_CASES))
    @pytest.mark.parametrize(
        "p, q, axis", [(2.0, 2.0, 0), (2.0, np.inf, 0), (3.0, np.inf, 1)]
    )
    def test_bad_grid(self, case, p, q, axis):
        W, same_exponent_message, outer_sup_message = GRID_CASES[case]
        message = same_exponent_message if p == q else outer_sup_message
        spec = MixedSpaceSpec(p, q, axis, W)
        expected = (
            nullcontext()
            if message is None
            else pytest.raises(PreconditionError, match=message)
        )
        with np.errstate(over="ignore"), expected:
            verify_frame_independence(OP, (GABOR, GABOR), (GABOR, GABOR), spec)


class TestCoreModulesKeepTheirChecks:
    """The public checkers the cores skip are still applied at the
    public functions themselves."""

    def test_coorbit_opnorm_checks_its_operator(self):
        spec = coorbit.CoorbitSpec(GABOR, coorbit.SeqSpaceSpec(1.0, ONES))
        with pytest.raises(PreconditionError, match=FINITE):
            coorbit.coorbit_opnorm(OPERATOR_CASES["nan"][0], spec, spec)

    def test_schur_weighted_bound_checks_its_weights(self):
        with pytest.raises(PreconditionError, match=POSITIVE):
            localisation.schur_weighted_bound(np.eye(2), [1.0, np.nan], 1.0)
