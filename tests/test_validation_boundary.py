"""Inputs are checked once, at the public verifiers; the private cores
trust the arrays they build.  Every input a verifier rejected before the
cores stopped re-checking is still rejected, with the same message."""

import re
import sys
from contextlib import nullcontext

import numpy as np
import pytest

from framelab import coorbit, localisation, numeric, tensor_kernels, theorems
from framelab.coorbit import MixedSpaceSpec
from framelab.frames import Frame, canonical_dual, linear_index_set
from framelab.generators import (
    decaying_perturbation,
    finite_gabor,
    gaussian_window,
    mercedes,
    onb,
    random_operator,
    substream,
)
from framelab.localisation import JaffardParams, localisation_report, poly_weight
from framelab.numeric import PreconditionError
from framelab.suite import run_suite
from framelab.theorems import (
    compress_operator,
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

    def test_each_call_factors_each_grid_once(self, count_calls):
        """A call factors the first family's grid once, and a second
        family on another index grid gets its constant grid factored
        once more; nothing is remembered between calls."""
        calls = count_calls(theorems, "_rank_one_factors")
        pair, rot = canonical_dual(onb(4)), rotated_onb(4, 0)
        O = random_operator(4, 4, seed=3)
        spec = MixedSpaceSpec(np.inf, np.inf, 0, np.ones((4, 4)))
        verify_frame_independence(O, (pair, pair), (rot, rot), spec)
        assert len(calls) == 1 and calls[0] is spec.weights
        mixed = canonical_dual(Frame.from_vectors(np.vstack([np.eye(4), np.eye(4)])))
        for _ in range(2):
            verify_frame_independence(O, (pair, pair), (mixed, mixed), spec)
        assert len(calls) == 5
        np.testing.assert_array_equal(calls[-1], np.ones((8, 8)))

    def test_inner_and_projective_build_no_spec(self, monkeypatch):
        built = []
        real = MixedSpaceSpec.__post_init__

        def counting(spec):
            built.append(spec)
            real(spec)

        monkeypatch.setattr(MixedSpaceSpec, "__post_init__", counting)
        w = poly_weight(GABOR.frame.index_set, 1.0)
        O = random_operator(8, 8, seed=5)
        verify_inner(O, GABOR, GABOR, w, w)
        verify_projective(O, GABOR, GABOR, w, w)
        assert built == []

    def test_grid_that_is_not_rank_one_raises_on_every_call(self):
        pair = canonical_dual(onb(4))
        spec = MixedSpaceSpec(2.0, 2.0, 0, np.ones((4, 4)) + np.eye(4))
        for _ in range(2):
            with pytest.raises(PreconditionError, match=RANK_ONE):
                verify_frame_independence(OP[:4, :4], (pair, pair), (pair, pair), spec)

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
UNSUPPORTED = "frame independence is certified only for p = q or outer-sup mixed norms"
SUBNORMAL_FIRST = np.r_[1e-310, np.ones(3)]
SHAPE = (
    r"weight grid of shape \(1, 1\) does not fit the first family's index "
    r"grid \(16, 16\)"
)
GRID_CASES = {
    # a grid that does not fit the 16 x 16 index grid of the first family
    "shape-mismatch": (np.ones((1, 1)), SHAPE, SHAPE),
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

    @pytest.mark.parametrize(
        "spec, message",
        [
            (MixedSpaceSpec(1.0, 2.0, 0, np.ones((4, 4))), UNSUPPORTED),
            (MixedSpaceSpec(2.0, 2.0, 0, np.ones((4, 4)) + np.eye(4)), RANK_ONE),
            (MixedSpaceSpec(2.0, 2.0, 0, np.ones((3, 3))), "does not fit"),
            # the outer-sup route inverts the subnormal column factor
            (MixedSpaceSpec(2.0, np.inf, 0, np.outer(SUBNORMAL_FIRST, np.ones(4))), POSITIVE),
        ],
        ids=["exponents", "not-rank-one", "shape", "reciprocal-overflows"],
    )
    def test_refusal_computes_no_galerkin_matrix(self, count_calls, spec, message):
        """A grid or an exponent pair without a budget is refused before
        either family's Galerkin matrix is built."""
        calls = count_calls(tensor_kernels, "_galerkin")
        pair, rot = canonical_dual(onb(4)), rotated_onb(4, 0)
        with np.errstate(over="ignore"), pytest.raises(PreconditionError, match=message):
            verify_frame_independence(
                random_operator(4, 4, seed=3), (pair, pair), (rot, rot), spec
            )
        assert calls == []


class TestWeightGridsBeyondTheFloatRange:
    """Weights whose products overflow to inf or underflow to 0 are
    rejected with the grid message and no NumPy warning (pytest runs with
    ``error::RuntimeWarning``, so a warning would fail these tests)."""

    RUNS = {
        **WEIGHTED,
        "compress_operator": lambda O, w1, w2: compress_operator(
            O, GABOR, GABOR, w1, w2, 0.1
        ),
    }

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    @pytest.mark.parametrize("verifier", sorted(RUNS))
    def test_rejected_without_warning(self, verifier, scale):
        w = np.full(N, scale)
        with pytest.raises(PreconditionError, match=GRID):
            self.RUNS[verifier](OP, w, w)

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_tensor_weights(self, scale):
        w = np.full(N, scale)
        with pytest.raises(PreconditionError, match=GRID):
            MixedSpaceSpec(2.0, np.inf, 0, coorbit.tensor_weights(w, w))


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


ROUTE = "^op-norm needs p = 1 or q = inf, got p="


class TestOpnormRoutes:
    """Op-norm intervals are enclosed out of ``l^1`` (``p = 1``) or into
    ``l^inf`` (``q = inf``) only, the routes of the Schur-test
    characterisations; any other route is refused before any work, so
    the pair gets no entry in the store."""

    @pytest.mark.parametrize(
        "p, q",
        [(p, q) for p in (1.5, 2.0, 3.0, np.inf) for q in (1.0, 1.5, 2.0, 3.0)],
    )
    def test_other_routes_are_refused(self, p, q):
        pair = canonical_dual(finite_gabor(8, 2, 2, gaussian_window(8)))
        src = coorbit.CoorbitSpec(pair, coorbit.SeqSpaceSpec(p, ONES))
        dst = coorbit.CoorbitSpec(pair, coorbit.SeqSpaceSpec(q, ONES))
        with pytest.raises(PreconditionError, match=ROUTE):
            coorbit.coorbit_opnorm(OP, src, dst)
        assert pair not in localisation._memo


MERCEDES = canonical_dual(mercedes())
W3 = np.ones(3)
O2 = random_operator(2, 2, seed=6)
SEEDED = {
    "coorbit_opnorm": lambda seed: coorbit.coorbit_opnorm(
        O2,
        coorbit.CoorbitSpec(MERCEDES, coorbit.SeqSpaceSpec(1.0, W3)),
        coorbit.CoorbitSpec(MERCEDES, coorbit.SeqSpaceSpec(np.inf, W3)),
        seed=seed,
    ),
    "verify_outer": lambda seed: verify_outer(
        O2, MERCEDES, MERCEDES, W3, W3, seed=seed
    ),
    "schur_characterization": lambda seed: schur_characterization(
        O2, MERCEDES, MERCEDES, W3, W3, 1.5, "ii", seed=seed
    ),
    "run_suite": lambda seed: run_suite("fast", seed),
}


class TestSeedIsAnInteger:
    """A seed is a Python or NumPy integer that is not a bool.  A float
    was used truncated (1.5 and 1.9 drew seed 1's probes) but reported as
    given, and a string went into the report."""

    @pytest.mark.parametrize(
        "seed", [1.5, 1.9, 1.0, np.float64(1.0), "1", True, np.bool_(True), None]
    )
    @pytest.mark.parametrize("entry", sorted(SEEDED))
    def test_other_seeds_are_refused(self, entry, seed):
        with pytest.raises(PreconditionError, match="^seed must be an integer, got "):
            SEEDED[entry](seed)

    @pytest.mark.parametrize("seed", [1, np.int64(1), np.int32(1), np.uint8(1)])
    def test_integer_seeds_are_reported_as_ints(self, seed):
        report = SEEDED["verify_outer"](seed)
        assert type(report.seed) is int
        assert report == SEEDED["verify_outer"](1)
        assert type(SEEDED["run_suite"](seed)["seed"]) is int


# each public entry that takes a norm exponent, and the text before the
# exponent in its message
EXPONENT_ENTRIES = {
    "SeqSpaceSpec": (lambda p: coorbit.SeqSpaceSpec(p, W3), "exponent "),
    "MixedSpaceSpec-p": (
        lambda p: MixedSpaceSpec(p, 2.0, 0, np.ones((3, 3))),
        "exponent ",
    ),
    "MixedSpaceSpec-q": (
        lambda p: MixedSpaceSpec(2.0, p, 0, np.ones((3, 3))),
        "exponent ",
    ),
    "schur_weighted_bound": (
        lambda p: localisation.schur_weighted_bound(np.eye(3), W3, p),
        "exponent p=",
    ),
    "schur_characterization": (
        lambda p: schur_characterization(O2, MERCEDES, MERCEDES, W3, W3, p, "ii"),
        "exponent p=",
    ),
    "schatten_check": (
        lambda p: schatten_check(O2, MERCEDES, MERCEDES, p),
        "Schatten exponent p=",
    ),
}


class TestExponentIsARealNumber:
    """An exponent is a Python or NumPy integer or float that is not a
    bool.  ``float(p)`` ran ``True`` as p = 1 and ``"1.5"`` as 1.5, and
    raised ``ValueError`` or ``TypeError`` on ``"abc"`` and ``None``."""

    @pytest.mark.parametrize(
        "p",
        [True, np.bool_(True), "1.5", "abc", None, 1.5 + 0j, np.array(1.5), [1.5]],
        ids=repr,
    )
    @pytest.mark.parametrize("entry", sorted(EXPONENT_ENTRIES))
    def test_other_exponents_are_refused(self, entry, p):
        run, label = EXPONENT_ENTRIES[entry]
        message = f"^{re.escape(f'{label}{p!r}')} is not a real number$"
        with pytest.raises(PreconditionError, match=message):
            run(p)

    @pytest.mark.parametrize(
        "p", [1, np.int64(2), np.uint8(1), np.float32(1.5), np.float64(2.0)], ids=repr
    )
    @pytest.mark.parametrize("entry", sorted(EXPONENT_ENTRIES))
    def test_real_exponents_run_as_floats(self, entry, p):
        run, _ = EXPONENT_ENTRIES[entry]
        got, expected = run(p), run(float(p))
        if isinstance(got, theorems.VerificationReport):
            got, expected = got.to_json(), expected.to_json()
        elif not isinstance(got, float):  # a spec keeps its exponents
            names = ("p", "q") if isinstance(got, MixedSpaceSpec) else ("p",)
            got = [(type(getattr(got, n)), getattr(got, n)) for n in names]
            expected = [(float, getattr(expected, n)) for n in names]
        assert repr(got) == repr(expected)

    @pytest.mark.parametrize("entry", sorted(EXPONENT_ENTRIES))
    def test_integer_beyond_the_float_range_is_refused(self, entry):
        """``float(10**400)`` raises ``OverflowError``."""
        run, label = EXPONENT_ENTRIES[entry]
        message = f"^{re.escape(label)}1{'0' * 400} is beyond the float range$"
        with pytest.raises(PreconditionError, match=message):
            run(10**400)

    @pytest.mark.parametrize("entry", sorted(EXPONENT_ENTRIES))
    def test_range_messages_are_kept(self, entry):
        run, label = EXPONENT_ENTRIES[entry]
        top = "2" if entry == "schatten_check" else "inf"
        message = f"^{re.escape(f'{label}0.5 outside [1, {top}]')}$"
        with pytest.raises(PreconditionError, match=message):
            run(0.5)


# each generator argument that must be an integer: (call, the name in the
# message, a valid value)
GENERATOR_INTEGERS = {
    "onb-d": (lambda v: onb(v), "d", 4),
    "finite_gabor-N": (lambda v: finite_gabor(v, 2, 2, gaussian_window(8)), "N", 8),
    "finite_gabor-a": (lambda v: finite_gabor(8, v, 2, gaussian_window(8)), "a", 2),
    "finite_gabor-b": (lambda v: finite_gabor(8, 2, v, gaussian_window(8)), "b", 2),
    "decaying_perturbation-d": (
        lambda v: decaying_perturbation(v, 4.0, 0.05),
        "d",
        4,
    ),
    "decaying_perturbation-seed": (
        lambda v: decaying_perturbation(4, 4.0, 0.05, seed=v),
        "seed",
        2,
    ),
    "random_operator-d2": (lambda v: random_operator(v, 3), "d2", 3),
    "random_operator-d1": (lambda v: random_operator(3, v), "d1", 3),
    "random_operator-seed": (lambda v: random_operator(3, 3, seed=v), "seed", 1),
    "random_operator-width": (
        lambda v: random_operator(3, 3, kind="banded", width=v),
        "width",
        1,
    ),
    "random_operator-rank": (
        lambda v: random_operator(3, 3, kind="lowrank", rank=v),
        "rank",
        1,
    ),
    "substream-seed": (lambda v: substream(v, "test").standard_normal(4), "seed", 1),
}
NOT_INTEGERS = [1.5, 2.9, 2.0, np.float64(2.0), "2", True, np.bool_(True), None]


def _generated_bits(x):
    if isinstance(x, Frame):
        return x.vectors.tobytes(), x.index_set
    return x.dtype, x.tobytes()


class TestGeneratorIntegers:
    """Generator sizes, ``width``, ``rank`` and seeds are Python or NumPy
    integers, not bools.  ``substream`` read ``int(seed)``, so seed 1.5
    drew seed 1's stream; a float size raised ``TypeError`` or
    ``IndexError``, and a float ``width`` was accepted."""

    @pytest.mark.parametrize(
        "entry, value",
        [
            (entry, value)
            for entry in sorted(GENERATOR_INTEGERS)
            for value in NOT_INTEGERS
            # width=None and rank=None mean "not given"
            if not (value is None and entry.endswith(("width", "rank")))
        ],
        ids=repr,
    )
    def test_other_values_are_refused(self, entry, value):
        run, name, _ = GENERATOR_INTEGERS[entry]
        message = f"^{re.escape(f'{name} must be an integer, got {value!r}')}$"
        with pytest.raises(PreconditionError, match=message):
            run(value)

    @pytest.mark.parametrize("kind", [np.int64, np.int32, np.uint8])
    @pytest.mark.parametrize("entry", sorted(GENERATOR_INTEGERS))
    def test_integers_keep_their_bits(self, entry, kind):
        run, _, value = GENERATOR_INTEGERS[entry]
        assert _generated_bits(run(kind(value))) == _generated_bits(run(value))


ONB4 = canonical_dual(onb(4))
ONES4 = np.ones(4)
O4 = random_operator(4, 4, seed=9)
# each public real-valued parameter that is not a norm exponent: (call,
# the text before the value in its message, a value outside its range and
# that range's message)
REAL_PARAMETERS = {
    "JaffardParams": (
        lambda v: JaffardParams(v, ONB4.frame.index_set),
        "decay exponent ",
        -1,
        "decay exponent must be finite and >= 0, got -1.0",
    ),
    "poly_weight": (
        lambda v: poly_weight(ONB4.frame.index_set, v),
        "weight exponent ",
        np.inf,
        "weight exponent must be finite",
    ),
    "compress_operator": (
        lambda v: compress_operator(O4, ONB4, ONB4, ONES4, ONES4, v),
        "threshold ",
        -1.0,
        "threshold must be nonnegative, got -1.0",
    ),
    "localisation_report": (
        lambda v: localisation_report(
            ONB4, JaffardParams(3.0, ONB4.frame.index_set), threshold=v
        ),
        "threshold ",
        np.nan,
        "threshold must not be NaN",
    ),
    "decaying_perturbation-s": (
        lambda v: decaying_perturbation(8, v, 0.05, seed=1),
        "decay ",
        -1,
        "decay must be a nonnegative number",
    ),
    "decaying_perturbation-eps": (
        lambda v: decaying_perturbation(8, 4.0, v, seed=1),
        "amplitude ",
        np.inf,
        "amplitude must be a nonnegative finite number",
    ),
}


def _real_bits(x):
    """Every value of a result, with the type of each float field."""
    if isinstance(x, tuple):  # compress_operator
        return x[0].tobytes(), _real_bits(x[1])
    if isinstance(x, np.ndarray):
        return x.tobytes()
    if isinstance(x, JaffardParams):
        return type(x.exponent), x.exponent
    if isinstance(x, Frame):  # decaying_perturbation
        return x.vectors.tobytes()
    return repr(x.to_json()), type(x.threshold)


class TestRealParametersAreRealNumbers:
    """Decay and weight exponents, thresholds and perturbation decays
    and amplitudes are Python or NumPy integers or floats that are not
    bools, as norm exponents are.  ``float(...)`` ran ``"3"`` as 3.0, and
    ``True`` ran as 1 where no ``float`` was taken, and a report kept the
    bool; ``decaying_perturbation`` raised a bare ``TypeError`` on
    ``"4"`` and ``None``."""

    @pytest.mark.parametrize(
        "value",
        [True, np.bool_(True), "3", "abc", None, 3 + 0j, np.array(3.0), [3.0]],
        ids=repr,
    )
    @pytest.mark.parametrize("entry", sorted(REAL_PARAMETERS))
    def test_other_values_are_refused(self, entry, value):
        run, label, _, _ = REAL_PARAMETERS[entry]
        message = f"^{re.escape(f'{label}{value!r}')} is not a real number$"
        with pytest.raises(PreconditionError, match=message):
            run(value)

    @pytest.mark.parametrize("entry", sorted(REAL_PARAMETERS))
    def test_integer_beyond_the_float_range_is_refused(self, entry):
        run, label, _, _ = REAL_PARAMETERS[entry]
        message = f"^{re.escape(label)}1{'0' * 400} is beyond the float range$"
        with pytest.raises(PreconditionError, match=message):
            run(10**400)

    @pytest.mark.parametrize(
        "value", [3, np.int64(2), np.uint8(1), np.float32(1.5), np.float64(2.0)],
        ids=repr,
    )
    @pytest.mark.parametrize("entry", sorted(REAL_PARAMETERS))
    def test_real_values_run_as_floats(self, entry, value):
        run, _, _, _ = REAL_PARAMETERS[entry]
        assert _real_bits(run(value)) == _real_bits(run(float(value)))

    def test_integer_decay_draws_the_float_frame(self):
        # the decay labels the random stream; it was the label "4", not
        # "4.0", and drew another frame
        frame = decaying_perturbation(8, 4, 0.05, seed=1)
        assert _real_bits(frame) == _real_bits(decaying_perturbation(8, 4.0, 0.05, seed=1))

    @pytest.mark.parametrize("entry", sorted(REAL_PARAMETERS))
    def test_range_messages_are_kept(self, entry):
        run, _, value, expected = REAL_PARAMETERS[entry]
        with pytest.raises(PreconditionError, match=f"^{re.escape(expected)}$"):
            run(value)
