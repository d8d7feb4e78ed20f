"""Property tests: every verifier passes on random decaying frames with
polynomial weights, every verdict is a function of the numbers its report
prints, operator-norm enclosures stay ordered, the canonical dual
reconstructs, the Galerkin projection is idempotent, and JSON round trips
are bit-exact."""

import json
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from framelab.frames import (
    Frame,
    IndexSet,
    analysis,
    canonical_dual,
    frame_from_json,
    frame_to_json,
    linear_index_set,
    synthesis,
)
from framelab.coorbit import MixedSpaceSpec
from framelab.generators import decaying_perturbation, onb, random_operator, substream
from framelab.localisation import poly_weight
from framelab.numeric import matrix_from_json, matrix_to_json
from framelab.tensor_kernels import (
    correspondence_residual,
    galerkin,
    galerkin_from_json,
    galerkin_to_json,
    synthesize_kernel,
)
from framelab.theorems import (
    schatten_check,
    schur_characterization,
    verify_frame_independence,
    verify_inner,
    verify_outer,
    verify_projective,
)


# random decaying frames: decaying_perturbation(d, decay, eps, seed=seed)
DECAYING = dict(
    d=st.sampled_from([4, 6, 8]),
    decay=st.floats(2.0, 4.0),
    eps=st.floats(0.0, 0.2),
    seed=st.integers(0, 2**16),
)
PROPERTY_SETTINGS = settings(
    derandomize=True, max_examples=25, deadline=None, database=None
)


@PROPERTY_SETTINGS
@given(
    **DECAYING,
    t=st.sampled_from([0.0, 1.0]),
    p=st.sampled_from([1.0, 1.5, 2.0, 3.0, np.inf]),
)
def test_verifiers_pass_on_decaying_frames(d, decay, eps, seed, t, p):
    pair = canonical_dual(decaying_perturbation(d, decay, eps, seed=seed))
    w = poly_weight(pair.frame.index_set, t)
    O = random_operator(d, d, seed=seed)

    reports = [verify_outer(O, pair, pair, w, w, seed=seed)]
    for variant in ("i", "ii"):
        reports.append(
            schur_characterization(O, pair, pair, w, w, p, variant, seed=seed)
        )
    for rep in reports:
        assert rep.passed, rep.to_json()
        assert rep.details["opnorm_lower"] <= rep.details["opnorm_upper"]

    inner = verify_inner(O, pair, pair, w, w)
    assert inner.passed, inner.to_json()
    projective = verify_projective(O, pair, pair, w, w)
    assert projective.passed, projective.to_json()


def _holds(x, c, y):
    """``x <= c * y`` up to the report tolerance ``1e-9``, on finite
    numbers only: an infinite side or budget checks nothing."""
    finite = all(math.isfinite(v) for v in (x, c, y))
    return finite and x <= c * y * (1.0 + 1e-9)


def _onb_clause(rep):
    """A unit budget makes the op-norm bound an equality: ratio one."""
    if rep.constant_budget <= 1.0 + 1e-12 and math.isfinite(rep.ratio):
        return abs(rep.ratio - 1.0) <= 1e-9
    return True


def _verdict(rep):
    """The pass flag recomputed from the report's printed numbers."""
    lhs, rhs, budget, details = rep.lhs, rep.rhs, rep.constant_budget, rep.details
    if rep.name in ("outer", "schur-i", "schur-ii"):
        kernel = lhs if rep.name == "outer" else rhs
        c_a, c_b = details["gram_schur_bound"], details["dual_gram_schur_bound"]
        assert budget == max(c_a, c_b)
        return (
            _holds(kernel, c_b, details["opnorm_upper"])
            and _holds(details["opnorm_lower"], c_a, kernel)
            and _onb_clause(rep)
        )
    if rep.name == "inner":
        return (
            _holds(rhs, 1.0, lhs)
            and _holds(lhs, budget, rhs)
            and details["reconstruction_residual"] <= 1e-9
        )
    if rep.name == "projective":
        return _holds(lhs, 1.0, rhs) and _holds(rhs, budget, lhs)
    if rep.name == "independence":
        b_ab, b_ba = details["budget_ab"], details["budget_ba"]
        assert budget == max(b_ab, b_ba)
        return _holds(rhs, b_ab, lhs) and _holds(lhs, b_ba, rhs)
    assert rep.name == "schatten"
    return _holds(lhs, budget, rhs)


def _draw_weights(kind, pair, rng):
    n = pair.frame.cardinality
    if kind == "poly":
        return poly_weight(pair.frame.index_set, 1.5)
    if kind == "random":
        return np.exp(rng.uniform(-5.0, 5.0, n))
    w = np.ones(n)
    if kind == "extreme":  # drives the Schur budgets to inf
        w[0], w[-1] = 1e154, 1e-154
    return w


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(
    d=st.sampled_from([2, 3, 4]),
    extra=st.sampled_from([0, 0, 2, 5]),
    seed=st.integers(0, 2**16),
    weights=st.sampled_from(["unit", "poly", "random", "extreme"]),
    operator=st.sampled_from(["dense", "zero", "huge"]),
    p=st.sampled_from([1.0, 1.5, 2.0, 3.0, np.inf]),
)
def test_every_verdict_is_a_function_of_its_numbers(
    d, extra, seed, weights, operator, p
):
    """Each of the six verifiers' pass flags is the budget rule applied to
    the report's own ``lhs``, ``rhs``, ``constant_budget`` and
    ``details``, also for zero operators, sides that overflow and
    infinite budgets."""
    rng = substream(seed, "test-properties", "verdicts")
    if extra == 0 and seed % 2:
        frame = decaying_perturbation(d, 3.0, 0.2, seed=seed)
    else:
        frame = Frame.from_vectors(random_operator(d + extra, d, seed=seed))
    pair = canonical_dual(frame)
    w = _draw_weights(weights, pair, rng)
    O = {
        "dense": random_operator(d, d, seed=seed + 1),
        "zero": np.zeros((d, d)),
        "huge": 1e307 * random_operator(d, d, seed=seed + 1),
    }[operator]
    other = canonical_dual(onb(d))
    n = pair.frame.cardinality
    grid = np.outer(w, w) if n == d else np.full((n, n), 2.0)
    q = p if p <= 2.0 else np.inf  # independence: p = q or an outer sup

    with np.errstate(all="ignore"):
        reports = [
            verify_inner(O, pair, pair, w, w),
            verify_projective(O, pair, pair, w, w),
            verify_frame_independence(
                O, (pair, pair), (other, other), MixedSpaceSpec(p, q, 0, grid)
            ),
            schatten_check(O, pair, pair, min(p, 2.0)),
        ]
        if operator != "huge":  # the op-norm probes overflow there
            reports.append(verify_outer(O, pair, pair, w, w, seed=seed))
            for variant in ("i", "ii"):
                reports.append(
                    schur_characterization(O, pair, pair, w, w, p, variant, seed=seed)
                )
    for rep in reports:
        assert rep.passed is _verdict(rep), rep.to_json()
        if not math.isfinite(rep.constant_budget):
            assert not rep.passed


FINITE = st.floats(allow_nan=False, allow_infinity=False)
MODERATE = st.floats(-1e3, 1e3)


@st.composite
def complex_arrays(draw, shape, elements=FINITE):
    n = int(np.prod(shape))
    parts = draw(st.lists(elements, min_size=2 * n, max_size=2 * n))
    A = np.empty(n, dtype=complex)
    A.real = parts[:n]
    A.imag = parts[n:]
    return A.reshape(shape)


@PROPERTY_SETTINGS
@given(data=st.data(), **DECAYING)
def test_canonical_dual_reconstructs(data, d, decay, eps, seed):
    pair = canonical_dual(decaying_perturbation(d, decay, eps, seed=seed))
    f = data.draw(complex_arrays((d,), MODERATE))
    rebuilt = synthesis(pair.dual, analysis(pair.frame, f))
    assert np.linalg.norm(rebuilt - f) <= 1e-12 * max(np.linalg.norm(f), 1.0)


@PROPERTY_SETTINGS
@given(data=st.data(), **DECAYING)
def test_galerkin_projection_is_idempotent(data, d, decay, eps, seed):
    pair = canonical_dual(decaying_perturbation(d, decay, eps, seed=seed))
    O = random_operator(d, d, seed=seed)
    assert correspondence_residual(galerkin(O, pair, pair), pair, pair) <= 1e-12

    k = data.draw(complex_arrays((d, d), MODERATE))
    once = galerkin(synthesize_kernel(k, pair, pair), pair, pair)
    twice = galerkin(synthesize_kernel(once, pair, pair), pair, pair)
    scale = max(float(np.max(np.abs(once))), 1.0)
    assert float(np.max(np.abs(twice - once))) / scale <= 1e-12


def _through_json(obj):
    return json.loads(json.dumps(obj))


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(data=st.data(), rows=st.integers(1, 4), cols=st.integers(1, 4))
def test_json_round_trips_are_bit_exact(data, rows, cols):
    M = data.draw(complex_arrays((rows, cols)))
    back = matrix_from_json(_through_json(matrix_to_json(M)))
    assert back.tobytes() == M.tobytes()

    index_i, index_j = linear_index_set(rows), IndexSet("cyclic", cols)
    k, back_i, back_j = galerkin_from_json(
        _through_json(galerkin_to_json(M, index_i, index_j))
    )
    assert k.tobytes() == M.tobytes()
    assert (back_i, back_j) == (index_i, index_j)

    # a scaled basis with signed-zero off-diagonals keeps the family spanning
    head = data.draw(complex_arrays((cols, cols), st.sampled_from([0.0, -0.0])))
    scale = st.floats(1.0, 2.0) | st.floats(-2.0, -1.0)
    head.real[np.diag_indices(cols)] = data.draw(
        st.lists(scale, min_size=cols, max_size=cols)
    )
    tail = data.draw(complex_arrays((rows, cols), st.floats(-10.0, 10.0)))
    frame = Frame.from_vectors(np.vstack([head, tail]))
    back = frame_from_json(_through_json(frame_to_json(frame)))
    assert back.vectors.tobytes() == frame.vectors.tobytes()
    assert back.index_set == frame.index_set
