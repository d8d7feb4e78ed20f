"""Property tests: every verifier passes on random decaying frames with
polynomial weights, operator-norm enclosures stay ordered, the canonical
dual reconstructs, the Galerkin projection is idempotent, and JSON round
trips are bit-exact."""

import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from framelab.frames import (
    Frame,
    analysis,
    canonical_dual,
    cyclic_index_set,
    frame_from_json,
    frame_to_json,
    linear_index_set,
    synthesis,
)
from framelab.generators import decaying_perturbation, random_operator
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
    schur_characterization,
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

    _, inner = verify_inner(O, pair, pair, w, w)
    assert inner.passed, inner.to_json()
    projective = verify_projective(O, pair, pair, w, w)
    assert projective.passed, projective.to_json()


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

    index_i, index_j = linear_index_set(rows), cyclic_index_set(cols)
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
