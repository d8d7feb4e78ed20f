"""Property tests: every verifier passes on random decaying frames with
polynomial weights, and operator-norm enclosures stay ordered."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from framelab.frames import canonical_dual
from framelab.generators import decaying_perturbation, random_operator
from framelab.localisation import poly_weight
from framelab.theorems import (
    schur_characterization,
    verify_inner,
    verify_outer,
    verify_projective,
)


@settings(derandomize=True, max_examples=25, deadline=None, database=None)
@given(
    d=st.sampled_from([4, 6, 8]),
    decay=st.floats(2.0, 4.0),
    eps=st.floats(0.0, 0.2),
    seed=st.integers(0, 2**16),
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
