"""Sequence-space norms, coorbit norms/pairings and operator-norm
intervals."""

import numpy as np
import pytest

from framelab.coorbit import (
    CoorbitSpec,
    MixedSpaceSpec,
    SeqSpaceSpec,
    atomic_decomposition,
    coorbit_norm,
    coorbit_opnorm,
    coorbit_pairing,
    mixed_norm,
    tensor_weights,
    weighted_seq_norm,
)
from framelab.frames import (
    Frame,
    canonical_dual,
    cross_gram,
    dual_pair,
    gram,
    synthesis,
)
from framelab.generators import (
    decaying_perturbation,
    finite_gabor,
    gaussian_window,
    mercedes,
    onb,
    substream,
)
from framelab.localisation import poly_weight, schur_weighted_bound
from framelab.numeric import PreconditionError


def e1e1e2_pair():
    return canonical_dual(
        Frame.from_vectors(np.array([[1, 0], [1, 0], [0, 1]], dtype=complex))
    )


def random_vec(d, seed):
    rng = substream(seed, "test-coorbit", "vec", d)
    return rng.standard_normal(d) + 1j * rng.standard_normal(d)


class TestWeightedSeqNorm:
    def test_euclidean(self):
        spec = SeqSpaceSpec(2.0, np.ones(3))
        assert weighted_seq_norm(np.array([1.0, -2.0, 2.0]), spec) == 3.0

    def test_weighted_l1(self):
        spec = SeqSpaceSpec(1.0, np.array([1.0, 2.0]))
        assert weighted_seq_norm(np.array([1.0, 1.0]), spec) == 3.0

    def test_sup(self):
        spec = SeqSpaceSpec(np.inf, np.ones(2))
        assert weighted_seq_norm(np.array([3.0, -4.0]), spec) == 4.0

    def test_length_mismatch(self):
        with pytest.raises(PreconditionError):
            weighted_seq_norm(np.ones(3), SeqSpaceSpec(1.0, np.ones(2)))

    def test_bad_exponent(self):
        with pytest.raises(PreconditionError):
            SeqSpaceSpec(0.5, np.ones(2))


class TestMixedNorm:
    def test_column_sums_then_sup(self):
        spec = MixedSpaceSpec(1.0, np.inf, 0, np.ones((2, 2)))
        assert mixed_norm(np.ones((2, 2)), spec) == 2.0

    def test_row_norms_then_sup(self):
        spec = MixedSpaceSpec(2.0, np.inf, 1, np.ones((2, 2)))
        k = np.array([[1.0, 2.0], [3.0, 4.0]])  # rows = first index
        assert mixed_norm(k, spec) == pytest.approx(5.0)

    @pytest.mark.parametrize("p", [1.0, 2.0, np.inf])
    def test_flattening_oracle_for_equal_exponents(self, p):
        rng = substream(4, "test-coorbit", "mixed", str(p))
        C = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
        W = rng.uniform(0.5, 2.0, (3, 5))
        flat = weighted_seq_norm(C.ravel(), SeqSpaceSpec(p, W.ravel()))
        for axis in (0, 1):
            spec = MixedSpaceSpec(p, p, axis, W)
            assert mixed_norm(C, spec) == pytest.approx(flat, rel=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(PreconditionError):
            mixed_norm(np.ones((2, 3)), MixedSpaceSpec(1.0, 1.0, 0, np.ones((2, 2))))


class TestCoorbitNorm:
    def test_onb_weighted(self):
        spec = CoorbitSpec(canonical_dual(onb(2)), SeqSpaceSpec(1.0, np.array([1.0, 2.0])))
        assert coorbit_norm(spec, np.array([1.0, 1.0])) == pytest.approx(3.0)

    def test_redundant_frame(self):
        spec = CoorbitSpec(e1e1e2_pair(), SeqSpaceSpec(1.0, np.ones(3)))
        assert coorbit_norm(spec, np.array([1.0, 0.0])) == pytest.approx(1.0)

    def test_mercedes(self):
        spec = CoorbitSpec(canonical_dual(mercedes()), SeqSpaceSpec(2.0, np.ones(3)))
        assert coorbit_norm(spec, np.array([0.0, 1.0])) == pytest.approx(
            np.sqrt(2.0 / 3.0)
        )

    def test_inclusion_inequality(self):
        pair = canonical_dual(decaying_perturbation(6, 3.0, 0.1, seed=2))
        w_small = np.ones(6)
        w_big = poly_weight(pair.frame.index_set, 1.0)
        for t in range(10):
            f = random_vec(6, seed=t)
            lo = coorbit_norm(CoorbitSpec(pair, SeqSpaceSpec(2.0, w_small)), f)
            hi = coorbit_norm(CoorbitSpec(pair, SeqSpaceSpec(1.0, w_big)), f)
            assert lo <= hi * (1 + 1e-9)


class TestCoorbitPairing:
    def test_onb_is_standard_inner_product(self):
        spec = CoorbitSpec(canonical_dual(onb(3)), SeqSpaceSpec(2.0, np.ones(3)))
        f, g = random_vec(3, seed=5), random_vec(3, seed=6)
        assert coorbit_pairing(spec, f, g) == pytest.approx(complex(np.vdot(g, f)))

    def test_self_pairing_is_energy(self):
        for pair in (e1e1e2_pair(), canonical_dual(mercedes())):
            spec = CoorbitSpec(pair, SeqSpaceSpec(2.0, np.ones(pair.frame.cardinality)))
            f = random_vec(2, seed=7)
            assert coorbit_pairing(spec, f, f) == pytest.approx(
                np.linalg.norm(f) ** 2, rel=1e-10
            )

    @pytest.mark.parametrize("p,q", [(1.0, np.inf), (2.0, 2.0), (4.0, 4.0 / 3.0)])
    def test_hoelder_bound(self, p, q):
        pair = canonical_dual(decaying_perturbation(5, 3.0, 0.1, seed=3))
        w = poly_weight(pair.frame.index_set, 0.5)
        spec_p = CoorbitSpec(pair, SeqSpaceSpec(p, w))
        spec_q_dual = CoorbitSpec(dual_pair(pair), SeqSpaceSpec(q, 1.0 / w))
        for t in range(10):
            f, g = random_vec(5, seed=20 + t), random_vec(5, seed=40 + t)
            lhs = abs(coorbit_pairing(spec_p, f, g))
            rhs = coorbit_norm(spec_p, f) * coorbit_norm(spec_q_dual, g)
            assert lhs <= rhs * (1 + 1e-10)


class TestAtomicDecomposition:
    def test_onb(self):
        spec = CoorbitSpec(canonical_dual(onb(2)), SeqSpaceSpec(1.0, np.ones(2)))
        np.testing.assert_allclose(
            atomic_decomposition(spec, np.array([5.0, 0.0])), [5.0, 0.0]
        )

    def test_zero(self):
        spec = CoorbitSpec(e1e1e2_pair(), SeqSpaceSpec(1.0, np.ones(3)))
        np.testing.assert_allclose(atomic_decomposition(spec, np.zeros(2)), 0.0)

    def test_gabor_reconstruction(self):
        pair = canonical_dual(finite_gabor(8, 2, 2, gaussian_window(8)))
        spec = CoorbitSpec(pair, SeqSpaceSpec(1.0, np.ones(16)))
        f = random_vec(8, seed=8)
        c = atomic_decomposition(spec, f)
        assert np.linalg.norm(synthesis(pair.frame, c) - f) <= 1e-9
        assert weighted_seq_norm(c, spec.seq) == coorbit_norm(spec, f)

    def test_requires_p1(self):
        spec = CoorbitSpec(e1e1e2_pair(), SeqSpaceSpec(2.0, np.ones(3)))
        with pytest.raises(PreconditionError):
            atomic_decomposition(spec, np.zeros(2))


class TestFrameIndependenceOfNorms:
    def test_ratio_within_cross_gram_bounds(self):
        d = 5
        pair_a = canonical_dual(onb(d))
        rng = substream(9, "test-coorbit", "rotation")
        q, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
        pair_b = canonical_dual(Frame.from_vectors(q))
        p = 2.0
        w = np.ones(d)
        sb_ab = schur_weighted_bound(cross_gram(pair_a.frame, pair_b.dual), w, p)
        sb_ba = schur_weighted_bound(cross_gram(pair_b.frame, pair_a.dual), w, p)
        spec_a = CoorbitSpec(pair_a, SeqSpaceSpec(p, w))
        spec_b = CoorbitSpec(pair_b, SeqSpaceSpec(p, w))
        product = sb_ab * sb_ba
        for t in range(100):
            f = random_vec(d, seed=100 + t)
            ratio = coorbit_norm(spec_b, f) / coorbit_norm(spec_a, f)
            assert 1.0 / (sb_ba * (1 + 1e-9)) <= ratio <= sb_ab * (1 + 1e-9)
            assert 1.0 / (product * (1 + 1e-9)) <= ratio <= product * (1 + 1e-9)


class TestElementNormBounds:
    @pytest.mark.parametrize("p", [1.0, 2.0])
    def test_primal_and_dual_elements(self, p):
        pairs = [
            canonical_dual(finite_gabor(8, 2, 2, gaussian_window(8))),
            canonical_dual(decaying_perturbation(8, 3.0, 0.1, seed=4)),
        ]
        for pair in pairs:
            n = pair.frame.cardinality
            for w in (np.ones(n), poly_weight(pair.frame.index_set, 1.0)):
                spec = CoorbitSpec(pair, SeqSpaceSpec(p, w))
                bound_primal = schur_weighted_bound(
                    cross_gram(pair.frame, pair.dual), w, p
                )
                bound_dual = schur_weighted_bound(gram(pair.dual), w, p)
                for i in range(n):
                    assert coorbit_norm(spec, pair.frame.vectors[i]) <= (
                        bound_primal * w[i] * (1 + 1e-9)
                    )
                    assert coorbit_norm(spec, pair.dual.vectors[i]) <= (
                        bound_dual * w[i] * (1 + 1e-9)
                    )


class TestCoorbitOpnorm:
    def test_onb_l1_to_sup(self):
        pair = canonical_dual(onb(2))
        src = CoorbitSpec(pair, SeqSpaceSpec(1.0, np.ones(2)))
        dst = CoorbitSpec(pair, SeqSpaceSpec(np.inf, np.ones(2)))
        O = np.array([[1.0, 2.0], [3.0, 4.0]])
        interval = coorbit_opnorm(O, src, dst)
        assert interval.lower == interval.upper == pytest.approx(4.0)

    def test_identity_l1_to_l1(self):
        pair = canonical_dual(onb(3))
        w = np.array([1.0, 3.0, 0.5])
        src = CoorbitSpec(pair, SeqSpaceSpec(1.0, w))
        dst = CoorbitSpec(pair, SeqSpaceSpec(1.0, w))
        interval = coorbit_opnorm(np.eye(3), src, dst)
        assert interval.lower == pytest.approx(1.0)
        assert interval.upper == pytest.approx(1.0)

    def test_interval_encloses_brute_force_l2(self):
        pair = canonical_dual(mercedes())
        w = np.ones(3)
        src = CoorbitSpec(pair, SeqSpaceSpec(2.0, w))
        dst = CoorbitSpec(pair, SeqSpaceSpec(2.0, w))
        rng = substream(11, "test-coorbit", "opnorm")
        O = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        interval = coorbit_opnorm(O, src, dst, seed=1)
        # brute force: H^2 with unit weights has norm equivalent via the
        # analysis map; maximize over many probes
        best = 0.0
        for t in range(2000):
            f = random_vec(2, seed=5000 + t)
            best = max(best, coorbit_norm(dst, O @ f) / coorbit_norm(src, f))
        assert interval.lower <= best * (1 + 1e-9)
        assert best <= interval.upper * (1 + 1e-9)
        assert interval.lower <= interval.upper

    def test_gabor_consistency_budget(self):
        pair = canonical_dual(finite_gabor(8, 2, 2, gaussian_window(8)))
        n = pair.frame.cardinality
        src = CoorbitSpec(pair, SeqSpaceSpec(1.0, np.ones(n)))
        dst = CoorbitSpec(pair, SeqSpaceSpec(np.inf, np.ones(n)))
        rng = substream(12, "test-coorbit", "gabor-op")
        O = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        interval = coorbit_opnorm(O, src, dst, seed=2)
        assert 0 < interval.lower <= interval.upper
        # gap controlled by how far frame elements are from weighted
        # unit atoms in the source norm
        budget = schur_weighted_bound(
            cross_gram(pair.frame, pair.dual), np.ones(n), 1.0
        )
        assert interval.upper <= budget * interval.lower * (1 + 1e-9)

    def test_shape_mismatch(self):
        pair = canonical_dual(onb(2))
        src = CoorbitSpec(pair, SeqSpaceSpec(1.0, np.ones(2)))
        with pytest.raises(PreconditionError):
            coorbit_opnorm(np.ones((3, 3)), src, src)


class TestTensorWeights:
    def test_outer_product(self):
        W = tensor_weights([1.0, 2.0], [3.0, 4.0])
        np.testing.assert_allclose(W, [[3.0, 4.0], [6.0, 8.0]])
