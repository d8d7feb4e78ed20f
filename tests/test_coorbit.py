"""Sequence-space norms, coorbit norms/pairings and operator-norm
intervals."""

import gc
import sys
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import framelab.numeric
from framelab import coorbit, localisation
from framelab.coorbit import (
    CoorbitSpec,
    MixedSpaceSpec,
    OpNormInterval,
    SeqSpaceSpec,
    _extremizers,
    _holder_conjugate,
    _pnorm,
    _pnorm_along,
    _random_probes,
    coorbit_norm,
    coorbit_opnorm,
    mixed_norm,
    tensor_weights,
    weighted_seq_norm,
)
from framelab.frames import (
    Frame,
    FramePair,
    analysis,
    canonical_dual,
    cross_gram,
    gram,
    synthesis,
)
from framelab.generators import (
    decaying_perturbation,
    finite_gabor,
    gaussian_window,
    mercedes,
    onb,
    random_operator,
    substream,
)
from framelab.localisation import (
    _schur_bound,
    poly_weight,
    schur_weighted_bound,
)
from framelab.numeric import PreconditionError, as_matrix
from framelab.tensor_kernels import galerkin
from framelab.theorems import schur_characterization, verify_outer


def is_orthonormal_basis(pair):
    """Whether the primal frame is an orthonormal basis (Gram equals the
    identity to ``1e-12`` and the cardinality matches the dimension)."""
    frame = pair.frame
    if frame.cardinality != frame.space_dim:
        return False
    return float(np.max(np.abs(gram(frame) - np.eye(frame.space_dim)))) <= 1e-12


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
    @pytest.mark.parametrize("p, q", [(1.0, 1.0), (2.0, np.inf), (1.5, 3.0)])
    def test_non_finite_input_is_rejected(self, bad, p, q):
        """The input is checked only when the norm is not finite, which
        every NaN or inf entry makes it."""
        C = np.ones((3, 3), dtype=complex)
        C[1, 2] = bad
        for axis in (0, 1):
            with pytest.raises(PreconditionError, match="NaN or Inf entries"):
                mixed_norm(C, MixedSpaceSpec(p, q, axis, np.ones((3, 3))))

    @pytest.mark.parametrize("shape", [(4,), (2, 2, 1), ()])
    def test_non_matrix_input_is_rejected_first(self, shape):
        spec = MixedSpaceSpec(1.0, 1.0, 0, np.ones((2, 2)))
        with pytest.raises(PreconditionError, match=f"got ndim={len(shape)}"):
            mixed_norm(np.full(shape, np.nan), spec)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("p, q", [(1.0, 1.0), (2.0, np.inf), (np.inf, 2.0)])
    def test_finite_input_whose_norm_overflows_is_inf(self, p, q):
        spec = MixedSpaceSpec(p, q, 0, np.full((4, 4), 10.0))
        assert mixed_norm(np.full((4, 4), 1e307), spec) == np.inf


def _reference_pnorm_along(A, p, axis):
    a = np.abs(A)
    if np.isinf(p):
        return a.max(axis=axis, initial=0.0)
    if p == 1.0:
        return a.sum(axis=axis)
    s = a.max(axis=axis, keepdims=True, initial=0.0)
    s[s == 0.0] = 1.0
    a /= s
    np.power(a, p, out=a)
    return a.sum(axis=axis) ** (1.0 / p) * np.squeeze(s, axis=axis)


def _reference_mixed_norm(C, spec):
    """The earlier two-``abs`` formula, kept as the bit-for-bit oracle
    for the one-pass weighted mixed norm on finite input."""
    weighted = np.abs(as_matrix(C)) * spec.weights
    inner = _reference_pnorm_along(weighted, spec.p, axis=spec.inner_axis)
    return float(_reference_pnorm_along(inner, spec.q, axis=None))


# the (p, q, inner_axis) triples of the galerkin-scale benchmark
BENCHMARK_MIXED = [(1.0, np.inf, 0), (2.0, 2.0, 0), (np.inf, 1.0, 1), (1.5, 3.0, 1)]
MIXED_EXPONENTS = [1.0, 1.5, 2.0, 3.0, np.inf]
MIXED_TRIPLES = BENCHMARK_MIXED + [
    (p, q, axis) for p in MIXED_EXPONENTS for q in MIXED_EXPONENTS for axis in (0, 1)
]


class TestOnePassMixedNorm:
    """The one-pass norm sums ``|k| * W`` in the memory layout of ``k``.
    The reference's product ``abs(k) * W`` takes that layout only when
    numpy reuses the ``abs`` temporary in place, which it does for
    arrays of at least 256 KiB; a smaller column-major product comes out
    row-major, so its sums may round differently in the last bit."""

    @staticmethod
    def galerkin_case(N):
        pair = canonical_dual(finite_gabor(N, 2, 2, gaussian_window(N)))
        w = poly_weight(pair.frame.index_set, 1.0)
        k = galerkin(random_operator(N, N, seed=3), pair, pair)
        return k, tensor_weights(w, w)

    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    def test_bit_identical_to_reference(self, layout):
        k, W = self.galerkin_case(32)  # 256 x 256 complex: 512 KiB of |k|
        if layout == "F":
            k = np.asfortranarray(k)
        elif layout == "strided":
            k, W = k[::2, ::3], W[::2, ::3]
        for p, q, axis in MIXED_TRIPLES:
            spec = MixedSpaceSpec(p, q, axis, W)
            assert mixed_norm(k, spec) == _reference_mixed_norm(k, spec), (p, q, axis)

    def test_small_column_major_within_rounding(self):
        k, W = self.galerkin_case(16)  # 64 x 64: below numpy's reuse size
        kf = np.asfortranarray(k)
        rtol = k.shape[0] * np.finfo(float).eps
        for p, q, axis in MIXED_TRIPLES:
            spec = MixedSpaceSpec(p, q, axis, W)
            ref = _reference_mixed_norm(kf, spec)
            assert mixed_norm(kf, spec) == pytest.approx(ref, rel=rtol, abs=0)
            assert mixed_norm(k, spec) == ref


class TestWeightGridValidation:
    MESSAGE = "^weight grid must be 2-D, positive, finite$"

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 0.0, -1.0])
    def test_rejects_entry(self, bad):
        W = np.ones((2, 3))
        W[1, 2] = bad
        with pytest.raises(PreconditionError, match=self.MESSAGE):
            MixedSpaceSpec(1.0, 1.0, 0, W)

    @pytest.mark.parametrize("shape", [(6,), (1, 2, 3)])
    def test_rejects_non_2d(self, shape):
        with pytest.raises(PreconditionError, match=self.MESSAGE):
            MixedSpaceSpec(1.0, 1.0, 0, np.ones(shape))


class TestOverflowGivesInf:
    """A slice whose largest entry overflows has norm inf, not NaN."""

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, 400.0, np.inf])
    def test_pnorm_along_inf_slice(self, p):
        A = np.ones((3, 2))
        A[1, 0] = np.inf
        np.testing.assert_array_equal(
            _pnorm_along(A, p, axis=0), [np.inf, _pnorm(np.ones(3), p)]
        )

    def test_complex_entries_overflowing_abs(self):
        spec = MixedSpaceSpec(2.0, 2.0, 0, np.ones((3, 3)))
        with np.errstate(over="ignore"):
            assert mixed_norm(np.full((3, 3), 1e308 + 1e308j), spec) == np.inf

    def test_weight_times_entry_overflows(self):
        k = np.ones((3, 3))
        W = np.ones((3, 3))
        k[1, 2] = W[1, 2] = 1e200
        spec = MixedSpaceSpec(2.0, 2.0, 0, W)
        with np.errstate(over="ignore"):
            assert mixed_norm(k, spec) == np.inf

    @pytest.mark.parametrize(
        "p, q",
        [
            (1.5, 3.0), (1.0, 2.0), (3.0, np.inf),
            (1.0, 1.0), (2.0, 2.0), (np.inf, np.inf),
        ],
    )
    def test_opnorm_upper_bound(self, p, q, capfd):
        """The weight-scaled matrix overflows; at p = q the Schur bound
        must not reject it, and at p = q = 2 it must not reach LAPACK,
        whose error handler prints a complaint."""
        pair = canonical_dual(finite_gabor(8, 2, 2, gaussian_window(8)))
        n = pair.frame.cardinality
        src = CoorbitSpec(pair, SeqSpaceSpec(p, np.full(n, 1e-160)))
        dst = CoorbitSpec(pair, SeqSpaceSpec(q, np.full(n, 1e160)))
        with np.errstate(over="ignore", invalid="ignore"):
            interval = coorbit_opnorm(random_operator(8, 8, seed=0), src, dst)
        assert interval == (np.inf, np.inf)
        assert capfd.readouterr() == ("", "")

    @pytest.mark.parametrize("p", [2.0, np.inf])
    def test_probe_blocks_skip_overflowed_rows(self, p):
        """An extremizer row of ``B`` whose largest entry overflows would
        divide inf/inf; it is skipped, every other row keeps its probe,
        and the interval is unchanged."""
        pair = canonical_dual(finite_gabor(8, 2, 2, gaussian_window(8)))
        n, d = pair.frame.cardinality, pair.frame.space_dim
        A = random_operator(8, 8, seed=0)
        w1 = np.full(n, 1e-160)
        M = pair.dual.vectors.conj() @ A @ pair.frame.vectors.T
        for w2, extremizers in (
            (np.full(n, 1e160), 0),
            (np.where(np.arange(n) < d, 1e160, 1.0), n - d),
        ):
            with np.errstate(over="ignore", invalid="raise"):
                B = M * w2[:, None] / w1[None, :]
                blocks = _extremizers(B, pair.frame.vectors, (1.0 / w1).repeat(2), p)
            X = np.concatenate(blocks, axis=1) if blocks else np.empty((d, 0))
            assert np.isfinite(X).all()
            assert X.shape == (d, extremizers)
        src = CoorbitSpec(pair, SeqSpaceSpec(p, w1))
        dst = CoorbitSpec(pair, SeqSpaceSpec(p, np.full(n, 1e160)))
        with np.errstate(over="ignore", invalid="raise"):
            assert coorbit_opnorm(A, src, dst) == (np.inf, np.inf)


def _unsynthesized(B, p):
    """The extremizers of the rows of ``B``, one per row, before
    synthesis: with the identity as frame and unit weights the synthesis
    is a product with the identity, which is exact."""
    n = B.shape[1]
    blocks = _extremizers(B, np.eye(n, dtype=complex), np.ones(2 * n), p)
    return np.concatenate(blocks, axis=1).T


def _phase_rows():
    """Complex entries with magnitudes from 1e-320 (subnormal) to 1e300
    and seeded angles, two rows of them, and a row holding zeros."""
    rng = substream(3, "test-coorbit", "phase")
    r = np.logspace(-320, 300, 64)
    z = r * np.exp(1j * rng.uniform(-np.pi, np.pi, (2, 64)))
    zeros = np.zeros(64, dtype=complex)
    zeros[::2] = z[0, ::2]
    return np.vstack([z, zeros])


class TestExtremizerPhase:
    """Extremizer phases are ``conj(z) / |z|`` with phase 1 at zero; they
    are unit, finite and attain Hoelder's inequality at every magnitude."""

    EPS = np.finfo(float).eps

    def test_phase_matches_angle_form(self):
        # at p = inf every extremizer entry is its phase
        B = _phase_rows()
        phase = _unsynthesized(B, np.inf)
        nonzero = B != 0
        ref = np.exp(-1j * np.angle(B[nonzero]))
        assert np.abs(phase[nonzero] - ref).max() <= 4 * self.EPS
        assert np.all(phase[~nonzero] == 1.0)

    @pytest.mark.parametrize("p", [1.001, 1.5, 2.0, 3.0, 400.0, np.inf])
    def test_holder_equality(self, p):
        rng = substream(4, "test-coorbit", "holder")
        B = rng.standard_normal((5, 16)) + 1j * rng.standard_normal((5, 16))
        B[1] *= 1e-310
        B[2] *= 1e300
        B[3, ::3] = 0.0
        X = _unsynthesized(B, p)
        for b, x in zip(B, X):
            # an exact power-of-two rescale of b keeps the sum in range
            e = np.frexp(np.abs(b).max())[1]
            b = np.ldexp(b.view(float), -e).view(complex)
            pairing = np.sum(b * x)
            bound = _pnorm(b, _holder_conjugate(p)) * _pnorm(x, p)
            assert abs(pairing - bound) <= 8 * self.EPS * bound, p

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0, np.inf])
    def test_finite_without_floating_point_exceptions(self, p):
        pair = canonical_dual(finite_gabor(8, 2, 2, gaussian_window(8)))
        n = pair.frame.cardinality
        B = random_operator(n, n, seed=5)
        B[:4] *= 1e-310
        B[4:8] *= 1e300
        B[8, ::2] = 0.0
        B[9] = 0.0
        with np.errstate(all="raise"):
            blocks = _extremizers(B, pair.frame.vectors, np.ones(2 * n), p)
        assert sum(block.shape[1] for block in blocks) == n
        for block in blocks:
            assert np.isfinite(block).all()


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
    """The duality pairing ``sum_i (C_dual f)_i conj((C_frame g)_i)`` is the
    plain inner product ``<f, g>``, because ``D_frame C_dual = I``."""

    @staticmethod
    def pairing(pair, f, g):
        return np.vdot(analysis(pair.frame, g), analysis(pair.dual, f))

    def test_onb_is_standard_inner_product(self):
        pair = canonical_dual(onb(3))
        f, g = random_vec(3, seed=5), random_vec(3, seed=6)
        assert self.pairing(pair, f, g) == pytest.approx(complex(np.vdot(g, f)))

    def test_self_pairing_is_energy(self):
        for pair in (e1e1e2_pair(), canonical_dual(mercedes())):
            f = random_vec(2, seed=7)
            assert self.pairing(pair, f, f) == pytest.approx(
                np.linalg.norm(f) ** 2, rel=1e-10
            )

    @pytest.mark.parametrize("p,q", [(1.0, np.inf), (2.0, 2.0), (4.0, 4.0 / 3.0)])
    def test_hoelder_bound(self, p, q):
        pair = canonical_dual(decaying_perturbation(5, 3.0, 0.1, seed=3))
        w = poly_weight(pair.frame.index_set, 0.5)
        spec_p = CoorbitSpec(pair, SeqSpaceSpec(p, w))
        swapped = FramePair(frame=pair.dual, dual=pair.frame)
        spec_q_dual = CoorbitSpec(swapped, SeqSpaceSpec(q, 1.0 / w))
        for t in range(10):
            f, g = random_vec(5, seed=20 + t), random_vec(5, seed=40 + t)
            lhs = abs(np.vdot(g, f))
            rhs = coorbit_norm(spec_p, f) * coorbit_norm(spec_q_dual, g)
            assert lhs <= rhs * (1 + 1e-10)


class TestAtomicDecomposition:
    """At p = 1 the dual-frame coefficients ``analysis(dual, f)`` are an
    atomic decomposition of ``f`` whose ``l^1_w`` norm is the coorbit norm."""

    def test_onb(self):
        pair = canonical_dual(onb(2))
        np.testing.assert_allclose(
            analysis(pair.dual, np.array([5.0, 0.0])), [5.0, 0.0]
        )

    def test_zero(self):
        np.testing.assert_allclose(analysis(e1e1e2_pair().dual, np.zeros(2)), 0.0)

    def test_gabor_reconstruction(self):
        pair = canonical_dual(finite_gabor(8, 2, 2, gaussian_window(8)))
        spec = CoorbitSpec(pair, SeqSpaceSpec(1.0, np.ones(16)))
        f = random_vec(8, seed=8)
        c = analysis(pair.dual, f)
        assert np.linalg.norm(synthesis(pair.frame, c) - f) <= 1e-9
        assert weighted_seq_norm(c, spec.seq) == coorbit_norm(spec, f)


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


def _reference_holder_extremizer(row, p):
    x = np.zeros_like(row)
    if not np.any(row):
        x[0] = 1.0
        return x
    if p == 1.0:
        i = int(np.argmax(np.abs(row)))
        x[i] = np.conj(row[i]) / abs(row[i])
        return x
    if np.isinf(p):
        nz = row != 0
        x[nz] = np.conj(row[nz]) / np.abs(row[nz])
        x[~nz] = 1.0
        return x
    q = _holder_conjugate(p)
    mag = np.abs(row) ** (q - 1.0)
    phase = np.ones_like(row)
    nz = row != 0
    phase[nz] = np.conj(row[nz]) / np.abs(row[nz])
    x = phase * mag
    return x / _pnorm(x, p)


def _reference_opnorm(O, src, dst, seed=0):
    """The earlier one-probe-at-a-time sweep with its orthonormal-basis
    branch, kept as the oracle for the blocked sweep."""
    A = as_matrix(O)
    d1 = src.pair.frame.space_dim
    p, q = src.seq.p, dst.seq.p
    w1, w2 = src.seq.weight, dst.seq.weight
    if p == 1.0 and is_orthonormal_basis(src.pair):
        best = 0.0
        for i in range(src.pair.frame.cardinality):
            image = A @ src.pair.frame.vectors[i]
            best = max(best, coorbit_norm(dst, image) / w1[i])
        return OpNormInterval(best, best)
    M = dst.pair.dual.vectors.conj() @ A @ src.pair.frame.vectors.T
    B = M * w2[:, None] / w1[None, :]
    uppers = [_pnorm(_pnorm_along(B, _holder_conjugate(p), axis=1), q)]
    if p == 1.0:
        uppers.append(float(np.max(_pnorm_along(B, q, axis=0), initial=0.0)))
    if p == q:
        c_row = float(np.max(np.abs(B).sum(axis=1), initial=0.0))
        c_col = float(np.max(np.abs(B).sum(axis=0), initial=0.0))
        theta = 0.0 if np.isinf(p) else 1.0 / p
        uppers.append(c_row ** (1.0 - theta) * c_col**theta)
    if p == 2.0 and q == 2.0:
        uppers.append(float(np.linalg.norm(B, 2)))
    upper = min(uppers)
    candidates = list(src.pair.frame.vectors)
    candidates.extend(np.eye(d1, dtype=complex))
    for j in range(B.shape[0]):
        x = _reference_holder_extremizer(B[j], p)
        candidates.append(synthesis(src.pair.frame, x / w1))
    rng = substream(seed, "coorbit", "opnorm")
    for _ in range(10 * d1):
        candidates.append(rng.standard_normal(d1) + 1j * rng.standard_normal(d1))
    lower = 0.0
    for f in candidates:
        denom = coorbit_norm(src, f)
        if denom > 0.0:
            lower = max(lower, coorbit_norm(dst, A @ f) / denom)
    return OpNormInterval(min(lower, upper), upper)


EPS = np.finfo(float).eps


def assert_exact_inside(got, ref):
    """The closed-form ``l^2 -> l^inf`` interval ``got`` lies inside the
    probe sweep's ``ref`` up to rounding (2 eps below its lower end, 16
    eps above its upper end), and is closed to 32 eps relative."""
    assert got.lower >= ref.lower - 2 * EPS * ref.upper
    assert got.upper <= ref.upper * (1 + 16 * EPS)
    assert got.upper - got.lower <= 32 * EPS * got.upper
    assert (got.upper_source, got.lower_source) == ("exact-l2", "witness")


EXPONENTS = [1.0, 1.5, 2.0, 3.0, np.inf]
FAMILIES = {
    "onb": lambda: onb(4),
    "mercedes": mercedes,
    "gabor": lambda: finite_gabor(8, 2, 2, gaussian_window(8)),
    "decaying": lambda: decaying_perturbation(8, 2.0, 0.2, seed=4),
}


class TestBlockedProbeSweep:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @pytest.mark.parametrize("t", [0.0, 1.0])
    def test_matches_per_probe_reference(self, family, t):
        pair = canonical_dual(FAMILIES[family]())
        w = poly_weight(pair.frame.index_set, t)
        d = pair.frame.space_dim
        O = random_operator(d, d, seed=9)
        for p in EXPONENTS:
            for q in EXPONENTS:
                src = CoorbitSpec(pair, SeqSpaceSpec(p, w))
                dst = CoorbitSpec(pair, SeqSpaceSpec(q, w))
                got = coorbit_opnorm(O, src, dst, seed=5)
                ref = _reference_opnorm(O, src, dst, seed=5)
                assert got.lower <= got.upper
                if (p, q) == (2.0, np.inf):
                    assert_exact_inside(got, ref)
                else:
                    np.testing.assert_allclose(got, ref, rtol=1e-14, atol=0)

    @pytest.mark.parametrize("seed", range(4))
    def test_orthonormal_basis_l1_source_is_exact(self, seed):
        rng = substream(seed, "test-coorbit", "onb-exact")
        d = 5
        U, _ = np.linalg.qr(random_operator(d, d, seed=100 + seed))
        for frame in (onb(d), Frame.from_vectors(U)):
            pair = canonical_dual(frame)
            assert is_orthonormal_basis(pair)
            w1 = rng.uniform(0.5, 3.0, d)
            w2 = rng.uniform(0.5, 3.0, d)
            O = random_operator(d, d, seed=seed)
            for q in EXPONENTS:
                src = CoorbitSpec(pair, SeqSpaceSpec(1.0, w1))
                dst = CoorbitSpec(pair, SeqSpaceSpec(q, w2))
                assert coorbit_opnorm(O, src, dst, seed=seed).exact

    def test_probes_skip_per_vector_validation(self, monkeypatch):
        calls = []
        real = framelab.numeric.as_vector

        def counting(f):
            calls.append(1)
            return real(f)

        for name, module in list(sys.modules.items()):
            if name.startswith("framelab") and getattr(module, "as_vector", 0) is real:
                monkeypatch.setattr(module, "as_vector", counting)
        pair = canonical_dual(finite_gabor(8, 2, 2, gaussian_window(8)))
        w = np.ones(pair.frame.cardinality)
        src = CoorbitSpec(pair, SeqSpaceSpec(1.5, w))
        dst = CoorbitSpec(pair, SeqSpaceSpec(3.0, w))
        coorbit_opnorm(random_operator(8, 8, seed=1), src, dst)
        assert calls == []


def _probe_matrix(B, frame, w1, p, seed):
    """Every lower-bound probe as the columns of one ``d x K`` matrix:
    frame vectors, basis vectors, the extremizers of ``B`` and ``10 * d``
    seeded random probes, in that order.  The interval scores the same
    columns without forming this matrix."""
    d = frame.space_dim
    parts = [frame.vectors.T, np.eye(d, dtype=complex)]
    parts += _extremizers(B, frame.vectors, (1.0 / w1).repeat(2), p)
    parts.append(_random_probes(seed, d))
    return np.concatenate(parts, axis=1)


def _probe_blocks(B, frame, w1, p, seed):
    """The earlier probe generator: the same probes as ``_probe_matrix``,
    in ``d x k`` blocks with ``k <= d`` and ten separate random draws.
    Its extremizer phase is the package's, ``conj(z) / |z|`` (1 at 0),
    so the two layouts can be compared bit for bit."""
    V = frame.vectors
    d = frame.space_dim
    for i in range(0, len(V), d):
        yield V[i : i + d].T
    yield np.eye(d, dtype=complex)
    if p > 1.0:
        expo = _holder_conjugate(p) - 1.0
        for j in range(0, B.shape[0], d):
            rows = B[j : j + d]
            mag = np.abs(rows)
            top = mag.max(axis=1, keepdims=True)
            finite = np.isfinite(top[:, 0])
            if not finite.any():
                continue
            rows, mag, top = rows[finite], mag[finite], top[finite]
            top[top == 0.0] = 1.0
            phase = np.divide(rows.conj(), mag, out=np.ones_like(rows), where=mag > 0)
            X = phase * (mag / top) ** expo
            yield V.T @ (X / w1).T
    rng = substream(seed, "coorbit", "opnorm")
    for _ in range(10):
        z = rng.standard_normal((d, 2, d))
        yield (z[:, 0] + 1j * z[:, 1]).T


def _blocked_opnorm(O, src, dst, seed=0):
    """The earlier block-by-block sweep, which scored each block of
    ``_probe_blocks`` on its own, kept as the exact oracle for the
    one-matrix chunked sweep."""
    A = as_matrix(O)
    p, q = src.seq.p, dst.seq.p
    w1, w2 = src.seq.weight, dst.seq.weight
    analysis2 = dst.pair.dual.vectors.conj() @ A
    B = (analysis2 @ src.pair.frame.vectors.T) * w2[:, None] / w1[None, :]
    uppers = [_pnorm(_pnorm_along(B, _holder_conjugate(p), axis=1), q)]
    if p == 1.0:
        uppers.append(float(np.max(_pnorm_along(B, q, axis=0), initial=0.0)))
    if p == q:
        uppers.append(_schur_bound(np.abs(B), p))
    if p == 2.0 and q == 2.0 and np.isfinite(B).all():
        uppers.append(float(np.linalg.norm(B, 2)))
    upper = min(uppers)
    analysis1 = src.pair.dual.vectors.conj()
    lower = 0.0
    for P in _probe_blocks(B, src.pair.frame, w1, p, seed):
        den = _pnorm_along((analysis1 @ P) * w1[:, None], p, axis=0)
        num = _pnorm_along((analysis2 @ P) * w2[:, None], q, axis=0)
        live = den > 0.0
        lower = max(lower, float(np.max(num[live] / den[live], initial=0.0)))
    return OpNormInterval(min(lower, upper), upper)


ORACLE_FAMILIES = {
    "onb": lambda: onb(4),
    "mercedes": mercedes,
    "gabor8": lambda: finite_gabor(8, 2, 2, gaussian_window(8)),
    "gabor32": lambda: finite_gabor(32, 2, 2, gaussian_window(32)),
    "decaying32": lambda: decaying_perturbation(32, 4.0, 0.05, seed=0),
}


class TestOneMatrixProbeSweep:
    """All probes form one matrix scored in bounded chunks; the probes,
    their order and each column's formulas are those of the earlier
    block sweep.  From ``l^2`` into ``l^inf`` no probe is scored: the
    closed form lies inside the sweep's interval.

    A complex matrix product may round a column differently depending
    on where it falls in the product: OpenBLAS computes the last
    ``N mod 4`` columns of a ``zgemm`` with a different kernel from the
    rest.  When ``d`` is a multiple of 4 the earlier blocks were whole
    groups of four, so the intervals are the same to the bit; Mercedes
    (``d = 2``) scored every probe in the tail kernel and agrees to a
    few units in the last place."""

    @pytest.mark.parametrize("family", sorted(ORACLE_FAMILIES))
    @pytest.mark.parametrize("t", [0.0, 1.0])
    def test_intervals_equal_block_sweep(self, family, t):
        pair = canonical_dual(ORACLE_FAMILIES[family]())
        w = poly_weight(pair.frame.index_set, t)
        d = pair.frame.space_dim
        O = random_operator(d, d, seed=3)
        for p in EXPONENTS:
            for q in EXPONENTS:
                src = CoorbitSpec(pair, SeqSpaceSpec(p, w))
                dst = CoorbitSpec(pair, SeqSpaceSpec(q, w))
                got = coorbit_opnorm(O, src, dst, seed=7)
                ref = _blocked_opnorm(O, src, dst, seed=7)
                if (p, q) == (2.0, np.inf):
                    assert_exact_inside(got, ref)
                elif d % 4 == 0:
                    assert got == ref, (p, q)
                else:
                    eps = np.finfo(float).eps
                    np.testing.assert_allclose(got, ref, rtol=4 * eps, atol=0)

    @pytest.mark.parametrize("family", sorted(ORACLE_FAMILIES))
    def test_overflow_weights_equal_block_sweep(self, family):
        pair = canonical_dual(ORACLE_FAMILIES[family]())
        n, d = pair.frame.cardinality, pair.frame.space_dim
        O = random_operator(d, d, seed=4)
        w1 = np.full(n, 1e-160)
        for w2 in (np.full(n, 1e160), np.where(np.arange(n) < d, 1e160, 1.0)):
            for p in EXPONENTS:
                for q in EXPONENTS:
                    src = CoorbitSpec(pair, SeqSpaceSpec(p, w1))
                    dst = CoorbitSpec(pair, SeqSpaceSpec(q, w2))
                    with np.errstate(over="ignore", invalid="ignore"):
                        got = coorbit_opnorm(O, src, dst, seed=1)
                        ref = _blocked_opnorm(O, src, dst, seed=1)
                    assert got == ref, (p, q)

    @pytest.mark.parametrize("family", sorted(ORACLE_FAMILIES))
    @pytest.mark.parametrize("p", [1.0, 3.0])
    def test_probe_matrix_joins_the_blocks(self, family, p):
        pair = canonical_dual(ORACLE_FAMILIES[family]())
        n, d = pair.frame.cardinality, pair.frame.space_dim
        w1 = poly_weight(pair.frame.index_set, 1.0)
        B = cross_gram(pair.frame, pair.dual) * w1[:, None] / w1[None, :]
        P = _probe_matrix(B, pair.frame, w1, p, seed=2)
        blocks = np.concatenate(list(_probe_blocks(B, pair.frame, w1, p, 2)), axis=1)
        assert P.shape == (d, n + d + (n if p > 1.0 else 0) + 10 * d)
        assert np.array_equal(P, blocks)

    @pytest.mark.parametrize("d", [1, 3, 8, 16, 32])
    def test_one_random_draw_equals_ten(self, d):
        z = substream(6, "coorbit", "opnorm").standard_normal((10, d, 2, d))
        rng = substream(6, "coorbit", "opnorm")
        ten = np.stack([rng.standard_normal((d, 2, d)) for _ in range(10)])
        assert np.array_equal(z, ten)


class TestProbeMemo:
    """The seeded random probe block is drawn once per source pair and
    seed, and remembered in the pair's entries of the store."""

    @staticmethod
    def fresh_block(seed, d):
        z = substream(seed, "coorbit", "opnorm").standard_normal((10, d, 2, d))
        return (z[:, :, 0] + 1j * z[:, :, 1]).reshape(10 * d, d).T

    @staticmethod
    def interval(pair, seed, p=2.0):
        d = pair.frame.space_dim
        spec = CoorbitSpec(pair, SeqSpaceSpec(p, np.ones(pair.frame.cardinality)))
        return coorbit_opnorm(random_operator(d, d, seed=1), spec, spec, seed=seed)

    @pytest.mark.parametrize("d", [1, 3, 8, 16, 32])
    def test_block_is_the_fresh_draw_bit_for_bit(self, d):
        pair = canonical_dual(onb(d))
        self.interval(pair, 5)
        block = localisation._memo[pair][("random", 5)]
        assert block.shape == (d, 10 * d)
        assert block.tobytes() == self.fresh_block(5, d).tobytes()
        self.interval(pair, 5)
        assert localisation._memo[pair][("random", 5)] is block

    def test_block_is_read_only(self):
        block = _random_probes(0, 4)
        assert not block.flags.writeable
        with pytest.raises(ValueError):
            block[0, 0] = 1.0

    def test_cleared_memo_gives_the_same_interval(self, monkeypatch):
        draws = []
        monkeypatch.setattr(
            coorbit, "_random_probes", lambda *a: draws.append(a) or _random_probes(*a)
        )
        pair = canonical_dual(finite_gabor(8, 2, 2, gaussian_window(8)))
        w = poly_weight(pair.frame.index_set, 1.0)
        src = CoorbitSpec(pair, SeqSpaceSpec(1.5, w))
        dst = CoorbitSpec(pair, SeqSpaceSpec(3.0, 1.0 / w))
        O = random_operator(8, 8, seed=2)
        first = coorbit_opnorm(O, src, dst, seed=9)
        del localisation._memo[pair]
        again = coorbit_opnorm(O, src, dst, seed=9)
        assert again == first
        assert draws == [(9, 8), (9, 8)]
        assert coorbit_opnorm(O, src, dst, seed=9) == first
        assert len(draws) == 2

    def test_seeds_give_different_blocks(self):
        assert not np.array_equal(_random_probes(0, 8), _random_probes(1, 8))

    def test_memo_is_bounded(self):
        """Each seed adds a block and a denominator entry; the pair keeps
        the newest ``_ENTRIES_PER_OWNER``."""
        pair = canonical_dual(onb(2))
        for seed in range(10):
            self.interval(pair, seed)
        cap = localisation._ENTRIES_PER_OWNER
        keys = list(localisation._memo[pair])
        assert len(keys) == cap
        assert keys[-2:] == [("random", 9), (np.ones(2).tobytes(), 2.0, 9)]
        assert ("random", (20 - cap) // 2) in keys
        assert ("random", (20 - cap) // 2 - 1) not in keys


def fresh_denominators(pair, w, p, seed):
    """The denominators of the frame-vector, basis and random probes,
    computed afresh with NumPy's complex-by-real product, in column chunks
    of at most ``2**14 // n`` as the interval takes them."""
    n, d = pair.frame.cardinality, pair.frame.space_dim
    z = substream(seed, "coorbit", "opnorm").standard_normal((10, d, 2, d))
    random = (z[:, :, 0] + 1j * z[:, :, 1]).reshape(10 * d, d).T
    P = np.concatenate([pair.frame.vectors.T, np.eye(d), random], axis=1)
    analysis1 = pair.dual.vectors.conj()
    step = max(1, 2**14 // n)
    return np.concatenate(
        [
            _pnorm_along((analysis1 @ P[:, c : c + step]) * w[:, None], p, axis=0)
            for c in range(0, P.shape[1], step)
        ]
    )


MEMO_FAMILIES = {
    "onb": lambda: onb(4),
    "mercedes": mercedes,
    "gabor8": lambda: finite_gabor(8, 2, 2, gaussian_window(8)),
    "gabor32": lambda: finite_gabor(32, 2, 2, gaussian_window(32)),
    "decaying32": lambda: decaying_perturbation(32, 4.0, 0.05, seed=0),
}


class TestDenominatorMemo:
    """The denominators of the probes that do not depend on the operator
    are remembered in the source pair's entries of the store; every
    interval sees the values of a fresh computation."""

    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("family", sorted(MEMO_FAMILIES))
    def test_cold_and_warm_equal_fresh(self, family, weighted):
        pair = canonical_dual(MEMO_FAMILIES[family]())
        n, d = pair.frame.cardinality, pair.frame.space_dim
        w = poly_weight(pair.frame.index_set, 1.0) if weighted else np.ones(n)
        O = random_operator(d, d, seed=12)
        assert pair not in localisation._memo
        for p in EXPONENTS:
            src = CoorbitSpec(pair, SeqSpaceSpec(p, w))
            dst = CoorbitSpec(pair, SeqSpaceSpec(np.inf, 1.0 / w))
            key = ("l2", w.tobytes()) if p == 2.0 else (w.tobytes(), p, 3)
            first = coorbit_opnorm(O, src, dst, seed=3)
            cold = localisation._memo[pair][key]
            if p == 2.0:
                assert (w.tobytes(), p, 3) not in localisation._memo[pair]
            else:
                assert cold.tobytes() == fresh_denominators(pair, w, p, 3).tobytes()
                assert not cold.flags.writeable
            assert coorbit_opnorm(O, src, dst, seed=3) == first
            assert localisation._memo[pair][key] is cold
        # one denominator entry per exponent but 2, whose l^2 -> l^inf
        # interval takes the weighted Gram's entry, and one random block
        assert len(localisation._memo[pair]) == len(EXPONENTS) + 1

    def test_weights_changed_in_place_are_a_new_key(self):
        pair = canonical_dual(MEMO_FAMILIES["gabor8"]())
        w = poly_weight(pair.frame.index_set, 1.0)
        O = random_operator(8, 8, seed=13)
        first_w = w.tobytes()
        first = verify_outer(O, pair, pair, w, w).details["opnorm_lower"]
        w[0] *= 3.0
        second = verify_outer(O, pair, pair, w, w).details["opnorm_lower"]
        other = canonical_dual(MEMO_FAMILIES["gabor8"]())
        assert second != first
        assert second == verify_outer(O, other, other, w, w).details["opnorm_lower"]
        entries = localisation._memo[pair]
        assert list(entries) == [("random", 0), (first_w, 1.0, 0), (w.tobytes(), 1.0, 0)]
        assert entries[(w.tobytes(), 1.0, 0)].tobytes() == (
            fresh_denominators(pair, w, 1.0, 0).tobytes()
        )

    def test_entries_die_with_the_pair(self):
        gc.collect()
        before = len(localisation._memo)
        pair = canonical_dual(MEMO_FAMILIES["gabor8"]())
        spec = CoorbitSpec(pair, SeqSpaceSpec(2.0, np.ones(pair.frame.cardinality)))
        coorbit_opnorm(random_operator(8, 8, seed=14), spec, spec)
        assert len(localisation._memo) == before + 1
        alive = weakref.ref(pair)
        del pair, spec
        gc.collect()
        assert alive() is None
        assert len(localisation._memo) <= before

    def test_threads_sharing_a_pair_get_fresh_values(self):
        """Eight threads sweep 20 denominator keys and the random block
        over one pair, more than the 16 entries an owner keeps, so entries
        are evicted and refilled under contention."""
        make = MEMO_FAMILIES["gabor8"]
        pair, other = canonical_dual(make()), canonical_dual(make())
        O = random_operator(8, 8, seed=15)
        weights = [poly_weight(pair.frame.index_set, t) for t in (0.0, 0.5, 1.0, 1.5)]
        keys = [(w, p) for w in weights for p in EXPONENTS]

        def interval(pr, w, p):
            src = CoorbitSpec(pr, SeqSpaceSpec(p, w))
            dst = CoorbitSpec(pr, SeqSpaceSpec(2.0, w))
            return coorbit_opnorm(O, src, dst, seed=4)

        expected = [interval(other, w, p) for w, p in keys]

        def run(k):
            return [interval(pair, *keys[(k + i) % 20]) for i in range(60)]

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(run, k) for k in range(8)]
                results = [f.result(timeout=120) for f in futures]
        finally:
            sys.setswitchinterval(switch)
        for k, got in enumerate(results):
            assert got == [expected[(k + i) % 20] for i in range(60)]
        assert len(localisation._memo[pair]) == localisation._ENTRIES_PER_OWNER

    def test_opnorm_grid_misses_only_on_the_first_pass(self, monkeypatch):
        """The 33 verifier calls of one opnorm-grid op fill, per pair, one
        random block, four denominator entries (one per source exponent
        but 2), one weighted-Gram entry for variant ii at p = 2, and one
        Gram-sum entry for each of its frame and dual: 3, 12, 3 and 6
        fills, then none."""
        fills = {}

        def count(module, name):
            real = getattr(module, name)

            def counting(*args):
                fills[name] = fills.get(name, 0) + 1
                return real(*args)

            monkeypatch.setattr(module, name, counting)

        count(coorbit, "_random_probes")
        count(coorbit, "_probe_denominators")
        count(coorbit, "_weighted_analysis")
        count(localisation, "gram")
        rng = np.random.default_rng(5)
        cases = []
        for frame in (
            finite_gabor(16, 2, 2, gaussian_window(16)),
            finite_gabor(32, 2, 2, gaussian_window(32)),
            decaying_perturbation(32, 4.0, 0.05, seed=5),
        ):
            d = frame.space_dim
            O = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            cases.append((canonical_dual(frame), poly_weight(frame.index_set, 1.0), O))

        def one_pass():
            calls = 0
            for pair, w, O in cases:
                verify_outer(O, pair, pair, w, w, seed=5)
                calls += 1
                for p in EXPONENTS:
                    for variant in ("i", "ii"):
                        schur_characterization(O, pair, pair, w, w, p, variant, seed=5)
                        calls += 1
            return calls

        assert one_pass() == 33
        assert fills == {
            "_random_probes": 3,
            "_probe_denominators": 12,
            "_weighted_analysis": 3,
            "gram": 6,
        }
        fills.clear()
        assert one_pass() == 33
        assert fills == {}


EXACT_FAMILIES = {
    **FAMILIES,
    **ORACLE_FAMILIES,
    "onb12": lambda: onb(12),
    "gabor16": lambda: finite_gabor(16, 2, 2, gaussian_window(16)),
}


def mp_l2_to_sup_norm(O, pair1, pair2, w1, w2):
    """``max_i w2_i sqrt(r_i G^-1 r_i^H)`` at 50 digits from the float
    inputs, with ``r_i`` the rows of ``C_dual2 O`` and ``G`` the Gram of
    ``diag(w1) C_dual1``."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        C1 = pair1.dual.vectors.conj()
        A1 = mpmath.matrix([[mpmath.mpc(z) * w for z in row] for row, w in zip(C1, w1)])
        C2 = mpmath.matrix(pair2.dual.vectors.conj().tolist())
        R = C2 * mpmath.matrix(O.tolist())
        G = A1.H * A1
        best = mpmath.mpf(0)
        for i in range(R.rows):
            r = R[i, :]
            s2 = (r * mpmath.lu_solve(G, r.H))[0]
            best = max(best, w2[i] * mpmath.sqrt(mpmath.re(s2)))
        return best


class TestExactL2Interval:
    """From ``l^2_w1`` into ``l^inf_w2`` the interval is the closed form
    ``max_i w2_i ||L^-1 r_i^H||``, enclosed to a few units in the last
    place, from one remembered weighted Gram per source pair."""

    @staticmethod
    def specs(pair, w1, w2):
        return CoorbitSpec(pair, SeqSpaceSpec(2.0, w1)), CoorbitSpec(
            pair, SeqSpaceSpec(np.inf, w2)
        )

    @pytest.mark.parametrize("family", sorted(EXACT_FAMILIES))
    @pytest.mark.parametrize("t", [0.0, 1.0])
    def test_inside_the_probe_sweep(self, family, t):
        pair = canonical_dual(EXACT_FAMILIES[family]())
        w = poly_weight(pair.frame.index_set, t)
        d = pair.frame.space_dim
        for seed in (3, 9):
            O = random_operator(d, d, seed=seed)
            for w2 in (w, 1.0 / w):
                src, dst = self.specs(pair, w, w2)
                got = coorbit_opnorm(O, src, dst, seed=7)
                for ref in (
                    _blocked_opnorm(O, src, dst, seed=7),
                    _reference_opnorm(O, src, dst, seed=7),
                ):
                    assert_exact_inside(got, ref)

    @pytest.mark.parametrize(
        "family",
        ["mercedes", "onb", "gabor", "decaying"],
    )
    @pytest.mark.parametrize("t", [0.0, 1.0])
    def test_contains_the_50_digit_norm(self, family, t):
        pair = canonical_dual(FAMILIES[family]())
        w = poly_weight(pair.frame.index_set, t)
        d = pair.frame.space_dim
        for seed in range(3):
            O = random_operator(d, d, seed=seed)
            src, dst = self.specs(pair, w, 1.0 / w)
            got = coorbit_opnorm(O, src, dst)
            exact = mp_l2_to_sup_norm(O, pair, pair, w, 1.0 / w)
            assert got.lower <= exact <= got.upper

    @pytest.mark.parametrize("family", ["gabor", "decaying", "mercedes"])
    def test_certificate_holds_for_an_inexact_witness(self, family):
        """With a remembered inverse that is off by 1e-3 the witnesses
        are inexact; the residual term must still lift the upper bound
        over the 50-digit norm."""
        pair = canonical_dual(FAMILIES[family]())
        w = poly_weight(pair.frame.index_set, 1.0)
        d = pair.frame.space_dim
        O = random_operator(d, d, seed=22)
        src, dst = self.specs(pair, w, 1.0 / w)
        coorbit_opnorm(O, src, dst)
        key = ("l2", w.tobytes())
        A1, G_inv = localisation._memo[pair][key]
        off = G_inv + 1e-3 * np.abs(G_inv).max() * np.eye(d)
        localisation._memo[pair][key] = (A1, off)
        got = coorbit_opnorm(O, src, dst)
        exact = mp_l2_to_sup_norm(O, pair, pair, w, 1.0 / w)
        assert got.lower <= exact <= got.upper
        assert got.upper - got.lower <= 1e-2 * got.upper

    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("family", sorted(MEMO_FAMILIES))
    def test_cold_warm_and_cleared_are_bit_identical(self, family, weighted):
        pair = canonical_dual(MEMO_FAMILIES[family]())
        n, d = pair.frame.cardinality, pair.frame.space_dim
        w = poly_weight(pair.frame.index_set, 1.0) if weighted else np.ones(n)
        O = random_operator(d, d, seed=16)
        src, dst = self.specs(pair, w, 1.0 / w)
        cold = coorbit_opnorm(O, src, dst)
        assert list(localisation._memo[pair]) == [("l2", w.tobytes())]
        A1, G_inv = entry = localisation._memo[pair][("l2", w.tobytes())]
        assert not A1.flags.writeable and not G_inv.flags.writeable
        warm = coorbit_opnorm(O, src, dst)
        assert localisation._memo[pair][("l2", w.tobytes())] is entry
        del localisation._memo[pair]
        cleared = coorbit_opnorm(O, src, dst)
        for got in (warm, cleared):
            assert np.array(got).tobytes() == np.array(cold).tobytes()

    def test_weights_changed_in_place_are_a_new_key(self):
        pair = canonical_dual(MEMO_FAMILIES["gabor8"]())
        w = poly_weight(pair.frame.index_set, 1.0)
        O = random_operator(8, 8, seed=17)
        first_w = w.tobytes()
        first = coorbit_opnorm(O, *self.specs(pair, w, w))
        w[3] *= 5.0
        second = coorbit_opnorm(O, *self.specs(pair, w, w))
        other = canonical_dual(MEMO_FAMILIES["gabor8"]())
        assert second != first
        assert second == coorbit_opnorm(O, *self.specs(other, w, w))
        assert list(localisation._memo[pair]) == [("l2", first_w), ("l2", w.tobytes())]

    def test_entry_dies_with_the_pair(self):
        gc.collect()
        before = len(localisation._memo)
        pair = canonical_dual(MEMO_FAMILIES["gabor8"]())
        w = np.ones(pair.frame.cardinality)
        coorbit_opnorm(random_operator(8, 8, seed=18), *self.specs(pair, w, w))
        assert len(localisation._memo) == before + 1
        alive = weakref.ref(pair)
        del pair
        gc.collect()
        assert alive() is None
        assert len(localisation._memo) <= before

    @pytest.mark.parametrize("family", ["gabor8", "decaying8"])
    def test_subnormal_operator_gives_an_interval(self, family):
        """At unit weights the probe sweep raised on these operators,
        whose probe images are subnormal."""
        make = {
            "gabor8": lambda: finite_gabor(8, 2, 2, gaussian_window(8)),
            "decaying8": lambda: decaying_perturbation(8, 4.0, 0.05, seed=7),
        }[family]
        pair = canonical_dual(make())
        w = np.ones(pair.frame.cardinality)
        O = 1e-310 * random_operator(8, 8, seed=7)
        rep = schur_characterization(O, pair, pair, w, w, 2.0, "ii")
        lower, upper = rep.details["opnorm_lower"], rep.details["opnorm_upper"]
        assert 0.0 < lower <= upper < 1e-308
        unit = coorbit_opnorm(random_operator(8, 8, seed=7), *self.specs(pair, w, w))
        np.testing.assert_allclose(
            [lower, upper], np.multiply(unit, 1e-310), rtol=1e-10
        )

    def test_zero_operator(self):
        pair = canonical_dual(MEMO_FAMILIES["gabor8"]())
        w = np.ones(pair.frame.cardinality)
        got = coorbit_opnorm(np.zeros((8, 8)), *self.specs(pair, w, w))
        assert got == (0.0, 0.0)
        assert (got.upper_source, got.lower_source) == ("exact-l2", "none")

    def test_gram_that_cannot_be_inverted_falls_back_to_the_sweep(self):
        """A weight below 2**-1074 times the largest vanishes when the
        weights are scaled, so the weighted Gram is singular; the probe
        sweep still encloses the norm."""
        pair = canonical_dual(onb(2))
        w1 = np.array([1.0, 1e-320])
        src, dst = self.specs(pair, w1, np.ones(2))
        O = random_operator(2, 2, seed=19)
        with np.errstate(over="ignore"):
            got = coorbit_opnorm(O, src, dst, seed=2)
            ref = _blocked_opnorm(O, src, dst, seed=2)
        assert localisation._memo[pair][("l2", w1.tobytes())] is None
        assert got == ref
        assert got.upper_source != "exact-l2"


class TestIntervalSources:
    """Each interval names the bound that gave its upper end and the
    probe class that attained its lower one; a tie goes to the first
    class in the order frame, basis, random, extremizer."""

    def test_hand_built_interval_has_no_sources(self):
        interval = OpNormInterval(1.0, 2.0)
        assert interval == (1.0, 2.0)
        assert (interval.upper_source, interval.lower_source) == (None, None)
        named = OpNormInterval(1.0, 2.0, upper_source="row", lower_source="frame")
        assert named == interval

    @staticmethod
    def named_bounds(O, src, dst, seed):
        """Each upper bound by name, and each probe class's best ratio,
        by the one-probe-at-a-time formulas."""
        A = as_matrix(O)
        frame, d = src.pair.frame, src.pair.frame.space_dim
        (p, w1), (q, w2) = (src.seq.p, src.seq.weight), (dst.seq.p, dst.seq.weight)
        M = dst.pair.dual.vectors.conj() @ A @ frame.vectors.T
        B = M * w2[:, None] / w1[None, :]
        uppers = {"row": _pnorm(_pnorm_along(B, _holder_conjugate(p), axis=1), q)}
        if p == 1.0:
            uppers["column"] = float(np.max(_pnorm_along(B, q, axis=0)))
        if p == q:
            uppers["schur"] = _schur_bound(np.abs(B), p)
        if p == q == 2.0:
            uppers["spectral"] = float(np.linalg.norm(B, 2))
        rw1 = (1.0 / w1).repeat(2)
        probes = {
            "frame": frame.vectors.T,
            "basis": np.eye(d, dtype=complex),
            "random": _random_probes(seed, d),
            "extremizer": np.concatenate(
                [np.empty((d, 0)), *_extremizers(B, frame.vectors, rw1, p)], axis=1
            ),
        }
        lowers = {
            name: max(
                (coorbit_norm(dst, A @ f) / coorbit_norm(src, f) for f in P.T),
                default=0.0,
            )
            for name, P in probes.items()
        }
        return uppers, lowers

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_sources_name_the_attaining_bound(self, family):
        pair = canonical_dual(FAMILIES[family]())
        w = poly_weight(pair.frame.index_set, 1.0)
        d = pair.frame.space_dim
        O = random_operator(d, d, seed=20)
        for p in EXPONENTS:
            for q in EXPONENTS:
                if (p, q) == (2.0, np.inf):
                    continue
                src = CoorbitSpec(pair, SeqSpaceSpec(p, w))
                dst = CoorbitSpec(pair, SeqSpaceSpec(q, w))
                got = coorbit_opnorm(O, src, dst, seed=5)
                uppers, lowers = self.named_bounds(O, src, dst, 5)
                assert uppers[got.upper_source] == pytest.approx(got.upper, rel=1e-13)
                assert min(uppers.values()) >= got.upper * (1 - 1e-13)
                assert lowers[got.lower_source] == pytest.approx(got.lower, rel=1e-13)
                assert max(lowers.values()) <= got.lower * (1 + 1e-13)

    def test_frame_wins_a_tie_with_the_basis(self):
        """The frame of ``onb(d)`` is the standard basis, so both classes
        attain the column bound at p = 1; the row and column bounds tie
        at q = 1 as well."""
        pair = canonical_dual(onb(3))
        spec = CoorbitSpec(pair, SeqSpaceSpec(1.0, np.ones(3)))
        got = coorbit_opnorm(np.diag([1.0, 3.0, 2.0]), spec, spec)
        assert got == (3.0, 3.0)
        assert (got.upper_source, got.lower_source) == ("schur", "frame")

    def test_zero_operator_has_no_attaining_probe(self):
        pair = canonical_dual(onb(3))
        spec = CoorbitSpec(pair, SeqSpaceSpec(1.5, np.ones(3)))
        got = coorbit_opnorm(np.zeros((3, 3)), spec, spec)
        assert got == (0.0, 0.0)
        assert got.lower_source == "none"

    def test_verifier_details_name_the_sources(self):
        pair = canonical_dual(finite_gabor(8, 2, 2, gaussian_window(8)))
        w = poly_weight(pair.frame.index_set, 1.0)
        O = random_operator(8, 8, seed=21)
        outer = verify_outer(O, pair, pair, w, w)
        exact = schur_characterization(O, pair, pair, w, w, 2.0, "ii")
        assert exact.details["opnorm_upper_source"] == "exact-l2"
        assert exact.details["opnorm_lower_source"] == "witness"
        for rep in (outer, exact):
            assert rep.details["opnorm_lower_source"] in {
                "frame", "basis", "random", "extremizer", "witness"
            }


class TestIntervalExact:
    @pytest.mark.parametrize(
        "lower, upper, exact",
        [
            (1.0, 1.0, True),
            (0.0, 0.0, True),
            (1.0, 1.0 + 1e-13, True),
            (1.0, 1.1, False),
            (0.5, np.inf, False),
            (np.inf, np.inf, False),
        ],
    )
    def test_exact(self, lower, upper, exact):
        assert OpNormInterval(lower, upper).exact is exact


class TestIntervalOrder:
    """``lower <= upper`` is checked, not clamped away: rounding within
    16 eps relative is absorbed, a larger excess raises."""

    @staticmethod
    def diagonal_case():
        pair = canonical_dual(onb(3))
        spec = CoorbitSpec(pair, SeqSpaceSpec(2.0, np.ones(3)))
        return np.diag([3.0, 1.0, 1.0]), spec

    def _shrink_spectral_norm(self, monkeypatch, factor):
        real = np.linalg.norm
        monkeypatch.setattr(
            np.linalg, "norm", lambda B, ord=None: factor * real(B, ord)
        )

    def test_rounding_excess_is_clamped(self, monkeypatch):
        O, spec = self.diagonal_case()
        self._shrink_spectral_norm(monkeypatch, 1.0 - 4 * np.finfo(float).eps)
        interval = coorbit_opnorm(O, spec, spec)
        assert interval.lower == interval.upper < 3.0

    def test_broken_upper_bound_raises(self, monkeypatch):
        O, spec = self.diagonal_case()
        self._shrink_spectral_norm(monkeypatch, 0.5)
        with pytest.raises(FloatingPointError, match=r"3\.0 exceeds upper bound 1\.5"):
            coorbit_opnorm(O, spec, spec)

    def test_overflowed_probe_norms_are_skipped(self):
        """At ``1e307`` some probe images overflow to inf.  A probe norm
        that overflowed bounds nothing, so it is skipped instead of lifting
        the lower bound to inf above a finite upper bound."""
        pair = canonical_dual(onb(16))
        spec = CoorbitSpec(pair, SeqSpaceSpec(1.0, np.ones(16)))
        O = 1e307 * random_operator(16, 16, seed=7)
        with np.errstate(over="ignore", invalid="ignore"):
            interval = coorbit_opnorm(O, spec, spec, seed=5)
        assert np.isfinite(interval.upper)
        assert interval.exact


class TestExtremeExponents:
    def test_large_exponent_does_not_overflow(self):
        assert _pnorm(10.0 * np.ones(4), 400) == pytest.approx(10.0 * 4 ** 0.0025)

    def test_tiny_entries_do_not_underflow(self):
        assert _pnorm(np.full(4, 1e-200), 2.0) == pytest.approx(2e-200, abs=0)

    def test_schur_near_l1_stays_finite(self):
        pair = canonical_dual(finite_gabor(8, 2, 2, gaussian_window(8)))
        w = np.ones(pair.frame.cardinality)
        O = 10.0 * random_operator(8, 8, seed=0)
        for variant in ("i", "ii"):
            rep = schur_characterization(O, pair, pair, w, w, 1.001, variant)
            assert np.isfinite(rep.details["opnorm_upper"])
            assert 0 < rep.details["opnorm_lower"] <= rep.details["opnorm_upper"]


class TestTensorWeights:
    def test_outer_product(self):
        W = tensor_weights([1.0, 2.0], [3.0, 4.0])
        np.testing.assert_allclose(W, [[3.0, 4.0], [6.0, 8.0]])
