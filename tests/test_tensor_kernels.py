"""Kernels as matrices: rank-one tensors, Galerkin coefficients,
round trips and the coefficient projection."""

import json
import tracemalloc

import numpy as np
import pytest

from framelab.coorbit import MixedSpaceSpec, mixed_norm, tensor_weights
from framelab.frames import Frame, analysis, canonical_dual, cross_gram
from framelab.generators import (
    decaying_perturbation,
    finite_gabor,
    gaussian_window,
    mercedes,
    onb,
    random_operator,
    substream,
)
from framelab.numeric import PreconditionError
from framelab.tensor_kernels import (
    correspondence_residual,
    galerkin,
    galerkin_from_json,
    galerkin_to_json,
    synthesize_kernel,
)


def e1e1e2_pair():
    return canonical_dual(
        Frame.from_vectors(np.array([[1, 0], [1, 0], [0, 1]], dtype=complex))
    )


def tensor_element(pair1, pair2, i, j):
    """Tensor-frame element ``psi1_i (x) psi2_j``: the ``d2 x d1`` matrix
    ``psi2_j psi1_i^H``."""
    return np.outer(pair2.frame.vectors[j], pair1.frame.vectors[i].conj())


def flat_tensor_frame(pair1, pair2):
    """The tensor frame of ``d2 x d1`` kernels with index ``(i, j)``
    flattened row-major (``i`` slowest); the flat inner product is the
    Hilbert-Schmidt one."""
    V1, V2 = pair1.frame.vectors, pair2.frame.vectors
    (n1, d1), (n2, d2) = V1.shape, V2.shape
    return Frame.from_vectors(
        np.einsum("ja,ib->ijab", V2, V1.conj()).reshape(n1 * n2, d2 * d1)
    )


def rvec(d, seed):
    rng = substream(seed, "test-tensor", "vec", d)
    return rng.standard_normal(d) + 1j * rng.standard_normal(d)


class TestTensorFrame:
    def test_onb_matrix_units(self):
        pair = canonical_dual(onb(2))
        flat = flat_tensor_frame(pair, pair)
        assert flat.cardinality == 4
        assert flat.bounds == (1.0, 1.0)
        units = [tensor_element(pair, pair, i, j) for i in range(2) for j in range(2)]
        total = sum(np.abs(u).sum() for u in units)
        assert total == pytest.approx(4.0)

    def test_mercedes_bounds_eigen_oracle(self):
        pair = canonical_dual(mercedes())
        flat = flat_tensor_frame(pair, pair)
        eigs = np.linalg.eigvalsh(flat.vectors.T @ flat.vectors.conj())
        assert eigs[0] == pytest.approx(2.25, rel=1e-9)
        assert eigs[-1] == pytest.approx(2.25, rel=1e-9)
        assert flat.bounds == pytest.approx((2.25, 2.25))

    def test_cardinality(self):
        flat = flat_tensor_frame(e1e1e2_pair(), canonical_dual(onb(2)))
        assert flat.cardinality == 6
        assert flat.space_dim == 4

    def test_dual_elements_are_tensor_duals(self):
        pair1 = e1e1e2_pair()
        pair2 = canonical_dual(mercedes())
        flat_pair = canonical_dual(flat_tensor_frame(pair1, pair2))
        n2 = pair2.frame.cardinality
        for i, j in [(0, 0), (2, 1), (1, 2)]:
            expected = np.outer(pair2.dual.vectors[j], pair1.dual.vectors[i].conj())
            got = flat_pair.dual.vectors[i * n2 + j].reshape(expected.shape)
            np.testing.assert_allclose(got, expected, atol=1e-10)

    def test_galerkin_is_flat_dual_analysis(self):
        """``galerkin(O)`` is the analysis of ``O`` against the flat tensor
        frame's canonical dual."""
        pair1, pair2 = e1e1e2_pair(), canonical_dual(mercedes())
        flat = flat_tensor_frame(pair1, pair2)
        O = random_operator(pair2.frame.space_dim, pair1.frame.space_dim, seed=90)
        coefficients = analysis(canonical_dual(flat).dual, O.ravel())
        k = galerkin(O, pair1, pair2)
        assert np.max(np.abs(k.ravel() - coefficients)) <= 1e-12


class TestTensorGram:
    """The tensor frame's Gram matrix is ``kron(conj(G1), G2)`` in the
    row-major ordering."""

    @staticmethod
    def kron_gram(pair1, pair2):
        g1 = cross_gram(pair1.frame, pair1.frame)
        g2 = cross_gram(pair2.frame, pair2.frame)
        return np.kron(g1.conj(), g2)

    def test_onb_identity(self):
        pair = canonical_dual(onb(2))
        flat = flat_tensor_frame(pair, pair)
        np.testing.assert_allclose(cross_gram(flat, flat), np.eye(4))

    def test_real_frames_plain_kron(self):
        pair1, pair2 = e1e1e2_pair(), canonical_dual(mercedes())
        g1 = cross_gram(pair1.frame, pair1.frame)
        g2 = cross_gram(pair2.frame, pair2.frame)
        np.testing.assert_allclose(self.kron_gram(pair1, pair2), np.kron(g1, g2))
        flat = flat_tensor_frame(pair1, pair2)
        np.testing.assert_allclose(cross_gram(flat, flat), np.kron(g1, g2), atol=1e-12)

    def test_entrywise_hs_oracle(self):
        rng = substream(13, "test-tensor", "frames")
        f1 = Frame.from_vectors(rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2)))
        f2 = Frame.from_vectors(rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2)))
        pair1, pair2 = canonical_dual(f1), canonical_dual(f2)
        G = self.kron_gram(pair1, pair2)
        n1, n2 = f1.cardinality, f2.cardinality
        for a in range(n1 * n2):
            for b in range(n1 * n2):
                i, j = divmod(a, n2)
                ip, jp = divmod(b, n2)
                # Hilbert-Schmidt inner product <element(ip, jp), element(i, j)>
                direct = np.vdot(
                    tensor_element(pair1, pair2, i, j),
                    tensor_element(pair1, pair2, ip, jp),
                )
                assert abs(G[a, b] - direct) <= 1e-10

    def test_matches_flat_frame_gram(self):
        pair = canonical_dual(mercedes())
        flat = flat_tensor_frame(pair, pair)
        np.testing.assert_allclose(
            self.kron_gram(pair, pair),
            cross_gram(flat, flat),
            atol=1e-12,
        )


class TestGalerkin:
    def test_identity_onb(self):
        pair = canonical_dual(onb(2))
        np.testing.assert_allclose(galerkin(np.eye(2), pair, pair), np.eye(2))

    def test_rank_one_basis_tensor(self):
        pair = canonical_dual(onb(2))
        # the rank-one tensor e1 (x) e2 is the matrix e2 e1^H
        K = np.outer(np.array([0.0, 1.0]), np.array([1.0, 0.0]))
        k = galerkin(K, pair, pair)
        expected = np.zeros((2, 2))
        expected[0, 1] = 1.0
        np.testing.assert_allclose(k, expected)

    def test_identity_redundant_frame_gives_dual_gram(self):
        pair = e1e1e2_pair()
        k = galerkin(np.eye(2), pair, pair)
        np.testing.assert_allclose(
            k, [[0.25, 0.25, 0.0], [0.25, 0.25, 0.0], [0.0, 0.0, 1.0]], atol=1e-12
        )

    def test_entries_definition(self):
        pair1, pair2 = e1e1e2_pair(), canonical_dual(mercedes())
        O = random_operator(2, 2, seed=20)
        k = galerkin(O, pair1, pair2)
        for i in range(3):
            for j in range(3):
                expected = np.vdot(pair2.dual.vectors[j], O @ pair1.dual.vectors[i])
                assert k[i, j] == pytest.approx(expected)

    def test_shape_mismatch(self):
        with pytest.raises(PreconditionError):
            galerkin(np.eye(3), e1e1e2_pair(), e1e1e2_pair())


def _reference_galerkin(O, pair1, pair2):
    """The earlier formula, whose final transpose left a column-major
    array; kept as the oracle for the row-major product."""
    return (pair2.dual.vectors.conj() @ O @ pair1.dual.vectors.T).T


GALERKIN_PAIRS = {
    "onb": lambda: (onb(4), onb(4)),
    "mercedes": lambda: (mercedes(), mercedes()),
    "gabor": lambda: 2 * (finite_gabor(16, 2, 2, gaussian_window(16)),),
    "decaying": lambda: 2 * (decaying_perturbation(16, 4.0, 0.05, seed=3),),
    "gabor-to-decaying": lambda: (
        finite_gabor(8, 2, 2, gaussian_window(8)),
        decaying_perturbation(6, 2.0, 0.2, seed=1),
    ),
}


class TestRowMajorGalerkin:
    @pytest.mark.parametrize("name", sorted(GALERKIN_PAIRS))
    def test_matches_reference_and_is_row_major(self, name):
        frame1, frame2 = GALERKIN_PAIRS[name]()
        pair1, pair2 = canonical_dual(frame1), canonical_dual(frame2)
        O = random_operator(frame2.space_dim, frame1.space_dim, seed=7)
        k = galerkin(O, pair1, pair2)
        assert k.shape == (frame1.cardinality, frame2.cardinality)
        assert k.flags.c_contiguous
        scale = np.max(np.abs(k))
        tol = 4 * np.finfo(float).eps * scale
        assert np.max(np.abs(k - _reference_galerkin(O, pair1, pair2))) <= tol


class TestSynthesizeKernel:
    def test_identity_coefficients_onb(self):
        pair = canonical_dual(onb(3))
        np.testing.assert_allclose(
            synthesize_kernel(np.eye(3), pair, pair), np.eye(3)
        )

    def test_linearity(self):
        pair1, pair2 = e1e1e2_pair(), canonical_dual(onb(2))
        rng = substream(14, "test-tensor", "lin")
        k1 = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        k2 = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        np.testing.assert_allclose(
            synthesize_kernel(k1 + k2, pair1, pair2),
            synthesize_kernel(k1, pair1, pair2) + synthesize_kernel(k2, pair1, pair2),
            atol=1e-12,
        )

    def test_action_matches_definition(self):
        pair1, pair2 = e1e1e2_pair(), canonical_dual(mercedes())
        rng = substream(15, "test-tensor", "act")
        k = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        K = synthesize_kernel(k, pair1, pair2)
        f = rvec(2, 21)
        expected = np.zeros(2, dtype=complex)
        for i in range(3):
            for j in range(3):
                expected += k[i, j] * np.vdot(pair1.frame.vectors[i], f) * pair2.frame.vectors[j]
        np.testing.assert_allclose(K @ f, expected, atol=1e-10)

    def test_round_trip_gabor(self):
        pair = canonical_dual(finite_gabor(16, 2, 2, gaussian_window(16)))
        for t in range(5):
            O = random_operator(16, 16, seed=30 + t)
            back = synthesize_kernel(galerkin(O, pair, pair), pair, pair)
            assert np.linalg.norm(back - O) <= 1e-9 * np.linalg.norm(O)


class TestCorrespondenceResidual:
    def test_onb_everything_in_range(self):
        pair = canonical_dual(onb(3))
        rng = substream(16, "test-tensor", "corr")
        k = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        assert correspondence_residual(k, pair, pair) <= 1e-12

    def test_galerkin_output_in_range(self):
        pair = e1e1e2_pair()
        O = random_operator(2, 2, seed=40)
        k = galerkin(O, pair, pair)
        assert correspondence_residual(k, pair, pair) <= 1e-10

    def test_random_array_off_range_and_projection_idempotent(self):
        pair = e1e1e2_pair()
        rng = substream(17, "test-tensor", "offrange")
        k = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        assert correspondence_residual(k, pair, pair) > 0.1
        projected = galerkin(synthesize_kernel(k, pair, pair), pair, pair)
        assert correspondence_residual(projected, pair, pair) <= 1e-10

    def test_projection_factored_oracle(self):
        # analyze-after-synthesize acts per axis through the cross Grams
        pair1, pair2 = e1e1e2_pair(), canonical_dual(mercedes())
        gc1 = cross_gram(pair1.frame, pair1.dual)
        gc2 = cross_gram(pair2.frame, pair2.dual)
        rng = substream(18, "test-tensor", "proj")
        k = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        projected = galerkin(synthesize_kernel(k, pair1, pair2), pair1, pair2)
        np.testing.assert_allclose(projected, gc1.conj() @ k @ gc2.T, atol=1e-10)


def unblocked_residual(k, pair1, pair2):
    """The residual from the full projected ``n1 x n2`` array."""
    K = np.asarray(k, dtype=complex)
    projected = galerkin(synthesize_kernel(K, pair1, pair2), pair1, pair2)
    denom = max(float(np.max(np.abs(K))), 1.0)
    return float(np.max(np.abs(K - projected))) / denom


def off_range_array(n1, n2, seed):
    rng = substream(seed, "test-tensor", "blocked", n1, n2)
    return rng.standard_normal((n1, n2)) + 1j * rng.standard_normal((n1, n2))


def overflowing_pairs():
    """A Mercedes frame scaled by 1e-10, alone and with a fourth vector
    in a third dimension: the duals carry 1e10, so the projection of an
    array of entries near 1.7e308 overflows in its last product while
    the synthesized kernel stays finite."""
    m = mercedes().vectors * 1e-10
    V = np.zeros((4, 3), dtype=complex)
    V[:3, :2] = m
    V[3, 2] = 1e-10
    return canonical_dual(Frame.from_vectors(V)), canonical_dual(Frame.from_vectors(m))


class TestBlockedResidual:
    """``correspondence_residual`` reduces one row block at a time; it
    must give the bits of the unblocked residual."""

    @pytest.fixture(scope="class")
    def gabor64(self):
        return canonical_dual(finite_gabor(64, 2, 2, gaussian_window(64)))

    def test_gabor64_square(self, gabor64):
        n = gabor64.frame.cardinality
        k = galerkin(random_operator(64, 64, seed=11), gabor64, gabor64)
        for arr in (k, off_range_array(n, n, 1)):
            res = correspondence_residual(arr, gabor64, gabor64)
            assert res == unblocked_residual(arr, gabor64, gabor64)

    @pytest.mark.parametrize("rows", [2, 5, 64])
    @pytest.mark.parametrize("name", sorted(GALERKIN_PAIRS))
    def test_many_blocks(self, monkeypatch, name, rows):
        frame1, frame2 = GALERKIN_PAIRS[name]()
        pair1, pair2 = canonical_dual(frame1), canonical_dual(frame2)
        n1, n2 = frame1.cardinality, frame2.cardinality
        monkeypatch.setattr("framelab.numeric._BLOCK_ENTRIES", rows * n2)
        O = random_operator(frame2.space_dim, frame1.space_dim, seed=8)
        for arr in (galerkin(O, pair1, pair2), off_range_array(n1, n2, 2)):
            res = correspondence_residual(arr, pair1, pair2)
            assert res == unblocked_residual(arr, pair1, pair2)

    def test_rectangular_pair(self, monkeypatch):
        pair1 = canonical_dual(finite_gabor(16, 2, 2, gaussian_window(16)))
        pair2 = canonical_dual(decaying_perturbation(33, 3.0, 0.1, seed=2))
        n1, n2 = pair1.frame.cardinality, pair2.frame.cardinality
        assert (n1, n2) == (64, 33)
        k = off_range_array(n1, n2, 3)
        expected = unblocked_residual(k, pair1, pair2)
        assert correspondence_residual(k, pair1, pair2) == expected
        monkeypatch.setattr("framelab.numeric._BLOCK_ENTRIES", 5 * n2)
        assert correspondence_residual(k, pair1, pair2) == expected

    @pytest.mark.parametrize("rows", [None, 2])
    def test_overflowed_block_stays_non_finite(self, monkeypatch, rows):
        # The overflow lands in the first rows (the first block when
        # blocks hold two rows); later blocks are finite, so a reduction
        # that dropped a NaN block would report a small residual.
        pair1, pair2 = overflowing_pairs()
        k = np.zeros((4, 3), dtype=complex)
        k[:3] = 1.7e308 * np.outer([1, -1, -1], [1, -1, -1])
        k *= np.exp(0.25j * np.pi)
        if rows is not None:
            monkeypatch.setattr("framelab.numeric._BLOCK_ENTRIES", rows * 3)
        with np.errstate(over="ignore", invalid="ignore"):
            assert np.isfinite(synthesize_kernel(k, pair1, pair2)).all()
            assert not np.isfinite(correspondence_residual(k, pair1, pair2))
            assert not np.isfinite(unblocked_residual(k, pair1, pair2))

    def test_peak_memory_below_one_complex_array(self, gabor64):
        n = gabor64.frame.cardinality
        k = galerkin(random_operator(64, 64, seed=12), gabor64, gabor64)
        tracemalloc.start()
        try:
            correspondence_residual(k, gabor64, gabor64)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * n * 16


class TestKernelNorm:
    def test_entry_sum(self):
        pair = canonical_dual(onb(2))
        K = np.array([[1.0, 2.0], [3.0, 4.0]])
        spec = MixedSpaceSpec(1.0, 1.0, 0, np.ones((2, 2)))
        assert mixed_norm(galerkin(K, pair, pair), spec) == pytest.approx(10.0)

    def test_frobenius(self):
        pair = canonical_dual(onb(2))
        K = np.array([[1.0, 2.0], [3.0, 4.0]])
        spec = MixedSpaceSpec(2.0, 2.0, 0, np.ones((2, 2)))
        norm = mixed_norm(galerkin(K, pair, pair), spec)
        assert norm == pytest.approx(np.sqrt(30.0))
        assert norm == pytest.approx(np.linalg.norm(K))

    def test_weighted_sum(self):
        pair = canonical_dual(onb(2))
        K = np.array([[1.0, 2.0], [3.0, 4.0]])
        spec = MixedSpaceSpec(
            1.0, 1.0, 0, tensor_weights([1.0, 2.0], [1.0, 1.0])
        )
        # direct summation: sum |<K e_i, e_j>| w1_i w2_j
        expected = sum(
            abs(np.vdot(np.eye(2)[j], K @ np.eye(2)[i])) * [1.0, 2.0][i]
            for i in range(2)
            for j in range(2)
        )
        assert expected == 16.0
        assert mixed_norm(galerkin(K, pair, pair), spec) == pytest.approx(16.0)


class TestOuterKernelIdentity:
    def test_pairing_identity(self):
        pair1, pair2 = e1e1e2_pair(), canonical_dual(mercedes())
        O = random_operator(2, 2, seed=50)
        K = synthesize_kernel(galerkin(O, pair1, pair2), pair1, pair2)
        for t in range(10):
            f1, f2 = rvec(2, 60 + t), rvec(2, 80 + t)
            # Hilbert-Schmidt pairing of K with the rank-one tensor f2 f1^H
            lhs = np.vdot(np.outer(f2, f1.conj()), K)
            rhs = np.vdot(f2, O @ f1)
            assert abs(lhs - rhs) <= 1e-9 * max(abs(rhs), 1.0)

    def test_tensor_bounds_multiply(self):
        pair1 = e1e1e2_pair()
        pair2 = canonical_dual(mercedes())
        a, b = flat_tensor_frame(pair1, pair2).bounds
        a1, b1 = pair1.bounds
        a2, b2 = pair2.bounds
        assert a == pytest.approx(a1 * a2, rel=1e-9)
        assert b == pytest.approx(b1 * b2, rel=1e-9)


class TestGalerkinSerialization:
    def test_round_trip(self):
        pair = e1e1e2_pair()
        O = random_operator(2, 2, seed=70)
        k = galerkin(O, pair, pair)
        blob = json.dumps(
            galerkin_to_json(k, pair.frame.index_set, pair.frame.index_set)
        )
        k2, idx_i, idx_j = galerkin_from_json(json.loads(blob))
        np.testing.assert_array_equal(k, k2)
        assert idx_i == pair.frame.index_set
        assert idx_j == pair.frame.index_set
