"""Verification suites: worked examples with independent oracles, plus
budget behavior on non-orthonormal frames."""

import gc
import sys
import tracemalloc
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from framelab import coorbit, localisation, theorems
from framelab.coorbit import MixedSpaceSpec, mixed_norm
from framelab.frames import Frame, canonical_dual, cross_gram, gram
from framelab.generators import (
    decaying_perturbation,
    finite_gabor,
    gaussian_window,
    mercedes,
    onb,
    random_operator,
    substream,
)
from framelab.localisation import poly_weight, schur_weighted_bound
from framelab.numeric import PreconditionError
from framelab.tensor_kernels import galerkin, synthesize_kernel
from framelab.theorems import (
    _onb_equality,
    _within,
    compress_operator,
    schatten_check,
    schur_characterization,
    verify_frame_independence,
    verify_inner,
    verify_outer,
    verify_projective,
)

O22 = np.array([[1.0, 2.0], [3.0, 4.0]])


def e1e1e2_pair():
    return canonical_dual(
        Frame.from_vectors(np.array([[1, 0], [1, 0], [0, 1]], dtype=complex))
    )


def gabor_pair(N=8):
    return finite_gabor(N, 2, 2, gaussian_window(N))


class TestVerifyOuter:
    def test_onb_example(self):
        pair = canonical_dual(onb(2))
        rep = verify_outer(O22, pair, pair, np.ones(2), np.ones(2))
        assert rep.lhs == pytest.approx(4.0)
        assert rep.rhs == pytest.approx(4.0)
        assert rep.ratio == pytest.approx(1.0)
        assert rep.passed

    def test_identity(self):
        pair = canonical_dual(onb(3))
        rep = verify_outer(np.eye(3), pair, pair, np.ones(3), np.ones(3))
        assert rep.lhs == rep.rhs == pytest.approx(1.0)

    def test_onb_extreme_point_oracle_with_weights(self):
        d = 5
        pair = canonical_dual(onb(d))
        w = poly_weight(pair.frame.index_set, 1.0)
        O = random_operator(d, d, seed=1)
        rep = verify_outer(O, pair, pair, w, w)
        oracle = max(
            abs(O[j, i]) / (w[i] * w[j]) for i in range(d) for j in range(d)
        )
        assert rep.lhs == pytest.approx(oracle, rel=1e-9)
        assert rep.rhs == pytest.approx(oracle, rel=1e-9)
        assert rep.passed

    def test_gabor_within_budget(self):
        pair = canonical_dual(gabor_pair())
        n = pair.frame.cardinality
        w = np.ones(n)
        for t in range(20):
            O = random_operator(8, 8, seed=100 + t)
            rep = verify_outer(O, pair, pair, w, w, seed=t)
            assert rep.passed
            assert rep.constant_budget >= 1.0

    def test_infinite_upper_bound_is_not_exact(self):
        """A tiny source weight overflows the scaled coefficient matrix,
        so the upper bound is inf while the probes stay finite."""
        pair = canonical_dual(gabor_pair())
        n = pair.frame.cardinality
        w1 = np.ones(n)
        w1[0] = 1e-300
        O = 1e10 * random_operator(8, 8, seed=1)
        with np.errstate(over="ignore", invalid="ignore"):
            rep = verify_outer(O, pair, pair, w1, np.ones(n))
        assert rep.details["opnorm_upper"] == np.inf
        assert np.isfinite(rep.details["opnorm_lower"])
        assert rep.details["opnorm_exact"] is False


class TestVerifyInner:
    def test_onb_example(self):
        pair = canonical_dual(onb(2))
        rep = verify_inner(O22, pair, pair, np.ones(2), np.ones(2))
        assert rep.details["terms"] == 4
        assert rep.lhs == pytest.approx(10.0)
        assert rep.rhs == pytest.approx(10.0)
        assert rep.ratio == pytest.approx(1.0)
        assert rep.passed

    def test_zero_kernel(self):
        pair = canonical_dual(onb(2))
        rep = verify_inner(np.zeros((2, 2)), pair, pair, np.ones(2), np.ones(2))
        assert rep.details["terms"] == 0
        assert rep.lhs == 0.0
        assert rep.passed

    def test_rank_one_reconstruction(self):
        pair = canonical_dual(onb(3))
        rng = substream(2, "test-theorems", "rank1")
        f = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        g = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        K = np.outer(g, f.conj())
        rep = verify_inner(K, pair, pair, np.ones(3), np.ones(3))
        assert rep.details["reconstruction_residual"] <= 1e-9
        l1f = np.sum(np.abs(f))
        l1g = np.sum(np.abs(g))
        assert rep.lhs <= l1f * l1g * (1 + 1e-9)

    def test_mercedes_within_budget(self):
        pair = canonical_dual(mercedes())
        O = random_operator(2, 2, seed=3)
        rep = verify_inner(O, pair, pair, np.ones(3), np.ones(3))
        assert rep.passed
        assert rep.ratio >= 1.0 - 1e-9
        assert rep.ratio <= rep.constant_budget * (1 + 1e-9)

    def test_builds_no_term_list(self):
        pair = canonical_dual(decaying_perturbation(64, 2.0, 0.2, seed=1))
        K = random_operator(64, 64, seed=1)
        w = np.ones(64)
        verify_inner(K, pair, pair, w, w)
        tracemalloc.start()
        try:
            rep = verify_inner(K, pair, pair, w, w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        assert rep.details["terms"] == 64 * 64

    def test_large_operator_residual_is_finite(self):
        """The Frobenius norm of a ``1e307`` operator overflows; the
        residual must still be a finite measurement, not ``x / inf``."""
        pair = canonical_dual(onb(4))
        K = 1e307 * random_operator(4, 4, seed=7)
        rep = verify_inner(K, pair, pair, np.ones(4), np.ones(4))
        assert np.isfinite(rep.details["reconstruction_residual"])
        assert rep.details["reconstruction_residual"] <= 1e-9

    def test_large_operator_wrong_reconstruction_fails(self, monkeypatch):
        pair = canonical_dual(onb(4))
        K = 1e307 * random_operator(4, 4, seed=7)

        def doubled(c, pair1, pair2):
            return 2.0 * synthesize_kernel(c, pair1, pair2)

        monkeypatch.setattr(theorems, "synthesize_kernel", doubled)
        rep = verify_inner(K, pair, pair, np.ones(4), np.ones(4))
        assert rep.details["reconstruction_residual"] == pytest.approx(1.0)
        assert not rep.passed


class TestVerifyProjective:
    def test_onb_equality(self):
        pair = canonical_dual(onb(2))
        rep = verify_projective(O22, pair, pair, np.ones(2), np.ones(2))
        assert rep.lhs == pytest.approx(10.0)
        assert rep.rhs == pytest.approx(10.0)
        assert rep.passed

    def test_zero(self):
        pair = canonical_dual(onb(2))
        rep = verify_projective(np.zeros((2, 2)), pair, pair, np.ones(2), np.ones(2))
        assert rep.lhs == rep.rhs == 0.0
        assert rep.passed

    def test_mercedes_sandwich(self):
        pair = canonical_dual(mercedes())
        for t in range(10):
            K = random_operator(2, 2, seed=200 + t)
            rep = verify_projective(K, pair, pair, np.ones(3), np.ones(3))
            assert rep.passed
            assert rep.lhs <= rep.rhs * (1 + 1e-12)
            assert rep.rhs <= rep.constant_budget * rep.lhs * (1 + 1e-9)

    def test_lower_side_above_upper_fails(self, monkeypatch):
        # the summed-coefficient norm never exceeds the nuclear sum, so
        # only a defect can break that side of the sandwich: double it
        real = theorems._grid_norm
        monkeypatch.setattr(theorems, "_grid_norm", lambda *args: 2.0 * real(*args))
        pair = canonical_dual(onb(2))
        rep = verify_projective(O22, pair, pair, np.ones(2), np.ones(2))
        assert rep.lhs == pytest.approx(2.0 * rep.rhs)
        assert not rep.passed


class TestSchurCharacterization:
    def test_variant_i_p2_onb(self):
        pair = canonical_dual(onb(2))
        rep = schur_characterization(
            O22, pair, pair, np.ones(2), np.ones(2), 2.0, "i"
        )
        # extreme points: column 2-norms sqrt(10), sqrt(20)
        assert rep.lhs == pytest.approx(np.sqrt(20.0))
        assert rep.rhs == pytest.approx(np.sqrt(20.0))
        assert rep.passed

    def test_variant_ii_row_sum_onb(self):
        pair = canonical_dual(onb(2))
        rep = schur_characterization(
            O22, pair, pair, np.ones(2), np.ones(2), np.inf, "ii"
        )
        assert rep.lhs == pytest.approx(7.0)  # max(1+2, 3+4)
        assert rep.rhs == pytest.approx(7.0)
        assert rep.passed

    def test_variant_ii_p1_matches_outer(self):
        pair = canonical_dual(onb(2))
        rep = schur_characterization(
            O22, pair, pair, np.ones(2), np.ones(2), 1.0, "ii"
        )
        assert rep.lhs == pytest.approx(4.0)
        assert rep.rhs == pytest.approx(4.0)
        outer = verify_outer(O22, pair, pair, np.ones(2), np.ones(2))
        assert rep.rhs == pytest.approx(outer.lhs)

    @pytest.mark.parametrize("p", [1.0, 2.0, np.inf])
    @pytest.mark.parametrize("variant", ["i", "ii"])
    def test_onb_oracle_all_exponents(self, p, variant):
        d = 4
        pair = canonical_dual(onb(d))
        w1 = poly_weight(pair.frame.index_set, 1.0)
        w2 = np.ones(d)
        O = random_operator(d, d, seed=4)
        rep = schur_characterization(O, pair, pair, w1, w2, p, variant)
        q = np.inf if p == 1.0 else (1.0 if np.isinf(p) else p / (p - 1.0))

        def pn(values, e):
            values = np.asarray(values)
            if np.isinf(e):
                return values.max()
            return float((values**e).sum() ** (1.0 / e))

        if variant == "i":
            # columns of O in the destination norm, per unit source atom
            oracle = max(
                pn(np.abs(O[:, i]) / w2, p) / w1[i] for i in range(d)
            )
        else:
            oracle = max(
                pn(np.abs(O[j, :]) / w1, q) / w2[j] for j in range(d)
            )
        assert rep.lhs == pytest.approx(oracle, rel=1e-9)
        assert rep.rhs == pytest.approx(oracle, rel=1e-9)
        assert rep.passed

    def test_gabor_within_budget(self):
        pair = canonical_dual(gabor_pair())
        n = pair.frame.cardinality
        w = np.ones(n)
        for t in range(10):
            O = random_operator(8, 8, seed=300 + t)
            for p, variant in ((1.0, "i"), (2.0, "i"), (2.0, "ii"), (np.inf, "ii")):
                rep = schur_characterization(O, pair, pair, w, w, p, variant, seed=t)
                assert rep.passed

    def test_bad_variant(self):
        pair = canonical_dual(onb(2))
        with pytest.raises(PreconditionError):
            schur_characterization(O22, pair, pair, np.ones(2), np.ones(2), 2.0, "iii")

    def test_outer_variant_is_internal(self):
        """``"outer"`` is the op-norm core's own name for the outer check;
        the public Schur verifier refuses it as any other variant."""
        pair, w = canonical_dual(onb(2)), np.ones(2)
        message = "^variant must be 'i' or 'ii', got 'outer'$"
        with pytest.raises(PreconditionError, match=message):
            schur_characterization(O22, pair, pair, w, w, 1.0, "outer")


class TestFrameIndependence:
    def test_identical_families(self):
        pair = canonical_dual(onb(3))
        spec = MixedSpaceSpec(np.inf, np.inf, 0, np.ones((3, 3)))
        O = random_operator(3, 3, seed=5)
        rep = verify_frame_independence(O, (pair, pair), (pair, pair), spec)
        assert rep.ratio == pytest.approx(1.0)
        assert rep.passed

    def test_rotated_onb(self):
        d = 4
        pair_a = canonical_dual(onb(d))
        rng = substream(6, "test-theorems", "rot")
        q, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
        pair_b = canonical_dual(Frame.from_vectors(q))
        spec = MixedSpaceSpec(np.inf, np.inf, 0, np.ones((d, d)))
        for t in range(20):
            O = random_operator(d, d, seed=400 + t)
            rep = verify_frame_independence(O, (pair_a, pair_a), (pair_b, pair_b), spec)
            assert rep.passed

    def test_redundant_family_different_grid(self):
        pair_a = canonical_dual(onb(2))
        pair_b = e1e1e2_pair()
        spec = MixedSpaceSpec(1.0, 1.0, 0, np.ones((2, 2)))
        O = random_operator(2, 2, seed=7)
        rep = verify_frame_independence(O, (pair_a, pair_a), (pair_b, pair_b), spec)
        assert rep.passed
        assert rep.ratio >= 1.0 / rep.constant_budget - 1e-9
        assert rep.ratio <= rep.constant_budget + 1e-9

    def test_outer_sup_route(self):
        pair_a = canonical_dual(onb(2))
        pair_b = e1e1e2_pair()
        spec = MixedSpaceSpec(2.0, np.inf, 1, np.ones((2, 2)))
        O = random_operator(2, 2, seed=8)
        rep = verify_frame_independence(O, (pair_a, pair_a), (pair_b, pair_b), spec)
        assert rep.passed

    def test_different_grid_needs_constant_weights(self):
        pair_a = canonical_dual(onb(2))
        pair_b = e1e1e2_pair()
        spec = MixedSpaceSpec(1.0, 1.0, 0, np.array([[1.0, 2.0], [1.0, 2.0]]))
        with pytest.raises(PreconditionError, match="weight grid must be constant"):
            verify_frame_independence(
                random_operator(2, 2, seed=7), (pair_a, pair_a), (pair_b, pair_b), spec
            )

    def test_unsupported_mixed_exponents(self):
        pair = canonical_dual(onb(2))
        spec = MixedSpaceSpec(1.0, 2.0, 0, np.ones((2, 2)))
        message = "certified only for p = q or outer-sup mixed norms"
        with pytest.raises(PreconditionError, match=message):
            verify_frame_independence(
                random_operator(2, 2, seed=9), (pair, pair), (pair, pair), spec
            )

    def test_incompatible_dimensions(self):
        pair2 = canonical_dual(onb(2))
        pair3 = canonical_dual(onb(3))
        spec = MixedSpaceSpec(1.0, 1.0, 0, np.ones((2, 2)))
        with pytest.raises(PreconditionError):
            verify_frame_independence(
                np.eye(2), (pair2, pair2), (pair3, pair3), spec
            )


class TestSchattenCheck:
    def test_diag_p1(self):
        pair = canonical_dual(onb(2))
        rep = schatten_check(np.diag([3.0, 4.0]), pair, pair, 1.0)
        assert rep.lhs == pytest.approx(7.0)
        assert rep.rhs == pytest.approx(7.0)
        assert rep.passed

    def test_diag_p2_frobenius(self):
        pair = canonical_dual(onb(2))
        rep = schatten_check(np.diag([3.0, 4.0]), pair, pair, 2.0)
        assert rep.lhs == pytest.approx(5.0)
        assert rep.rhs == pytest.approx(5.0)
        assert rep.details["frobenius"] == pytest.approx(5.0)

    def test_random_inequality(self):
        pair = canonical_dual(onb(8))
        for t in range(10):
            O = random_operator(8, 8, seed=500 + t)
            rep = schatten_check(O, pair, pair, 1.0)
            assert rep.lhs <= rep.rhs * (1 + 1e-12)
            assert rep.passed

    def test_three_way_identity_p2(self):
        pair = canonical_dual(onb(6))
        O = random_operator(6, 6, seed=10)
        rep = schatten_check(O, pair, pair, 2.0)
        assert rep.lhs == pytest.approx(rep.details["frobenius"], abs=1e-10)
        assert rep.lhs == pytest.approx(rep.details["kernel_h2p"], abs=1e-10)

    def test_general_frame_budget(self):
        pair = canonical_dual(mercedes())
        O = random_operator(2, 2, seed=11)
        rep = schatten_check(O, pair, pair, 1.5)
        assert rep.constant_budget == pytest.approx(np.sqrt(1.5))
        assert rep.passed

    def test_p_out_of_range(self):
        pair = canonical_dual(onb(2))
        with pytest.raises(PreconditionError):
            schatten_check(np.eye(2), pair, pair, 3.0)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
    def test_huge_operator_scales_exactly(self, p):
        """Sums of p-th powers would overflow at 1e200; the scaled norms
        keep both sides finite, so the report is not a vacuous pass."""
        pair = canonical_dual(onb(4))
        O = random_operator(4, 4, seed=2)
        small = schatten_check(O, pair, pair, p)
        big = schatten_check(1e200 * O, pair, pair, p)
        assert big.passed
        for b, s in [
            (big.lhs, small.lhs),
            (big.rhs, small.rhs),
            (big.details["frobenius"], small.details["frobenius"]),
        ]:
            assert np.isfinite(b)
            assert b == pytest.approx(1e200 * s, rel=4 * np.finfo(float).eps)


class TestCompressOperator:
    def test_identity_onb(self):
        pair = canonical_dual(onb(4))
        k_tau, rep = compress_operator(
            np.eye(4), pair, pair, np.ones(4), np.ones(4), 0.5
        )
        assert rep.kept == 4
        assert rep.error_surrogate == 0.0
        np.testing.assert_allclose(k_tau, np.eye(4))

    def test_tau_zero_dense(self):
        pair = canonical_dual(onb(3))
        O = random_operator(3, 3, seed=12)
        _, rep = compress_operator(O, pair, pair, np.ones(3), np.ones(3), 0.0)
        assert rep.kept == rep.total == 9
        assert rep.error_surrogate == 0.0

    def test_gabor_sweep_monotone(self):
        frame = gabor_pair(8)
        pair = canonical_dual(frame)
        n = pair.frame.cardinality
        w = np.ones(n)
        # circular convolution operator: columns are shifts of a filter
        h = np.exp(-np.arange(8.0) ** 2 / 2.0)
        C = np.array([np.roll(h, s) for s in range(8)]).T
        k = galerkin(C, pair, pair)
        mags = np.sort(np.abs(k).ravel())
        taus = [float(mags[int(f * (len(mags) - 1))]) for f in (0.0, 0.3, 0.6, 0.9)]
        reports = []
        for tau in taus:
            k_tau, rep = compress_operator(C, pair, pair, w, w, tau)
            assert rep.error_surrogate <= tau
            reports.append(rep)
        sparsities = [r.sparsity for r in reports]
        assert all(a >= b for a, b in zip(sparsities, sparsities[1:]))
        assert sparsities[0] > sparsities[-1]
        errors = [r.error_surrogate for r in reports]
        assert all(a <= b + 1e-15 for a, b in zip(errors, errors[1:]))

    def test_weighted_rule(self):
        pair = canonical_dual(onb(2))
        w1 = np.array([1.0, 10.0])
        w2 = np.ones(2)
        O = np.array([[1.0, 5.0], [0.2, 1.0]])
        k_tau, rep = compress_operator(O, pair, pair, w1, w2, 0.3)
        # normalized magnitudes: |k_ij| / (w1_i w2_j); k = O^T here
        norms = np.abs(galerkin(O, pair, pair)) / np.outer(w1, w2)
        assert rep.kept == int((norms > 0.3).sum())

    def test_exact_error_detail(self):
        pair = canonical_dual(onb(3))
        O = random_operator(3, 3, seed=13)
        k_tau, rep = compress_operator(
            O, pair, pair, np.ones(3), np.ones(3), 0.2, exact_error=True
        )
        direct = np.linalg.norm(O - synthesize_kernel(k_tau, pair, pair), 2)
        assert rep.details["spectral_error"] == pytest.approx(direct)

    def test_negative_tau(self):
        pair = canonical_dual(onb(2))
        with pytest.raises(PreconditionError):
            compress_operator(np.eye(2), pair, pair, np.ones(2), np.ones(2), -1.0)

    def test_nan_tau(self):
        # every comparison with NaN is false, so no entry would be kept
        # and the error surrogate could not be bounded by tau
        pair = canonical_dual(onb(3))
        with pytest.raises(PreconditionError, match="got nan"):
            compress_operator(
                np.eye(3), pair, pair, np.ones(3), np.ones(3), float("nan")
            )


class TestSharedSkeleton:
    """Outer is Schur at the l1 -> sup corner; inner and projective
    report the same two numbers with lhs and rhs swapped."""

    @staticmethod
    def pair_and_weight(family, weighted):
        frame = {"onb": onb(4), "gabor": gabor_pair(), "mercedes": mercedes()}[family]
        pair = canonical_dual(frame)
        n = pair.frame.cardinality
        w = poly_weight(pair.frame.index_set, 1.0) if weighted else np.ones(n)
        return pair, w

    @pytest.mark.parametrize("family", ["onb", "gabor", "mercedes"])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_outer_is_schur_corner(self, family, weighted):
        pair, w = self.pair_and_weight(family, weighted)
        d = pair.frame.space_dim
        O = random_operator(d, d, seed=41)
        outer = verify_outer(O, pair, pair, w, w, seed=3)
        for p, variant in ((1.0, "ii"), (np.inf, "i")):
            schur = schur_characterization(O, pair, pair, w, w, p, variant, seed=3)
            assert schur.rhs == outer.lhs
            assert schur.lhs == outer.rhs
            for key in (
                "opnorm_lower",
                "opnorm_upper",
                "gram_schur_bound",
                "dual_gram_schur_bound",
            ):
                assert schur.details[key] == outer.details[key]
            assert schur.constant_budget == outer.constant_budget
            assert schur.passed == outer.passed
            assert schur.ratio * outer.ratio == pytest.approx(1.0, rel=1e-15)

    @pytest.mark.parametrize("family", ["onb", "gabor", "mercedes"])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_inner_and_projective_share_sides(self, family, weighted):
        pair, w = self.pair_and_weight(family, weighted)
        d = pair.frame.space_dim
        K = random_operator(d, d, seed=43)
        inner = verify_inner(K, pair, pair, w, w)
        proj = verify_projective(K, pair, pair, w, w)
        assert inner.lhs == proj.rhs
        assert inner.rhs == proj.lhs
        assert inner.constant_budget == proj.constant_budget
        assert inner.passed and proj.passed

    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_schur_budget_uses_source_exponent(self, p):
        pair, w = self.pair_and_weight("gabor", True)
        O = random_operator(8, 8, seed=45)
        bounds = {
            exp: (
                schur_weighted_bound(gram(pair.frame), w, exp),
                schur_weighted_bound(gram(pair.dual), w, exp),
            )
            for exp in (1.0, p)
        }
        assert bounds[1.0] != bounds[p]
        for variant, p_src in (("i", 1.0), ("ii", p)):
            rep = schur_characterization(O, pair, pair, w, w, p, variant)
            got = (
                rep.details["gram_schur_bound"],
                rep.details["dual_gram_schur_bound"],
            )
            assert got == bounds[p_src]

    @pytest.mark.parametrize("family", ["onb", "gabor", "mercedes"])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_gram_bounds_equal_public_schur_bound(self, family, weighted):
        """The verifiers score their Grams without re-validating them;
        the bounds are those of ``schur_weighted_bound`` to the bit."""
        pair, w = self.pair_and_weight(family, weighted)
        d = pair.frame.space_dim
        O = random_operator(d, d, seed=47)
        reports = [verify_outer(O, pair, pair, w, w)]
        for p in (1.0, 1.5, 2.0, 3.0, np.inf):
            for variant in ("i", "ii"):
                reports.append(schur_characterization(O, pair, pair, w, w, p, variant))
        for rep in reports:
            p_src = rep.details["p"] if rep.name == "schur-ii" else 1.0
            assert rep.details["gram_schur_bound"] == schur_weighted_bound(
                gram(pair.frame), w, p_src
            )
            assert rep.details["dual_gram_schur_bound"] == schur_weighted_bound(
                gram(pair.dual), w, p_src
            )

    def test_unit_budget_demands_unit_ratio(self):
        assert _onb_equality(True, 1.0 + 1e-10, 1.0)
        assert not _onb_equality(True, 1.0 + 1e-6, 1.0)
        assert not _onb_equality(False, 1.0, 1.0)
        # redundant frames (budget > 1) and infinite ratios skip the clause
        assert _onb_equality(True, 1.5, 1.1)
        assert _onb_equality(True, np.inf, 1.0)


class TestFixedTolerance:
    """Every verdict uses ``REPORT_TOL``; no verifier takes a tolerance."""

    def test_verifiers_reject_tol(self):
        pair = canonical_dual(onb(2))
        w = np.ones(2)
        spec = MixedSpaceSpec(2.0, np.inf, 0, np.ones((2, 2)))
        calls = [
            lambda **kw: verify_outer(O22, pair, pair, w, w, **kw),
            lambda **kw: schur_characterization(O22, pair, pair, w, w, 2.0, "i", **kw),
            lambda **kw: verify_inner(O22, pair, pair, w, w, **kw),
            lambda **kw: verify_projective(O22, pair, pair, w, w, **kw),
            lambda **kw: verify_frame_independence(
                O22, (pair, pair), (pair, pair), spec, **kw
            ),
            lambda **kw: schatten_check(O22, pair, pair, 1.5, **kw),
        ]
        for call in calls:
            call()
            with pytest.raises(TypeError, match="tol"):
                call(tol=10.0)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
    def test_schatten_kernel_h2p_is_the_unit_grid_mixed_norm(self, p):
        pair = canonical_dual(gabor_pair())
        O = random_operator(8, 8, seed=4)
        k = galerkin(O, pair, pair)
        spec = MixedSpaceSpec(2.0, p, 1, np.ones(k.shape))
        rep = schatten_check(O, pair, pair, p)
        assert rep.details["kernel_h2p"] == mixed_norm(k, spec)


class TestInfiniteBudgetFails:
    """A side compared against an infinite budget checks nothing, so the
    verdict fails; every other field of the report is what the budget
    arithmetic gives."""

    @staticmethod
    def extreme_weights(n):
        w = np.ones(n)
        w[0], w[1] = 1e154, 1e-154
        return w

    def test_frame_independence(self):
        d = 4
        pair_a = canonical_dual(onb(d))
        rng = substream(0, "test-theorems", "inf-budget-rot")
        q, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
        pair_b = canonical_dual(Frame.from_vectors(q))
        spec = MixedSpaceSpec(2.0, 2.0, 0, np.outer([1e-310, 1.0, 1.0, 1.0], np.ones(d)))
        O = random_operator(d, d, seed=3)
        with np.errstate(over="ignore", divide="ignore"):
            rep = verify_frame_independence(O, (pair_a, pair_a), (pair_b, pair_b), spec)
        assert rep.details == {"budget_ab": np.inf, "budget_ba": np.inf}
        assert np.isfinite(rep.ratio)
        assert not rep.passed

    @pytest.mark.parametrize("verifier", ["projective", "inner"])
    def test_projective_and_inner(self, verifier):
        pair = canonical_dual(gabor_pair())
        w = self.extreme_weights(pair.frame.cardinality)
        K = random_operator(8, 8, seed=1)
        with np.errstate(over="ignore"):
            if verifier == "projective":
                rep = verify_projective(K, pair, pair, w, w)
            else:
                rep = verify_inner(K, pair, pair, w, w)
        assert rep.constant_budget == np.inf
        assert np.isfinite(rep.lhs) and np.isfinite(rep.rhs)
        assert not rep.passed

    @pytest.mark.parametrize(
        "run",
        [
            lambda O, pair, w: verify_outer(O, pair, pair, w, w),
            lambda O, pair, w: schur_characterization(O, pair, pair, w, w, 2.0, "i"),
            lambda O, pair, w: schur_characterization(O, pair, pair, w, w, 1.5, "ii"),
        ],
        ids=["outer", "schur-i", "schur-ii"],
    )
    def test_opnorm_sides(self, run):
        frame = gabor_pair()
        pair = canonical_dual(Frame(8, frame.index_set, 10.0 * frame.vectors))
        w = self.extreme_weights(pair.frame.cardinality)
        O = random_operator(8, 8, seed=1)
        with np.errstate(over="ignore"):
            rep = run(O, pair, w)
        assert rep.details["gram_schur_bound"] == np.inf
        assert rep.constant_budget == np.inf
        assert np.isfinite(rep.lhs) and np.isfinite(rep.rhs)
        assert not rep.passed


def fresh_gram_schur_bound(frame, w, p):
    """The Schur bound at ``p`` of ``|gram(frame)| w_i / w_j``, computed
    from scratch with the arithmetic of the verifiers."""
    a = np.abs(gram(frame)) * w[:, None] / w[None, :]
    c_row = float(np.max(a.sum(axis=1)))
    c_col = float(np.max(a.sum(axis=0)))
    if np.isinf(p):
        return c_row
    return c_row ** (1.0 - 1.0 / p) * c_col ** (1.0 / p)


class TestVerdictRule:
    """One rule decides every verdict: ``x <= c * y`` up to
    ``REPORT_TOL``, on finite numbers only."""

    @pytest.mark.parametrize(
        "x, c, y, holds",
        [
            (1.0, 1.0, 1.0, True),
            (1.0 + 0.5e-9, 1.0, 1.0, True),
            (1.0 + 2e-9, 1.0, 1.0, False),
            (0.0, 3.0, 0.0, True),
            (1e-300, 3.0, 0.0, False),
            (1e308, 10.0, 1e308, True),  # c * y overflows above a finite x
            (1.0, np.inf, 1.0, False),
            (1.0, np.nan, 1.0, False),
            (1.0, 2.0, np.inf, False),
            (np.inf, 2.0, np.inf, False),
            (np.inf, 2.0, 1.0, False),
            (np.nan, 2.0, 1.0, False),
        ],
    )
    def test_within(self, x, c, y, holds):
        assert _within(x, c, y) is holds

    def test_overflowed_sides_fail(self):
        pair = canonical_dual(onb(4))
        w = poly_weight(pair.frame.index_set, 1.0)
        K = 1e307 * random_operator(4, 4, seed=7)
        with np.errstate(over="ignore", invalid="ignore"):
            reports = [
                verify_projective(K, pair, pair, w, w),
                verify_inner(K, pair, pair, w, w),
            ]
        for rep in reports:
            assert rep.lhs == rep.rhs == np.inf
            assert np.isfinite(rep.constant_budget)
            assert not rep.passed

    def test_overflowed_schatten_norm_fails(self):
        pair = canonical_dual(gabor_pair())
        O = 1e307 * random_operator(8, 8, seed=7)
        with np.errstate(over="ignore", invalid="ignore"):
            rep = schatten_check(O, pair, pair, 1.0)
        assert rep.lhs == np.inf
        assert np.isfinite(rep.rhs) and np.isfinite(rep.constant_budget)
        assert not rep.passed


class TestGramSchurMemo:
    """The verifiers remember each frame's Gram Schur sums per weight
    vector in the frame's entries of the store; the bounds they report
    are those of a fresh computation."""

    FAMILIES = {
        "onb": lambda: onb(4),
        "mercedes": mercedes,
        "gabor8": lambda: gabor_pair(8),
        "gabor16": lambda: gabor_pair(16),
        "decaying32": lambda: decaying_perturbation(32, 4.0, 0.05, seed=7),
    }

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, np.inf])
    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_cold_and_warm_equal_fresh(self, family, weighted, p):
        pair = canonical_dual(self.FAMILIES[family]())
        n, d = pair.frame.cardinality, pair.frame.space_dim
        w = poly_weight(pair.frame.index_set, 1.0) if weighted else np.ones(n)
        O = random_operator(d, d, seed=49)
        expected = (
            fresh_gram_schur_bound(pair.frame, w, p),
            fresh_gram_schur_bound(pair.dual, w, p),
        )
        assert pair.frame not in localisation._memo
        for _ in ("cold", "warm"):
            rep = schur_characterization(O, pair, pair, w, w, p, "ii")
            got = (rep.details["gram_schur_bound"], rep.details["dual_gram_schur_bound"])
            assert got == expected
            assert list(localisation._memo[pair.frame]) == [w.tobytes()]

    def test_weights_changed_in_place_are_a_new_key(self):
        pair = canonical_dual(gabor_pair())
        w = poly_weight(pair.frame.index_set, 1.0)
        O = random_operator(8, 8, seed=50)
        first = verify_outer(O, pair, pair, w, w).details["gram_schur_bound"]
        w[0] *= 3.0
        second = verify_outer(O, pair, pair, w, w).details["gram_schur_bound"]
        assert second != first
        assert second == fresh_gram_schur_bound(pair.frame, w, 1.0)

    def test_entries_die_with_the_frame(self):
        gc.collect()
        before = len(localisation._memo)
        frame = gabor_pair()
        localisation._gram_schur_bound(frame, np.ones(frame.cardinality), 1.0)
        assert len(localisation._memo) == before + 1
        alive = weakref.ref(frame)
        del frame
        gc.collect()
        assert alive() is None
        assert len(localisation._memo) <= before

    def test_threads_sharing_a_frame_get_fresh_bounds(self):
        """Eight threads sweep 20 weight vectors over one frame, more than
        the 16 entries an owner keeps, so entries are evicted and refilled
        under contention."""
        frame = gabor_pair()
        weights = [poly_weight(frame.index_set, t / 8) for t in range(20)]
        expected = [fresh_gram_schur_bound(frame, w, 1.5) for w in weights]

        def run(k):
            return [
                localisation._gram_schur_bound(frame, weights[(k + i) % 20], 1.5)
                for i in range(1000)
            ]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(run, k) for k in range(8)]
                results = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        for k, got in enumerate(results):
            assert got == [expected[(k + i) % 20] for i in range(1000)]
        assert len(localisation._memo[frame]) == localisation._ENTRIES_PER_OWNER


class TestOverflowedProducts:
    """Weights whose grid is finite can still scale finite Galerkin
    entries past the float range.  The op-norm checks then give inf
    without a warning, name each non-finite quantity in
    ``details["overflowed"]`` and fail."""

    @staticmethod
    def case():
        pair = canonical_dual(onb(4))
        return random_operator(4, 4), pair, np.full(4, 1e-154)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "run",
        [
            lambda O, pair, w: verify_outer(O, pair, pair, w, w),
            lambda O, pair, w: schur_characterization(O, pair, pair, w, w, 2.0, "ii"),
        ],
        ids=["outer", "schur-ii"],
    )
    def test_overflow_is_named_and_fails(self, run):
        O, pair, w = self.case()
        rep = run(O, pair, w)
        assert rep.details["overflowed"] == ["kernel", "opnorm_lower", "opnorm_upper"]
        assert rep.details["opnorm_lower"] == rep.details["opnorm_upper"] == np.inf
        assert not rep.passed

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_finite_reports_have_no_overflow_entry(self):
        O, pair, _ = self.case()
        w = np.ones(4)
        reports = [
            verify_outer(O, pair, pair, w, w),
            schur_characterization(O, pair, pair, w, w, 2.0, "ii"),
        ]
        for rep in reports:
            assert "overflowed" not in rep.details
            assert rep.passed


def rotated_onb(d, seed=3):
    rng = substream(seed, "test-theorems", "memo-rot", d)
    q, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return Frame.from_vectors(q)


CERTIFICATE_FAMILIES = {
    "onb8": lambda: onb(8),
    "mercedes": mercedes,
    "gabor8": lambda: gabor_pair(8),
    "decaying8": lambda: decaying_perturbation(8, 4.0, 0.05, seed=7),
    "rotated4": lambda: rotated_onb(4),
}

# (p, q, inner_axis): two specs of the p == q branch of the independence
# budget and two of its outer-sup branch
INDEPENDENCE_SPECS = [
    (2.0, 2.0, 0),
    (np.inf, np.inf, 0),
    (2.0, np.inf, 1),
    (1.5, np.inf, 0),
]


def certificate_pairs(make):
    """A family's pair, a second build of it, and a rotated ONB and a
    doubled ONB (each basis vector twice) of its dimension."""
    pair = canonical_dual(make())
    d = pair.frame.space_dim
    doubled = Frame.from_vectors(np.vstack([np.eye(d), np.eye(d)]))
    return (
        pair,
        canonical_dual(make()),
        canonical_dual(rotated_onb(d, seed=d)),
        canonical_dual(doubled),
    )


def certificate_reports(pairs, weighted):
    """``repr`` of every inner, projective and independence report on
    ``certificate_pairs``, at unit or ``poly_weight(., 1)`` weights:
    independence against the same pair object, against the second build
    and, at unit weights, against the rotated ONB and the doubled ONB,
    whose index grid differs from the family's unless it has ``2 d``
    elements."""
    pair, other, rotated, doubled = pairs
    n, d = pair.frame.cardinality, pair.frame.space_dim
    w = poly_weight(pair.frame.index_set, 1.0) if weighted else np.ones(n)
    K = random_operator(d, d, seed=31)
    reports = [verify_inner(K, pair, pair, w, w), verify_projective(K, pair, pair, w, w)]
    targets = [pair, other] if weighted else [pair, other, rotated, doubled]
    for p, q, axis in INDEPENDENCE_SPECS:
        spec = MixedSpaceSpec(p, q, axis, np.outer(w, w))
        for target in targets:
            reports.append(
                verify_frame_independence(K, (pair, pair), (target, target), spec)
            )
    return [repr(rep.to_json()) for rep in reports]


class TestCertificateMemo:
    """The inner, projective and independence checks remember no
    frame-only certificate: each call computes its element norms and
    change-of-frame Schur sums anew, so no pair gets an entry in the
    store and a second run gives the first run's bits."""

    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("family", sorted(CERTIFICATE_FAMILIES))
    def test_reports_equal_fresh(self, family, weighted):
        pairs = certificate_pairs(CERTIFICATE_FAMILIES[family])
        first = certificate_reports(pairs, weighted)
        assert not [pair for pair in pairs if pair in localisation._memo]
        assert certificate_reports(pairs, weighted) == first

    def test_change_bound_is_the_weighted_schur_bound(self):
        pair, other = canonical_dual(onb(4)), canonical_dual(rotated_onb(4))
        weights = [np.ones(4), np.arange(1.0, 5.0), np.arange(4.0, 0.0, -1.0)]
        for w_from in weights:
            for w_to in weights:
                a = np.abs(cross_gram(pair.frame, other.dual))
                fresh = schur_weighted_bound(a, w_from, 1.5, w_out=w_to)
                got = theorems._change_bound(pair, other, w_from, w_to, 1.5)
                assert got == fresh


class TestCertificateLifetime:
    """The store holds no pair strongly, and a pair's op-norm entries fit
    in it."""

    def test_pairs_die_when_dropped(self):
        gc.collect()
        before = len(localisation._memo)
        pair, other = canonical_dual(gabor_pair()), canonical_dual(gabor_pair())
        w = poly_weight(pair.frame.index_set, 1.0)
        K = random_operator(8, 8, seed=32)
        verify_projective(K, pair, other, w, w)
        same = (pair, pair)
        for p, q, axis in INDEPENDENCE_SPECS:
            spec = MixedSpaceSpec(p, q, axis, np.outer(w, w))
            verify_frame_independence(K, same, same, spec)
            verify_frame_independence(K, same, (other, other), spec)
            verify_frame_independence(K, (other, pair), (pair, other), spec)
        alive = [weakref.ref(pair), weakref.ref(other)]
        del pair, other, same
        gc.collect()
        assert [ref() for ref in alive] == [None, None]
        assert len(localisation._memo) <= before

    def test_second_pass_refills_nothing(self, monkeypatch):
        """A five-exponent op-norm sweep and the three verifiers on one
        pair fill one random block, four denominators and one
        weighted-Gram entry (variant ii at p = 2), then nothing."""
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
        pair = canonical_dual(gabor_pair())
        w = poly_weight(pair.frame.index_set, 1.0)
        K = random_operator(8, 8, seed=33)
        spec = MixedSpaceSpec(2.0, 2.0, 0, np.outer(w, w))

        def one_pass():
            for p in (1.0, 1.5, 2.0, 3.0, np.inf):
                schur_characterization(K, pair, pair, w, w, p, "ii", seed=5)
            verify_inner(K, pair, pair, w, w)
            verify_projective(K, pair, pair, w, w)
            verify_frame_independence(K, (pair, pair), (pair, pair), spec)

        one_pass()
        assert fills == {
            "_random_probes": 1,
            "_probe_denominators": 4,
            "_weighted_analysis": 1,
        }
        assert len(localisation._memo[pair]) == 6 <= localisation._ENTRIES_PER_OWNER
        fills.clear()
        one_pass()
        assert fills == {}


# ---------------------------------------------------------------------------
# stacked verifier cores: each public verifier is the one-trial case


def _rotated_pair():
    return canonical_dual(rotated_onb(4, seed=9))


STACK_FAMILIES = {
    "onb4": lambda: canonical_dual(onb(4)),
    "onb12": lambda: canonical_dual(onb(12)),
    "onb16": lambda: canonical_dual(onb(16)),
    "mercedes": lambda: canonical_dual(mercedes()),
    "gabor8": lambda: canonical_dual(gabor_pair(8)),
    "gabor16": lambda: canonical_dual(gabor_pair(16)),
    "decaying8": lambda: canonical_dual(decaying_perturbation(8, 4.0, 0.05, seed=7)),
    "decaying32": lambda: canonical_dual(decaying_perturbation(32, 4.0, 0.05, seed=7)),
    "rotated4": _rotated_pair,
}
# 100 trials cross a chunk boundary on every family; the small families
# with the most trials per chunk run them all, the others the first 7
STACK_LONG = {"onb4", "onb16", "gabor8"}
STACK_EXPONENTS = (1.0, 1.5, 2.0, 3.0, np.inf)
ONES44 = np.ones((4, 4))


def _stack_cases(pair, w):
    """``(label, core, public)`` of every verifier on ``pair`` with the
    weights ``w``: ``core`` scores a stack, ``public`` one operator."""
    cases = [
        (
            "outer",
            lambda A: theorems._opnorm_report(A, pair, pair, w, w, 1.0, "outer", 3),
            lambda O: verify_outer(O, pair, pair, w, w, seed=3),
        ),
        (
            "inner",
            lambda A: theorems._inner_reports(A, pair, pair, w, w),
            lambda O: verify_inner(O, pair, pair, w, w),
        ),
        (
            "projective",
            lambda A: theorems._projective_reports(A, pair, pair, w, w),
            lambda O: verify_projective(O, pair, pair, w, w),
        ),
    ]
    for p in STACK_EXPONENTS:
        for variant in ("i", "ii"):
            cases.append(
                (
                    f"schur-{variant}-{p}",
                    lambda A, p=p, v=variant: theorems._opnorm_report(
                        A, pair, pair, w, w, p, v, 3
                    ),
                    lambda O, p=p, v=variant: schur_characterization(
                        O, pair, pair, w, w, p, v, seed=3
                    ),
                )
            )
        if p <= 2.0:
            cases.append(
                (
                    f"schatten-{p}",
                    # 1.5 first: its pass over the shared norms must leave
                    # them intact for p
                    lambda A, p=p: theorems._schatten_reports(
                        A, pair, pair, (1.5, p)
                    )[1::2],
                    lambda O, p=p: schatten_check(O, pair, pair, p),
                )
            )
    # a rotated ONB has another index grid unless the frame is a basis,
    # and only a constant grid carries over to another grid
    others = [pair]
    if pair.frame.cardinality == pair.frame.space_dim or np.ptp(w) == 0.0:
        others.append(canonical_dual(rotated_onb(pair.frame.space_dim, seed=5)))
    for p, q, axis in INDEPENDENCE_SPECS:
        spec = MixedSpaceSpec(p, q, axis, np.outer(w, w))
        for other in others:
            cases.append(
                (
                    f"independence-{p}-{q}-{axis}-{other is pair}",
                    lambda A, s=spec, o=other: theorems._independence_reports(
                        A, (pair, pair), (o, o), s
                    ),
                    lambda O, s=spec, o=other: verify_frame_independence(
                        O, (pair, pair), (o, o), s
                    ),
                )
            )
    return cases


def _bits(rep):
    return repr(rep.to_json())


# every stacked core on a stack ``A`` of operators on ``pair``, weights ``w``
MEMORY_CORES = {
    "outer": lambda A, pair, w: theorems._opnorm_report(
        A, pair, pair, w, w, 1.0, "outer", 0
    ),
    "schur-i": lambda A, pair, w: theorems._opnorm_report(
        A, pair, pair, w, w, 1.5, "i", 0
    ),
    "schur-ii": lambda A, pair, w: theorems._opnorm_report(
        A, pair, pair, w, w, 1.5, "ii", 0
    ),
    "inner": lambda A, pair, w: theorems._inner_reports(A, pair, pair, w, w),
    "projective": lambda A, pair, w: theorems._projective_reports(A, pair, pair, w, w),
    "independence": lambda A, pair, w: theorems._independence_reports(
        A, (pair, pair), (pair, pair), MixedSpaceSpec(2.0, 2.0, 0, np.outer(w, w))
    ),
    "schatten": lambda A, pair, w: theorems._schatten_reports(
        A, pair, pair, (1.0, 1.5, 2.0)
    ),
}


class TestStackedCores:
    """Each stacked core gives, for every trial of a stack, the report of
    the public verifier on that trial, details included, bit for bit:
    every family, unit and ``t = 1`` weights, every verifier, ``p`` in
    ``{1, 1.5, 2, 3, inf}`` with both Schur variants, and stacks of 1, 2,
    7 and 100 trials."""

    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("family", sorted(STACK_FAMILIES))
    def test_stack_equals_public_calls(self, family, weighted):
        pair = STACK_FAMILIES[family]()
        n, d = pair.frame.cardinality, pair.frame.space_dim
        w = poly_weight(pair.frame.index_set, 1.0) if weighted else np.ones(n)
        sizes = (1, 2, 7, 100) if family in STACK_LONG else (1, 2, 7)
        ops = np.stack(
            [random_operator(d, d, seed=500 + t) for t in range(max(sizes))]
        )
        for label, core, public in _stack_cases(pair, w):
            expected = [_bits(public(O)) for O in ops]
            for T in sizes:
                got = [_bits(rep) for rep in core(ops[:T])]
                assert got == expected[:T], (label, T)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("family", ["onb4", "gabor8", "mercedes"])
    def test_overflowed_trial_leaves_the_others_alone(self, family):
        """A zero operator, two unit ones and a ``1e300``-scaled one in
        one stack: only the scaled trial overflows, and every report is
        its trial's own."""
        pair = STACK_FAMILIES[family]()
        n, d = pair.frame.cardinality, pair.frame.space_dim
        w = np.full(n, 1e-150)
        ops = np.stack(
            [
                np.zeros((d, d), dtype=complex),
                random_operator(d, d, seed=1),
                1e300 * random_operator(d, d, seed=2),
                random_operator(d, d, seed=3),
            ]
        )
        for label, core, public in _stack_cases(pair, w)[:13]:
            reports = core(ops)
            assert [_bits(rep) for rep in reports] == [_bits(public(O)) for O in ops]
            if label.startswith(("outer", "schur")):
                flagged = ["overflowed" in rep.details for rep in reports]
                assert flagged == [False, False, True, False], label

    @pytest.mark.parametrize(
        "scale, run, error",
        [
            # the Galerkin matrix of a 1e300 operator against a frame of
            # 1e-10 vectors (dual vectors of 1e10) overflows
            (
                1e300,
                lambda A, pair, w: theorems._opnorm_report(
                    A, pair, pair, w, w, 1.0, "outer", 0
                ),
                PreconditionError,
            ),
            (
                1e300,
                lambda A, pair, w: theorems._projective_reports(A, pair, pair, w, w),
                PreconditionError,
            ),
            (
                1e300,
                lambda A, pair, w: theorems._independence_reports(
                    A, (pair, pair), (pair, pair), MixedSpaceSpec(1.0, 1.0, 0, ONES44)
                ),
                PreconditionError,
            ),
            # subnormal entries lift a lower bound past the clamp
            (
                1e-310,
                lambda A, pair, w: theorems._opnorm_report(
                    A, pair, pair, w, w, 1.5, "ii", 0
                ),
                FloatingPointError,
            ),
        ],
        ids=[
            "outer-overflow",
            "projective-overflow",
            "independence-overflow",
            "schur-subnormal",
        ],
    )
    def test_stack_raises_as_its_raising_trial(self, scale, run, error):
        if scale < 1.0:
            pair, d = canonical_dual(onb(8)), 8
        else:
            pair, d = canonical_dual(Frame.from_vectors(1e-10 * np.eye(4))), 4
        w = np.ones(pair.frame.cardinality)
        bad = scale * random_operator(d, d, seed=7)
        good = random_operator(d, d, seed=8)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(error) as alone:
                run(bad[None], pair, w)
            run(good[None], pair, w)
            for stack in ([good, bad], [bad, good], [good, good, bad]):
                with pytest.raises(error) as stacked:
                    run(np.stack(stack), pair, w)
                assert str(stacked.value) == str(alone.value)

    @pytest.mark.parametrize("core", sorted(MEMORY_CORES))
    @pytest.mark.parametrize("family", ["onb16", "gabor8"])
    def test_chunked_stack_memory_is_bounded(self, family, core):
        """The stacked temporaries of a 100-trial call are cut into chunks
        of at most ``_SCORE_ELEMENTS`` entries: the peak above the inputs
        and the reports stays within four such complex temporaries, where
        an unchunked Schur ii stack on ONB 16 takes about 53 (13.9 MB).
        On Gabor 8 the op-norm chunks are sized by ``_interval_elements``,
        which exceeds ``n1 n2`` there."""
        pair = STACK_FAMILIES[family]()
        d = pair.frame.space_dim
        w = poly_weight(pair.frame.index_set, 1.0)
        ops = np.stack([random_operator(d, d, seed=t) for t in range(100)])
        run = MEMORY_CORES[core]
        run(ops[:1], pair, w)  # fill
        gc.collect()
        tracemalloc.start()
        try:
            reports = run(ops, pair, w)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(reports) == 100 * (3 if core == "schatten" else 1)
        assert peak - kept <= 4 * coorbit._SCORE_ELEMENTS * 16
