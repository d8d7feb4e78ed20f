"""Decay norms, weighted Schur bounds, polynomial weights, reports."""

import sys
import tracemalloc
import warnings

import numpy as np
import pytest

import framelab.numeric
from framelab import localisation
from framelab.frames import (
    Frame,
    IndexSet,
    canonical_dual,
    cross_gram,
    gram,
    linear_index_set,
    product_cyclic_index_set,
)
from framelab.generators import (
    decaying_perturbation,
    finite_gabor,
    gaussian_window,
    onb,
    random_operator,
    substream,
)
from framelab.localisation import (
    JaffardParams,
    _decay_grid,
    _gram_sup,
    _schur_bound,
    as_weight,
    jaffard_norm,
    localisation_report,
    poly_weight,
    schur_weighted_bound,
)
from framelab.numeric import PreconditionError, svd_values
from framelab.tensor_kernels import correspondence_residual, galerkin


def decaying_matrix(n, s, seed):
    rng = substream(seed, "test", "decaying_matrix", n, s)
    idx = np.arange(n)
    decay = (1.0 + np.abs(idx[:, None] - idx[None, :])) ** (-float(s))
    phase = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return phase / np.abs(phase) * decay


class TestJaffardNorm:
    def test_identity(self):
        params = JaffardParams(2.0, linear_index_set(5))
        assert jaffard_norm(np.eye(5), params) == 1.0

    def test_single_entry_arithmetic(self):
        M = np.zeros((4, 4))
        M[0, 2] = 5.0  # distance 2, s = 3: 5 * 3^3
        assert jaffard_norm(M, JaffardParams(3.0, linear_index_set(4))) == 135.0

    def test_exact_decay_profile(self):
        s = 2.5
        idx = np.arange(8)
        M = (1.0 + np.abs(idx[:, None] - idx[None, :])) ** (-s)
        assert jaffard_norm(M, JaffardParams(s, linear_index_set(8))) == pytest.approx(
            1.0
        )

    def test_zero_matrix(self):
        assert jaffard_norm(np.zeros((3, 3)), JaffardParams(1.0, linear_index_set(3))) == 0.0

    def test_solidity_under_masking(self):
        A = decaying_matrix(12, 2.0, seed=0)
        rng = substream(1, "test", "mask")
        mask = rng.uniform(size=(12, 12)) < 0.5
        B = A * mask
        params = JaffardParams(1.5, linear_index_set(12))
        assert jaffard_norm(B, params) <= jaffard_norm(A, params)

    def test_submultiplicative_at_loss(self):
        # brute-force constant: sup over (i,j) of
        # (1+|i-j|)^s sum_k (1+|i-k|)^-(s+2) (1+|k-j|)^-(s+2)
        n, s = 32, 2.0
        idx = np.arange(n)
        dist = 1.0 + np.abs(idx[:, None] - idx[None, :])
        conv = (dist**-(s + 2.0)) @ (dist**-(s + 2.0))
        C = np.max(dist**s * conv)
        params_s = JaffardParams(s, linear_index_set(n))
        params_loss = JaffardParams(s + 2.0, linear_index_set(n))
        for seed in range(5):
            A = decaying_matrix(n, s + 2.0, seed=seed)
            B = decaying_matrix(n, s + 2.0, seed=seed + 100)
            lhs = jaffard_norm(A @ B, params_s)
            rhs = C * jaffard_norm(A, params_loss) * jaffard_norm(B, params_loss)
            assert lhs <= rhs * (1 + 1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(PreconditionError):
            jaffard_norm(np.eye(3), JaffardParams(1.0, linear_index_set(4)))

    def test_zero_entry_against_overflowed_weight(self):
        # (1 + 599)^400 overflows to inf; 0 * inf must count as 0, not NaN
        params = JaffardParams(400.0, linear_index_set(600))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert jaffard_norm(np.eye(600), params) == 1.0


class TestAsWeight:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 0.0, -1.0])
    def test_rejects_entry(self, bad):
        with pytest.raises(
            PreconditionError, match="^weights must be positive and finite$"
        ):
            as_weight(np.array([1.0, bad, 2.0]))

    @pytest.mark.parametrize("shape", [(), (2, 3)])
    def test_rejects_non_1d(self, shape):
        with pytest.raises(PreconditionError, match="^weights must form a 1-D sequence$"):
            as_weight(np.ones(shape))

    def test_rejects_length_mismatch(self):
        with pytest.raises(PreconditionError, match="^3 weights for 4 indices$"):
            as_weight(np.ones(3), 4)


class TestSchurWeightedBound:
    def test_identity(self):
        w = np.array([1.0, 2.0, 0.5])
        for p in (1.0, 2.0, np.inf):
            assert schur_weighted_bound(np.eye(3), w, p) == pytest.approx(1.0)

    def test_diagonal(self):
        d = np.array([1.0, -3.0, 2.0])
        assert schur_weighted_bound(np.diag(d), np.ones(3), 2.0) == pytest.approx(3.0)

    def test_dominates_singular_value(self):
        rng = substream(2, "test", "banded")
        M = np.triu(np.tril(rng.standard_normal((8, 8)), 2), -2)
        bound = schur_weighted_bound(M, np.ones(8), 2.0)
        assert bound >= svd_values(M)[0] - 1e-12

    @pytest.mark.parametrize("p", [1.0, 2.0, np.inf])
    def test_dominates_brute_force_weighted_norm(self, p):
        rng = substream(3, "test", "schur", str(p))
        for trial in range(5):
            M = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
            w = rng.uniform(0.5, 2.0, 6)
            scaled = np.abs(M) * w[:, None] / w[None, :]
            if p == 1.0:
                truth = np.max((np.abs(M) * w[:, None] / w[None, :]).sum(axis=0))
            elif np.isinf(p):
                truth = np.max(scaled.sum(axis=1))
            else:
                truth = svd_values(np.diag(w) @ M @ np.diag(1.0 / w))[0]
            assert schur_weighted_bound(M, w, p) >= truth - 1e-10

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, np.inf])
    def test_core_matches_unit_weights_exactly(self, p):
        rng = substream(4, "test", "schur-core", str(p))
        M = rng.standard_normal((5, 7)) + 1j * rng.standard_normal((5, 7))
        public = schur_weighted_bound(M, np.ones(7), p, np.ones(5))
        assert _schur_bound(np.abs(M), p) == public


class TestRemembered:
    """The one store of operator-independent data keeps, per owner, at
    most ``_ENTRIES_PER_OWNER`` entries, the oldest evicted first."""

    def test_owner_keeps_its_newest_entries(self):
        class Owner:
            pass

        owner = Owner()
        cap = localisation._ENTRIES_PER_OWNER
        fills = []

        def get(key):
            return localisation._remembered(
                owner, key, lambda: fills.append(key) or 10 * key
            )

        assert [get(k) for k in range(cap + 2)] == [10 * k for k in range(cap + 2)]
        assert list(localisation._memo[owner]) == list(range(2, cap + 2))
        # a hit neither fills nor reorders
        assert get(2) == 20
        assert fills == list(range(cap + 2))
        assert list(localisation._memo[owner]) == list(range(2, cap + 2))
        # an evicted key is computed afresh and evicts the next oldest
        assert get(0) == 0
        assert fills == list(range(cap + 2)) + [0]
        assert list(localisation._memo[owner]) == list(range(3, cap + 2)) + [0]


class TestPolyWeight:
    def test_linear_grid(self):
        np.testing.assert_allclose(
            poly_weight(linear_index_set(4), 1.0), [1.0, 2.0, 3.0, 4.0]
        )

    def test_zero_exponent(self):
        np.testing.assert_allclose(poly_weight(IndexSet("cyclic", 5), 0.0), 1.0)

    def test_cyclic_grid(self):
        np.testing.assert_allclose(
            poly_weight(IndexSet("cyclic", 4), 1.0), [1.0, 2.0, 3.0, 2.0]
        )

    def test_reciprocal_product(self):
        s = linear_index_set(6)
        np.testing.assert_allclose(
            poly_weight(s, 1.5) * poly_weight(s, -1.5), 1.0
        )


class TestLocalisationReport:
    def test_onb(self):
        pair = canonical_dual(onb(4))
        rep = localisation_report(pair, JaffardParams(3.0, pair.frame.index_set))
        assert rep.jaffard_gram == rep.jaffard_dual_gram == rep.jaffard_cross == 1.0
        assert rep.verdict

    def test_decaying_perturbation_constant(self):
        eps = 0.05
        frame = decaying_perturbation(16, 4.0, eps, seed=7)
        pair = canonical_dual(frame)
        params = JaffardParams(3.0, frame.index_set)
        rep = localisation_report(pair, params)
        # brute-force sup agrees with the reported value
        rho = frame.index_set.distance_matrix()
        brute = np.max(np.abs(gram(frame)) * (1.0 + rho) ** 3.0)
        assert rep.jaffard_gram == pytest.approx(brute)
        assert rep.jaffard_gram <= 1.0 + 10.0 * eps
        assert rep.verdict

    def test_gabor_fields_present(self):
        pair = canonical_dual(finite_gabor(8, 2, 2, gaussian_window(8)))
        rep = localisation_report(pair, JaffardParams(2.0, pair.frame.index_set))
        data = rep.to_json()
        for key in (
            "jaffard_gram",
            "jaffard_dual_gram",
            "jaffard_cross",
            "exponent",
            "verdict",
            "threshold",
        ):
            assert key in data
        assert min(rep.jaffard_gram, rep.jaffard_dual_gram, rep.jaffard_cross) >= 0.0

    def test_norm_dominates_diagonal(self):
        pair = canonical_dual(decaying_perturbation(8, 3.0, 0.1, seed=1))
        params = JaffardParams(2.0, pair.frame.index_set)
        rep = localisation_report(pair, params)
        assert rep.jaffard_gram >= np.max(np.abs(np.diag(gram(pair.frame))))

    @pytest.mark.parametrize("s", [0.0, 1.0, 2.5, 3.0])
    @pytest.mark.parametrize("family", ["gabor-max", "gabor-sum", "decaying"])
    def test_fields_equal_jaffard_norms(self, family, s):
        if family == "decaying":
            pair = canonical_dual(decaying_perturbation(12, 3.0, 0.1, seed=4))
            index_set = pair.frame.index_set
        else:
            pair = canonical_dual(finite_gabor(16, 2, 2, gaussian_window(16)))
            metric = family.split("-")[1]
            index_set = product_cyclic_index_set(8, 8, metric)
        params = JaffardParams(s, index_set)
        rep = localisation_report(pair, params)
        assert rep.jaffard_gram == jaffard_norm(gram(pair.frame), params)
        assert rep.jaffard_dual_gram == jaffard_norm(gram(pair.dual), params)
        cross = cross_gram(pair.dual, pair.frame)
        assert rep.jaffard_cross == jaffard_norm(cross, params)

    def test_index_set_size_mismatch(self):
        pair = canonical_dual(onb(4))
        message = "does not match index set of size 5"
        with pytest.raises(PreconditionError, match=message):
            localisation_report(pair, JaffardParams(1.0, linear_index_set(5)))

    def test_nan_threshold(self):
        pair = canonical_dual(onb(4))
        params = JaffardParams(1.0, pair.frame.index_set)
        with pytest.raises(PreconditionError, match="threshold must not be NaN"):
            localisation_report(pair, params, threshold=float("nan"))


@pytest.fixture(scope="module")
def gabor64():
    return canonical_dual(finite_gabor(64, 2, 2, gaussian_window(64)))


def full_gram_norms(pair, params):
    """The three report fields from the full ``n x n`` Grams."""
    return (
        jaffard_norm(gram(pair.frame), params),
        jaffard_norm(gram(pair.dual), params),
        jaffard_norm(cross_gram(pair.dual, pair.frame), params),
    )


def report_fields(rep):
    return rep.jaffard_gram, rep.jaffard_dual_gram, rep.jaffard_cross


class TestBlockedReport:
    """The row-block reductions of ``localisation_report`` against the
    norms of the full Gram matrices, bit for bit."""

    @pytest.mark.parametrize("s", [0.0, 1.0, 3.0])
    def test_gabor64_equals_full_gram_norms(self, gabor64, s):
        params = JaffardParams(s, gabor64.frame.index_set)
        rep = localisation_report(gabor64, params)
        assert report_fields(rep) == full_gram_norms(gabor64, params)

    @pytest.mark.parametrize("s", [0.0, 1.0, 2.5, 3.0])
    @pytest.mark.parametrize("family", ["gabor-max", "gabor-sum", "decaying"])
    def test_many_uneven_blocks_equal_full_gram_norms(self, monkeypatch, family, s):
        if family == "decaying":
            pair = canonical_dual(decaying_perturbation(37, 3.0, 0.1, seed=5))
            index_set = pair.frame.index_set
        else:
            pair = canonical_dual(finite_gabor(20, 2, 2, gaussian_window(20)))
            index_set = product_cyclic_index_set(10, 10, family.split("-")[1])
        n = pair.frame.cardinality
        # 6-row blocks, the least a block holds: 100 rows leave a 4-row
        # block at the end, and 37 rows a 7-row one (the single last row
        # joins the block before it)
        monkeypatch.setattr("framelab.numeric._BLOCK_ENTRIES", 6 * n)
        params = JaffardParams(s, index_set)
        rep = localisation_report(pair, params)
        assert report_fields(rep) == full_gram_norms(pair, params)

    def test_hermitian_fields_lie_between_triangle_and_full_maxima(self, monkeypatch):
        # The Gram and dual Gram visit only the block upper triangle.  A
        # computed |G| need not be bitwise symmetric, so on a generic frame
        # these fields lie between the upper-triangle and the full maxima;
        # the cross Gram keeps full rows and equals its full norm.
        rng = substream(3, "test", "asymmetric-gram")
        V = rng.standard_normal((37, 11)) + 1j * rng.standard_normal((37, 11))
        pair = canonical_dual(Frame.from_vectors(V))
        monkeypatch.setattr("framelab.numeric._BLOCK_ENTRIES", 6 * 37)
        params = JaffardParams(2.5, pair.frame.index_set)
        rep = localisation_report(pair, params)
        grid = _decay_grid(params)
        upper = np.triu_indices(37)
        for field, frame in ((rep.jaffard_gram, pair.frame), (rep.jaffard_dual_gram, pair.dual)):
            weighted = np.abs(gram(frame)) * grid
            assert np.max(weighted[upper]) <= field <= np.max(weighted)
        assert rep.jaffard_cross == jaffard_norm(cross_gram(pair.dual, pair.frame), params)

    def test_blocks_keep_the_full_product_bits(self, monkeypatch):
        # A one-hot grid reads out single entries.  6-row blocks over 37
        # rows put the Hermitian column offsets off the BLAS micro-tile
        # grid and leave one trailing row, which a one-row product would
        # compute through gemv.
        rng = substream(4, "test", "entry-bits")
        L = rng.standard_normal((37, 9)) + 1j * rng.standard_normal((37, 9))
        R = rng.standard_normal((37, 9)) + 1j * rng.standard_normal((37, 9))
        monkeypatch.setattr("framelab.numeric._BLOCK_ENTRIES", 6 * 37)
        for hermitian, right in ((True, L), (False, R)):
            full = np.abs(L.conj() @ right.T)
            grid = np.zeros((37, 37))
            entries = np.triu_indices(37) if hermitian else np.indices(full.shape).reshape(2, -1)
            for i, j in zip(*entries):
                grid[i, j] = 1.0
                assert _gram_sup(L, right, grid, hermitian) == full[i, j]
                grid[i, j] = 0.0

    def test_zero_entries_against_overflowed_weights(self):
        pair = canonical_dual(onb(600))
        params = JaffardParams(400.0, pair.frame.index_set)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = localisation_report(pair, params)
        assert report_fields(rep) == (1.0, 1.0, 1.0)
        assert rep.verdict

    def test_peak_memory_below_one_complex_gram(self, gabor64):
        n = gabor64.frame.cardinality
        params = JaffardParams(3.0, gabor64.frame.index_set)
        tracemalloc.start()
        try:
            localisation_report(gabor64, params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * n * 16


DECAY_SETS = {
    "linear": lambda: linear_index_set(23),
    "cyclic": lambda: IndexSet("cyclic", 23),
    "product-max": lambda: product_cyclic_index_set(5, 7, "max"),
    "product-sum": lambda: product_cyclic_index_set(5, 7, "sum"),
}


class TestDecayGrid:
    @pytest.mark.parametrize("s", [0.0, 1.0, 2.5, 3.0, 400.0])
    @pytest.mark.parametrize("name", sorted(DECAY_SETS))
    def test_equals_powered_distance_matrix(self, name, s):
        index_set = DECAY_SETS[name]()
        with np.errstate(over="ignore"):
            expected = (1.0 + index_set.distance_matrix()) ** s
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # an overflowed weight is legitimate
            grid = _decay_grid(JaffardParams(s, index_set))
        assert grid.shape == expected.shape
        assert np.array_equal(grid, expected)

    def test_max_metric_builds_no_distance_matrix(self, monkeypatch):
        index_set = product_cyclic_index_set(4, 6, "max")

        def refuse(self):
            raise AssertionError("distance matrix built")

        monkeypatch.setattr(type(index_set), "distance_matrix", refuse)
        assert _decay_grid(JaffardParams(2.0, index_set)).shape == (24, 24)


class TestValidatedOnce:
    """Arrays the package builds itself are not validated again."""

    @pytest.fixture
    def as_matrix_calls(self, monkeypatch):
        calls = []
        real = framelab.numeric.as_matrix

        def counting(M):
            calls.append(1)
            return real(M)

        for name, module in list(sys.modules.items()):
            if name.startswith("framelab") and getattr(module, "as_matrix", 0) is real:
                monkeypatch.setattr(module, "as_matrix", counting)
        return calls

    def test_localisation_report_checks_no_gram(self, as_matrix_calls):
        pair = canonical_dual(finite_gabor(8, 2, 2, gaussian_window(8)))
        as_matrix_calls.clear()
        localisation_report(pair, JaffardParams(1.0, pair.frame.index_set))
        assert as_matrix_calls == []
        # the shape check stays without the validation
        with pytest.raises(PreconditionError, match="index set of size 5"):
            localisation_report(pair, JaffardParams(1.0, linear_index_set(5)))

    def test_correspondence_residual_checks_input_once(self, as_matrix_calls):
        pair = canonical_dual(onb(3))
        k = galerkin(random_operator(3, 3, seed=1), pair, pair)
        as_matrix_calls.clear()
        assert correspondence_residual(k, pair, pair) < 1e-12
        # synthesize_kernel's input check; the residual core checks the
        # synthesized kernel with one isfinite pass and no as_matrix call
        assert len(as_matrix_calls) == 1
