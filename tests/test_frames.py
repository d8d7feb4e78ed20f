"""Frame machinery: spec examples, adjoint/composition identities,
duals and reconstruction."""

import dataclasses
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framelab.coorbit import CoorbitSpec, MixedSpaceSpec, SeqSpaceSpec
from framelab.frames import (
    Frame,
    FramePair,
    IndexSet,
    NotAFrameError,
    analysis,
    canonical_dual,
    cross_gram,
    frame_bounds,
    frame_from_json,
    frame_operator,
    frame_to_json,
    gram,
    linear_index_set,
    product_cyclic_index_set,
    synthesis,
)
from framelab.generators import finite_gabor, gaussian_window, mercedes, onb, substream
from framelab.numeric import ConditioningError, PreconditionError


def e1e1e2():
    return Frame.from_vectors(np.array([[1, 0], [1, 0], [0, 1]], dtype=complex))


def random_frame(n, d, seed):
    rng = substream(seed, "test", "frame", n, d)
    V = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
    return Frame.from_vectors(V)


def label_loop_distances(index_set):
    """``rho(u, v)`` written out for every pair of labels, in label order."""

    def cyclic(x, y, n):
        k = abs(x - y)
        return min(k, n - k)

    if index_set.kind == "linear":
        rho = lambda u, v: abs(u - v)
    elif index_set.kind == "cyclic":
        rho = lambda u, v: cyclic(u, v, index_set.size)
    else:
        n1, n2 = index_set.size
        combine = max if index_set.metric == "max" else (lambda x, y: x + y)
        rho = lambda u, v: combine(cyclic(u[0], v[0], n1), cyclic(u[1], v[1], n2))
    labels = index_set.labels()
    return np.array([[float(rho(u, v)) for v in labels] for u in labels])


def assert_distances_match_loop(index_set):
    D = index_set.distance_matrix()
    expected = label_loop_distances(index_set)
    assert D.dtype == np.float64 and D.shape == expected.shape
    assert D.tobytes() == expected.tobytes()
    origin = index_set.distances_from_origin()
    assert origin.shape == (len(index_set),)
    assert origin.tobytes() == D[0].tobytes()


def random_vec(d, seed):
    rng = substream(seed, "test", "vec", d)
    return rng.standard_normal(d) + 1j * rng.standard_normal(d)


class TestIndexSet:
    def test_linear_metric(self):
        D = linear_index_set(4).distance_matrix()
        assert D[0, 3] == 3 and D[2, 1] == 1
        np.testing.assert_array_equal(D, D.T)
        np.testing.assert_array_equal(np.diag(D), 0)

    def test_cyclic_metric(self):
        D = IndexSet("cyclic", 5).distance_matrix()
        assert D[0, 4] == 1 and D[0, 2] == 2

    def test_product_max_metric(self):
        s = product_cyclic_index_set(2, 3)
        labels = s.labels()
        assert labels[0] == (0, 0) and labels[1] == (0, 1)  # first coord slowest
        D = s.distance_matrix()
        i = labels.index((0, 0))
        j = labels.index((1, 2))
        assert D[i, j] == max(1, 1)

    def test_product_sum_metric(self):
        s = product_cyclic_index_set(4, 4, metric="sum")
        labels = s.labels()
        D = s.distance_matrix()
        assert D[labels.index((0, 0)), labels.index((1, 2))] == 3

    @pytest.mark.parametrize(
        "index_set",
        [linear_index_set(n) for n in (1, 2, 7)]
        + [IndexSet("cyclic", n) for n in (1, 2, 5, 8)]
        + [
            product_cyclic_index_set(n1, n2, metric)
            for n1, n2 in ((1, 1), (4, 6), (5, 3), (1, 4), (3, 1), (4, 4))
            for metric in ("max", "sum")
        ],
        ids=lambda s: f"{s.kind}-{s.size}-{s.metric}",
    )
    def test_distances_match_label_loop(self, index_set):
        assert_distances_match_loop(index_set)

    @settings(derandomize=True, max_examples=25, deadline=None, database=None)
    @given(
        kind=st.sampled_from(["linear", "cyclic", "product_cyclic"]),
        n1=st.integers(1, 9),
        n2=st.integers(1, 9),
        metric=st.sampled_from(["max", "sum"]),
    )
    def test_random_index_sets_match_label_loop(self, kind, n1, n2, metric):
        if kind == "product_cyclic":
            index_set = product_cyclic_index_set(n1, n2, metric)
        else:
            index_set = IndexSet(kind, n1 * n2)
        assert_distances_match_loop(index_set)

    def test_bad_kind(self):
        with pytest.raises(PreconditionError):
            IndexSet(kind="hexagonal", size=3)

    @pytest.mark.parametrize("kind, metric", [("linear", "cyclic"), ("cyclic", "abs")])
    def test_mismatched_metric_rejected(self, kind, metric):
        # distance_matrix() follows the kind, so another label would lie
        with pytest.raises(PreconditionError):
            IndexSet(kind, 5, metric)
        with pytest.raises(PreconditionError):
            IndexSet.from_json({"kind": kind, "size": 5, "metric": metric})

    @pytest.mark.parametrize(
        "build, bad",
        [
            (lambda n: IndexSet("linear", n), 3.7),
            (lambda n: IndexSet("cyclic", n), True),
            (lambda n: IndexSet("linear", n), "3"),
            (lambda n: product_cyclic_index_set(n, 3), 2.9),
            (lambda n: product_cyclic_index_set(2, n), 3.2),
            (lambda n: product_cyclic_index_set(2, n), np.float64(3.0)),
        ],
        ids=["float", "bool", "string", "product-first", "product-second", "numpy-float"],
    )
    def test_non_integer_size_rejected(self, build, bad):
        """Sizes are Python or NumPy integers: a float is not truncated
        (3.7 gave 3 labels) and a bool is not a size (True gave 1)."""
        message = re.escape(f"size must be an integer, got {bad!r}")
        with pytest.raises(PreconditionError, match=message):
            build(bad)


class TestAnalysisSynthesis:
    def test_onb_coordinates(self):
        c = analysis(onb(2), np.array([3.0, 4.0]))
        np.testing.assert_allclose(c, [3.0, 4.0])

    def test_e1e1e2_analysis(self):
        c = analysis(e1e1e2(), np.array([1.0, 0.0]))
        np.testing.assert_allclose(c, [1.0, 1.0, 0.0])

    def test_mercedes_analysis_dot_oracle(self):
        frame = mercedes()
        f = np.array([0.0, 1.0])
        expected = [np.vdot(v, f) for v in frame.vectors]  # conj(v) . f
        got = analysis(frame, f)
        np.testing.assert_allclose(got, expected)
        np.testing.assert_allclose(got, [1.0, -0.5, -0.5])

    def test_synthesis_onb(self):
        np.testing.assert_allclose(
            synthesis(onb(2), np.array([3.0, 4.0])), [3.0, 4.0]
        )

    def test_synthesis_e1e1e2(self):
        np.testing.assert_allclose(
            synthesis(e1e1e2(), np.array([1.0, 1.0, 0.0])), [2.0, 0.0]
        )

    def test_adjoint_identity(self):
        frame = random_frame(7, 4, seed=1)
        c = random_vec(7, seed=2)
        f = random_vec(4, seed=3)
        lhs = np.vdot(f, synthesis(frame, c))  # <D c, f>
        rhs = np.sum(c * np.conj(analysis(frame, f)))
        assert abs(lhs - rhs) <= 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(PreconditionError):
            analysis(onb(2), np.zeros(3))
        with pytest.raises(PreconditionError):
            synthesis(onb(2), np.zeros(3))


class TestGram:
    def test_onb_identity(self):
        np.testing.assert_allclose(cross_gram(onb(3), onb(3)), np.eye(3))

    def test_mercedes_entries(self):
        G = cross_gram(mercedes(), mercedes())
        np.testing.assert_allclose(np.diag(G), 1.0)
        off = G[~np.eye(3, dtype=bool)]
        np.testing.assert_allclose(off, -0.5, atol=1e-12)

    def test_composition_identity(self):
        A = random_frame(6, 3, seed=4)
        B = random_frame(5, 3, seed=5)
        c = random_vec(6, seed=6)
        G = cross_gram(A, B)
        np.testing.assert_allclose(
            G @ c, analysis(B, synthesis(A, c)), atol=1e-10
        )

    def test_gram_psd_spectrum_in_bounds(self):
        frame = random_frame(8, 4, seed=7)
        a, b = frame_bounds(frame)
        eigs = np.linalg.eigvalsh(gram(frame))
        nonzero = eigs[np.abs(eigs) > 1e-10]
        assert np.all(eigs >= -1e-10)
        assert np.all(nonzero >= a - 1e-9) and np.all(nonzero <= b + 1e-9)


class TestFrameOperator:
    def test_onb(self):
        np.testing.assert_allclose(frame_operator(onb(4)), np.eye(4))

    def test_e1e1e2(self):
        np.testing.assert_allclose(frame_operator(e1e1e2()), np.diag([2.0, 1.0]))

    def test_mercedes_summation_oracle(self):
        frame = mercedes()
        S = sum(np.outer(v, v.conj()) for v in frame.vectors)
        np.testing.assert_allclose(frame_operator(frame), S)
        np.testing.assert_allclose(S, 1.5 * np.eye(2), atol=1e-12)


class TestFrameBounds:
    def test_onb_parseval(self):
        assert frame_bounds(onb(5)) == (1.0, 1.0)

    def test_e1e1e2(self):
        a, b = frame_bounds(e1e1e2())
        assert (a, b) == pytest.approx((1.0, 2.0))

    def test_mercedes(self):
        a, b = frame_bounds(mercedes())
        assert (a, b) == pytest.approx((1.5, 1.5))

    def test_frame_inequality_on_probes(self):
        frame = random_frame(9, 5, seed=8)
        a, b = frame_bounds(frame)
        for t in range(10):
            f = random_vec(5, seed=100 + t)
            energy = np.sum(np.abs(analysis(frame, f)) ** 2)
            n2 = np.linalg.norm(f) ** 2
            assert a * n2 * (1 - 1e-9) <= energy <= b * n2 * (1 + 1e-9)


class TestCanonicalDual:
    def test_onb_self_dual(self):
        pair = canonical_dual(onb(3))
        np.testing.assert_allclose(pair.dual.vectors, pair.frame.vectors)

    def test_e1e1e2_dual(self):
        pair = canonical_dual(e1e1e2())
        np.testing.assert_allclose(
            pair.dual.vectors, [[0.5, 0], [0.5, 0], [0, 1]], atol=1e-12
        )

    def test_reconstruction_on_probes(self):
        pair = canonical_dual(random_frame(10, 6, seed=9))
        for t in range(10):
            f = random_vec(6, seed=200 + t)
            c = analysis(pair.frame, f)
            np.testing.assert_allclose(
                synthesis(pair.dual, c), f, atol=1e-9 * np.linalg.norm(f)
            )

    def test_dual_of_dual_recovers_frame(self):
        pair = canonical_dual(random_frame(7, 4, seed=10))
        again = canonical_dual(pair.dual)
        np.testing.assert_allclose(
            again.dual.vectors, pair.frame.vectors, atol=1e-8
        )

    def test_ill_conditioned_dual_raises(self):
        frame = Frame.from_vectors([[1, 0], [0, 10**-5.5]])  # A/B = 1e-11
        with pytest.raises(ConditioningError) as excinfo:
            canonical_dual(frame)
        assert str(excinfo.value) == (
            "frame too ill-conditioned for a stable dual (A/B = 1.000e-11)"
        )
        assert excinfo.value.smallest_eigenvalue == 1e-11

    def test_dual_pair_swaps_and_inverts_bounds(self):
        # a pair reads its bounds from its frame, so the swapped pair has
        # the dual's bounds: the inverted primal bounds (1, 2)
        pair = canonical_dual(e1e1e2())
        swapped = FramePair(frame=pair.dual, dual=pair.frame)
        assert swapped.bounds == frame_bounds(pair.dual)
        assert swapped.bounds == pytest.approx((0.5, 1.0))

    def test_pair_stores_frame_and_dual_only(self):
        assert [f.name for f in dataclasses.fields(FramePair)] == ["frame", "dual"]
        pair = canonical_dual(e1e1e2())
        assert pair.bounds is pair.frame.bounds


class TestOneFactorization:
    """Construction's eigendecomposition serves the bounds and the dual."""

    @pytest.fixture
    def factorizations(self, monkeypatch):
        calls = []
        for name in ("eigvalsh", "eigh", "cholesky"):
            original = getattr(np.linalg, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        return calls

    def test_bounds_reuse_construction(self, factorizations):
        frame = finite_gabor(8, 2, 2, gaussian_window(8))
        factorizations.clear()
        assert frame_bounds(frame) == frame.bounds
        assert factorizations == []

    def test_dual_factorizes_only_its_own_construction(self, factorizations):
        frame = finite_gabor(8, 2, 2, gaussian_window(8))
        factorizations.clear()
        pair = canonical_dual(frame)
        assert factorizations == ["eigvalsh"]
        assert pair.bounds == frame.bounds


class TestReconstructionResidual:
    """``|| D_dual C_frame f - f ||``, relative to ``max(||f||, 1)``."""

    @staticmethod
    def residual(pair, f):
        rebuilt = synthesis(pair.dual, analysis(pair.frame, f))
        return np.linalg.norm(rebuilt - f) / max(np.linalg.norm(f), 1.0)

    def test_zero_vector(self):
        pair = canonical_dual(mercedes())
        assert self.residual(pair, np.zeros(2)) == 0.0

    def test_onb_exact(self):
        pair = canonical_dual(onb(3))
        assert self.residual(pair, np.array([1.0, 2.0, 3.0])) <= 1e-12

    def test_gabor_pair(self):
        pair = canonical_dual(finite_gabor(8, 2, 2, gaussian_window(8)))
        f = random_vec(8, seed=11)
        assert self.residual(pair, f) <= 1e-9


class TestValidation:
    def test_rank_deficient_rejected(self):
        with pytest.raises(NotAFrameError):
            Frame.from_vectors(np.array([[1, 0], [1, 0]], dtype=complex))

    def test_too_few_vectors_rejected(self):
        with pytest.raises(NotAFrameError):
            Frame.from_vectors(np.array([[1, 0]], dtype=complex))

    def test_vectors_immutable(self):
        frame = onb(2)
        with pytest.raises(ValueError):
            frame.vectors[0, 0] = 5.0

    @pytest.mark.parametrize("big", [1e200, 1e155])
    def test_overflowing_frame_operator_rejected(self, big):
        # |1e155|^2 overflows; the eigenvalues of the overflowed frame
        # operator are NaN, which fails no comparison of the span check
        with pytest.raises(NotAFrameError, match="frame operator overflows"):
            Frame.from_vectors([[big, 0], [0, 1]])

    def test_largest_representable_frame_operator_accepted(self):
        frame = Frame.from_vectors([[1e154, 0], [0, 1e154]])
        assert frame.bounds == (1e308, 1e308)

    @pytest.mark.parametrize("space_dim", [3.0, True, "3", np.float64(3.0)])
    def test_non_integer_space_dim_rejected(self, space_dim):
        with pytest.raises(PreconditionError, match="space_dim must be an integer"):
            Frame(space_dim, linear_index_set(3), np.eye(3))

    def test_numpy_integer_space_dim_round_trips(self):
        """A NumPy integer dimension is stored as an ``int``, so
        ``frame_from_json`` accepts what ``frame_to_json`` writes."""
        frame = Frame(np.int64(3), linear_index_set(np.int32(3)), np.eye(3))
        assert type(frame.space_dim) is int
        again = frame_from_json(json.loads(json.dumps(frame_to_json(frame))))
        assert again.space_dim == 3 and again.index_set == frame.index_set


class TestCallerArraysStayWritable:
    """Constructors freeze a private copy, never the caller's array."""

    def test_frame(self):
        V = np.eye(2, dtype=complex)
        frame = Frame.from_vectors(V)
        V[0, 0] = 2.0
        assert frame.vectors[0, 0] == 1.0
        assert frame.bounds == (1.0, 1.0)
        assert not frame.vectors.flags.writeable

    def test_seq_space_spec(self):
        w = np.ones(4)
        spec = SeqSpaceSpec(2.0, w)
        w[0] = 3.0
        assert spec.weight[0] == 1.0
        assert not spec.weight.flags.writeable

    def test_mixed_space_spec(self):
        W = np.ones((2, 3))
        spec = MixedSpaceSpec(1.0, 2.0, 0, W)
        W[0, 0] = 3.0
        assert spec.weights[0, 0] == 1.0
        assert not spec.weights.flags.writeable


class TestSerialization:
    def test_round_trip(self):
        frame = finite_gabor(4, 2, 1, gaussian_window(4))
        again = frame_from_json(json.loads(json.dumps(frame_to_json(frame))))
        np.testing.assert_array_equal(frame.vectors, again.vectors)
        assert again.index_set == frame.index_set

    def test_loader_validates(self):
        bad = {
            "space_dim": 2,
            "index_set": {"kind": "linear", "size": 2},
            "vectors": [[[1.0, 0.0], [0.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]],
        }
        with pytest.raises(NotAFrameError):
            frame_from_json(bad)

    @pytest.mark.parametrize(
        "vectors",
        [[[[1, 0], [0, 0]], [[0, 0]]], [[[1, 0]], [[0, 0], [1, 0]]], []],
        ids=["short-last", "short-first", "empty"],
    )
    def test_ragged_vectors_rejected(self, vectors):
        bad = {
            "space_dim": 2,
            "index_set": {"kind": "linear", "size": 2},
            "vectors": vectors,
        }
        message = "^frame vectors must form a rectangular table$"
        with pytest.raises(PreconditionError, match=message):
            frame_from_json(bad)


    @pytest.mark.parametrize(
        "space_dim, size, message",
        [
            (2.0, 2, "space_dim must be an integer"),
            (True, 2, "space_dim must be an integer"),
            ("2", 2, "space_dim must be an integer"),
            (2, 2.5, "size must be an integer"),
            (2, "2", "size must be an integer"),
            (2, True, "size must be an integer"),
        ],
    )
    def test_non_integer_dimensions_rejected(self, space_dim, size, message):
        bad = {
            "space_dim": space_dim,
            "index_set": {"kind": "linear", "size": size},
            "vectors": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
        }
        with pytest.raises(PreconditionError, match=f"^{message}, got "):
            frame_from_json(bad)

    @pytest.mark.parametrize(
        "size, message",
        [
            ([2, 2.5], "size must be an integer"),
            ([True, 2], "size must be an integer"),
            ([4], r"size must be N or \[N1, N2\]"),
            ([1, 2, 2], r"size must be N or \[N1, N2\]"),
        ],
    )
    def test_index_set_size_must_be_integers(self, size, message):
        obj = {"kind": "product_cyclic", "size": size, "metric": "max"}
        with pytest.raises(PreconditionError, match=f"^{message}, got "):
            IndexSet.from_json(obj)

    @pytest.mark.parametrize("size", [4, (2, 3, 4), (4,), "ab"])
    def test_product_size_must_be_a_pair(self, size):
        """A product size that is not a pair is refused with the message
        that ``from_json`` gives, not a bare ``TypeError`` or an unpacking
        ``ValueError``."""
        message = re.escape(f"size must be N or [N1, N2], got {size!r}")
        with pytest.raises(PreconditionError, match=f"^{message}$"):
            IndexSet("product_cyclic", size)


class TestIdentitySemantics:
    """Array-holding frozen dataclasses compare by identity and hash."""

    def test_frame_equality_is_identity(self):
        a = Frame.from_vectors(np.eye(2))
        b = Frame.from_vectors(np.eye(2))
        assert a == a
        assert a != b
        assert hash(a) == hash(a)

    def test_pairs_go_in_sets(self):
        pair = canonical_dual(onb(2))
        other = canonical_dual(onb(2))
        assert {pair, pair, other} == {pair, other}
        assert len({pair, pair, other}) == 2

    def test_specs_hash(self):
        pair = canonical_dual(onb(2))
        objects = [
            SeqSpaceSpec(1.0, np.ones(2)),
            MixedSpaceSpec(1.0, 1.0, 0, np.ones((2, 2))),
            CoorbitSpec(pair, SeqSpaceSpec(1.0, np.ones(2))),
        ]
        for obj in objects:
            assert obj == obj
            assert hash(obj) == hash(obj)
        assert objects[0] != SeqSpaceSpec(1.0, np.ones(2))
        assert len(set(objects)) == len(objects)
