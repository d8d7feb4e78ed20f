"""Generator determinism and the structural properties of each family."""

import json

import numpy as np
import pytest

from framelab.frames import (
    Frame,
    frame_bounds,
    frame_operator,
    gram,
    product_cyclic_index_set,
)
from framelab.generators import (
    GeneratorSpec,
    decaying_perturbation,
    finite_gabor,
    gaussian_window,
    mercedes,
    onb,
    random_operator,
    substream,
)
from framelab.localisation import JaffardParams, jaffard_norm, localisation_report
from framelab.frames import canonical_dual
from framelab.numeric import PreconditionError, svd_values


def reference_gabor(N, a, b, g):
    """The per-vector loop ``finite_gabor`` replaced: one ``np.roll`` per
    translate."""
    n_freq, n_time = N // b, N // a
    t = np.arange(N)
    vectors = np.empty((n_freq * n_time, N), dtype=complex)
    row = 0
    for m in range(n_freq):
        phase = np.exp(2j * np.pi * m * b * t / N)
        for n in range(n_time):
            vectors[row] = phase * np.roll(g, n * a)
            row += 1
    index_set = product_cyclic_index_set(n_freq, n_time, metric="max")
    return Frame(space_dim=N, index_set=index_set, vectors=vectors)


class TestOnb:
    def test_vectors(self):
        np.testing.assert_array_equal(onb(2).vectors, np.eye(2))

    def test_bounds(self):
        assert frame_bounds(onb(4)) == (1.0, 1.0)

    def test_gram_identity(self):
        np.testing.assert_allclose(gram(onb(3)), np.eye(3))

    def test_zero_dim_rejected(self):
        with pytest.raises(PreconditionError):
            onb(0)


class TestMercedes:
    def test_frame_operator_tight(self):
        np.testing.assert_allclose(
            frame_operator(mercedes()), 1.5 * np.eye(2), atol=1e-12
        )

    def test_bounds(self):
        assert frame_bounds(mercedes()) == pytest.approx((1.5, 1.5))

    def test_gram_off_diagonals(self):
        G = gram(mercedes())
        off = G[~np.eye(3, dtype=bool)]
        np.testing.assert_allclose(off, -0.5, atol=1e-12)


class TestFiniteGabor:
    def test_full_lattice_delta_window(self):
        g = np.zeros(4, dtype=complex)
        g[0] = 1.0
        frame = finite_gabor(4, 1, 1, g)
        assert frame.cardinality == 16
        assert frame_bounds(frame) == pytest.approx((4.0, 4.0))

    def test_full_lattice_normalized_ones(self):
        g = np.ones(4, dtype=complex) / 2.0
        frame = finite_gabor(4, 1, 1, g)
        # tightness constant is length times window energy
        assert frame_bounds(frame) == pytest.approx((4.0, 4.0))
        assert frame_bounds(frame)[0] == pytest.approx(4 * np.linalg.norm(g) ** 2)

    def test_full_lattice_tight_any_window(self):
        rng = substream(0, "test-gen", "window")
        g = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        a, b = frame_bounds(finite_gabor(8, 1, 1, g))
        assert b / a - 1.0 <= 1e-9
        assert a == pytest.approx(8 * np.linalg.norm(g) ** 2, rel=1e-9)

    def test_gaussian_lattice_localised(self):
        frame = finite_gabor(16, 2, 2, gaussian_window(16))
        a, b = frame_bounds(frame)
        assert a > 0
        rep = localisation_report(
            canonical_dual(frame), JaffardParams(2.0, frame.index_set)
        )
        assert np.isfinite(rep.jaffard_gram)
        assert rep.verdict

    def test_index_set_structure(self):
        frame = finite_gabor(8, 4, 1, gaussian_window(8))
        assert frame.index_set.kind == "product_cyclic"
        assert frame.index_set.size == (8, 2)  # (freqs, times)
        assert frame.index_set.metric == "max"

    def test_vector_formula(self):
        N, a, b = 8, 2, 1
        g = gaussian_window(N)
        frame = finite_gabor(N, a, b, g)
        t = np.arange(N)
        labels = frame.index_set.labels()
        for row, (m, n) in enumerate(labels):
            expected = np.exp(2j * np.pi * m * b * t / N) * np.roll(g, n * a)
            np.testing.assert_allclose(frame.vectors[row], expected, atol=1e-12)

    @pytest.mark.parametrize(
        "N, a, b", [(16, 2, 2), (64, 2, 2), (32, 1, 1), (12, 3, 4), (8, 8, 1)]
    )
    @pytest.mark.parametrize("window", ["gaussian", "random"])
    def test_matches_reference_loop_exactly(self, N, a, b, window):
        if window == "gaussian":
            g = gaussian_window(N)
        else:
            rng = substream(1, "test-gen", "gabor-ref", N)
            g = rng.standard_normal(N) + 1j * rng.standard_normal(N)
        frame = finite_gabor(N, a, b, g)
        ref = reference_gabor(N, a, b, g)
        assert frame.vectors.shape == ref.vectors.shape
        assert frame.vectors.tobytes() == ref.vectors.tobytes()
        assert frame.bounds == ref.bounds
        assert frame.index_set == ref.index_set

    def test_non_divisor_steps(self):
        with pytest.raises(PreconditionError):
            finite_gabor(8, 3, 2, gaussian_window(8))

    def test_zero_window(self):
        with pytest.raises(PreconditionError):
            finite_gabor(4, 1, 1, np.zeros(4))

    @pytest.mark.parametrize("N", [0, -4])
    def test_nonpositive_length(self, N):
        with pytest.raises(PreconditionError, match="^length must be >= 1$"):
            finite_gabor(N, 1, 1, gaussian_window(max(N, 0)))


class TestDecayingPerturbation:
    def test_zero_amplitude_is_basis(self):
        frame = decaying_perturbation(5, 3.0, 0.0, seed=0)
        np.testing.assert_array_equal(frame.vectors, np.eye(5))

    def test_jaffard_norm_bound(self):
        frame = decaying_perturbation(16, 4.0, 0.05, seed=7)
        assert jaffard_norm(gram(frame), JaffardParams(3.0, frame.index_set)) <= 2.0

    def test_bounds_within_perturbation_norm(self):
        frame = decaying_perturbation(12, 3.0, 0.05, seed=3)
        S = frame_operator(frame)
        shift = np.linalg.norm(S - np.eye(12), 2)
        a, b = frame_bounds(frame)
        assert a >= 1.0 - shift - 1e-12
        assert b <= 1.0 + shift + 1e-12

    @pytest.mark.parametrize("s", [np.nan, -1.0])
    def test_rejects_bad_decay(self, s):
        with pytest.raises(PreconditionError, match="^decay must be a nonnegative number$"):
            decaying_perturbation(4, s, 0.1)

    @pytest.mark.parametrize("eps", [np.nan, np.inf, -0.1])
    def test_rejects_bad_amplitude(self, eps):
        with pytest.raises(
            PreconditionError, match="^amplitude must be a nonnegative finite number$"
        ):
            decaying_perturbation(4, 2.0, eps)

    def test_deterministic(self):
        f1 = decaying_perturbation(8, 4.0, 0.05, seed=5)
        f2 = decaying_perturbation(8, 4.0, 0.05, seed=5)
        np.testing.assert_array_equal(f1.vectors, f2.vectors)


class TestRandomOperator:
    def test_lowrank_one_singular_value(self):
        s = svd_values(random_operator(4, 4, kind="lowrank", rank=1, seed=1))
        assert (s > 1e-12).sum() == 1

    def test_banded_zero_width_is_diagonal(self):
        M = random_operator(4, 4, kind="banded", width=0, seed=2)
        np.testing.assert_array_equal(M, np.diag(np.diag(M)))

    def test_banded_width(self):
        M = random_operator(6, 6, kind="banded", width=2, seed=3)
        rows, cols = np.nonzero(M)
        assert np.all(np.abs(rows - cols) <= 2)

    def test_same_seed_identical(self):
        A = random_operator(5, 3, seed=4)
        B = random_operator(5, 3, seed=4)
        np.testing.assert_array_equal(A, B)

    def test_different_seeds_differ(self):
        A = random_operator(5, 3, seed=4)
        B = random_operator(5, 3, seed=5)
        assert np.any(A != B)

    def test_missing_parameters(self):
        with pytest.raises(PreconditionError):
            random_operator(4, 4, kind="banded", seed=0)
        with pytest.raises(PreconditionError):
            random_operator(4, 4, kind="lowrank", seed=0)
        with pytest.raises(PreconditionError):
            random_operator(4, 4, kind="sparse", seed=0)


class TestSubstream:
    def test_reproducible(self):
        a = substream(0, "m", "op", 1).standard_normal(4)
        b = substream(0, "m", "op", 1).standard_normal(4)
        np.testing.assert_array_equal(a, b)

    def test_labels_split_streams(self):
        a = substream(0, "m", "op", 1).standard_normal(4)
        b = substream(0, "m", "op", 2).standard_normal(4)
        assert np.any(a != b)


class TestGeneratorSpec:
    def test_build_deterministic(self):
        spec = GeneratorSpec(
            "decaying_perturbation", {"dim": 6, "decay": 3.0, "eps": 0.05}, seed=9
        )
        np.testing.assert_array_equal(spec.build().vectors, spec.build().vectors)

    def test_json_round_trip(self):
        spec = GeneratorSpec("gabor", {"length": 8, "time_step": 2, "freq_step": 2}, 1)
        again = GeneratorSpec.from_json(json.loads(json.dumps(spec.to_json())))
        assert again == spec
        np.testing.assert_array_equal(spec.build().vectors, again.build().vectors)

    def test_operator_spec(self):
        spec = GeneratorSpec(
            "random_operator",
            {"rows": 3, "cols": 4, "structure": "lowrank", "rank": 2},
            seed=2,
        )
        M = spec.build()
        assert M.shape == (3, 4)
        assert (svd_values(M) > 1e-12).sum() <= 2

    def test_unknown_kind(self):
        with pytest.raises(PreconditionError):
            GeneratorSpec("wavelet", {}).build()

    def test_defaults_come_from_the_table(self):
        spec = GeneratorSpec("gabor", {"length": 8})
        full = GeneratorSpec(
            "gabor", {"length": 8, "time_step": 1, "freq_step": 1, "window": "gaussian"}
        )
        np.testing.assert_array_equal(spec.build().vectors, full.build().vectors)

    def test_window_names_and_values(self):
        for name, g in (
            ("delta", np.eye(1, 4)[0]),
            ("ones", np.full(4, 0.5)),
            ("gaussian", gaussian_window(4)),
        ):
            built = GeneratorSpec("gabor", {"length": 4, "window": name}).build()
            listed = GeneratorSpec("gabor", {"length": 4, "window": g.real.tolist()}).build()
            np.testing.assert_array_equal(built.vectors, finite_gabor(4, 1, 1, g).vectors)
            np.testing.assert_array_equal(listed.vectors, built.vectors)


class TestSpecValidation:
    """A spec is outside input: every parameter is named in the kind's
    table, and no value is coerced into an integer or a number."""

    @pytest.mark.parametrize(
        "kind, params, seed, message",
        [
            ("onb", {"dim": 4.9}, 0, "dim must be an integer, got 4.9"),
            ("onb", {"dim": True}, 0, "dim must be an integer, got True"),
            ("gabor", {"length": "8"}, 0, "length must be an integer, got '8'"),
            ("gabor", {"length": 8, "time_step": 2.0}, 0, "time_step must be an integer"),
            ("onb", {"dim": 4}, "7", "seed must be an integer, got '7'"),
            ("onb", {"dim": 4}, 1.9, "seed must be an integer, got 1.9"),
            (
                "random_operator",
                {"rows": 4, "cols": 4, "structure": "lowrank", "rank": 2.5},
                0,
                "rank must be an integer, got 2.5",
            ),
            (
                "random_operator",
                {"rows": 4, "cols": 4, "structure": "banded", "width": None},
                0,
                "width must be an integer, got None",
            ),
            (
                "decaying_perturbation",
                {"dim": 4, "decay": "2", "eps": 0.1},
                0,
                "decay must be a number, got '2'",
            ),
            (
                "decaying_perturbation",
                {"dim": 4, "decay": 2, "eps": False},
                0,
                "eps must be a number, got False",
            ),
            ("gabor", {"length": 4, "window": "hann"}, 0, "unknown window 'hann'"),
            (
                "gabor",
                {"length": 4, "window": [1, "0", 0, 0]},
                0,
                "window must be a name or a list of numbers",
            ),
            ("gabor", {"length": 4, "window": 1.0}, 0, "window must be a name"),
            ("onb", {}, 0, r"generator onb needs \['dim'\]"),
            (
                "decaying_perturbation",
                {"dim": 4},
                0,
                r"generator decaying_perturbation needs \['decay', 'eps'\]",
            ),
            (
                "gabor",
                {"length": 8, "timestep": 2},
                0,
                r"generator gabor takes \['length', 'time_step', 'freq_step', "
                r"'window'\], not \['timestep'\]",
            ),
            ("mercedes", {"dim": 2}, 0, r"generator mercedes takes \[\], not \['dim'\]"),
        ],
    )
    def test_rejected(self, kind, params, seed, message):
        with pytest.raises(PreconditionError, match=message):
            GeneratorSpec(kind, params, seed).build()

    @pytest.mark.parametrize(
        "obj",
        [
            [1, 2],
            "onb",
            {"parameters": {"dim": 4}},
            {"kind": 3},
            {"kind": "onb", "parameters": [["dim", 4]]},
            {"kind": "onb", "parameters": {"dim": 4}, "sed": 7},
        ],
        ids=["list", "string", "no-kind", "kind-not-string", "parameters-list", "extra-key"],
    )
    def test_spec_must_be_an_object(self, obj):
        with pytest.raises(PreconditionError, match="must be a JSON object"):
            GeneratorSpec.from_json(obj)

    def test_integer_valued_numbers_are_floats_for_the_stream(self):
        # the decay labels the random substream, so 2 and 2.0 build the same
        as_int = GeneratorSpec("decaying_perturbation", {"dim": 5, "decay": 2, "eps": 1}, 3)
        as_float = GeneratorSpec(
            "decaying_perturbation", {"dim": 5, "decay": 2.0, "eps": 1.0}, 3
        )
        np.testing.assert_array_equal(as_int.build().vectors, as_float.build().vectors)
