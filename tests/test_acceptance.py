"""Acceptance criteria, one test per criterion at the declared sizes.

Each test prints a single pass/fail line; independent brute-force
oracles are computed inline with plain loops wherever an oracle is
called for, never through the code path under test.
"""

import json
import time

import numpy as np

from framelab.coorbit import CoorbitSpec, MixedSpaceSpec, SeqSpaceSpec, coorbit_norm
from framelab.frames import Frame, canonical_dual, cross_gram, frame_bounds, gram
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
    JaffardParams,
    jaffard_norm,
    poly_weight,
    schur_weighted_bound,
)
from framelab.suite import run_suite, strip_timings
from framelab.tensor_kernels import galerkin, synthesize_kernel
from framelab.theorems import (
    schatten_check,
    schur_characterization,
    verify_frame_independence,
    verify_inner,
    verify_outer,
    verify_projective,
)


def announce(criterion, ok):
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'}")
    assert ok


def acceptance_families():
    return {
        "onb": canonical_dual(onb(32)),
        "gabor": canonical_dual(finite_gabor(16, 2, 2, gaussian_window(16))),
        "decaying": canonical_dual(decaying_perturbation(32, 4.0, 0.05, seed=11)),
    }


def test_criterion_1_kernel_round_trip():
    t0 = time.perf_counter()
    families = acceptance_families()
    counts = {"onb": 34, "gabor": 33, "decaying": 33}
    worst = 0.0
    for name, pair in families.items():
        d = pair.frame.space_dim
        for trial in range(counts[name]):
            O = random_operator(d, d, seed=1000 + trial, kind="dense")
            back = synthesize_kernel(galerkin(O, pair, pair), pair, pair)
            worst = max(worst, np.linalg.norm(back - O) / np.linalg.norm(O))
    elapsed = time.perf_counter() - t0
    announce(1, worst <= 1e-9 and elapsed < 30.0)


def test_criterion_2_correspondence_principle():
    families = acceptance_families()
    ok = True
    for name, pair in families.items():
        d = pair.frame.space_dim
        n = pair.frame.cardinality
        for trial in range(10):
            O = random_operator(d, d, seed=2000 + trial)
            k = galerkin(O, pair, pair)
            projected = galerkin(synthesize_kernel(k, pair, pair), pair, pair)
            res = np.max(np.abs(k - projected)) / max(np.max(np.abs(k)), 1.0)
            ok = ok and res <= 1e-9
        rng = substream(2, "acceptance", "coefficients", name)
        for trial in range(50):
            c = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            p1 = galerkin(synthesize_kernel(c, pair, pair), pair, pair)
            p2 = galerkin(synthesize_kernel(p1, pair, pair), pair, pair)
            gap = np.max(np.abs(p2 - p1)) / max(np.max(np.abs(p1)), 1.0)
            ok = ok and gap <= 1e-10
    announce(2, ok)


def test_criterion_3_outer_equality_onb():
    d = 16
    pair = canonical_dual(onb(d))
    weight_choices = [np.ones(d), poly_weight(pair.frame.index_set, 1.0)]
    ok = True
    for trial in range(100):
        O = random_operator(d, d, seed=3000 + trial)
        w = weight_choices[trial % 2]
        rep = verify_outer(O, pair, pair, w, w, seed=trial)
        # independent extreme-point oracle, plain loops
        oracle = 0.0
        for i in range(d):
            for j in range(d):
                oracle = max(oracle, abs(O[j, i]) / (w[i] * w[j]))
        scale = max(oracle, 1.0)
        ok = ok and abs(rep.lhs - oracle) <= 1e-9 * scale
        ok = ok and abs(rep.rhs - oracle) <= 1e-9 * scale
        ok = ok and rep.passed
    announce(3, ok)


def _pnorm_loop(values, p):
    if np.isinf(p):
        return max(values)
    return sum(v**p for v in values) ** (1.0 / p)


def test_criterion_4_schur_characterizations():
    d = 8
    pair = canonical_dual(onb(d))
    w1 = poly_weight(pair.frame.index_set, 1.0)
    w2 = np.ones(d)
    ok = True
    for trial in range(10):
        O = random_operator(d, d, seed=4000 + trial)
        for p in (1.0, 2.0, np.inf):
            q = np.inf if p == 1.0 else (1.0 if np.isinf(p) else p / (p - 1.0))
            rep_i = schur_characterization(O, pair, pair, w1, w2, p, "i", seed=trial)
            oracle_i = max(
                _pnorm_loop([abs(O[j, i]) / w2[j] for j in range(d)], p) / w1[i]
                for i in range(d)
            )
            rep_ii = schur_characterization(O, pair, pair, w1, w2, p, "ii", seed=trial)
            oracle_ii = max(
                _pnorm_loop([abs(O[j, i]) / w1[i] for i in range(d)], q) / w2[j]
                for j in range(d)
            )
            for rep, oracle in ((rep_i, oracle_i), (rep_ii, oracle_ii)):
                scale = max(oracle, 1.0)
                ok = ok and abs(rep.lhs - oracle) <= 1e-9 * scale
                ok = ok and abs(rep.rhs - oracle) <= 1e-9 * scale
                ok = ok and rep.passed
    gabor = canonical_dual(finite_gabor(8, 2, 2, gaussian_window(8)))
    wg = np.ones(gabor.frame.cardinality)
    for trial in range(50):
        O = random_operator(8, 8, seed=4500 + trial)
        variant = "i" if trial % 2 == 0 else "ii"
        rep = schur_characterization(O, gabor, gabor, wg, wg, 2.0, variant, seed=trial)
        ok = ok and rep.passed
    announce(4, ok)


def test_criterion_5_projective_sandwich():
    d = 8
    pair = canonical_dual(onb(d))
    w = np.ones(d)
    ok = True
    for trial in range(50):
        K = random_operator(d, d, seed=5000 + trial)
        rep = verify_projective(K, pair, pair, w, w)
        # equality at unit weights: both sides total coefficient mass
        total = sum(abs(K[j, i]) for i in range(d) for j in range(d))
        ok = ok and abs(rep.lhs - total) <= 1e-10 * total
        ok = ok and abs(rep.rhs - total) <= 1e-10 * total
        ok = ok and rep.passed
    pair_m = canonical_dual(mercedes())
    pair_d = canonical_dual(decaying_perturbation(8, 4.0, 0.05, seed=5))
    w3, w8 = np.ones(3), np.ones(8)
    for trial in range(20):
        rep = verify_projective(
            random_operator(2, 2, seed=5200 + trial), pair_m, pair_m, w3, w3
        )
        ok = ok and rep.passed and rep.lhs <= rep.rhs * (1 + 1e-12)
        ok = ok and rep.rhs <= rep.constant_budget * rep.lhs * (1 + 1e-9)
        rep = verify_projective(
            random_operator(8, 8, seed=5400 + trial), pair_d, pair_d, w8, w8
        )
        ok = ok and rep.passed
    announce(5, ok)


def test_criterion_6_inner_theorem():
    d = 8
    pair = canonical_dual(onb(d))
    w = np.ones(d)
    ok = True
    for trial in range(20):
        K = random_operator(d, d, seed=6000 + trial)
        rep = verify_inner(K, pair, pair, w, w)
        ok = ok and rep.details["reconstruction_residual"] <= 1e-9
        ok = ok and abs(rep.ratio - 1.0) <= 1e-10
        ok = ok and rep.passed
    pair_m = canonical_dual(mercedes())
    for trial in range(20):
        K = random_operator(2, 2, seed=6200 + trial)
        rep = verify_inner(K, pair_m, pair_m, np.ones(3), np.ones(3))
        ok = ok and rep.details["reconstruction_residual"] <= 1e-9
        ok = ok and rep.passed
    announce(6, ok)


def test_criterion_7_frame_independence():
    d = 4
    pair_a = canonical_dual(onb(d))
    rng = substream(7, "acceptance", "rotation")
    q, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    pair_rot = canonical_dual(Frame.from_vectors(q))
    pair_red = canonical_dual(
        Frame.from_vectors(np.array([[1, 0], [1, 0], [0, 1]], dtype=complex))
    )
    pair_2 = canonical_dual(onb(2))
    spec_sup = MixedSpaceSpec(np.inf, np.inf, 0, np.ones((d, d)))
    spec_l1 = MixedSpaceSpec(1.0, 1.0, 0, np.ones((2, 2)))
    ok = True
    for trial in range(50):
        O = random_operator(d, d, seed=7000 + trial)
        rep = verify_frame_independence(O, (pair_a, pair_a), (pair_rot, pair_rot), spec_sup)
        ok = ok and rep.passed
        same = verify_frame_independence(O, (pair_a, pair_a), (pair_a, pair_a), spec_sup)
        ok = ok and same.ratio == 1.0
    for trial in range(50):
        O2 = random_operator(2, 2, seed=7500 + trial)
        rep = verify_frame_independence(O2, (pair_2, pair_2), (pair_red, pair_red), spec_l1)
        ok = ok and rep.passed
    announce(7, ok)


def test_criterion_8_schatten_sufficiency():
    d = 16
    pair = canonical_dual(onb(d))
    ok = True
    for trial in range(50):
        O = random_operator(d, d, seed=8000 + trial)
        for p in (1.0, 1.5, 2.0):
            rep = schatten_check(O, pair, pair, p)
            ok = ok and rep.lhs <= rep.rhs * (1 + 1e-12)
            ok = ok and rep.passed
            if p == 2.0:
                # three-way identity with the Frobenius norm and the
                # summed-square kernel norm
                ok = ok and abs(rep.lhs - rep.details["frobenius"]) <= 1e-10
                ok = ok and abs(rep.lhs - rep.details["kernel_h2p"]) <= 1e-10
                ok = ok and abs(rep.lhs - rep.rhs) <= 1e-10
    announce(8, ok)


def test_criterion_9_localisation_diagnostics():
    ok = True
    # full time-frequency lattices are tight for any window
    rng = substream(9, "acceptance", "window")
    for window in (
        gaussian_window(8),
        np.ones(8, dtype=complex),
        rng.standard_normal(8) + 1j * rng.standard_normal(8),
    ):
        a, b = frame_bounds(finite_gabor(8, 1, 1, window))
        ok = ok and b / a - 1.0 <= 1e-9
    # perturbed bases keep their decay profile across seeds
    for seed in range(20):
        frame = decaying_perturbation(16, 4.0, 0.05, seed=seed)
        norm = jaffard_norm(gram(frame), JaffardParams(3.0, frame.index_set))
        ok = ok and norm <= 2.0
    # element-norm certificates hold for every index on every family
    pairs = [
        canonical_dual(onb(8)),
        canonical_dual(mercedes()),
        canonical_dual(finite_gabor(8, 2, 2, gaussian_window(8))),
        canonical_dual(decaying_perturbation(16, 4.0, 0.05, seed=3)),
    ]
    for pair in pairs:
        n = pair.frame.cardinality
        for w in (np.ones(n), poly_weight(pair.frame.index_set, 1.0)):
            spec = CoorbitSpec(pair, SeqSpaceSpec(1.0, w))
            bound_dual = schur_weighted_bound(gram(pair.dual), w, 1.0)
            bound_primal = schur_weighted_bound(
                cross_gram(pair.frame, pair.dual), w, 1.0
            )
            for i in range(n):
                ok = ok and coorbit_norm(spec, pair.dual.vectors[i]) <= (
                    bound_dual * w[i] * (1 + 1e-9)
                )
                ok = ok and coorbit_norm(spec, pair.frame.vectors[i]) <= (
                    bound_primal * w[i] * (1 + 1e-9)
                )
    announce(9, ok)


def test_criterion_10_suite_determinism():
    t0 = time.perf_counter()
    first = run_suite("fast", seed=0)
    elapsed = time.perf_counter() - t0
    second = run_suite("fast", seed=0)
    ok = elapsed < 60.0
    ok = ok and first["pass"] and second["pass"]
    ok = ok and len(first["checks"]) >= 12
    blob1 = json.dumps(strip_timings(first), sort_keys=True)
    blob2 = json.dumps(strip_timings(second), sort_keys=True)
    ok = ok and blob1 == blob2
    announce(10, ok)
