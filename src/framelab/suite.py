"""Self-contained verification suites runnable from the CLI.

``run_suite("fast", seed)`` executes a reduced version of every check in
under a minute; ``run_suite("full", seed)`` runs the declared sizes.
Given a root seed the summary is deterministic except for the elapsed
timing fields.
"""

from __future__ import annotations

import time

import numpy as np

from . import __version__
from .coorbit import CoorbitSpec, MixedSpaceSpec, SeqSpaceSpec, coorbit_norm
from .frames import Frame, canonical_dual, frame_bounds, gram, linear_index_set
from .generators import (
    decaying_perturbation,
    finite_gabor,
    gaussian_window,
    onb,
    mercedes,
    random_operator,
    substream,
)
from .localisation import JaffardParams, jaffard_norm, poly_weight, schur_weighted_bound
from .tensor_kernels import correspondence_residual, galerkin, synthesize_kernel
from .theorems import (
    compress_operator,
    schatten_check,
    schur_characterization,
    verify_frame_independence,
    verify_inner,
    verify_outer,
    verify_projective,
)


def _families(fast: bool):
    if fast:
        return {
            "onb": canonical_dual(onb(8)),
            "gabor": canonical_dual(finite_gabor(8, 2, 2, gaussian_window(8))),
            "decaying": canonical_dual(decaying_perturbation(8, 4.0, 0.05, seed=7)),
        }
    return {
        "onb": canonical_dual(onb(32)),
        "gabor": canonical_dual(finite_gabor(16, 2, 2, gaussian_window(16))),
        "decaying": canonical_dual(decaying_perturbation(32, 4.0, 0.05, seed=7)),
    }


def _random_op(d2, d1, seed, trial):
    return random_operator(d2, d1, kind="dense", seed=seed * 1000 + trial)


def check_kernel_roundtrip(seed: int, fast: bool):
    trials = 4 if fast else 34
    worst = 0.0
    for name, pair in _families(fast).items():
        d = pair.frame.space_dim
        for t in range(trials):
            O = _random_op(d, d, seed, t)
            back = synthesize_kernel(galerkin(O, pair, pair), pair, pair)
            rel = np.linalg.norm(back - O) / np.linalg.norm(O)
            worst = max(worst, rel)
    return worst <= 1e-9, {"worst_relative_error": float(worst), "trials": trials}


def check_correspondence(seed: int, fast: bool):
    trials = 5 if fast else 50
    worst_res = 0.0
    worst_idem = 0.0
    for name, pair in _families(fast).items():
        d = pair.frame.space_dim
        n = pair.frame.cardinality
        rng = substream(seed, "suite", "correspondence", name)
        for t in range(trials):
            O = _random_op(d, d, seed, t)
            worst_res = max(
                worst_res, correspondence_residual(galerkin(O, pair, pair), pair, pair)
            )
            k = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            p1 = galerkin(synthesize_kernel(k, pair, pair), pair, pair)
            worst_idem = max(worst_idem, correspondence_residual(p1, pair, pair))
    ok = worst_res <= 1e-9 and worst_idem <= 1e-10
    return ok, {
        "worst_galerkin_residual": float(worst_res),
        "worst_idempotence_gap": float(worst_idem),
    }


def check_outer_onb(seed: int, fast: bool):
    d = 8 if fast else 16
    trials = 10 if fast else 100
    pair = canonical_dual(onb(d))
    weights = [np.ones(d), poly_weight(pair.frame.index_set, 1.0)]
    worst = 0.0
    for t in range(trials):
        O = _random_op(d, d, seed, t)
        for w in weights:
            rep = verify_outer(O, pair, pair, w, w, seed=seed)
            if not rep.passed:
                return False, {"failed_trial": t}
            worst = max(worst, abs(rep.ratio - 1.0))
    return worst <= 1e-9, {"worst_ratio_gap": float(worst), "trials": trials}


def check_outer_gabor(seed: int, fast: bool):
    N = 8
    pair = canonical_dual(finite_gabor(N, 2, 2, gaussian_window(N)))
    trials = 5 if fast else 20
    w = np.ones(pair.frame.cardinality)
    for t in range(trials):
        O = _random_op(N, N, seed, t)
        rep = verify_outer(O, pair, pair, w, w, seed=seed)
        if not rep.passed:
            return False, {"failed_trial": t, "ratio": rep.ratio}
    return True, {"trials": trials}


def check_schur_onb(seed: int, fast: bool):
    d = 6 if fast else 12
    pair = canonical_dual(onb(d))
    w = np.ones(d)
    worst = 0.0
    trials = 3 if fast else 20
    for t in range(trials):
        O = _random_op(d, d, seed, t)
        for p in (1.0, 2.0, np.inf):
            for variant in ("i", "ii"):
                rep = schur_characterization(O, pair, pair, w, w, p, variant, seed=seed)
                if not rep.passed:
                    return False, {"failed": [t, p, variant]}
                worst = max(worst, abs(rep.ratio - 1.0))
    return worst <= 1e-9, {"worst_ratio_gap": float(worst)}


def check_schur_gabor(seed: int, fast: bool):
    N = 8
    pair = canonical_dual(finite_gabor(N, 2, 2, gaussian_window(N)))
    w = np.ones(pair.frame.cardinality)
    trials = 5 if fast else 50
    for t in range(trials):
        O = _random_op(N, N, seed, t)
        for p, variant in ((2.0, "i"), (2.0, "ii")):
            rep = schur_characterization(O, pair, pair, w, w, p, variant, seed=seed)
            if not rep.passed:
                return False, {"failed": [t, p, variant], "ratio": rep.ratio}
    return True, {"trials": trials}


def check_projective(seed: int, fast: bool):
    d = 4 if fast else 8
    pair_onb = canonical_dual(onb(d))
    pair_mer = canonical_dual(mercedes())
    w = np.ones(d)
    w3 = np.ones(3)
    trials = 10 if fast else 50
    worst = 0.0
    for t in range(trials):
        K = _random_op(d, d, seed, t)
        rep = verify_projective(K, pair_onb, pair_onb, w, w)
        if not rep.passed:
            return False, {"failed_trial": t}
        worst = max(worst, abs(rep.ratio - 1.0))
        K2 = _random_op(2, 2, seed, t + trials)
        rep2 = verify_projective(K2, pair_mer, pair_mer, w3, w3)
        if not rep2.passed:
            return False, {"failed_trial": t, "family": "mercedes"}
    return worst <= 1e-10, {"worst_onb_ratio_gap": float(worst), "trials": trials}


def check_inner(seed: int, fast: bool):
    d = 4 if fast else 8
    pair_onb = canonical_dual(onb(d))
    pair_mer = canonical_dual(mercedes())
    trials = 5 if fast else 20
    worst = 0.0
    for t in range(trials):
        K = _random_op(d, d, seed, t)
        rep = verify_inner(K, pair_onb, pair_onb, np.ones(d), np.ones(d))
        if not rep.passed:
            return False, {"failed_trial": t}
        worst = max(worst, abs(rep.ratio - 1.0))
        K2 = _random_op(2, 2, seed, t + trials)
        rep2 = verify_inner(K2, pair_mer, pair_mer, np.ones(3), np.ones(3))
        if not rep2.passed:
            return False, {"failed_trial": t, "family": "mercedes"}
    return worst <= 1e-10, {"worst_onb_ratio_gap": float(worst)}


def _rotated_onb(d: int, seed: int):
    rng = substream(seed, "suite", "rotation", d)
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, _ = np.linalg.qr(z)
    return canonical_dual(Frame(d, linear_index_set(d), q))


def check_independence(seed: int, fast: bool):
    d = 4
    trials = 10 if fast else 100
    pair = canonical_dual(onb(d))
    rot = _rotated_onb(d, seed)
    spec = MixedSpaceSpec(np.inf, np.inf, 0, np.ones((d, d)))
    for t in range(trials):
        O = _random_op(d, d, seed, t)
        rep = verify_frame_independence(O, (pair, pair), (rot, rot), spec)
        if not rep.passed:
            return False, {"failed_trial": t, "ratio": rep.ratio}
        same = verify_frame_independence(O, (pair, pair), (pair, pair), spec)
        if abs(same.ratio - 1.0) > 1e-12:
            return False, {"failed_trial": t, "identical_frames_ratio": same.ratio}
    return True, {"trials": trials}


def check_schatten(seed: int, fast: bool):
    d = 8 if fast else 16
    pair = canonical_dual(onb(d))
    trials = 10 if fast else 50
    worst_eq = 0.0
    for t in range(trials):
        O = _random_op(d, d, seed, t)
        for p in (1.0, 1.5, 2.0):
            rep = schatten_check(O, pair, pair, p)
            if not rep.passed:
                return False, {"failed": [t, p]}
            if p == 2.0:
                worst_eq = max(worst_eq, abs(rep.ratio - 1.0))
    return worst_eq <= 1e-10, {"worst_p2_ratio_gap": float(worst_eq)}


def check_gabor_tightness(seed: int, fast: bool):
    N = 8 if fast else 16
    rng = substream(seed, "suite", "gabor_window", N)
    windows = [
        gaussian_window(N),
        np.ones(N, dtype=complex),
        rng.standard_normal(N) + 1j * rng.standard_normal(N),
    ]
    worst = 0.0
    for g in windows:
        a, b = frame_bounds(finite_gabor(N, 1, 1, g))
        worst = max(worst, b / a - 1.0)
        expected = N * float(np.vdot(g, g).real)
        worst = max(worst, abs(a - expected) / expected)
    return worst <= 1e-9, {"worst_gap": float(worst)}


def check_decaying_jaffard(seed: int, fast: bool):
    seeds = 5 if fast else 20
    worst = 0.0
    for s in range(seeds):
        frame = decaying_perturbation(16, 4.0, 0.05, seed=s)
        params = JaffardParams(3.0, frame.index_set)
        worst = max(worst, jaffard_norm(gram(frame), params))
    return worst <= 2.0, {"max_jaffard_norm": float(worst), "seeds": seeds}


def check_element_norm_bounds(seed: int, fast: bool):
    worst = 0.0
    for name, pair in _families(fast).items():
        n = pair.frame.cardinality
        for w in (np.ones(n), poly_weight(pair.frame.index_set, 1.0)):
            bound = schur_weighted_bound(gram(pair.dual), w, 1.0)
            spec = CoorbitSpec(pair, SeqSpaceSpec(1.0, w))
            for i in range(n):
                lhs = coorbit_norm(spec, pair.dual.vectors[i])
                worst = max(worst, lhs / (bound * w[i]))
    return worst <= 1.0 + 1e-9, {"worst_normalized_element_norm": float(worst)}


def check_compression(seed: int, fast: bool):
    N = 8 if fast else 16
    pair = canonical_dual(finite_gabor(N, 2, 2, gaussian_window(N)))
    n = pair.frame.cardinality
    w = np.ones(n)
    # circular convolution by a localized filter
    rng = substream(seed, "suite", "filter", N)
    h = np.exp(-np.arange(N) ** 2 / 4.0) * (1 + 0.1 * rng.standard_normal(N))
    first_col = h
    C = np.array([np.roll(first_col, s) for s in range(N)]).T
    k = galerkin(C, pair, pair)
    mags = np.sort(np.abs(k).ravel())
    taus = [0.0] + [float(mags[int(f * (len(mags) - 1))]) for f in (0.25, 0.5, 0.9)]
    kept_prev = None
    for tau in taus:
        _, rep = compress_operator(C, pair, pair, w, w, tau)
        if rep.error_surrogate > tau:
            return False, {"tau": tau, "error": rep.error_surrogate}
        if kept_prev is not None and rep.kept > kept_prev:
            return False, {"tau": tau, "kept": rep.kept, "prev": kept_prev}
        kept_prev = rep.kept
    return True, {"taus": taus}


CHECKS = [
    ("kernel_roundtrip", check_kernel_roundtrip),
    ("correspondence", check_correspondence),
    ("outer_onb_equality", check_outer_onb),
    ("outer_gabor_budget", check_outer_gabor),
    ("schur_onb_exact", check_schur_onb),
    ("schur_gabor_budget", check_schur_gabor),
    ("projective_sandwich", check_projective),
    ("inner_decomposition", check_inner),
    ("frame_independence", check_independence),
    ("schatten_sufficiency", check_schatten),
    ("gabor_tightness", check_gabor_tightness),
    ("decaying_jaffard", check_decaying_jaffard),
    ("element_norm_bounds", check_element_norm_bounds),
    ("compression_sweep", check_compression),
]


def run_suite(name: str = "fast", seed: int = 0) -> dict:
    """Run every check; returns a summary dict (JSON-serializable)."""
    if name not in ("fast", "full"):
        raise ValueError(f"unknown suite {name!r}; expected 'fast' or 'full'")
    fast = name == "fast"
    t_start = time.perf_counter()
    results = []
    for check_name, fn in CHECKS:
        t0 = time.perf_counter()
        ok, details = fn(seed, fast)
        results.append(
            {
                "name": check_name,
                "pass": bool(ok),
                "details": details,
                "elapsed_s": time.perf_counter() - t0,
            }
        )
    return {
        "suite": name,
        "seed": seed,
        "version": __version__,
        "pass": all(r["pass"] for r in results),
        "checks": results,
        "runtime_s": time.perf_counter() - t_start,
    }


def strip_timings(summary: dict) -> dict:
    """Summary with the timing fields removed (determinism compares)."""
    out = {k: v for k, v in summary.items() if k != "runtime_s"}
    out["checks"] = [
        {k: v for k, v in c.items() if k != "elapsed_s"} for c in summary["checks"]
    ]
    return out
