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
    _independence_reports,
    _inner_reports,
    _opnorm_report,
    _projective_reports,
    _schatten_reports,
    compress_operator,
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


def _random_op(draws, d2, d1, seed, trial):
    """The seeded trial operator ``(d2, d1, seed, trial)``, read-only,
    drawn once per run: ``draws`` is the run's own table."""
    key = (d2, d1, seed, trial)
    O = draws.get(key)
    if O is None:
        O = random_operator(d2, d1, kind="dense", seed=seed * 1000 + trial)
        O.flags.writeable = False
        draws[key] = O
    return O


def _random_ops(draws, d2, d1, seed, trials):
    """The ``(T, d2, d1)`` stack of the seeded trial operators of
    ``trials``, for the verifier cores."""
    return np.stack([_random_op(draws, d2, d1, seed, t) for t in trials])


def check_kernel_roundtrip(seed: int, fast: bool, draws):
    trials = 4 if fast else 34
    worst = 0.0
    for name, pair in _families(fast).items():
        d = pair.frame.space_dim
        for t in range(trials):
            O = _random_op(draws, d, d, seed, t)
            back = synthesize_kernel(galerkin(O, pair, pair), pair, pair)
            rel = np.linalg.norm(back - O) / np.linalg.norm(O)
            worst = max(worst, rel)
    return worst <= 1e-9, {"worst_relative_error": float(worst), "trials": trials}


def check_correspondence(seed: int, fast: bool, draws):
    trials = 5 if fast else 50
    worst_res = 0.0
    worst_idem = 0.0
    for name, pair in _families(fast).items():
        d = pair.frame.space_dim
        n = pair.frame.cardinality
        rng = substream(seed, "suite", "correspondence", name)
        for t in range(trials):
            O = _random_op(draws, d, d, seed, t)
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


# The checks below score all trials of one family and weight as one stack
# through the verifier cores, once per (p, variant), then scan the reports
# in (trial, weight, p, variant) order, so the first failure they name is
# the one a trial-by-trial loop would meet first.


def check_outer_onb(seed: int, fast: bool, draws):
    d = 8 if fast else 16
    trials = 10 if fast else 100
    pair = canonical_dual(onb(d))
    weights = [np.ones(d), poly_weight(pair.frame.index_set, 1.0)]
    ops = _random_ops(draws, d, d, seed, range(trials))
    reports = [
        _opnorm_report(ops, pair, pair, w, w, 1.0, "ii", seed, outer=True)
        for w in weights
    ]
    worst = 0.0
    for t in range(trials):
        for rep in (by_weight[t] for by_weight in reports):
            if not rep.passed:
                return False, {"failed_trial": t}
            worst = max(worst, abs(rep.ratio - 1.0))
    return worst <= 1e-9, {"worst_ratio_gap": float(worst), "trials": trials}


def check_outer_gabor(seed: int, fast: bool, draws):
    N = 8
    pair = canonical_dual(finite_gabor(N, 2, 2, gaussian_window(N)))
    trials = 5 if fast else 20
    w = np.ones(pair.frame.cardinality)
    ops = _random_ops(draws, N, N, seed, range(trials))
    reports = _opnorm_report(ops, pair, pair, w, w, 1.0, "ii", seed, outer=True)
    for t, rep in enumerate(reports):
        if not rep.passed:
            return False, {"failed_trial": t, "ratio": rep.ratio}
    return True, {"trials": trials}


def _schur_scan(reports, trials, cases):
    """The first failing ``(trial, p, variant)`` of ``reports[case]``
    in trial-major order, with its report, or ``None``."""
    for t in range(trials):
        for case in cases:
            rep = reports[case][t]
            if not rep.passed:
                return [t, *case], rep
    return None


def check_schur_onb(seed: int, fast: bool, draws):
    d = 6 if fast else 12
    pair = canonical_dual(onb(d))
    w = np.ones(d)
    trials = 3 if fast else 20
    ops = _random_ops(draws, d, d, seed, range(trials))
    cases = [(p, variant) for p in (1.0, 2.0, np.inf) for variant in ("i", "ii")]
    reports = {
        (p, variant): _opnorm_report(ops, pair, pair, w, w, p, variant, seed)
        for p, variant in cases
    }
    failed = _schur_scan(reports, trials, cases)
    if failed is not None:
        return False, {"failed": failed[0]}
    ratios = [rep.ratio for by_case in reports.values() for rep in by_case]
    worst = max(0.0, *(abs(ratio - 1.0) for ratio in ratios))
    return worst <= 1e-9, {"worst_ratio_gap": float(worst)}


def check_schur_gabor(seed: int, fast: bool, draws):
    N = 8
    pair = canonical_dual(finite_gabor(N, 2, 2, gaussian_window(N)))
    w = np.ones(pair.frame.cardinality)
    trials = 5 if fast else 50
    ops = _random_ops(draws, N, N, seed, range(trials))
    cases = [(2.0, "i"), (2.0, "ii")]
    reports = {
        (p, variant): _opnorm_report(ops, pair, pair, w, w, p, variant, seed)
        for p, variant in cases
    }
    failed = _schur_scan(reports, trials, cases)
    if failed is not None:
        return False, {"failed": failed[0], "ratio": failed[1].ratio}
    return True, {"trials": trials}


def _sandwich_scan(onb_reports, mercedes_reports):
    """The first failure of the ONB and Mercedes reports of each trial,
    in that order, as the details of a failed check, or ``None``."""
    for t, (rep, rep2) in enumerate(zip(onb_reports, mercedes_reports)):
        if not rep.passed:
            return {"failed_trial": t}
        if not rep2.passed:
            return {"failed_trial": t, "family": "mercedes"}
    return None


def check_projective(seed: int, fast: bool, draws):
    d = 4 if fast else 8
    pair_onb = canonical_dual(onb(d))
    pair_mer = canonical_dual(mercedes())
    w = np.ones(d)
    w3 = np.ones(3)
    trials = 10 if fast else 50
    K = _random_ops(draws, d, d, seed, range(trials))
    K2 = _random_ops(draws, 2, 2, seed, range(trials, 2 * trials))
    reports = _projective_reports(K, pair_onb, pair_onb, w, w)
    failed = _sandwich_scan(
        reports, _projective_reports(K2, pair_mer, pair_mer, w3, w3)
    )
    if failed is not None:
        return False, failed
    worst = max(0.0, *(abs(rep.ratio - 1.0) for rep in reports))
    return worst <= 1e-10, {"worst_onb_ratio_gap": float(worst), "trials": trials}


def check_inner(seed: int, fast: bool, draws):
    d = 4 if fast else 8
    pair_onb = canonical_dual(onb(d))
    pair_mer = canonical_dual(mercedes())
    trials = 5 if fast else 20
    K = _random_ops(draws, d, d, seed, range(trials))
    K2 = _random_ops(draws, 2, 2, seed, range(trials, 2 * trials))
    reports = _inner_reports(K, pair_onb, pair_onb, np.ones(d), np.ones(d))
    failed = _sandwich_scan(
        reports, _inner_reports(K2, pair_mer, pair_mer, np.ones(3), np.ones(3))
    )
    if failed is not None:
        return False, failed
    worst = max(0.0, *(abs(rep.ratio - 1.0) for rep in reports))
    return worst <= 1e-10, {"worst_onb_ratio_gap": float(worst)}


def _rotated_onb(d: int, seed: int):
    rng = substream(seed, "suite", "rotation", d)
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, _ = np.linalg.qr(z)
    return canonical_dual(Frame(d, linear_index_set(d), q))


def check_independence(seed: int, fast: bool, draws):
    d = 4
    trials = 10 if fast else 100
    pair = canonical_dual(onb(d))
    rot = _rotated_onb(d, seed)
    spec = MixedSpaceSpec(np.inf, np.inf, 0, np.ones((d, d)))
    ops = _random_ops(draws, d, d, seed, range(trials))
    rotated = _independence_reports(ops, (pair, pair), (rot, rot), spec)
    same = _independence_reports(ops, (pair, pair), (pair, pair), spec)
    for t in range(trials):
        if not rotated[t].passed:
            return False, {"failed_trial": t, "ratio": rotated[t].ratio}
        if abs(same[t].ratio - 1.0) > 1e-12:
            return False, {"failed_trial": t, "identical_frames_ratio": same[t].ratio}
    return True, {"trials": trials}


def check_schatten(seed: int, fast: bool, draws):
    d = 8 if fast else 16
    pair = canonical_dual(onb(d))
    trials = 10 if fast else 50
    ops = _random_ops(draws, d, d, seed, range(trials))
    exponents = (1.0, 1.5, 2.0)
    reports = {p: _schatten_reports(ops, pair, pair, p) for p in exponents}
    for t in range(trials):
        for p in exponents:
            if not reports[p][t].passed:
                return False, {"failed": [t, p]}
    worst_eq = max(0.0, *(abs(rep.ratio - 1.0) for rep in reports[2.0]))
    return worst_eq <= 1e-10, {"worst_p2_ratio_gap": float(worst_eq)}


def check_gabor_tightness(seed: int, fast: bool, draws):
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


def check_decaying_jaffard(seed: int, fast: bool, draws):
    seeds = 5 if fast else 20
    worst = 0.0
    for s in range(seeds):
        frame = decaying_perturbation(16, 4.0, 0.05, seed=s)
        params = JaffardParams(3.0, frame.index_set)
        worst = max(worst, jaffard_norm(gram(frame), params))
    return worst <= 2.0, {"max_jaffard_norm": float(worst), "seeds": seeds}


def check_element_norm_bounds(seed: int, fast: bool, draws):
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


def check_compression(seed: int, fast: bool, draws):
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
    draws = {}  # this run's seeded trial operators, dropped when it ends
    for check_name, fn in CHECKS:
        t0 = time.perf_counter()
        ok, details = fn(seed, fast, draws)
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
