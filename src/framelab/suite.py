"""Self-contained verification suites runnable from the CLI.

``run_suite("fast", seed)`` executes a reduced version of every check in
under a minute; ``run_suite("full", seed)`` runs the declared sizes.
Given a root seed the summary is deterministic except for the elapsed
timing fields.

Each run keeps one table, dropped when it ends: every frame pair the
checks use, each built once (``_pair``), and its seeded trial
operators, each drawn once.  The checks that draw operators score their
trials as stacks through the stack-aware verifier cores, in chunks that
keep each stacked temporary within ``coorbit._SCORE_ELEMENTS`` entries,
and each trial keeps the bits of its one-trial call.  The op-norm and
sandwich checks are rows of ``CHECKS`` over two functions,
``_opnorm_check`` and ``_sandwich_check``: a row gives the family, the
fast and full sizes and trial counts, the weights and the exponent
cases.
"""

from __future__ import annotations

import time
from functools import partial

import numpy as np

from . import __version__
from .coorbit import (
    CoorbitSpec,
    MixedSpaceSpec,
    SeqSpaceSpec,
    _trial_slices,
    coorbit_norm,
)
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
from .numeric import _check_int
from .tensor_kernels import _galerkin, _residuals, _synthesize, galerkin
from .theorems import (
    _independence_reports,
    _inner_reports,
    _opnorm_report,
    _projective_reports,
    _schatten_reports,
    compress_operator,
)


_FRAMES = {
    "onb": onb,
    "gabor": lambda N: finite_gabor(N, 2, 2, gaussian_window(N)),
    "decaying": lambda d: decaying_perturbation(d, 4.0, 0.05, seed=7),
    "mercedes": lambda _: mercedes(),
}


def _pair(draws, kind: str, size: int):
    """The frame pair of ``kind`` on ``C^size``, built once per run:
    ``draws`` is the run's own table."""
    key = (kind, size)
    pair = draws.get(key)
    if pair is None:
        pair = draws[key] = canonical_dual(_FRAMES[kind](size))
    return pair


def _families(fast: bool, draws):
    """The run's ``onb``, ``gabor`` and ``decaying`` frame pairs."""
    N, d = (8, 8) if fast else (16, 32)
    sizes = (("onb", d), ("gabor", N), ("decaying", d))
    return {kind: _pair(draws, kind, size) for kind, size in sizes}


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
    for pair in _families(fast, draws).values():
        d, n = pair.frame.space_dim, pair.frame.cardinality
        for part in _trial_slices(trials, n * n):
            ops = _random_ops(draws, d, d, seed, range(trials)[part])
            back = _synthesize(_galerkin(ops, pair, pair), pair, pair)
            for O, B in zip(ops, back):
                worst = max(worst, np.linalg.norm(B - O) / np.linalg.norm(O))
    return worst <= 1e-9, {"worst_relative_error": float(worst), "trials": trials}


def check_correspondence(seed: int, fast: bool, draws):
    trials = 5 if fast else 50
    worst_res = 0.0
    worst_idem = 0.0
    for name, pair in _families(fast, draws).items():
        d = pair.frame.space_dim
        n = pair.frame.cardinality
        rng = substream(seed, "suite", "correspondence", name)
        for part in _trial_slices(trials, n * n):
            chunk = range(trials)[part]
            k = _galerkin(_random_ops(draws, d, d, seed, chunk), pair, pair)
            res = _residuals(k, _synthesize(k, pair, pair), pair, pair)
            # each trial's (n, n) real then imaginary draws, in trial order
            z = rng.standard_normal((len(chunk), 2, n, n))
            k = _galerkin(_synthesize(z[:, 0] + 1j * z[:, 1], pair, pair), pair, pair)
            idem = _residuals(k, _synthesize(k, pair, pair), pair, pair)
            worst_res = max(worst_res, *res.tolist())
            worst_idem = max(worst_idem, *idem.tolist())
    ok = worst_res <= 1e-9 and worst_idem <= 1e-10
    return ok, {
        "worst_galerkin_residual": float(worst_res),
        "worst_idempotence_gap": float(worst_idem),
    }


def _opnorm_check(kind, sizes, exponents, cases, trials, seed, fast, draws):
    """The op-norm cores on the run's ``kind`` pair of size ``sizes[0]``
    in a fast run or ``sizes[1]`` in a full one, for ``trials[0]`` or
    ``trials[1]`` trials, with the weights ``poly_weight(index_set, t)``
    of each ``t`` in ``exponents`` and each ``(p, variant)`` of
    ``cases``.

    Each weight and case scores all trials as one stack, and the reports
    are scanned in (trial, weight, case) order, so the first failure
    named is the one a trial-by-trial loop would meet first.  On an ONB
    the two sides must agree, and a pass reports the worst ratio gap; on
    a redundant frame a failure reports its ratio.  The outer rows and
    the redundant ones report their trial count."""
    d, trials = (sizes[0], trials[0]) if fast else (sizes[1], trials[1])
    pair = _pair(draws, kind, d)
    ops = _random_ops(draws, d, d, seed, range(trials))
    reports = []
    for exponent in exponents:
        w = poly_weight(pair.frame.index_set, exponent)
        for p, variant in cases:
            by_trial = _opnorm_report(ops, pair, pair, w, w, p, variant, seed)
            reports.append((p, variant, by_trial))
    outer = cases[0][1] == "outer"
    for t in range(trials):
        for p, variant, by_trial in reports:
            rep = by_trial[t]
            if not rep.passed:
                failed = {"failed_trial": t} if outer else {"failed": [t, p, variant]}
                if kind != "onb":
                    failed["ratio"] = rep.ratio
                return False, failed
    passed, details = True, {}
    if kind == "onb":
        gaps = (abs(rep.ratio - 1.0) for *_, by_trial in reports for rep in by_trial)
        worst = max(0.0, *gaps)
        passed = worst <= 1e-9
        details["worst_ratio_gap"] = float(worst)
    if outer or kind != "onb":
        details["trials"] = trials
    return passed, details


def _sandwich_check(core, trials, seed, fast, draws):
    """The sandwich ``core`` on the run's ONB 4 (fast) or 8 (full) and
    Mercedes pairs with unit weights, for ``trials[0]`` (fast) or
    ``trials[1]`` (full) trials on each: the first failure in (trial,
    family) order, or the worst ONB ratio gap.  The projective row also
    reports its trial count."""
    d, trials = (4, trials[0]) if fast else (8, trials[1])
    pair, pair2 = _pair(draws, "onb", d), _pair(draws, "mercedes", 2)
    K = _random_ops(draws, d, d, seed, range(trials))
    K2 = _random_ops(draws, 2, 2, seed, range(trials, 2 * trials))
    reports = core(K, pair, pair, np.ones(d), np.ones(d))
    reports2 = core(K2, pair2, pair2, np.ones(3), np.ones(3))
    for t, (rep, rep2) in enumerate(zip(reports, reports2)):
        if not rep.passed:
            return False, {"failed_trial": t}
        if not rep2.passed:
            return False, {"failed_trial": t, "family": "mercedes"}
    worst = max(0.0, *(abs(rep.ratio - 1.0) for rep in reports))
    details = {"worst_onb_ratio_gap": float(worst)}
    if core is _projective_reports:
        details["trials"] = trials
    return worst <= 1e-10, details


def _rotated_onb(d: int, seed: int):
    rng = substream(seed, "suite", "rotation", d)
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, _ = np.linalg.qr(z)
    return canonical_dual(Frame(d, linear_index_set(d), q))


def check_independence(seed: int, fast: bool, draws):
    d = 4
    trials = 10 if fast else 100
    pair = _pair(draws, "onb", d)
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
    pair = _pair(draws, "onb", d)
    trials = 10 if fast else 50
    ops = _random_ops(draws, d, d, seed, range(trials))
    exponents = (1.0, 1.5, 2.0)
    reports = _schatten_reports(ops, pair, pair, exponents)
    for i, rep in enumerate(reports):
        if not rep.passed:
            return False, {"failed": [i // len(exponents), rep.details["p"]]}
    gaps = (abs(rep.ratio - 1.0) for rep in reports if rep.details["p"] == 2.0)
    worst_eq = max(0.0, *gaps)
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
    for pair in _families(fast, draws).values():
        n = pair.frame.cardinality
        for w in (np.ones(n), poly_weight(pair.frame.index_set, 1.0)):
            bound = schur_weighted_bound(gram(pair.dual), w, 1.0)
            spec = CoorbitSpec(pair, SeqSpaceSpec(1.0, w))
            for i in range(n):
                lhs = coorbit_norm(spec, pair.dual.vectors[i])
                worst = max(worst, lhs / (bound * w[i]))
    return worst <= 1.0 + 1e-9, {"worst_normalized_element_norm": float(worst)}


def check_compression(seed: int, fast: bool, draws):
    pair = _families(fast, draws)["gabor"]
    N, n = pair.frame.space_dim, pair.frame.cardinality
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


_SCHUR_ONB_CASES = [(p, v) for p in (1.0, 2.0, np.inf) for v in ("i", "ii")]
_SCHUR_GABOR_CASES = [(2.0, "i"), (2.0, "ii")]
CHECKS = [
    ("kernel_roundtrip", check_kernel_roundtrip),
    ("correspondence", check_correspondence),
    (
        "outer_onb_equality",
        partial(_opnorm_check, "onb", (8, 16), (0.0, 1.0), [(1.0, "outer")], (10, 100)),
    ),
    (
        "outer_gabor_budget",
        partial(_opnorm_check, "gabor", (8, 8), (0.0,), [(1.0, "outer")], (5, 20)),
    ),
    (
        "schur_onb_exact",
        partial(_opnorm_check, "onb", (6, 12), (0.0,), _SCHUR_ONB_CASES, (3, 20)),
    ),
    (
        "schur_gabor_budget",
        partial(_opnorm_check, "gabor", (8, 8), (0.0,), _SCHUR_GABOR_CASES, (5, 50)),
    ),
    ("projective_sandwich", partial(_sandwich_check, _projective_reports, (10, 50))),
    ("inner_decomposition", partial(_sandwich_check, _inner_reports, (5, 20))),
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
    seed, fast = _check_int(seed, "seed"), name == "fast"
    t_start = time.perf_counter()
    results = []
    # this run's frame families and seeded trial operators, dropped when
    # it ends
    draws = {}
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
