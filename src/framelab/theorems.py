"""Executable verification suites for the operator <-> kernel
correspondences, plus Galerkin-domain compression.

Each verifier turns a qualitative norm equivalence into a falsifiable
finite check: both sides are computed, an explicit constant budget is
derived from frame bounds and Schur bounds of the relevant (cross-)Gram
matrices, and ``pass`` means the two sides honor that budget.  When the
operator-norm side is an interval, the pass criterion uses the rigorous
interval endpoints; the reported ratio ``lhs / rhs`` uses the midpoint.

Every verdict is a conjunction of one rule, ``_within(x, c, y)``:
``x <= c * y * (1 + REPORT_TOL)`` with ``x``, ``c`` and ``y`` finite.
The relative tolerance ``REPORT_TOL = 1e-9`` absorbs rounding and no
caller can widen it.  An infinite budget or a side that overflowed fails
the rule, since a comparison against it checks nothing.  A verifier adds
at most one clause of its own: the unit-budget equality of the op-norm
checks, or the reconstruction residual of the inner check.

The outer correspondence is the ``l^1 -> l^inf`` case of the Schur-test
statement, and the inner and projective checks bound one quantity from
two sides, so each pair of verifiers shares one core.

Inputs are checked once, at the public entry: the operator, the weights,
the exponents and every weight the cores derive from them (reciprocals,
weight grids and their factors), with the messages of the public
checkers.  The private cores trust the arrays they build (Galerkin
matrices, Grams, cross-Grams) and take Schur bounds and the operator-norm
interval from the unchecked cores in ``localisation`` and ``coorbit``.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field

import numpy as np

from .coorbit import (
    MixedSpaceSpec,
    _check_grid,
    _grid_norm,
    _holder_conjugate,
    _opnorm_interval,
    _pnorm_along,
    _pnorm_of_abs,
    _pnorm_rows,
    _trial_slices,
    _weight_grid,
)
from .frames import FramePair, _check_operator, cross_gram
from .localisation import (
    _check_positive,
    _gram_schur_bound,
    _remembered,
    _schur_combine,
    _schur_sums,
    _weighted_schur_bound,
    as_weight,
)
from .numeric import PreconditionError, _check_exponent, as_matrix
from .tensor_kernels import _galerkin, synthesize_kernel

REPORT_TOL = 1e-9
_SLACK = 1.0 + REPORT_TOL


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one equivalence check: the two sides, their ratio, the
    computed admissible budget and free-form diagnostics."""

    name: str
    lhs: float
    rhs: float
    ratio: float
    constant_budget: float
    passed: bool
    seed: int = 0
    details: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "ratio": self.ratio,
            "budget": self.constant_budget,
            "pass": self.passed,
            "seed": self.seed,
            "details": self.details,
        }


@dataclass(frozen=True)
class CompressionReport:
    """Thresholding summary for a Galerkin matrix."""

    threshold: float
    kept: int
    total: int
    sparsity: float
    error_surrogate: float
    details: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "threshold": self.threshold,
            "kept": self.kept,
            "total": self.total,
            "sparsity": self.sparsity,
            "error_surrogate": self.error_surrogate,
            "details": self.details,
        }


def _safe_ratio(lhs: float, rhs: float) -> float:
    if rhs == 0.0:
        return 1.0 if lhs == 0.0 else np.inf
    return lhs / rhs


def _check_weights(pair1: FramePair, pair2: FramePair, w1, w2):
    """One positive finite weight per frame element on each side."""
    return (
        as_weight(w1, pair1.frame.cardinality),
        as_weight(w2, pair2.frame.cardinality),
    )


def _within(x: float, c: float, y: float) -> bool:
    """The one verdict rule: ``x <= c * y`` up to ``REPORT_TOL``, on
    finite numbers only."""
    return (
        math.isfinite(x)
        and math.isfinite(c)
        and math.isfinite(y)
        and bool(x <= c * y * _SLACK)
    )


def _report(name, lhs, rhs, budget, passed, details, seed=0) -> VerificationReport:
    """The one constructor of verifier reports; ``ratio`` is ``lhs / rhs``
    with ``0 / 0`` read as one."""
    return VerificationReport(
        name=name,
        lhs=lhs,
        rhs=rhs,
        ratio=_safe_ratio(lhs, rhs),
        constant_budget=budget,
        passed=bool(passed),
        seed=seed,
        details=details,
    )


def _onb_equality(passed: bool, ratio: float, budget: float) -> bool:
    """With a unit budget (orthonormal bases) the two-sided bound is an
    equality, so the ratio itself must be one."""
    if budget <= 1.0 + 1e-12 and math.isfinite(ratio):
        passed = passed and abs(ratio - 1.0) <= REPORT_TOL
    return bool(passed)


# ---------------------------------------------------------------------------
# kernel mixed norm vs operator norm: the outer correspondence and the
# Schur-test characterisations of intermediate operator classes


def _opnorm_report(A, pair1, pair2, w1, w2, p, variant, seed, outer=False) -> list:
    """The Schur ``variant`` check at ``p`` of maps from a weighted
    coorbit space of ``pair1`` into a dual one of ``pair2``, for checked
    weights, on each trial of a checked ``(T, d2, d1)`` stack ``A``: one
    report per trial; with ``outer``, the outer check, which is variant
    ``"ii"`` at ``p = 1`` with the kernel on the left of the ratio.

    Variant ``"i"`` maps ``l^1_w1`` into ``l^p`` and measures the kernel
    with inner exponent ``p`` along the second index; variant ``"ii"``
    maps ``l^p_w1`` into ``l^inf`` and measures it with the Hoelder
    conjugate of ``p`` along the first.  The outer sup of the kernel norm
    is always ``l^inf``.  ``c_a``/``c_b`` are the Schur bounds at the
    source exponent of the source Gram and dual Gram, and the verdict
    checks ``kernel <= c_b upper`` and ``lower <= c_a kernel``.

    Finite weights can scale finite Galerkin entries past the float
    range.  Such a product is inf, without a warning; ``details``
    then lists under ``"overflowed"`` which of ``kernel``,
    ``opnorm_lower`` and ``opnorm_upper`` are not finite, and the
    verdict fails.  ``details`` names the bound that gave each end of
    the interval under ``"opnorm_upper_source"`` and
    ``"opnorm_lower_source"`` (see :class:`coorbit.OpNormInterval`).

    The kernels are measured in the chunks of
    :func:`coorbit._trial_slices`, and the intervals chunk their own
    trials, so no stacked temporary holds more than ``_SCORE_ELEMENTS``
    entries (or one trial's); each report has the bits of its trial's
    one-trial call (see :func:`coorbit._opnorm_interval`).
    """
    if variant == "i":
        p_src, p_dst, kernel_exp, inner_axis = 1.0, p, p, 1
    else:
        p_src, p_dst, kernel_exp, inner_axis = p, np.inf, _holder_conjugate(p), 0
    n1, n2 = pair1.frame.cardinality, pair2.frame.cardinality
    # only overflow and division by zero are silenced: an invalid
    # operation still warns
    with np.errstate(over="ignore", divide="ignore"):
        grid = _check_grid(1.0 / np.outer(w1, w2))
        w2_dst = _check_positive(1.0 / w2)
        kernels = []
        for part in _trial_slices(len(A), n1 * n2):
            k = _galerkin(A[part], pair1, pair2)
            # _grid_norm's arithmetic, inline so that the last ``a`` is
            # freed only after the intervals: freeing it before moved
            # opnorm-grid's op_cal by about +20%, through the allocator's
            # state
            a = np.abs(k)
            a *= grid
            chunk = _pnorm_of_abs(a, kernel_exp, inner_axis - 2)
            for t, kernel in enumerate(chunk.max(axis=-1, initial=0.0).tolist()):
                if not math.isfinite(kernel):
                    as_matrix(k[t])  # rejects a Galerkin matrix that overflowed
                kernels.append(kernel)
        intervals = _opnorm_interval(A, pair1, pair2, p_src, p_dst, w1, w2_dst, seed)

    c_a = _gram_schur_bound(pair1.frame, w1, p_src)
    c_b = _gram_schur_bound(pair1.dual, w1, p_src)
    budget = max(c_a, c_b)
    schur = {"gram_schur_bound": c_a, "dual_gram_schur_bound": c_b}
    reports = []
    for kernel, interval in zip(kernels, intervals):
        passed = _within(kernel, c_b, interval.upper) and _within(
            interval.lower, c_a, kernel
        )
        bounds = {"opnorm_lower": interval.lower, "opnorm_upper": interval.upper}
        sources = {
            "opnorm_upper_source": interval.upper_source,
            "opnorm_lower_source": interval.lower_source,
        }
        if outer:
            name, lhs, rhs = "outer", kernel, interval.midpoint
            details = {**bounds, **sources, "opnorm_exact": interval.exact, **schur}
        else:
            name, lhs, rhs = f"schur-{variant}", interval.midpoint, kernel
            details = {
                "variant": variant,
                "p": p,
                "kernel_inner_exponent": kernel_exp,
                "exponent_note": (
                    "variant ii measures the kernel with the Hoelder conjugate "
                    "of p along the first index; the orthonormal-frame oracle "
                    "fixes this choice"
                ),
                **bounds,
                **sources,
                **schur,
            }
        overflowed = [
            key
            for key, x in (("kernel", kernel), *bounds.items())
            if not math.isfinite(x)
        ]
        if overflowed:
            details["overflowed"] = overflowed
        reports.append(
            _report(
                name,
                lhs,
                rhs,
                budget,
                _onb_equality(passed, _safe_ratio(lhs, rhs), budget),
                details,
                seed,
            )
        )
    return reports


def verify_outer(
    O, pair1: FramePair, pair2: FramePair, w1, w2, seed: int = 0
) -> VerificationReport:
    """Compare the weighted sup norm of the Galerkin coefficients with
    the operator norm from the weighted-l1 coorbit space into the dual
    weighted-sup space.

    For orthonormal frames and any weights the two sides coincide; in
    general the ratio is controlled by the Schur bounds of the source
    Gram and dual Gram.
    """
    w1, w2 = _check_weights(pair1, pair2, w1, w2)
    A = _check_operator(O, pair1, pair2)
    return _opnorm_report(A[None], pair1, pair2, w1, w2, 1.0, "ii", seed, outer=True)[0]


def schur_characterization(
    O,
    pair1: FramePair,
    pair2: FramePair,
    w1,
    w2,
    p,
    variant: str,
    seed: int = 0,
) -> VerificationReport:
    """Compare an operator norm with the matching mixed norm of its
    Galerkin matrix.

    Variant ``"i"`` measures the map from the weighted-l1 space into the
    dual ``l^p`` space against the row-sup mixed norm with inner
    exponent ``p`` along the second index.  Variant ``"ii"`` measures
    the map from the weighted ``l^p`` space into the dual sup space
    against the mixed norm with inner exponent ``q = p/(p-1)`` along the
    first index; the conjugate exponent on the kernel side is fixed by
    the orthonormal-frame oracle, for which both variants are exact
    equalities.  The outer correspondence is variant ``"ii"`` at
    ``p = 1`` (and variant ``"i"`` at ``p = inf``).
    """
    if variant not in ("i", "ii"):
        raise PreconditionError(f"variant must be 'i' or 'ii', got {variant!r}")
    p = _check_exponent(p, "p=")
    w1, w2 = _check_weights(pair1, pair2, w1, w2)
    A = _check_operator(O, pair1, pair2)
    return _opnorm_report(A[None], pair1, pair2, w1, w2, p, variant, seed)[0]


# ---------------------------------------------------------------------------
# inner correspondence and projective sandwich: summed-coefficient norm vs
# nuclear sum of the canonical rank-one decomposition


def _element_norms(pair: FramePair, w: np.ndarray) -> tuple[np.ndarray, float]:
    """``(norms, C)``: the weighted-l1 coorbit norms ``||psi_i||`` of the
    elements of ``pair``'s frame, and the Schur certificate ``C`` for
    ``||psi_i|| <= C w_i``; the norms are read-only."""
    coeffs = np.abs(cross_gram(pair.frame, pair.dual))
    norms = w @ coeffs
    norms.flags.writeable = False
    return norms, _weighted_schur_bound(coeffs, w, w, 1.0)


def _projective_sides(K, pair1: FramePair, pair2: FramePair, w1, w2):
    """``(c, lower, upper, budget, passed)`` of each trial of a checked
    ``(T, d2, d1)`` stack ``K`` of kernels: their ``(T, n1, n2)`` Galerkin
    coefficients, and per trial, as lists, the weighted summed norm, the
    nuclear sum ``sum |c_ij| ||psi1_i|| ||psi2_j||`` with element norms
    in the weighted-l1 coorbit norm and whether ``lower <= upper <=
    budget lower``; the budget, the product of the two Schur
    certificates for ``||psi_i|| <= C w_i``, is one for all trials.
    Each nuclear sum is a ``gemv`` and a ``dot`` of its own trial, as in
    a one-trial call."""
    c = _galerkin(K, pair1, pair2)
    lower = _grid_norm(c, _check_grid(_weight_grid(w1, w2)), 1.0, 0, 1.0).tolist()
    norms = []
    budget = 1.0
    for pair, w in ((pair1, w1), (pair2, w2)):
        side, certificate = _remembered(
            pair, ("element_norms", w.tobytes()), lambda: _element_norms(pair, w)
        )
        norms.append(side)
        budget *= certificate
    upper = ((norms[0] @ np.abs(c))[:, None, :] @ norms[1])[:, 0].tolist()
    passed = [
        _within(lo, 1.0, up) and _within(up, budget, lo)
        for lo, up in zip(lower, upper)
    ]
    return c, lower, upper, budget, passed


def _inner_reports(K, pair1: FramePair, pair2: FramePair, w1, w2) -> list:
    """:func:`verify_inner` of each trial of a checked ``(T, d2, d1)``
    stack ``K``, for checked weights, in chunks of at most
    ``_SCORE_ELEMENTS`` Galerkin entries (or one trial's).  Each trial's
    reconstruction goes through the public ``synthesize_kernel``, so the
    residual measures the synthesis that callers use."""
    n1, n2 = pair1.frame.cardinality, pair2.frame.cardinality
    reports = []
    for part in _trial_slices(len(K), n1 * n2):
        stack = K[part]
        c, rhs, nuclear, budget, passed = _projective_sides(stack, pair1, pair2, w1, w2)
        for t, k in enumerate(stack):
            rebuilt = synthesize_kernel(c[t], pair1, pair2)
            with np.errstate(over="ignore"):
                scale = np.linalg.norm(k)
            if not np.isfinite(scale):
                # entries above about 1e154 overflow the norm, and an error
                # over an infinite norm reads 0: measure both in units of
                # k's largest part
                top = max(np.abs(k.real).max(), np.abs(k.imag).max())
                rebuilt, k = rebuilt / top, k / top
                scale = np.linalg.norm(k)
            residual = float(np.linalg.norm(rebuilt - k) / max(scale, 1.0))
            reports.append(
                _report(
                    "inner",
                    nuclear[t],
                    rhs[t],
                    budget,
                    passed[t] and residual <= REPORT_TOL,
                    {
                        "reconstruction_residual": residual,
                        "terms": int(np.count_nonzero(c[t])),
                    },
                )
            )
    return reports


def verify_inner(K, pair1: FramePair, pair2: FramePair, w1, w2) -> VerificationReport:
    """Decompose a kernel into rank-one tensors of frame elements and
    compare the nuclear-type sum with the summed-coefficient kernel
    norm.

    The decomposition takes ``(f_r, g_r) = (psi1_i, c_ij psi2_j)`` over
    the nonzero Galerkin coefficients ``c`` of the kernel; its
    reconstruction is exact up to rounding and its nuclear sum exceeds
    the kernel norm by at most the product of the two element-norm
    certificates.  ``details["terms"]`` counts the rank-one terms.

    The element norms and the budget depend only on the frames and the
    weights, so they are computed once per pair and weight vector and
    remembered (see ``localisation._remembered``).
    """
    w1, w2 = _check_weights(pair1, pair2, w1, w2)
    K = _check_operator(K, pair1, pair2)
    return _inner_reports(K[None], pair1, pair2, w1, w2)[0]


def _projective_reports(K, pair1: FramePair, pair2: FramePair, w1, w2) -> list:
    """:func:`verify_projective` of each trial of a checked ``(T, d2,
    d1)`` stack ``K``, for checked weights, in chunks of at most
    ``_SCORE_ELEMENTS`` Galerkin entries (or one trial's)."""
    n1, n2 = pair1.frame.cardinality, pair2.frame.cardinality
    reports = []
    for part in _trial_slices(len(K), n1 * n2):
        _, lower, upper, budget, passed = _projective_sides(
            K[part], pair1, pair2, w1, w2
        )
        for lo, up, ok in zip(lower, upper, passed):
            reports.append(
                _report("projective", lo, up, budget, ok, {"lower": lo, "upper": up})
            )
    return reports


def verify_projective(
    K, pair1: FramePair, pair2: FramePair, w1, w2
) -> VerificationReport:
    """Sandwich the projective tensor norm of a kernel.

    The summed-coefficient kernel norm is a lower bound with constant
    one; the nuclear sum of the canonical rank-one decomposition is an
    admissible representation and hence an upper bound.  For orthonormal
    frames with unit weights the two collapse to the same value.

    The element norms and the budget depend only on the frames and the
    weights, so they are computed once per pair and weight vector and
    remembered (see ``localisation._remembered``).
    """
    w1, w2 = _check_weights(pair1, pair2, w1, w2)
    K = _check_operator(K, pair1, pair2)
    return _projective_reports(K[None], pair1, pair2, w1, w2)[0]


# ---------------------------------------------------------------------------
# frame independence of kernel norms


def _change_bound(
    pair_from: FramePair, pair_to: FramePair, w_from, w_to, p
) -> float:
    """Schur certificate for coefficient change: dual-analysis with the
    target pair applied to source-pair synthesis.

    Its two Schur sums depend only on the pairs and weights, so they are
    remembered for ``pair_from`` under a key that holds ``pair_to``
    weakly: an entry of the store must hold no pair strongly, or it
    would keep that pair, or its own owner, alive."""

    def sums():
        a = np.abs(cross_gram(pair_from.frame, pair_to.dual))
        return _schur_sums(a * w_to[:, None] / w_from[None, :])

    key = ("change", weakref.ref(pair_to), w_from.tobytes(), w_to.tobytes())
    return _schur_combine(*_remembered(pair_from, key, sums), p)


def _independence_budget(
    pairs_a, pairs_b, spec_a: MixedSpaceSpec, spec_b: MixedSpaceSpec
) -> tuple[float, float]:
    """(budget for norm_B <= c * norm_A, and the reverse)."""
    a1, a2 = pairs_a
    b1, b2 = pairs_b
    v1a, v2a = spec_a._factors
    v1b, v2b = spec_b._factors
    p, q = spec_a.p, spec_a.q

    if p == q:
        ab = _change_bound(a1, b1, v1a, v1b, p) * _change_bound(a2, b2, v2a, v2b, p)
        ba = _change_bound(b1, a1, v1b, v1a, p) * _change_bound(b2, a2, v2b, v2a, p)
        return ab, ba

    if not np.isinf(q):
        raise PreconditionError(
            "frame independence is certified only for p = q or outer-sup "
            "mixed norms"
        )
    # outer-sup norms correspond to operator classes; route the budget
    # through the operator-norm equivalence.  The grid is interpreted as
    # the reciprocal of the operator weights.
    w1a, w1b = _check_positive(1.0 / v1a), _check_positive(1.0 / v1b)
    if spec_a.inner_axis == 1:
        src_p, kernel_exp = 1.0, spec_a.p
    else:
        kernel_exp = spec_a.p
        src_p = _holder_conjugate(kernel_exp)

    def one_direction(src, dst, wsrc_1, wdst_1, vsrc_2, vdst_2):
        s1, s2 = src
        d1, d2 = dst
        c_a = _gram_schur_bound(s1.frame, wsrc_1, src_p)
        c_b = _gram_schur_bound(d1.dual, wdst_1, src_p)
        chg_src = _change_bound(d1, s1, wdst_1, wsrc_1, src_p)
        chg_dst = _change_bound(s2, d2, vsrc_2, vdst_2, kernel_exp)
        return c_b * chg_src * chg_dst * c_a

    ab = one_direction(pairs_a, pairs_b, w1a, w1b, v2a, v2b)
    ba = one_direction(pairs_b, pairs_a, w1b, w1a, v2b, v2a)
    return ab, ba


def verify_frame_independence(
    O,
    pairs_a: tuple[FramePair, FramePair],
    pairs_b: tuple[FramePair, FramePair],
    spec: MixedSpaceSpec,
) -> VerificationReport:
    """Measure the same operator's kernel in two tensor frames and check
    the norm ratio against the cross-Gram change-of-frame budget.

    ``spec`` describes the norm on the first family's index grid; when
    the families have different cardinalities its weight grid must be
    constant, and the second family gets the same constant.

    The budgets depend only on the frames and the weight grid: their
    change-of-frame Schur sums are computed once per ordered pair of
    pairs and weight factors, and the Gram Schur sums once per frame and
    weight vector, and both are remembered (see
    ``localisation._remembered``), as is the second family's constant
    grid, per ``spec`` and shape, so its factors are found once.
    """
    a1, a2 = pairs_a
    b1, b2 = pairs_b
    if (a1.frame.space_dim, a2.frame.space_dim) != (
        b1.frame.space_dim,
        b2.frame.space_dim,
    ):
        raise PreconditionError("frame families act on different spaces")
    A = _check_operator(O, a1, a2)
    return _independence_reports(A[None], pairs_a, pairs_b, spec)[0]


def _independence_reports(A, pairs_a, pairs_b, spec: MixedSpaceSpec) -> list:
    """:func:`verify_frame_independence` of each trial of a checked
    ``(T, d2, d1)`` stack ``A``, in chunks of at most ``_SCORE_ELEMENTS``
    Galerkin entries (or one trial's); the second spec and the budgets
    are found once for all trials."""
    a1, a2 = pairs_a
    b1, b2 = pairs_b
    shape_b = (b1.frame.cardinality, b2.frame.cardinality)
    shape_a = (a1.frame.cardinality, a2.frame.cardinality)
    elements = max(shape_a[0] * shape_a[1], shape_b[0] * shape_b[1])
    spec_b = _second_spec(spec, shape_b)
    norm_a, norm_b = [], []
    for part in _trial_slices(len(A), elements):
        k_a, k_b = _galerkin(A[part], a1, a2), _galerkin(A[part], b1, b2)
        for k, sp, norms in ((k_a, spec, norm_a), (k_b, spec_b, norm_b)):
            norms += _grid_norm(k, sp.weights, sp.p, sp.inner_axis, sp.q).tolist()
    budget_ab, budget_ba = _independence_budget(pairs_a, pairs_b, spec, spec_b)
    return [
        _report(
            "independence",
            a,
            b,
            max(budget_ab, budget_ba),
            _within(b, budget_ab, a) and _within(a, budget_ba, b),
            {"budget_ab": budget_ab, "budget_ba": budget_ba},
        )
        for a, b in zip(norm_a, norm_b)
    ]


def _second_spec(spec: MixedSpaceSpec, shape_b) -> MixedSpaceSpec:
    """The spec of the second family: ``spec`` itself on the same index
    grid, else the remembered constant grid of ``spec``'s value."""
    if spec.weights.shape == shape_b:
        return spec
    if np.ptp(spec.weights) == 0.0:
        return _remembered(
            spec,
            ("constant_grid", shape_b),
            lambda: MixedSpaceSpec(
                spec.p,
                spec.q,
                spec.inner_axis,
                np.full(shape_b, float(spec.weights.flat[0])),
            ),
        )
    raise PreconditionError(
        "families have different index grids; the weight grid must be "
        "constant"
    )


# ---------------------------------------------------------------------------
# Schatten sufficiency


def schatten_check(O, pair1: FramePair, pair2: FramePair, p) -> VerificationReport:
    """Check the singular-value sufficiency bound.

    ``lhs`` is the Schatten-p norm; ``rhs`` aggregates the Euclidean
    norms of the operator applied to the source dual elements.  The
    budget is the square root of the source frame's upper bound ``B``,
    which lower-bounds the dual frame; an orthonormal source has
    ``B = 1``, and there ``lhs <= rhs`` (with equality at p = 2).  The
    check is one-sided: small ratios are legitimate.
    """
    p = float(p)
    if not (1.0 <= p <= 2.0):
        raise PreconditionError(f"Schatten exponent p={p} outside [1, 2]")
    A = _check_operator(O, pair1, pair2)
    return _schatten_reports(A[None], pair1, pair2, p)[0]


def _schatten_reports(A, pair1: FramePair, pair2: FramePair, p: float) -> list:
    """:func:`schatten_check` of each trial of a checked ``(T, d2, d1)``
    stack ``A`` at a checked ``p``, in chunks of at most
    ``_SCORE_ELEMENTS`` entries per stacked temporary (or one trial's);
    the singular values are LAPACK calls of one trial each, and every
    root is taken per trial (see :func:`coorbit._pnorm_rows`)."""
    n1, n2 = pair1.frame.cardinality, pair2.frame.cardinality
    d2, d1 = A.shape[-2:]
    budget = float(np.sqrt(pair1.bounds[1]))
    reports = []
    for part in _trial_slices(len(A), max(n1 * n2, d2 * n1, d2 * d1)):
        B = A[part]
        lhs = _pnorm_rows(np.linalg.svd(B, compute_uv=False), p).tolist()
        col_norms = _pnorm_along(B @ pair1.dual.vectors.T, 2.0, axis=-2)
        rhs = _pnorm_rows(col_norms, p).tolist()
        rows = _pnorm_along(_galerkin(B, pair1, pair2), 2.0, axis=-1)
        kernel_h2p = _pnorm_rows(rows, p).tolist()
        frobenius = _pnorm_rows(np.abs(B).reshape(len(B), -1), 2.0).tolist()
        for t in range(len(B)):
            reports.append(
                _report(
                    "schatten",
                    lhs[t],
                    rhs[t],
                    budget,
                    _within(lhs[t], budget, rhs[t]),
                    {
                        "p": p,
                        "one_sided": True,
                        "frobenius": frobenius[t],
                        "kernel_h2p": kernel_h2p[t],
                        "source_bounds": list(pair1.bounds),
                    },
                )
            )
    return reports


# ---------------------------------------------------------------------------
# Galerkin-domain compression


def compress_operator(
    O,
    pair1: FramePair,
    pair2: FramePair,
    w1,
    w2,
    tau: float,
    exact_error: bool = False,
) -> tuple[np.ndarray, CompressionReport]:
    """Zero all Galerkin entries with weight-normalized magnitude at or
    below ``tau``.

    The error surrogate is the weighted sup norm of the dropped part,
    the norm the outer correspondence controls; it never exceeds
    ``tau``.  With ``exact_error`` the spectral-norm error of the
    re-synthesized operator is added to the details (small dimensions
    only).
    """
    if not tau >= 0:  # also rejects NaN
        raise PreconditionError(f"threshold must be nonnegative, got {tau}")
    w1, w2 = _check_weights(pair1, pair2, w1, w2)
    A = _check_operator(O, pair1, pair2)
    k = _galerkin(A, pair1, pair2)
    with np.errstate(over="ignore"):  # an entry that overflows is kept
        normalized = np.abs(k) / _check_grid(_weight_grid(w1, w2))
    keep = normalized > tau
    k_tau = np.where(keep, k, 0.0)
    kept = int(keep.sum())
    total = int(k.size)
    error = float(np.max(normalized[~keep], initial=0.0))
    details = {}
    if exact_error:
        if pair1.frame.space_dim > 64 or pair2.frame.space_dim > 64:
            raise PreconditionError("exact spectral error is limited to d <= 64")
        details["spectral_error"] = float(
            np.linalg.norm(A - synthesize_kernel(k_tau, pair1, pair2), 2)
        )
    report = CompressionReport(
        threshold=float(tau),
        kept=kept,
        total=total,
        sparsity=kept / total,
        error_surrogate=error,
        details=details,
    )
    return k_tau, report
