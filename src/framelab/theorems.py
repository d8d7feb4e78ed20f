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
statement, so it is the internal variant ``"outer"`` of the Schur core;
the inner and projective checks bound one quantity from two sides and
share one sandwich.  Every stacked core reports through one
chunk-and-report skeleton, ``_scored``, which alone cuts stacks into chunks.

Inputs are checked once, at the public entry: the operator, the weights,
the exponents and every weight the cores derive from them (reciprocals,
weight grids and their factors), with the messages of the public
checkers.  The private cores trust the arrays they build (Galerkin
matrices, Grams, cross-Grams) and take Schur bounds and the operator-norm
interval from the unchecked cores in ``localisation`` and ``coorbit``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .coorbit import (
    MixedSpaceSpec,
    _check_grid,
    _grid_norm,
    _holder_conjugate,
    _interval_elements,
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
    _weighted_schur_bound,
    as_weight,
)
from .numeric import PreconditionError, _as_real, _check_exponent, _check_int, as_matrix
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


def _scored(name, A, elements, sides, seed=0) -> list:
    """The reports named ``name`` of a checked ``(T, d2, d1)`` stack
    ``A``: ``sides`` maps each chunk of :func:`coorbit._trial_slices`,
    for ``elements`` entries in a trial's largest temporary, to one
    ``(lhs, rhs, budget, passed, details)`` per report, in order."""
    return [
        _report(name, *trial, seed)
        for part in _trial_slices(len(A), elements)
        for trial in sides(A[part])
    ]


def _opnorm_report(A, pair1, pair2, w1, w2, p, variant, seed) -> list:
    """The Schur ``variant`` check at ``p`` of maps from a weighted
    coorbit space of ``pair1`` into a dual one of ``pair2``, for checked
    weights, on each trial of a checked ``(T, d2, d1)`` stack ``A``: one
    report per trial.  The internal variant ``"outer"`` is the outer
    check: variant ``"ii"`` at ``p = 1`` with the kernel on the left of
    the ratio.

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

    Each chunk of :func:`_scored`, sized by a trial's interval, measures
    its kernels, then takes its intervals in one call; each report has
    its trial's one-trial bits (see :func:`coorbit._opnorm_interval`).
    """
    if variant == "i":
        p_src, p_dst, kernel_exp, inner_axis = 1.0, p, p, 1
    else:
        p_src, p_dst, kernel_exp, inner_axis = p, np.inf, _holder_conjugate(p), 0
    # only overflow and division by zero are silenced, in the checks and
    # in the scoring: an invalid operation still warns
    with np.errstate(over="ignore", divide="ignore"):
        grid = _check_grid(1.0 / np.outer(w1, w2))
        w2_dst = _check_positive(1.0 / w2)
    c_a = _gram_schur_bound(pair1.frame, w1, p_src)
    c_b = _gram_schur_bound(pair1.dual, w1, p_src)
    budget = max(c_a, c_b)
    schur = {"gram_schur_bound": c_a, "dual_gram_schur_bound": c_b}
    outer = variant == "outer"
    head = {} if outer else {
        "variant": variant,
        "p": p,
        "kernel_inner_exponent": kernel_exp,
        "exponent_note": (
            "variant ii measures the kernel with the Hoelder conjugate "
            "of p along the first index; the orthonormal-frame oracle "
            "fixes this choice"
        ),
    }

    def sides(stack):
        k = _galerkin(stack, pair1, pair2)
        # _grid_norm's arithmetic, inline so that ``a`` is freed only
        # after the chunk's intervals: freeing it before moved
        # opnorm-grid's op_cal by about +20%, through the allocator's state
        a = np.abs(k)
        a *= grid
        kernels = _pnorm_of_abs(a, kernel_exp, inner_axis - 2)
        kernels = kernels.max(axis=-1, initial=0.0).tolist()
        for t, kernel in enumerate(kernels):
            if not math.isfinite(kernel):
                as_matrix(k[t])  # rejects a Galerkin matrix that overflowed
        intervals = _opnorm_interval(
            stack, pair1, pair2, p_src, p_dst, w1, w2_dst, seed
        )
        out = []
        for kernel, iv in zip(kernels, intervals):
            passed = _within(kernel, c_b, iv.upper) and _within(iv.lower, c_a, kernel)
            lhs, rhs = (kernel, iv.midpoint) if outer else (iv.midpoint, kernel)
            bounds = {"opnorm_lower": iv.lower, "opnorm_upper": iv.upper}
            details = {
                **head,
                **bounds,
                "opnorm_upper_source": iv.upper_source,
                "opnorm_lower_source": iv.lower_source,
            }
            if outer:
                details["opnorm_exact"] = iv.exact
            details.update(schur)
            overflowed = [
                key
                for key, x in (("kernel", kernel), *bounds.items())
                if not math.isfinite(x)
            ]
            if overflowed:
                details["overflowed"] = overflowed
            passed = _onb_equality(passed, _safe_ratio(lhs, rhs), budget)
            out.append((lhs, rhs, budget, passed, details))
        return out

    name = "outer" if outer else f"schur-{variant}"
    with np.errstate(over="ignore", divide="ignore"):
        return _scored(name, A, _interval_elements(pair1, pair2), sides, seed)


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
    seed = _check_int(seed, "seed")
    w1, w2 = _check_weights(pair1, pair2, w1, w2)
    A = _check_operator(O, pair1, pair2)
    return _opnorm_report(A[None], pair1, pair2, w1, w2, 1.0, "outer", seed)[0]


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
    p, seed = _check_exponent(p, "p="), _check_int(seed, "seed")
    w1, w2 = _check_weights(pair1, pair2, w1, w2)
    A = _check_operator(O, pair1, pair2)
    return _opnorm_report(A[None], pair1, pair2, w1, w2, p, variant, seed)[0]


# ---------------------------------------------------------------------------
# inner correspondence and projective sandwich: summed-coefficient norm vs
# nuclear sum of the canonical rank-one decomposition


def _element_norms(pair: FramePair, w: np.ndarray) -> tuple[np.ndarray, float]:
    """``(norms, C)``: the weighted-l1 coorbit norms ``||psi_i||`` of the
    elements of ``pair``'s frame, and the Schur certificate ``C`` for
    ``||psi_i|| <= C w_i``."""
    coeffs = np.abs(cross_gram(pair.frame, pair.dual))
    return w @ coeffs, _weighted_schur_bound(coeffs, w, w, 1.0)


def _projective_sides(K, pair1: FramePair, pair2: FramePair, w1, w2):
    """``(c, sandwich)`` of a checked ``(T, d2, d1)`` stack ``K`` of
    kernels: their ``(T, n1, n2)`` Galerkin coefficients, and per trial
    ``(lower, upper, budget, passed)``: the weighted summed norm, the
    nuclear sum ``sum |c_ij| ||psi1_i|| ||psi2_j||`` with element norms
    in the weighted-l1 coorbit norm, the product of the two Schur
    certificates for ``||psi_i|| <= C w_i``, which is one for all
    trials, and whether ``lower <= upper <= budget lower``.  Each
    nuclear sum is a ``gemv`` and a ``dot`` of its own trial, as in a
    one-trial call."""
    c = _galerkin(K, pair1, pair2)
    lower = _grid_norm(c, _check_grid(_weight_grid(w1, w2)), 1.0, 0, 1.0).tolist()
    norms = []
    budget = 1.0
    for pair, w in ((pair1, w1), (pair2, w2)):
        side, certificate = _element_norms(pair, w)
        norms.append(side)
        budget *= certificate
    upper = ((norms[0] @ np.abs(c))[:, None, :] @ norms[1])[:, 0].tolist()
    return c, [
        (lo, up, budget, _within(lo, 1.0, up) and _within(up, budget, lo))
        for lo, up in zip(lower, upper)
    ]


def _inner_reports(K, pair1: FramePair, pair2: FramePair, w1, w2) -> list:
    """:func:`verify_inner` of each trial of a checked ``(T, d2, d1)``
    stack ``K``, for checked weights, through :func:`_scored`.  Each
    trial's reconstruction goes through the public ``synthesize_kernel``,
    so the residual measures the synthesis that callers use."""

    def sides(stack):
        c, sandwich = _projective_sides(stack, pair1, pair2, w1, w2)
        out = []
        for k, c_t, (rhs, nuclear, budget, ok) in zip(stack, c, sandwich):
            rebuilt = synthesize_kernel(c_t, pair1, pair2)
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
            details = {
                "reconstruction_residual": residual,
                "terms": int(np.count_nonzero(c_t)),
            }
            out.append((nuclear, rhs, budget, ok and residual <= REPORT_TOL, details))
        return out

    n1, n2 = pair1.frame.cardinality, pair2.frame.cardinality
    return _scored("inner", K, n1 * n2, sides)


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
    weights; each call computes them anew, and a stack of kernels shares
    one computation.
    """
    w1, w2 = _check_weights(pair1, pair2, w1, w2)
    K = _check_operator(K, pair1, pair2)
    return _inner_reports(K[None], pair1, pair2, w1, w2)[0]


def _projective_reports(K, pair1: FramePair, pair2: FramePair, w1, w2) -> list:
    """:func:`verify_projective` of each trial of a checked ``(T, d2,
    d1)`` stack ``K``, for checked weights, through :func:`_scored`."""

    def sides(stack):
        return [
            (lo, up, budget, ok, {"lower": lo, "upper": up})
            for lo, up, budget, ok in _projective_sides(stack, pair1, pair2, w1, w2)[1]
        ]

    n1, n2 = pair1.frame.cardinality, pair2.frame.cardinality
    return _scored("projective", K, n1 * n2, sides)


def verify_projective(
    K, pair1: FramePair, pair2: FramePair, w1, w2
) -> VerificationReport:
    """Sandwich the projective tensor norm of a kernel.

    The summed-coefficient kernel norm is a lower bound with constant
    one; the nuclear sum of the canonical rank-one decomposition is an
    admissible representation and hence an upper bound.  For orthonormal
    frames with unit weights the two collapse to the same value.

    The element norms and the budget depend only on the frames and the
    weights; each call computes them anew, and a stack of kernels shares
    one computation.
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
    target pair applied to source-pair synthesis."""
    a = np.abs(cross_gram(pair_from.frame, pair_to.dual))
    return _weighted_schur_bound(a, w_from, w_to, p)


def _independence_budget(
    pairs_a, pairs_b, p, q, inner_axis, factors_a, factors_b
) -> tuple[float, float]:
    """(budget for norm_B <= c * norm_A, and the reverse), for the
    factors ``(v1, v2)`` of each family's weight grid."""
    a1, a2 = pairs_a
    b1, b2 = pairs_b
    v1a, v2a = factors_a
    v1b, v2b = factors_b

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
    if inner_axis == 1:
        src_p, kernel_exp = 1.0, p
    else:
        kernel_exp = p
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

    ``spec`` describes the norm on the first family's index grid, so
    its weight grid must have that grid's shape; when the families have
    different cardinalities the weight grid must also be constant, and
    the second family gets the same constant.

    The budgets depend only on the frames and the weight grid.  Each
    call computes their change-of-frame Schur sums anew; only the Gram
    Schur sums of the outer-sup branch are remembered, per frame and
    weight vector (see ``localisation._remembered``).
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


def _rank_one_factors(W: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(u, v)`` with ``W == outer(u, v)`` to ``rtol=1e-9``: the first
    column of ``W`` and its first row over its corner; a grid that is not
    rank one is refused."""
    u = W[:, 0].copy()
    v = W[0, :] / W[0, 0]
    if not np.allclose(W, _weight_grid(u, v), rtol=1e-9, atol=0.0):
        raise PreconditionError(
            "frame-independence budgets need a rank-one weight grid"
        )
    return u, v


def _independence_reports(A, pairs_a, pairs_b, spec: MixedSpaceSpec) -> list:
    """:func:`verify_frame_independence` of each trial of a checked
    ``(T, d2, d1)`` stack ``A``, in chunks of at most ``_SCORE_ELEMENTS``
    Galerkin entries (or one trial's).  The second family's grid, each
    grid's factors and the budgets are found once for all trials, and
    before the first Galerkin matrix, so a grid or an exponent pair that
    has no budget is refused before any kernel is computed."""
    a1, a2 = pairs_a
    b1, b2 = pairs_b
    shape_a = (a1.frame.cardinality, a2.frame.cardinality)
    shape_b = (b1.frame.cardinality, b2.frame.cardinality)
    p, q, axis, grid_a = spec.p, spec.q, spec.inner_axis, spec.weights
    if grid_a.shape != shape_a:
        raise PreconditionError(
            f"weight grid of shape {grid_a.shape} does not fit the first "
            f"family's index grid {shape_a}"
        )
    grid_b = grid_a
    if shape_b != shape_a:
        c = grid_a[0, 0]
        if (grid_a != c).any():
            raise PreconditionError(
                "families have different index grids; the weight grid must be "
                "constant"
            )
        grid_b = np.full(shape_b, c)
    factors_a = _rank_one_factors(grid_a)
    factors_b = factors_a if grid_b is grid_a else _rank_one_factors(grid_b)
    budget_ab, budget_ba = _independence_budget(
        pairs_a, pairs_b, p, q, axis, factors_a, factors_b
    )
    budget = max(budget_ab, budget_ba)

    def sides(stack):
        k_a, k_b = _galerkin(stack, a1, a2), _galerkin(stack, b1, b2)
        norm_a = _grid_norm(k_a, grid_a, p, axis, q).tolist()
        norm_b = _grid_norm(k_b, grid_b, p, axis, q).tolist()
        return [
            (
                a,
                b,
                budget,
                _within(b, budget_ab, a) and _within(a, budget_ba, b),
                {"budget_ab": budget_ab, "budget_ba": budget_ba},
            )
            for a, b in zip(norm_a, norm_b)
        ]

    return _scored("independence", A, max(grid_a.size, grid_b.size), sides)


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
    p = _as_real(p, "Schatten exponent p=")
    if not (1.0 <= p <= 2.0):
        raise PreconditionError(f"Schatten exponent p={p} outside [1, 2]")
    A = _check_operator(O, pair1, pair2)
    return _schatten_reports(A[None], pair1, pair2, (p,))[0]


def _schatten_reports(A, pair1: FramePair, pair2: FramePair, exponents) -> list:
    """:func:`schatten_check` of each trial of a checked ``(T, d2, d1)``
    stack ``A`` at each checked exponent, through :func:`_scored`: one
    report per trial and exponent, the exponents of a trial in a row.
    A chunk holds at most ``_SCORE_ELEMENTS`` entries per stacked
    temporary (or one trial's); its singular values, column norms and
    Galerkin row norms are found once for all exponents, the singular
    values by LAPACK calls of one trial each, and every root is taken
    per trial (see :func:`coorbit._pnorm_rows`)."""
    n1, n2 = pair1.frame.cardinality, pair2.frame.cardinality
    d2, d1 = A.shape[-2:]
    budget = float(np.sqrt(pair1.bounds[1]))

    def sides(B):
        singular = np.linalg.svd(B, compute_uv=False)
        col_norms = _pnorm_along(B @ pair1.dual.vectors.T, 2.0, axis=-2)
        rows = _pnorm_along(_galerkin(B, pair1, pair2), 2.0, axis=-1)
        frobenius = _pnorm_rows(np.abs(B).reshape(len(B), -1), 2.0).tolist()
        # _pnorm_rows overwrites its input
        norms = [
            [_pnorm_rows(x.copy(), p).tolist() for x in (singular, col_norms, rows)]
            for p in exponents
        ]
        out = []
        for t, f in enumerate(frobenius):
            for p, (lhs, rhs, kernel_h2p) in zip(exponents, norms):
                details = {
                    "p": p,
                    "one_sided": True,
                    "frobenius": f,
                    "kernel_h2p": kernel_h2p[t],
                    "source_bounds": list(pair1.bounds),
                }
                passed = _within(lhs[t], budget, rhs[t])
                out.append((lhs[t], rhs[t], budget, passed, details))
        return out

    return _scored("schatten", A, max(n1 * n2, d2 * n1, d2 * d1), sides)


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
    tau = _as_real(tau, "threshold ")
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
