"""Executable verification suites for the operator <-> kernel
correspondences, plus Galerkin-domain compression.

Each verifier turns a qualitative norm equivalence into a falsifiable
finite check: both sides are computed, an explicit constant budget is
derived from frame bounds and Schur bounds of the relevant (cross-)Gram
matrices, and ``pass`` means the two sides honor that budget.  When the
operator-norm side is an interval, the pass criterion uses the rigorous
interval endpoints; the reported ratio uses the midpoint.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .coorbit import (
    CoorbitSpec,
    MixedSpaceSpec,
    SeqSpaceSpec,
    _holder_conjugate,
    coorbit_opnorm,
    mixed_norm,
    tensor_weights,
)
from .frames import FramePair, cross_gram, gram, is_orthonormal_basis
from .localisation import as_weight, schur_weighted_bound
from .numeric import PreconditionError, as_matrix, svd_values
from .tensor_kernels import galerkin, kernel_norm, simple_tensor

REPORT_TOL = 1e-9


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
class RankOneDecomposition:
    """Rank-one expansion ``O = sum_r <., f_r> g_r`` together with the
    nuclear-type sum of factor norms."""

    terms: list
    nuclear_sum: float

    def reconstruct(self, shape: tuple[int, int]) -> np.ndarray:
        K = np.zeros(shape, dtype=complex)
        for f, g in self.terms:
            K += simple_tensor(f, g)
        return K


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


def _element_h1_norms(pair: FramePair, w: np.ndarray) -> np.ndarray:
    """``|| psi_i ||`` in the weighted-l1 coorbit norm, for all i at
    once (columns of the dual-analysis cross Gram)."""
    coeffs = np.abs(cross_gram(pair.frame, pair.dual))
    return w @ coeffs


def _lemma_constant_primal(pair: FramePair, w: np.ndarray, p: float) -> float:
    """Schur certificate for ``||psi_i|| <= C w_i`` in the coorbit norm."""
    return schur_weighted_bound(cross_gram(pair.frame, pair.dual), w, p)


# ---------------------------------------------------------------------------
# outer correspondence: sup-norm kernel coefficients vs l1 -> sup operator norm


def verify_outer(
    O, pair1: FramePair, pair2: FramePair, w1, w2, seed: int = 0,
    tol: float = REPORT_TOL,
) -> VerificationReport:
    """Compare the weighted sup norm of the Galerkin coefficients with
    the operator norm from the weighted-l1 coorbit space into the dual
    weighted-sup space.

    For orthonormal frames and any weights the two sides coincide; in
    general the ratio is controlled by the Schur bounds of the source
    Gram and dual Gram.
    """
    w1 = as_weight(w1, pair1.frame.cardinality)
    w2 = as_weight(w2, pair2.frame.cardinality)
    k = galerkin(O, pair1, pair2)
    grid = 1.0 / tensor_weights(w1, w2)
    lhs = mixed_norm(k, MixedSpaceSpec(np.inf, np.inf, 0, grid))

    src = CoorbitSpec(pair1, SeqSpaceSpec(1.0, w1))
    dst = CoorbitSpec(pair2, SeqSpaceSpec(np.inf, 1.0 / w2))
    interval = coorbit_opnorm(O, src, dst, seed=seed)

    c_a = schur_weighted_bound(gram(pair1.frame), w1, 1.0)
    c_b = schur_weighted_bound(gram(pair1.dual), w1, 1.0)
    budget = max(c_a, c_b)
    slack = 1.0 + tol
    passed = lhs <= c_b * interval.upper * slack and interval.lower <= c_a * lhs * slack
    ratio = _safe_ratio(lhs, interval.midpoint)
    if budget <= 1.0 + 1e-12 and np.isfinite(ratio):
        passed = passed and abs(ratio - 1.0) <= tol
    return VerificationReport(
        name="outer",
        lhs=lhs,
        rhs=interval.midpoint,
        ratio=ratio,
        constant_budget=budget,
        passed=bool(passed),
        seed=seed,
        details={
            "opnorm_lower": interval.lower,
            "opnorm_upper": interval.upper,
            "opnorm_exact": interval.exact,
            "gram_schur_bound": c_a,
            "dual_gram_schur_bound": c_b,
        },
    )


# ---------------------------------------------------------------------------
# inner correspondence: rank-one decompositions with summable factor norms


def verify_inner(
    K, pair1: FramePair, pair2: FramePair, w1, w2, tol: float = REPORT_TOL
) -> tuple[RankOneDecomposition, VerificationReport]:
    """Decompose a kernel into rank-one tensors of frame elements and
    compare the nuclear-type sum with the summed-coefficient kernel
    norm.

    The decomposition takes ``(f_r, g_r) = (psi1_i, c_ij psi2_j)`` over
    the nonzero Galerkin coefficients ``c`` of the kernel; its
    reconstruction is exact up to rounding and its nuclear sum exceeds
    the kernel norm by at most the product of the two element-norm
    certificates.
    """
    w1 = as_weight(w1, pair1.frame.cardinality)
    w2 = as_weight(w2, pair2.frame.cardinality)
    K = as_matrix(K)
    c = galerkin(K, pair1, pair2)
    norms1 = _element_h1_norms(pair1, w1)
    norms2 = _element_h1_norms(pair2, w2)

    terms = []
    for i, j in zip(*np.nonzero(c)):
        terms.append((pair1.frame.vectors[i], c[i, j] * pair2.frame.vectors[j]))
    nuclear = float(norms1 @ np.abs(c) @ norms2)
    deco = RankOneDecomposition(terms=terms, nuclear_sum=nuclear)

    rebuilt = deco.reconstruct(K.shape)
    residual = float(
        np.linalg.norm(rebuilt - K) / max(np.linalg.norm(K), 1.0)
    )
    rhs = kernel_norm(K, pair1, pair2, MixedSpaceSpec(1.0, 1.0, 0, tensor_weights(w1, w2)))
    budget = _lemma_constant_primal(pair1, w1, 1.0) * _lemma_constant_primal(
        pair2, w2, 1.0
    )
    ratio = _safe_ratio(nuclear, rhs)
    slack = 1.0 + tol
    passed = (
        residual <= tol
        and ratio >= 1.0 - tol
        and ratio <= budget * slack
    )
    report = VerificationReport(
        name="inner",
        lhs=nuclear,
        rhs=rhs,
        ratio=ratio,
        constant_budget=budget,
        passed=bool(passed),
        details={"reconstruction_residual": residual, "terms": len(terms)},
    )
    return deco, report


# ---------------------------------------------------------------------------
# projective tensor norm sandwich


def verify_projective(
    K, pair1: FramePair, pair2: FramePair, w1, w2, tol: float = REPORT_TOL
) -> VerificationReport:
    """Sandwich the projective tensor norm of a kernel.

    The summed-coefficient kernel norm is a lower bound with constant
    one; the nuclear sum of the canonical rank-one decomposition is an
    admissible representation and hence an upper bound.  For orthonormal
    frames with unit weights the two collapse to the same value.
    """
    w1 = as_weight(w1, pair1.frame.cardinality)
    w2 = as_weight(w2, pair2.frame.cardinality)
    K = as_matrix(K)
    c = galerkin(K, pair1, pair2)
    lower = mixed_norm(c, MixedSpaceSpec(1.0, 1.0, 0, tensor_weights(w1, w2)))
    upper = float(
        _element_h1_norms(pair1, w1) @ np.abs(c) @ _element_h1_norms(pair2, w2)
    )
    budget = _lemma_constant_primal(pair1, w1, 1.0) * _lemma_constant_primal(
        pair2, w2, 1.0
    )
    ratio = _safe_ratio(lower, upper)
    slack = 1.0 + tol
    passed = lower <= upper * slack and upper <= budget * lower * slack + 1e-300
    if lower == 0.0 and upper == 0.0:
        passed = True
    return VerificationReport(
        name="projective",
        lhs=lower,
        rhs=upper,
        ratio=ratio,
        constant_budget=budget,
        passed=bool(passed),
        details={"lower": lower, "upper": upper},
    )


# ---------------------------------------------------------------------------
# Schur-test characterisations of intermediate operator classes


def schur_characterization(
    O,
    pair1: FramePair,
    pair2: FramePair,
    w1,
    w2,
    p,
    variant: str,
    seed: int = 0,
    tol: float = REPORT_TOL,
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
    equalities.
    """
    if variant not in ("i", "ii"):
        raise PreconditionError(f"variant must be 'i' or 'ii', got {variant!r}")
    p = float(p)
    if not (1.0 <= p):
        raise PreconditionError(f"exponent p={p} outside [1, inf]")
    q = _holder_conjugate(p)
    w1 = as_weight(w1, pair1.frame.cardinality)
    w2 = as_weight(w2, pair2.frame.cardinality)
    k = galerkin(O, pair1, pair2)
    grid = 1.0 / tensor_weights(w1, w2)

    if variant == "i":
        kappa = mixed_norm(k, MixedSpaceSpec(p, np.inf, 1, grid))
        src = CoorbitSpec(pair1, SeqSpaceSpec(1.0, w1))
        dst = CoorbitSpec(pair2, SeqSpaceSpec(p, 1.0 / w2))
        schur_p = 1.0
    else:
        kappa = mixed_norm(k, MixedSpaceSpec(q, np.inf, 0, grid))
        src = CoorbitSpec(pair1, SeqSpaceSpec(p, w1))
        dst = CoorbitSpec(pair2, SeqSpaceSpec(np.inf, 1.0 / w2))
        schur_p = p
    interval = coorbit_opnorm(O, src, dst, seed=seed)

    c_a = schur_weighted_bound(gram(pair1.frame), w1, schur_p)
    c_b = schur_weighted_bound(gram(pair1.dual), w1, schur_p)
    budget = max(c_a, c_b)
    slack = 1.0 + tol
    passed = (
        kappa <= c_b * interval.upper * slack
        and interval.lower <= c_a * kappa * slack
    )
    ratio = _safe_ratio(interval.midpoint, kappa)
    if budget <= 1.0 + 1e-12 and np.isfinite(ratio):
        passed = passed and abs(ratio - 1.0) <= tol
    return VerificationReport(
        name=f"schur-{variant}",
        lhs=interval.midpoint,
        rhs=kappa,
        ratio=ratio,
        constant_budget=budget,
        passed=bool(passed),
        seed=seed,
        details={
            "variant": variant,
            "p": p,
            "kernel_inner_exponent": p if variant == "i" else q,
            "exponent_note": (
                "variant ii measures the kernel with the Hoelder conjugate "
                "of p along the first index; the orthonormal-frame oracle "
                "fixes this choice"
            ),
            "opnorm_lower": interval.lower,
            "opnorm_upper": interval.upper,
            "gram_schur_bound": c_a,
            "dual_gram_schur_bound": c_b,
        },
    )


# ---------------------------------------------------------------------------
# frame independence of kernel norms


def _factor_grid(W: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    u = W[:, 0].copy()
    v = W[0, :] / W[0, 0]
    if not np.allclose(W, np.outer(u, v), rtol=1e-9, atol=0.0):
        raise PreconditionError(
            "frame-independence budgets need a rank-one weight grid"
        )
    return u, v


def _change_bound(
    pair_from: FramePair, pair_to: FramePair, w_from, w_to, p
) -> float:
    """Schur certificate for coefficient change: dual-analysis with the
    target pair applied to source-pair synthesis."""
    return schur_weighted_bound(
        cross_gram(pair_from.frame, pair_to.dual), w_from, p, w_out=w_to
    )


def _independence_budget(
    pairs_a, pairs_b, spec_a: MixedSpaceSpec, spec_b: MixedSpaceSpec
) -> tuple[float, float]:
    """(budget for norm_B <= c * norm_A, and the reverse)."""
    a1, a2 = pairs_a
    b1, b2 = pairs_b
    v1a, v2a = _factor_grid(spec_a.weights)
    v1b, v2b = _factor_grid(spec_b.weights)
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
    w1a, w1b = 1.0 / v1a, 1.0 / v1b
    if spec_a.inner_axis == 1:
        src_p, kernel_exp = 1.0, spec_a.p
    else:
        kernel_exp = spec_a.p
        src_p = _holder_conjugate(kernel_exp)

    def one_direction(src, dst, wsrc_1, wdst_1, vsrc_2, vdst_2):
        s1, s2 = src
        d1, d2 = dst
        c_a = schur_weighted_bound(gram(s1.frame), wsrc_1, src_p)
        c_b = schur_weighted_bound(gram(d1.dual), wdst_1, src_p)
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
    spec_b: MixedSpaceSpec | None = None,
    tol: float = REPORT_TOL,
) -> VerificationReport:
    """Measure the same operator's kernel in two tensor frames and check
    the norm ratio against the cross-Gram change-of-frame budget.

    ``spec`` describes the norm on the first family's index grid; when
    the families have different cardinalities a matching ``spec_b`` must
    be given (it is inferred automatically for constant weight grids).
    """
    a1, a2 = pairs_a
    b1, b2 = pairs_b
    if (a1.frame.space_dim, a2.frame.space_dim) != (
        b1.frame.space_dim,
        b2.frame.space_dim,
    ):
        raise PreconditionError("frame families act on different spaces")
    k_a = galerkin(O, a1, a2)
    if spec_b is None:
        shape_b = (b1.frame.cardinality, b2.frame.cardinality)
        if spec.weights.shape == shape_b:
            spec_b = MixedSpaceSpec(spec.p, spec.q, spec.inner_axis, spec.weights)
        elif np.ptp(spec.weights) == 0.0:
            spec_b = MixedSpaceSpec(
                spec.p,
                spec.q,
                spec.inner_axis,
                np.full(shape_b, float(spec.weights.flat[0])),
            )
        else:
            raise PreconditionError(
                "families have different index grids; pass spec_b explicitly"
            )
    norm_a = mixed_norm(k_a, spec)
    norm_b = mixed_norm(galerkin(O, b1, b2), spec_b)
    budget_ab, budget_ba = _independence_budget(pairs_a, pairs_b, spec, spec_b)
    budget = max(budget_ab, budget_ba)
    ratio = _safe_ratio(norm_a, norm_b)
    slack = 1.0 + tol
    if norm_a == 0.0 and norm_b == 0.0:
        passed = True
    else:
        passed = (
            np.isfinite(ratio)
            and ratio >= 1.0 / (budget_ab * slack)
            and ratio <= budget_ba * slack
        )
    return VerificationReport(
        name="independence",
        lhs=norm_a,
        rhs=norm_b,
        ratio=ratio,
        constant_budget=budget,
        passed=bool(passed),
        details={"budget_ab": budget_ab, "budget_ba": budget_ba},
    )


# ---------------------------------------------------------------------------
# Schatten sufficiency


def schatten_check(
    O, pair1: FramePair, pair2: FramePair, p, tol: float = REPORT_TOL
) -> VerificationReport:
    """Check the singular-value sufficiency bound.

    ``lhs`` is the Schatten-p norm; ``rhs`` aggregates the Euclidean
    norms of the operator applied to the source dual elements.  For an
    orthonormal source the inequality ``lhs <= rhs`` holds with constant
    one (with equality at p = 2); in general the budget is the square
    root of the source frame's upper bound, which lower-bounds the dual
    frame.  The check is one-sided: small ratios are legitimate.
    """
    p = float(p)
    if not (1.0 <= p <= 2.0):
        raise PreconditionError(f"Schatten exponent p={p} outside [1, 2]")
    A = as_matrix(O)
    d1 = pair1.frame.space_dim
    d2 = pair2.frame.space_dim
    if A.shape != (d2, d1):
        raise PreconditionError(
            f"operator shape {A.shape} does not map C^{d1} to C^{d2}"
        )
    sigma = svd_values(A)
    lhs = float(np.sum(sigma**p) ** (1.0 / p))
    images = A @ pair1.dual.vectors.T
    col_norms = np.linalg.norm(images, axis=0)
    rhs = float(np.sum(col_norms**p) ** (1.0 / p))

    onb = is_orthonormal_basis(pair1)
    budget = 1.0 if onb else float(np.sqrt(pair1.bounds[1]))
    ratio = _safe_ratio(lhs, rhs)
    passed = lhs <= budget * rhs * (1.0 + tol)

    k = galerkin(A, pair1, pair2)
    ones = tensor_weights(np.ones(k.shape[0]), np.ones(k.shape[1]))
    kernel_h2p = mixed_norm(k, MixedSpaceSpec(2.0, p, 1, ones))
    return VerificationReport(
        name="schatten",
        lhs=lhs,
        rhs=rhs,
        ratio=ratio,
        constant_budget=budget,
        passed=bool(passed),
        details={
            "p": p,
            "one_sided": True,
            "frobenius": float(np.linalg.norm(A)),
            "kernel_h2p": kernel_h2p,
            "source_bounds": list(pair1.bounds),
        },
    )


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
    if tau < 0:
        raise PreconditionError("threshold must be nonnegative")
    w1 = as_weight(w1, pair1.frame.cardinality)
    w2 = as_weight(w2, pair2.frame.cardinality)
    k = galerkin(O, pair1, pair2)
    normalized = np.abs(k) / tensor_weights(w1, w2)
    keep = normalized > tau
    k_tau = np.where(keep, k, 0.0)
    kept = int(keep.sum())
    total = int(k.size)
    error = float(np.max(normalized[~keep], initial=0.0))
    details = {}
    if exact_error:
        if pair1.frame.space_dim > 64 or pair2.frame.space_dim > 64:
            raise PreconditionError("exact spectral error is limited to d <= 64")
        from .tensor_kernels import synthesize_kernel

        details["spectral_error"] = float(
            np.linalg.norm(as_matrix(O) - synthesize_kernel(k_tau, pair1, pair2), 2)
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


# ---------------------------------------------------------------------------
# CSV export for sweeps


def reports_to_csv(reports) -> str:
    lines = ["name,lhs,rhs,ratio,budget,pass,seed"]
    for r in reports:
        lines.append(
            f"{r.name},{r.lhs!r},{r.rhs!r},{r.ratio!r},"
            f"{r.constant_budget!r},{r.passed},{r.seed}"
        )
    return "\n".join(lines) + "\n"


def compressions_to_csv(reports) -> str:
    lines = ["threshold,kept,total,sparsity,error_surrogate"]
    for r in reports:
        lines.append(
            f"{r.threshold!r},{r.kept},{r.total},{r.sparsity!r},"
            f"{r.error_surrogate!r}"
        )
    return "\n".join(lines) + "\n"
