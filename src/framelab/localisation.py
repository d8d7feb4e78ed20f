"""Localisation diagnostics: polynomial off-diagonal decay and weighted
Schur bounds.

The abstract matrix-algebra picture is replaced by two checkable
surrogates at finite size: the smallest constant ``C`` with
``|M[i,i']| <= C (1 + rho(i,i'))^-s`` (a polynomial-decay norm) and the
classical Schur row/column bound certifying boundedness on weighted
``l^p`` spaces.  Inverse-closedness is not certified here; the report
only measures decay.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .frames import FramePair, IndexSet, cross_gram
from .numeric import PreconditionError, _check_exponent, as_matrix


@dataclass(frozen=True)
class JaffardParams:
    """Decay exponent ``s >= 0`` together with the index set whose
    metric measures off-diagonal distance."""

    exponent: float
    index_set: IndexSet

    def __post_init__(self):
        s = float(self.exponent)
        if not np.isfinite(s) or s < 0:
            raise PreconditionError(f"decay exponent must be finite and >= 0, got {s}")
        object.__setattr__(self, "exponent", s)


def _positive_finite(v: np.ndarray) -> bool:
    """Whether every entry of ``v`` is positive and finite, from two
    reductions and no boolean temporaries; NaN fails the first."""
    return bool(v.min(initial=np.inf) > 0.0 and v.max(initial=0.0) < np.inf)


def as_weight(w, n: int | None = None) -> np.ndarray:
    """Validate a positive finite weight vector."""
    v = np.asarray(w, dtype=float)
    if v.ndim != 1:
        raise PreconditionError("weights must form a 1-D sequence")
    if n is not None and v.shape[0] != n:
        raise PreconditionError(f"{v.shape[0]} weights for {n} indices")
    return _check_positive(v)


def _check_positive(v: np.ndarray) -> np.ndarray:
    """``v`` itself, rejected unless every entry is positive and finite."""
    if not _positive_finite(v):
        raise PreconditionError("weights must be positive and finite")
    return v


def _decay_grid(params: JaffardParams) -> np.ndarray:
    """``(1 + rho(i,i'))^s`` over the index set."""
    return (1.0 + params.index_set.distance_matrix()) ** params.exponent


def _weighted_sup(A: np.ndarray, grid: np.ndarray) -> float:
    """``max |A| * grid`` for a validated matrix ``A`` of the grid's shape."""
    if A.shape != grid.shape:
        raise PreconditionError(
            f"matrix shape {A.shape} does not match index set of size "
            f"{grid.shape[0]}"
        )
    a = np.abs(A)
    a *= grid
    return float(np.max(a, initial=0.0))


def jaffard_norm(M, params: JaffardParams) -> float:
    """Smallest ``C`` with ``|M[i,i']| <= C (1 + rho(i,i'))^-s``,
    computed as ``sup |M[i,i']| (1 + rho(i,i'))^s``."""
    return _weighted_sup(as_matrix(M), _decay_grid(params))


def _schur_bound(a: np.ndarray, p: float) -> float:
    """``C_row^(1-1/p) * C_col^(1/p)`` from the row and column sums of
    the non-negative matrix ``a``; inf sums give inf."""
    c_row = float(np.max(a.sum(axis=1), initial=0.0))
    c_col = float(np.max(a.sum(axis=0), initial=0.0))
    if np.isinf(p):
        return c_row
    theta = 1.0 / p
    return c_row ** (1.0 - theta) * c_col**theta


def schur_weighted_bound(M, w, p, w_out=None) -> float:
    """Schur interpolation bound for ``||M||`` on ``l^p_w``.

    Returns ``C_row^(1-1/p) * C_col^(1/p)`` where ``C_row`` and
    ``C_col`` are the weighted row and column sups of ``|M[i,i']|
    w_out[i] / w[i']``.  ``w_out`` defaults to ``w`` (square case); pass
    it explicitly for rectangular cross-Gram matrices whose axes carry
    different index sets.  The returned value dominates the true
    operator norm for every ``p`` in ``[1, inf]``.
    """
    A = np.abs(as_matrix(M))
    p = _check_exponent(p, "p=")
    w_in = as_weight(w, A.shape[1])
    w_o = w_in if w_out is None else as_weight(w_out, A.shape[0])
    if A.shape[0] != w_o.shape[0]:
        raise PreconditionError("row weights do not match matrix shape")
    return _weighted_schur_bound(A, w_in, w_o, p)


def _weighted_schur_bound(a: np.ndarray, w_in, w_out, p: float) -> float:
    """:func:`schur_weighted_bound` of the non-negative matrix ``a``, for
    weights and an exponent that are already checked."""
    return _schur_bound(a * w_out[:, None] / w_in[None, :], p)


def poly_weight(index_set: IndexSet, t: float) -> np.ndarray:
    """Polynomial weight ``w_i = (1 + rho(i, origin))^t`` with the first
    label as origin."""
    if not np.isfinite(t):
        raise PreconditionError("weight exponent must be finite")
    return (1.0 + index_set.distances_from_origin()) ** float(t)


@dataclass(frozen=True)
class LocalisationReport:
    """Decay constants of the Gram, dual Gram and primal-dual cross Gram
    at a common exponent, plus a threshold verdict."""

    jaffard_gram: float
    jaffard_dual_gram: float
    jaffard_cross: float
    exponent: float
    threshold: float
    verdict: bool

    def to_json(self) -> dict:
        return {
            "jaffard_gram": self.jaffard_gram,
            "jaffard_dual_gram": self.jaffard_dual_gram,
            "jaffard_cross": self.jaffard_cross,
            "exponent": self.exponent,
            "verdict": self.verdict,
            "threshold": self.threshold,
        }


def localisation_report(
    pair: FramePair, params: JaffardParams, threshold: float = 1e6
) -> LocalisationReport:
    """Evaluate decay constants for ``G``, ``G_dual`` and the cross Gram
    of dual against primal; verdict is true when all stay below the
    threshold."""
    if np.isnan(threshold):
        raise PreconditionError("threshold must not be NaN")
    grid = _decay_grid(params)
    g = _weighted_sup(cross_gram(pair.frame, pair.frame), grid)
    g_dual = _weighted_sup(cross_gram(pair.dual, pair.dual), grid)
    g_cross = _weighted_sup(cross_gram(pair.dual, pair.frame), grid)
    verdict = bool(max(g, g_dual, g_cross) <= threshold)
    return LocalisationReport(
        jaffard_gram=g,
        jaffard_dual_gram=g_dual,
        jaffard_cross=g_cross,
        exponent=params.exponent,
        threshold=threshold,
        verdict=verdict,
    )
