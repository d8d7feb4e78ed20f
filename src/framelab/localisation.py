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

import math
import threading
import weakref
from dataclasses import dataclass

import numpy as np

from .frames import (
    Frame,
    FramePair,
    IndexSet,
    _axis_distances,
    _product_table,
    gram,
)
from .numeric import PreconditionError, _as_real, _check_exponent, _row_blocks, as_matrix


@dataclass(frozen=True)
class JaffardParams:
    """Decay exponent ``s >= 0`` together with the index set whose
    metric measures off-diagonal distance."""

    exponent: float
    index_set: IndexSet

    def __post_init__(self):
        s = _as_real(self.exponent, "decay exponent ")
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
    """``(1 + rho(i,i'))^s`` over the index set; an overflowed weight is
    inf, without a warning.

    On a product grid with the ``max`` metric the power is monotone, so
    the grid is the elementwise max of the two per-axis powered tables:
    the same bits from ``n1^2 + n2^2`` powers, and the ``n x n`` distance
    matrix is never built.
    """
    index_set, s = params.index_set, params.exponent
    with np.errstate(over="ignore"):
        if index_set.kind == "product_cyclic" and index_set.metric == "max":
            t1, t2 = (
                (1.0 + _axis_distances(m, True, True)) ** s for m in index_set.size
            )
            return _product_table(t1, t2, np.maximum)
        return (1.0 + index_set.distance_matrix()) ** s


def _check_grid_shape(shape: tuple[int, int], grid: np.ndarray) -> None:
    """Reject a matrix ``shape`` that differs from the decay grid's."""
    if shape != grid.shape:
        raise PreconditionError(
            f"matrix shape {shape} does not match index set of size "
            f"{grid.shape[0]}"
        )


def _weighted_max(a: np.ndarray, grid: np.ndarray) -> np.float64:
    """``max a * grid`` for a non-negative ``a``, computed in place in
    ``a``.  A zero entry contributes 0 at any weight, also an inf one
    (where ``0 * inf`` would be NaN); a NaN entry stays NaN."""
    np.multiply(a, grid, out=a, where=a > 0)
    return np.max(a, initial=0.0)


def jaffard_norm(M, params: JaffardParams) -> float:
    """Smallest ``C`` with ``|M[i,i']| <= C (1 + rho(i,i'))^-s``,
    computed as ``sup |M[i,i']| (1 + rho(i,i'))^s``.  A zero entry
    contributes 0 at any weight, even where ``(1 + rho)^s`` overflows."""
    A = as_matrix(M)
    grid = _decay_grid(params)
    _check_grid_shape(A.shape, grid)
    return float(_weighted_max(np.abs(A), grid))


def _gram_sup(L: np.ndarray, R: np.ndarray, grid: np.ndarray, hermitian: bool) -> float:
    """``max |conj(L) @ R.T| * grid``, the decay norm of
    ``cross_gram(frame with vectors R, frame with vectors L)``, one row
    block at a time so that no ``n x n`` complex temporary is formed.

    With ``hermitian`` (``L is R``, a Gram matrix) only the block upper
    triangle is visited, from column ``r0`` rounded down to a multiple of
    16 on: a column offset off the BLAS micro-tile grid changes the bits
    of the entries.  The Gram and the decay grid are both symmetric, so
    the lower triangle mirrors the upper one; the computed ``|G|`` need
    not be bitwise symmetric, though, and where the largest entry and its
    mirror differ in rounding the result is the upper one's.
    """
    n = L.shape[0]
    _check_grid_shape((n, R.shape[0]), grid)
    best = np.float64(0.0)
    for r0, r1 in _row_blocks(n, R.shape[0]):
        c0 = r0 - r0 % 16 if hermitian else 0
        a = np.abs(L[r0:r1].conj() @ R[c0:].T)
        best = np.maximum(best, _weighted_max(a, grid[r0:r1, c0:]))
    return float(best)


def _schur_sums(a: np.ndarray) -> tuple[float, float]:
    """``(C_row, C_col)``: the largest row sum and the largest column sum
    of the non-negative matrix ``a``."""
    c_row = float(np.max(a.sum(axis=1), initial=0.0))
    c_col = float(np.max(a.sum(axis=0), initial=0.0))
    return c_row, c_col


def _schur_combine(c_row: float, c_col: float, p: float) -> float:
    """``C_row^(1-1/p) * C_col^(1/p)``; inf sums give inf."""
    if math.isinf(p):
        return c_row
    theta = 1.0 / p
    return c_row ** (1.0 - theta) * c_col**theta


def _schur_bound(a: np.ndarray, p: float) -> float:
    """The Schur bound at ``p`` of the non-negative matrix ``a``."""
    return _schur_combine(*_schur_sums(a), p)


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


_memo: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
_ENTRIES_PER_OWNER = 16
_memo_lock = threading.Lock()


def _remembered(owner, key, compute):
    """``compute()``, remembered for ``owner`` under ``key``.

    This is the one store of data that depends only on frames and
    weights, never on an operator:

    * per :class:`Frame`, its Gram Schur sums, under ``w.tobytes()``;
    * per :class:`FramePair`, the seeded random probe block, under
      ``("random", seed)``, and the probe denominators, under
      ``(w.tobytes(), p, seed)``;
    * per source :class:`FramePair`, the weighted analysis map in
      extended precision and the inverse of its Gram, which give the
      exact ``l^2 -> l^inf`` operator norm, under ``("l2",
      w.tobytes())``.

    Owners are held weakly, so their entries die with them, and no key
    or value holds a frame or pair.

    Each owner keeps at most ``_ENTRIES_PER_OWNER`` entries, the oldest
    evicted first: the op-norm verifiers take one denominator key per
    source exponent besides the random block and the ``l2`` entry, and
    a sweep over five exponents must fit, or it evicts every key before
    its next use.  The largest entries are the extended-precision
    analysis map, ``n d`` values of 32 bytes (262 KB at ``n = 256``,
    ``d = 32``), and a random block of ``10 d^2`` complex values (164 KB
    at ``d = 32``).  Weights enter keys as bytes, never as an array's
    identity, so a weight vector changed in place is a new key.

    One lock makes each lookup, eviction and fill one step across
    threads.  It is not reentrant, so ``compute`` must not call
    ``_remembered``: a fill that needs another remembered value takes it
    as an argument, fetched before.
    """
    with _memo_lock:
        entries = _memo.get(owner)
        if entries is None:
            entries = _memo[owner] = {}
        if key not in entries:
            if len(entries) >= _ENTRIES_PER_OWNER:
                del entries[next(iter(entries))]
            entries[key] = compute()
        return entries[key]


def _gram_schur_bound(frame: Frame, w: np.ndarray, p: float) -> float:
    """``_weighted_schur_bound(np.abs(gram(frame)), w, w, p)`` for a
    checked float weight vector ``w``; the two Schur sums are remembered
    per frame under ``w.tobytes()``."""
    c_row, c_col = _remembered(
        frame,
        w.tobytes(),
        lambda: _schur_sums(np.abs(gram(frame)) * w[:, None] / w[None, :]),
    )
    return _schur_combine(c_row, c_col, p)


def poly_weight(index_set: IndexSet, t: float) -> np.ndarray:
    """Polynomial weight ``w_i = (1 + rho(i, origin))^t`` with the first
    label as origin."""
    t = _as_real(t, "weight exponent ")
    if not np.isfinite(t):
        raise PreconditionError("weight exponent must be finite")
    return (1.0 + index_set.distances_from_origin()) ** t


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
    threshold = _as_real(threshold, "threshold ")
    if np.isnan(threshold):
        raise PreconditionError("threshold must not be NaN")
    grid = _decay_grid(params)
    F, D = pair.frame.vectors, pair.dual.vectors
    g = _gram_sup(F, F, grid, hermitian=True)
    g_dual = _gram_sup(D, D, grid, hermitian=True)
    g_cross = _gram_sup(F, D, grid, hermitian=False)
    verdict = bool(max(g, g_dual, g_cross) <= threshold)
    return LocalisationReport(
        jaffard_gram=g,
        jaffard_dual_gram=g_dual,
        jaffard_cross=g_cross,
        exponent=params.exponent,
        threshold=threshold,
        verdict=verdict,
    )
