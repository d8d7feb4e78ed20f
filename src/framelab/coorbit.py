"""Weighted and mixed-norm sequence spaces and the norms they induce on
the ambient space through dual-frame coefficients.

The vector norm is ``||f|| = || analysis(dual, f) ||_{l^p_w}``; kernels
of operators get the analogous double-index (mixed) norms.  Operator
norms between two such spaces are returned as rigorous
``(lower, upper)`` intervals; the interval collapses to a point in the
cases where an extreme-point sweep is provably exact.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .frames import FramePair, _check_operator, analysis
from .generators import substream
from .localisation import _positive_finite, _schur_bound, as_weight
from .numeric import PreconditionError, _check_exponent, as_matrix, as_vector


def _holder_conjugate(p: float) -> float:
    if p == 1.0:
        return np.inf
    if np.isinf(p):
        return 1.0
    return p / (p - 1.0)


def _pnorm(v: np.ndarray, p: float) -> float:
    return float(_pnorm_along(v, p, axis=None))


def _pnorm_along(A: np.ndarray, p: float, axis) -> np.ndarray:
    """``l^p`` norms of ``|A|`` along ``axis`` (``None``: all of it)."""
    return _pnorm_of_abs(np.abs(A), p, axis)


def _pnorm_of_abs(a: np.ndarray, p: float, axis) -> np.ndarray:
    """``l^p`` norms of the non-negative array ``a`` along ``axis``,
    overwriting ``a``.  For finite ``p > 1`` each slice is divided by its
    largest entry before the power, so it neither overflows nor underflows
    (Blue, ACM TOMS 4, 1978); a slice whose largest entry is 0 or inf is
    left unscaled, so its norm is 0 or inf, not inf/inf = NaN."""
    if np.isinf(p):
        return a.max(axis=axis, initial=0.0)
    if p == 1.0:
        return a.sum(axis=axis)
    s = a.max(axis=axis, keepdims=True, initial=0.0)
    s[(s == 0.0) | (s == np.inf)] = 1.0
    a /= s
    np.power(a, p, out=a)
    return a.sum(axis=axis) ** (1.0 / p) * np.squeeze(s, axis=axis)


# ---------------------------------------------------------------------------
# space specifications


@dataclass(frozen=True, eq=False)
class SeqSpaceSpec:
    """Weighted ``l^p_w``: the norm is ``|| c * w ||_p``."""

    p: float
    weight: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "p", _check_exponent(self.p))
        w = as_weight(np.array(self.weight, dtype=float))
        w.flags.writeable = False
        object.__setattr__(self, "weight", w)


@dataclass(frozen=True, eq=False)
class MixedSpaceSpec:
    """Double-index ``p,q`` norm on ``I x J`` arrays (rows = first index).

    ``inner_axis`` selects the summation order, which matters when
    ``p != q``:

    * ``inner_axis=0``: inner ``l^p`` over the first index (down each
      column), outer ``l^q`` over the second — the plain ``l^{p,q}``
      family;
    * ``inner_axis=1``: inner over the second index (along each row),
      outer over the first — the script ``l^{p,q}`` family.

    ``weights`` is a positive grid over ``I x J``, typically the outer
    product of two per-axis weights.
    """

    p: float
    q: float
    inner_axis: int
    weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "p", _check_exponent(self.p))
        object.__setattr__(self, "q", _check_exponent(self.q))
        if self.inner_axis not in (0, 1):
            raise PreconditionError("inner_axis must be 0 or 1")
        W = _check_grid(np.array(self.weights, dtype=float))
        W.flags.writeable = False
        object.__setattr__(self, "weights", W)


def _check_grid(W: np.ndarray) -> np.ndarray:
    """``W`` itself, rejected unless it is 2-D, positive and finite."""
    if W.ndim != 2 or not _positive_finite(W):
        raise PreconditionError("weight grid must be 2-D, positive, finite")
    return W


def tensor_weights(w1, w2) -> np.ndarray:
    """Outer-product weight grid ``w1 (x) w2``."""
    return np.outer(as_weight(w1), as_weight(w2))


@dataclass(frozen=True, eq=False)
class CoorbitSpec:
    """A frame pair together with the sequence space measuring its
    dual-frame coefficients."""

    pair: FramePair
    seq: SeqSpaceSpec

    def __post_init__(self):
        if len(self.seq.weight) != self.pair.frame.cardinality:
            raise PreconditionError(
                f"{len(self.seq.weight)} weights for "
                f"{self.pair.frame.cardinality} frame elements"
            )


# ---------------------------------------------------------------------------
# norms


def weighted_seq_norm(c, spec: SeqSpaceSpec) -> float:
    v = as_vector(c)
    if v.shape[0] != spec.weight.shape[0]:
        raise PreconditionError(
            f"sequence length {v.shape[0]} does not match weight length "
            f"{spec.weight.shape[0]}"
        )
    return _pnorm(v * spec.weight, spec.p)


def mixed_norm(C, spec: MixedSpaceSpec) -> float:
    A = as_matrix(C)
    if A.shape != spec.weights.shape:
        raise PreconditionError(
            f"array shape {A.shape} does not match weight grid {spec.weights.shape}"
        )
    a = np.abs(A)
    a *= spec.weights
    inner = _pnorm_of_abs(a, spec.p, axis=spec.inner_axis)
    return _pnorm(inner, spec.q)


def coorbit_norm(spec: CoorbitSpec, f) -> float:
    """``|| analysis(dual, f) ||_{l^p_w}``."""
    return weighted_seq_norm(analysis(spec.pair.dual, f), spec.seq)


# ---------------------------------------------------------------------------
# operator norms between coorbit spaces


class OpNormInterval(tuple):
    """``(lower, upper)`` enclosure of an operator norm."""

    def __new__(cls, lower: float, upper: float):
        return super().__new__(cls, (float(lower), float(upper)))

    @property
    def lower(self) -> float:
        return self[0]

    @property
    def upper(self) -> float:
        return self[1]

    @property
    def midpoint(self) -> float:
        return 0.5 * (self[0] + self[1])

    @property
    def exact(self) -> bool:
        """Whether the enclosure is a point up to rounding; never with an
        infinite upper bound."""
        return self[1] < np.inf and self[1] - self[0] <= 1e-12 * max(self[1], 1.0)


# rounding may lift the probe lower bound this far (relative) above the
# upper bound; beyond it the enclosure is broken, not noisy
_CLAMP_RTOL = 16 * np.finfo(float).eps


# elements allowed in each ``n x k`` intermediate of one scoring pass
_SCORE_ELEMENTS = 2**14


@functools.lru_cache(maxsize=4)
def _random_probes(seed: int, d: int) -> np.ndarray:
    """The ``d x 10d`` block of seeded random probes for ``(seed, d)``,
    drawn on the first call and read-only.  The memo keeps the four most
    recent blocks; ``_probes`` copies a block, so none leaves the module."""
    # one draw, bit-identical to ten successive (d, 2, d) draws
    z = substream(seed, "coorbit", "opnorm").standard_normal((10, d, 2, d))
    block = (z[:, :, 0] + 1j * z[:, :, 1]).reshape(10 * d, d).T
    block.flags.writeable = False
    return block


def _probes(B: np.ndarray, frame, w1: np.ndarray, p: float, seed: int) -> np.ndarray:
    """Lower-bound probes as the columns of one ``d x K`` matrix: frame
    vectors, basis vectors, synthesized Hoelder extremizers of the rows
    of ``B`` whose largest magnitude is finite, and ``10 * d`` seeded
    random probes.  The extremizers are synthesized from ``d`` rows of
    ``B`` at a time, so no ``n x n`` temporary is built."""
    V = frame.vectors
    d = frame.space_dim
    parts = [V.T, np.eye(d, dtype=complex)]
    if p > 1.0:  # at p=1 each extremizer is a multiple of a frame vector
        expo = _holder_conjugate(p) - 1.0
        for j in range(0, B.shape[0], d):
            rows = B[j : j + d]
            mag = np.abs(rows)
            top = mag.max(axis=1, keepdims=True)
            finite = np.isfinite(top[:, 0])
            if not finite.any():
                continue
            rows, mag, top = rows[finite], mag[finite], top[finite]
            top[top == 0.0] = 1.0
            X = np.exp(-1j * np.angle(rows)) * (mag / top) ** expo
            parts.append(V.T @ (X / w1).T)
    parts.append(_random_probes(int(seed), d))
    return np.concatenate(parts, axis=1)


def coorbit_opnorm(
    O, src: CoorbitSpec, dst: CoorbitSpec, seed: int = 0
) -> OpNormInterval:
    """Enclose the norm of ``O`` as a map between two coorbit spaces.

    The upper bound comes from the coefficient-domain matrix
    ``M = C_dual2 O D_frame1`` (an exact factorization of the operator
    through the source coefficients), combining the column bound (exact
    for ``p=1``), the row Hoelder bound (exact for ``q=inf``), the Schur
    interpolation bound for ``p=q`` and the spectral norm for
    ``p=q=2``; weights that overflow the scaled matrix give the upper
    bound inf, and the spectral norm is then skipped.  The lower bound
    is the best ratio ``||O f|| / ||f||`` over frame vectors, standard
    basis vectors, synthesized Hoelder extremizers (``p > 1``) and
    ``10 * d1`` seeded random probes.  The random block depends only on
    ``(seed, d1)``, so it is drawn once per pair and kept read-only in a
    memo bounded at four blocks of ``10 d1^2`` complex values.  All
    probes form the columns of one ``d1 x K`` matrix, scored in chunks
    of ``k`` columns whose ``n x k`` intermediates hold at most
    ``2**14`` elements (``k >= 1``):
    small problems score in one pass, and memory stays bounded at large
    ``n``.  On an orthonormal basis at ``p=1`` the frame vectors attain
    the column bound, so the interval is exact up to rounding.

    A lower bound above the upper one by at most ``16 eps`` relative is
    clamped to it; a larger excess raises ``FloatingPointError``.
    """
    A = _check_operator(O, src.pair, dst.pair)
    p, q = src.seq.p, dst.seq.p
    w1, w2 = src.seq.weight, dst.seq.weight
    return _opnorm_interval(A, src.pair, dst.pair, p, q, w1, w2, seed)


def _opnorm_interval(
    A: np.ndarray,
    pair1: FramePair,
    pair2: FramePair,
    p: float,
    q: float,
    w1: np.ndarray,
    w2: np.ndarray,
    seed: int,
) -> OpNormInterval:
    """:func:`coorbit_opnorm` of a checked ``d2 x d1`` matrix ``A`` from
    the ``l^p_w1`` coorbit space of ``pair1`` into the ``l^q_w2`` one of
    ``pair2``, for exponents and weights that are already checked."""
    # coefficient-domain matrix and its weight-scaled version
    analysis2 = pair2.dual.vectors.conj() @ A
    B = (analysis2 @ pair1.frame.vectors.T) * w2[:, None] / w1[None, :]

    uppers = [_pnorm(_pnorm_along(B, _holder_conjugate(p), axis=1), q)]
    if p == 1.0:
        uppers.append(float(np.max(_pnorm_along(B, q, axis=0), initial=0.0)))
    if p == q:
        uppers.append(_schur_bound(np.abs(B), p))
    if p == 2.0 and q == 2.0 and np.isfinite(B).all():
        uppers.append(float(np.linalg.norm(B, 2)))
    upper = min(uppers)

    analysis1 = pair1.dual.vectors.conj()
    P = _probes(B, pair1.frame, w1, p, seed)
    step = max(1, _SCORE_ELEMENTS // max(len(w1), len(w2)))
    lower = 0.0
    for c in range(0, P.shape[1], step):
        chunk = P[:, c : c + step]
        den = _pnorm_along((analysis1 @ chunk) * w1[:, None], p, axis=0)
        num = _pnorm_along((analysis2 @ chunk) * w2[:, None], q, axis=0)
        live = den > 0.0
        lower = max(lower, float(np.max(num[live] / den[live], initial=0.0)))
    if lower - upper > _CLAMP_RTOL * upper:
        raise FloatingPointError(
            f"operator-norm lower bound {lower!r} exceeds upper bound {upper!r}"
        )
    return OpNormInterval(min(lower, upper), upper)
