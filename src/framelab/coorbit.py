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
from .localisation import _positive_finite, _remembered, _schur_bound, as_weight
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

    @functools.cached_property
    def _factors(self) -> tuple[np.ndarray, np.ndarray]:
        """``(u, v)`` with ``weights == outer(u, v)`` to ``rtol=1e-9``,
        found once per spec; a grid that is not rank one raises on every
        access."""
        W = self.weights
        u = W[:, 0].copy()
        v = W[0, :] / W[0, 0]
        if not np.allclose(W, _weight_grid(u, v), rtol=1e-9, atol=0.0):
            raise PreconditionError(
                "frame-independence budgets need a rank-one weight grid"
            )
        return u, v


def _check_grid(W: np.ndarray) -> np.ndarray:
    """``W`` itself, rejected unless it is 2-D, positive and finite."""
    if W.ndim != 2 or not _positive_finite(W):
        raise PreconditionError("weight grid must be 2-D, positive, finite")
    return W


def _weight_grid(w1, w2) -> np.ndarray:
    """``outer(w1, w2)``; a product beyond the float range is inf or 0,
    without a warning, for ``_check_grid`` to reject."""
    with np.errstate(over="ignore"):
        return np.outer(w1, w2)


def tensor_weights(w1, w2) -> np.ndarray:
    """Outer-product weight grid ``w1 (x) w2``."""
    return _weight_grid(as_weight(w1), as_weight(w2))


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

def _random_probes(seed: int, d: int) -> np.ndarray:
    """The read-only ``d x 10d`` block of seeded random probes for
    ``(seed, d)``."""
    # one draw, bit-identical to ten successive (d, 2, d) draws
    z = substream(seed, "coorbit", "opnorm").standard_normal((10, d, 2, d))
    block = (z[:, :, 0] + 1j * z[:, :, 1]).reshape(10 * d, d).T
    block.flags.writeable = False
    return block


def _scale(Z: np.ndarray, s: np.ndarray) -> np.ndarray:
    """``Z`` with its real and imaginary parts multiplied in place by the
    real ``s``, which broadcasts against ``Z.view(float)``: ``w[:, None]``
    scales rows, ``np.repeat(w, 2)`` columns.  For finite entries these
    are the bits of NumPy's complex-by-real product, and of its
    complex-by-real quotient when ``s`` holds reciprocals, without a
    complex temporary."""
    f = Z.view(float)
    f *= s
    return Z


# smallest normal magnitude; a smaller entry is lifted by the exact
# power of two _LIFT, which makes its nonzero parts normal and keeps its
# magnitude below 2**-422, before its phase is taken
_TINY = np.finfo(float).tiny
_LIFT = 2.0**600


def _extremizers(B: np.ndarray, V: np.ndarray, rw1: np.ndarray, p: float) -> list:
    """Synthesized Hoelder extremizers of the rows of ``B`` whose largest
    magnitude is finite, as ``d x k`` blocks, with ``rw1`` the reciprocal
    source weights each repeated twice.  The extremizer of a row ``b``
    has entries ``conj(b_j) * (1 / |b_j|) * (|b_j| / max|b|)^(p' - 1)``,
    with phase 1 where ``b_j = 0``.  The phase is a product with the
    reciprocal because that is how NumPy divides a complex number by a
    real one, so these are the bits of ``conj(b_j) / |b_j|``, and it
    needs no transcendental function.  An entry below the smallest
    normal magnitude, whose reciprocal would overflow or whose magnitude
    has lost bits, takes its phase from the entry lifted by ``_LIFT``,
    which is exact; so every extremizer of a finite row is finite.

    They are synthesized from ``k`` rows of ``B`` at a time, ``k x n``
    elements at most ``_SCORE_ELEMENTS / 2`` (``k >= 1``): a block holds
    about twice as many ``k x n`` temporaries at once as a scoring
    chunk, and no ``n x n`` temporary is built.  At ``p = 1`` each
    extremizer is a multiple of a frame vector, so there are none."""
    if p == 1.0:
        return []
    expo = _holder_conjugate(p) - 1.0
    step = max(1, _SCORE_ELEMENTS // (2 * B.shape[1]))
    blocks = []
    for j in range(0, B.shape[0], step):
        rows = B[j : j + step]
        mag = np.abs(rows)
        top = mag.max(axis=1, keepdims=True)
        finite = np.isfinite(top[:, 0])
        if not finite.all():
            if not finite.any():
                continue
            rows, mag, top = rows[finite], mag[finite], top[finite]
        tiny = mag.min() < _TINY  # a zero or subnormal entry
        if tiny:  # only then can a row be all zero
            top[top == 0.0] = 1.0
        size = (mag / top) ** expo
        X = rows.conj()
        if tiny:
            low = mag < _TINY
            np.multiply(X, _LIFT, out=X, where=low)
            np.abs(X, out=mag, where=low)
            zero = mag == 0.0
            X[zero] = mag[zero] = 1.0
        # each entry's two parts times its reciprocal magnitude, then size
        parts = X.view(float).reshape(*X.shape, 2)
        parts *= np.reciprocal(mag, out=mag)[..., None]
        parts *= size[..., None]
        blocks.append(V.T @ _scale(X, rw1).T)
    return blocks


def _column_norms(M: np.ndarray, P: np.ndarray, w: np.ndarray, p: float) -> list:
    """``l^p`` norms of the columns of ``(M @ P) * w[:, None]``, as one
    array per chunk of columns; each ``n x k`` product holds at most
    ``_SCORE_ELEMENTS`` elements (``k >= 1``)."""
    step = max(1, _SCORE_ELEMENTS // len(w))
    return [
        _pnorm_along(_scale(M @ P[:, c : c + step], w[:, None]), p, axis=0)
        for c in range(0, P.shape[1], step)
    ]


def _probe_denominators(
    pair: FramePair, w1: np.ndarray, p: float, random: np.ndarray
) -> np.ndarray:
    """``||C_dual f * w1||_p`` of every probe ``f`` that does not depend
    on the operator: the frame vectors, the basis vectors and the random
    block ``random``, in that order; read-only."""
    d = pair.frame.space_dim
    P = np.concatenate(
        [pair.frame.vectors.T, np.eye(d, dtype=complex), random], axis=1
    )
    den = np.concatenate(_column_norms(pair.dual.vectors.conj(), P, w1, p))
    den.flags.writeable = False
    return den


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
    basis vectors, ``10 * d1`` seeded random probes and (``p > 1``) the
    synthesized Hoelder extremizers of the rows ``b`` of the weighted
    ``B = w2 M / w1``, with entries ``conj(b_j) / |b_j|`` times
    ``(|b_j| / max|b|)^(p' - 1)`` and phase 1 where ``b_j = 0``, formed
    without transcendental functions; a probe whose norm overflowed, or
    whose norm is zero, is skipped.  On an orthonormal basis at ``p=1``
    the frame vectors attain the column bound, so the interval is exact
    up to rounding.

    Each call multiplies only what depends on ``O``:

    * the images of the frame vectors and basis vectors are the columns
      of ``C_dual2 O V1^T`` and of ``C_dual2 O``, which the upper bound
      forms anyway;
    * the extremizers and the random block are multiplied through
      ``C_dual2 O``, and the extremizers, which depend on ``O``, through
      ``C_dual1`` as well.

    The random block and the denominators ``||f||`` of the frame-vector,
    basis and random probes depend only on the source pair, ``w1``, ``p``
    and ``seed``, so they are remembered per source pair (see
    ``localisation._remembered``).  Probes are multiplied in chunks of
    ``k`` columns whose ``n x k`` intermediates hold at most ``2**14``
    elements (``k >= 1``), so memory stays bounded at large ``n``.

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
    n1, d1 = pair1.frame.cardinality, pair1.frame.space_dim
    analysis2 = pair2.dual.vectors.conj() @ A
    # [analysis2 @ V1.T | analysis2], rows scaled by w2: its columns are
    # the images of the frame-vector and basis probes, and its first n1
    # columns, scaled by 1 / w1, the coefficient-domain matrix B
    NB = np.empty((len(w2), n1 + d1), dtype=complex)
    np.matmul(analysis2, pair1.frame.vectors.T, out=NB[:, :n1])
    NB[:, n1:] = analysis2
    _scale(NB, w2[:, None])
    num = _pnorm_along(NB, q, axis=0)
    rw1 = (1.0 / w1).repeat(2)
    B = _scale(NB[:, :n1], rw1)

    # one |B| serves every upper bound: each reads it before any
    # _pnorm_of_abs that overwrites it
    a = np.abs(B)
    uppers = []
    if p == q:
        uppers.append(_schur_bound(a, p))
    uppers.append(_pnorm(_pnorm_of_abs(a, _holder_conjugate(p), axis=1), q))
    if p == 1.0:  # the row bound took maxima, so a is intact
        uppers.append(float(np.max(_pnorm_of_abs(a, q, axis=0), initial=0.0)))
    del a
    if p == 2.0 and q == 2.0 and np.isfinite(B).all():
        uppers.append(float(np.linalg.norm(B, 2)))
    upper = min(uppers)

    # only the random and extremizer probes meet A; the random block and
    # the other denominators are remembered per pair, the block fetched
    # first because a fill must not call _remembered
    random = _remembered(pair1, ("random", seed), lambda: _random_probes(int(seed), d1))
    den = _remembered(
        pair1,
        (w1.tobytes(), p, seed),
        lambda: _probe_denominators(pair1, w1, p, random),
    )
    extremizers = _extremizers(B, pair1.frame.vectors, rw1, p)
    if extremizers:
        Q = np.concatenate([random, *extremizers], axis=1)
        ext = Q[:, random.shape[1] :]
        den = np.concatenate(
            [den, *_column_norms(pair1.dual.vectors.conj(), ext, w1, p)]
        )
    else:
        Q = random
    num = np.concatenate([num, *_column_norms(analysis2, Q, w2, q)])
    live = (den > 0.0) & np.isfinite(den) & np.isfinite(num)
    lower = float(np.max(num[live] / den[live], initial=0.0))
    if lower - upper > _CLAMP_RTOL * upper:
        raise FloatingPointError(
            f"operator-norm lower bound {lower!r} exceeds upper bound {upper!r}"
        )
    return OpNormInterval(min(lower, upper), upper)
