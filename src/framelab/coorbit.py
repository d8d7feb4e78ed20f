"""Weighted and mixed-norm sequence spaces and the norms they induce on
the ambient space through dual-frame coefficients.

The vector norm is ``||f|| = || analysis(dual, f) ||_{l^p_w}``; kernels
of operators get the analogous double-index (mixed) norms.  Operator
norms between two such spaces are returned as rigorous
``(lower, upper)`` intervals on the routes of the Schur-test
characterisations, out of a weighted ``l^1`` space or into a weighted
``l^inf`` one; other routes are refused.  Each route has one upper
bound: ``"row"`` into ``l^inf``, ``"column"`` out of ``l^1`` and the
closed form ``"exact-l2"`` from ``l^2`` into ``l^inf``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .frames import FramePair, _check_operator, analysis
from .generators import substream
from .localisation import _positive_finite, _remembered, as_weight
from .numeric import PreconditionError, _check_exponent, _check_int, as_matrix, as_vector


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


def _pnorm_rows(a: np.ndarray, p: float) -> np.ndarray:
    """The ``_pnorm(row, p)`` of each row of the non-negative ``(T, m)``
    array ``a``, overwriting ``a``, from one pass over the stack.  Each
    root ``sum ** (1/p)`` is taken on the trial's scalar sum, as
    ``_pnorm`` takes it: NumPy's array power may round differently from
    its scalar power."""
    if np.isinf(p) or p == 1.0:
        return _pnorm_of_abs(a, p, -1)
    s = a.max(axis=-1, keepdims=True, initial=0.0)
    s[(s == 0.0) | (s == np.inf)] = 1.0
    a /= s
    np.power(a, p, out=a)
    sums = a.sum(axis=-1)
    return np.array([sums[t] ** (1.0 / p) * s[t, 0] for t in range(len(sums))])


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

    ``inner_axis``, the integer 0 or 1, selects the summation order,
    which matters when ``p != q``:

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
        axis = self.inner_axis
        # 1.0 and True would pass ``in (0, 1)``
        integer = isinstance(axis, (int, np.integer)) and type(axis) is not bool
        if not integer or axis not in (0, 1):
            raise PreconditionError("inner_axis must be 0 or 1")
        W = _check_grid(np.array(self.weights, dtype=float))
        W.flags.writeable = False
        object.__setattr__(self, "weights", W)


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
    A = np.asarray(C, dtype=complex)
    if A.ndim != 2:
        raise PreconditionError(f"expected a 2-D matrix, got ndim={A.ndim}")
    if A.shape != spec.weights.shape:
        raise PreconditionError(
            f"array shape {A.shape} does not match weight grid {spec.weights.shape}"
        )
    return float(_grid_norm(A[None], spec.weights, spec.p, spec.inner_axis, spec.q)[0])


def _grid_norm(K: np.ndarray, grid: np.ndarray, p: float, axis: int, q: float):
    """``mixed_norm(K[t], MixedSpaceSpec(p, q, axis, grid))`` of each
    trial of the ``(T, n1, n2)`` stack ``K``, for a checked grid, as an
    array of ``T`` norms; this is the one kernel-norm core.  A trial is
    checked with ``as_matrix`` only when its norm is not finite, which
    rejects NaN and inf entries; finite entries whose norm overflows
    give inf."""
    a = np.abs(K)
    a *= grid
    norms = _pnorm_rows(_pnorm_of_abs(a, p, axis - 2), q)
    for t, norm in enumerate(norms):
        if not math.isfinite(norm):
            as_matrix(K[t])
    return norms


def coorbit_norm(spec: CoorbitSpec, f) -> float:
    """``|| analysis(dual, f) ||_{l^p_w}``."""
    return weighted_seq_norm(analysis(spec.pair.dual, f), spec.seq)


# ---------------------------------------------------------------------------
# operator norms between coorbit spaces


class OpNormInterval(tuple):
    """``(lower, upper)`` enclosure of an operator norm.

    ``upper_source`` names the bound that gave ``upper``: ``"row"``, the
    largest row norm into ``l^inf``; ``"column"``, the largest column
    norm out of ``l^1`` into ``l^q`` with ``q < inf``; or ``"exact-l2"``,
    the closed form from ``l^2`` into ``l^inf``.
    ``lower_source`` names the probe class that attained ``lower``:
    ``"frame"``, ``"basis"``, ``"random"``, ``"extremizer"`` or
    ``"witness"``, the first of them on a tie, and ``"none"`` when no
    probe gave a positive ratio.  A random probe is scored only where a
    bound shows that it might attain ``lower``, so one that is skipped
    could not have been its source.  Both are ``None`` on an interval
    built by hand, and neither takes part in comparisons: the interval
    is the tuple ``(lower, upper)``."""

    def __new__(
        cls,
        lower: float,
        upper: float,
        *,
        upper_source: str | None = None,
        lower_source: str | None = None,
    ):
        self = super().__new__(cls, (float(lower), float(upper)))
        self.upper_source = upper_source
        self.lower_source = lower_source
        return self

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

    ``B`` may be a stack ``(T, n2, n1)`` of such matrices, which gives
    ``(T, d, k)`` blocks, one ``d x k`` block per trial; every
    operation is elementwise or per row, so each trial has the bits of
    its own call.  Only a one-trial stack may have rows that are not
    finite, because dropping them changes the block's shape.

    They are synthesized from ``k`` rows of ``B`` at a time, ``k x n``
    elements at most ``_SCORE_ELEMENTS / 2`` per trial (``k >= 1``): a
    block holds about twice as many ``k x n`` temporaries at once as a
    scoring chunk, and no ``n x n`` temporary is built.  At ``p = 1``
    each extremizer is a multiple of a frame vector, so there are
    none."""
    if p == 1.0:
        return []
    expo = _holder_conjugate(p) - 1.0
    step = max(1, _SCORE_ELEMENTS // (2 * B.shape[-1]))
    blocks = []
    for j in range(0, B.shape[-2], step):
        rows = B[..., j : j + step, :]
        mag = np.abs(rows)
        top = mag.max(axis=-1, keepdims=True)
        finite = np.isfinite(top[..., 0])
        if not finite.all():
            if not finite.any():
                continue
            keep = finite.reshape(-1)
            rows, mag, top = rows[..., keep, :], mag[..., keep, :], top[..., keep, :]
        # a zero or subnormal entry; the masked steps below change no
        # other entry, so a stack may take them for every trial
        tiny = mag.min() < _TINY
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
        blocks.append(V.T @ _scale(X, rw1).swapaxes(-1, -2))
    return blocks


def _column_norms(M: np.ndarray, P: np.ndarray, w: np.ndarray, p: float) -> list:
    """``l^p`` norms of the columns of ``(M @ P) * w[:, None]``, as one
    array per chunk of columns; each ``n x k`` product holds at most
    ``_SCORE_ELEMENTS`` elements (``k >= 1``).  ``M`` or ``P`` may be a
    stack of trials; a trial's products keep the shape and the column
    chunks of its own call."""
    step = max(1, _SCORE_ELEMENTS // len(w))
    return [
        _pnorm_along(_scale(M @ P[..., c : c + step], w[:, None]), p, axis=-2)
        for c in range(0, P.shape[-1], step)
    ]


def _trial_slices(T: int, elements: int) -> list:
    """Consecutive slices of ``T`` trials, ``max(1, _SCORE_ELEMENTS //
    elements)`` at a time: with ``elements`` a trial's largest
    temporary, no stacked temporary holds more than ``_SCORE_ELEMENTS``
    entries, or one trial's when that is larger."""
    step = max(1, _SCORE_ELEMENTS // elements)
    return [slice(t, t + step) for t in range(0, T, step)]


def _interval_elements(pair1: FramePair, pair2: FramePair) -> int:
    """A bound on the largest temporary of one trial of
    :func:`_opnorm_interval`: the buffer ``[analysis2 @ V1^T |
    analysis2]``, the ``d1 x n2`` extremizer block and the ``n2 x k``
    products of the probe scoring; at least ``n1 n2``, a Galerkin
    matrix.  The ``d1 x 10 d1`` random block is shared by every trial;
    the term ``max(d1, n2) (10 d1 + n2)`` still counts it per trial,
    which only overstates the bound."""
    (n1, d1), n2 = pair1.frame.vectors.shape, len(pair2.frame.vectors)
    return max(n2 * (n1 + d1), max(d1, n2) * (10 * d1 + n2), n1 * n2)


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
    """Enclose the norm of ``O`` from the ``l^p_w1`` coorbit space of
    ``src`` into the ``l^q_w2`` one of ``dst``, on a route of the
    Schur-test characterisations: out of ``l^1`` (``p = 1``, any ``q``)
    or into ``l^inf`` (``q = inf``, any ``p``).  Any other ``(p, q)``,
    and a ``seed`` that is not an integer, raise
    :class:`PreconditionError` before any work.

    The upper bound is the norm of the coefficient-domain matrix ``B =
    w2 M / w1``, with ``M = C_dual2 O D_frame1`` an exact factorization
    of the operator through the source coefficients: into ``l^inf`` the
    largest row ``l^{p'}`` norm of ``B`` (``"row"``), and out of ``l^1``
    into ``l^q``, ``q < inf``, its largest column ``l^q`` norm
    (``"column"``).  Weights that overflow the scaled matrix give the
    upper bound inf.  The lower bound is the best ratio ``||O f|| /
    ||f||`` over frame vectors, standard basis vectors, ``10 * d1``
    seeded random probes and (``p > 1``) the synthesized Hoelder
    extremizers of the rows ``b`` of ``B``, with entries ``conj(b_j) /
    |b_j|`` times ``(|b_j| / max|b|)^(p' - 1)`` and phase 1 where ``b_j =
    0``, formed without transcendental functions; a probe whose norm
    overflowed, or whose norm is zero, is skipped.  A random probe is
    scored only when a bound from the basis images shows that it might
    reach the best ratio of the other probes, at every ``p``; one left
    out lies strictly below that ratio, so the interval and its sources
    are those of the full sweep (see :func:`_sweep`).  On an orthonormal
    basis at ``p=1`` the frame vectors attain the column bound, so the
    interval is exact up to rounding.

    Each call multiplies only what depends on ``O``: the images of the
    frame and basis vectors are the columns of ``C_dual2 O V1^T`` and of
    ``C_dual2 O``, which the upper bound forms anyway; the extremizers,
    which depend on ``O``, go through ``C_dual2 O`` and ``C_dual1``, and
    then the random chunks that might win through ``C_dual2 O``, each
    class in column chunks of its own.  The random block and the
    denominators ``||f||`` of the frame, basis and random probes
    depend only on the source pair, ``w1``, ``p`` and ``seed``, so they
    are remembered per source pair (see ``localisation._remembered``).
    Probes are multiplied in chunks of ``k`` columns whose ``n x k``
    intermediates hold at most ``2**14`` elements (``k >= 1``).

    From ``l^2`` into ``l^inf`` (``p = 2``, ``q = inf``) the norm has the
    closed form ``max_i sqrt(r_i G^-1 r_i^H)``, with ``G`` the Gram of
    ``diag(w1) C_dual1`` and ``r_i`` the rows of ``diag(w2) C_dual2 O``.
    The interval encloses it to a few units in the last place from one
    ``G^-1`` remembered per source pair and ``w1``
    (:func:`_l2_to_sup_interval`), or gives ``(inf, inf)`` for a norm
    beyond the float range; no probe is scored, and ``upper_source`` is
    ``"exact-l2"``.  A weighted Gram that cannot be inverted falls back
    to the sweep.

    The interval names the bound that gave its upper end and the probe
    class that attained its lower one (see :class:`OpNormInterval`).
    A lower bound above the upper one by at most ``16 eps`` relative is
    clamped to it; a larger excess raises ``FloatingPointError``.
    """
    p, q = src.seq.p, dst.seq.p
    if p > 1.0 and q < np.inf:
        raise PreconditionError(f"op-norm needs p = 1 or q = inf, got p={p:g}, q={q:g}")
    seed = _check_int(seed, "seed")
    A = _check_operator(O, src.pair, dst.pair)
    w1, w2 = src.seq.weight, dst.seq.weight
    return _opnorm_interval(A[None], src.pair, dst.pair, p, q, w1, w2, seed)[0]


def _opnorm_interval(
    A: np.ndarray,
    pair1: FramePair,
    pair2: FramePair,
    p: float,
    q: float,
    w1: np.ndarray,
    w2: np.ndarray,
    seed: int,
) -> list:
    """:func:`coorbit_opnorm` of each trial of a checked ``(T, d2, d1)``
    stack ``A`` from the ``l^p_w1`` coorbit space of ``pair1`` into the
    ``l^q_w2`` one of ``pair2``, for a route, exponents and weights that
    are already checked: one :class:`OpNormInterval` per trial.

    Each trial gets the bits of its own one-trial call:

    * its BLAS products keep the shape and the column chunks of a
      one-trial call, as one slice of a stacked ``matmul``, because
      OpenBLAS rounds the last ``N mod 4`` columns of a product
      differently;
    * scalings, finiteness masks, row selection, roots and the argmax
      are taken per trial, so that one trial's magnitude, overflow or
      NaN changes no other trial's bits.  A stack in which some trial
      has a coefficient matrix ``B`` that is not finite is scored one
      trial at a time, since its extremizers drop rows.

    Callers pass at most one chunk of :func:`_trial_slices` of
    :func:`_interval_elements` (:func:`coorbit_opnorm` one trial), so no
    stacked temporary holds more than ``_SCORE_ELEMENTS`` entries, or one
    trial's when that is larger.  The first trial whose lower bound
    exceeds its upper one raises, as its own call would."""
    found = [None] * len(A)
    if p == 2.0 and q == np.inf:
        found = _l2_to_sup_interval(A, pair1, pair2, w1, w2)
    todo = [t for t, interval in enumerate(found) if interval is None]
    if todo:
        rest = A if len(todo) == len(A) else A[todo]
        for t, interval in zip(todo, _sweep(rest, pair1, pair2, p, q, w1, w2, seed)):
            found[t] = interval
    return found


def _sweep(A, pair1, pair2, p, q, w1, w2, seed) -> list:
    """The probe-sweep intervals of the ``(T, d2, d1)`` stack ``A``
    (see :func:`coorbit_opnorm`).

    The frame and basis probes are scored from ``NB``, then the
    extremizers, in column chunks of their own, then each column chunk
    of the random block, shared by every trial, only for the trials
    where some bound of :func:`_random_bounds` on it reaches the trial's
    best ratio so far; elsewhere its ratios stay 0.  A probe left out
    has a computed ratio strictly below the best one, so the largest
    ratio and the first probe that attains it in the order frame, basis,
    random, extremizer, hence the interval and its sources, are those of
    the full sweep.  A trial that is scored is a slice of a stacked
    product, so its bits are those of its own call."""
    T = len(A)
    n1, d1 = pair1.frame.cardinality, pair1.frame.space_dim
    analysis2 = pair2.dual.vectors.conj() @ A
    # [analysis2 @ V1.T | analysis2], rows scaled by w2: its columns are
    # the images of the frame-vector and basis probes, and its first n1
    # columns, scaled by 1 / w1, the coefficient-domain matrix B
    NB = np.empty((T, len(w2), n1 + d1), dtype=complex)
    np.matmul(analysis2, pair1.frame.vectors.T, out=NB[..., :n1])
    NB[..., n1:] = analysis2
    _scale(NB, w2[:, None])
    num = _pnorm_along(NB, q, axis=-2)
    rw1 = (1.0 / w1).repeat(2)
    B = _scale(NB[..., :n1], rw1)
    if T > 1 and not np.isfinite(B).all():
        return [
            interval
            for t in range(T)
            for interval in _sweep(A[t : t + 1], pair1, pair2, p, q, w1, w2, seed)
        ]

    # the route's one exact bound of B: its largest row l^p' norm into
    # l^inf, else (p = 1) its largest column l^q norm
    if q == np.inf:
        exponent, axis, upper_source = _holder_conjugate(p), -1, "row"
    else:
        exponent, axis, upper_source = q, -2, "column"
    a = np.abs(B)
    uppers = _pnorm_of_abs(a, exponent, axis).max(axis=-1, initial=0.0).tolist()
    del a

    # only the random and extremizer probes meet A; the random block and
    # the other denominators are remembered per pair, the block fetched
    # first because a fill must not call _remembered
    random = _remembered(pair1, ("random", seed), lambda: _random_probes(seed, d1))
    den = _remembered(
        pair1,
        (w1.tobytes(), p, seed),
        lambda: _probe_denominators(pair1, w1, p, random),
    )
    # the ratios are laid out frame, basis, random, extremizer; a random
    # column stays 0 until it is scored
    R, base = random.shape[1], n1 + d1
    ratios = [_ratios(num, den[:base]), np.zeros((T, R))]
    extremizers = _extremizers(B, pair1.frame.vectors, rw1, p)
    if extremizers:
        ext = np.concatenate(extremizers, axis=-1)
        num_ext = _column_norms(analysis2, ext, w2, q)
        den_ext = _column_norms(pair1.dual.vectors.conj(), ext, w1, p)
        ratios.append(_ratios(np.concatenate(num_ext, -1), np.concatenate(den_ext, -1)))
    ratios = np.concatenate(ratios, axis=-1)
    random_ratios, den_random = ratios[:, base : base + R], den[base:]
    bounds = _random_bounds(num[:, n1:], random, den_random, w2, q)
    top = ratios.max(axis=-1, keepdims=True)
    step = max(1, _SCORE_ELEMENTS // len(w2))
    for c in range(0, R, step):
        need = np.flatnonzero(~(bounds[:, c : c + step] < top).all(axis=-1))
        if len(need):
            M = analysis2 if len(need) == T else analysis2[need]
            num_c = _column_norms(M, random[:, c : c + step], w2, q)[0]
            random_ratios[need, c : c + step] = _ratios(num_c, den_random[c : c + step])
    # argmax takes the first of equal ratios
    best = np.argmax(ratios, axis=-1).tolist()
    ends = (n1, base, base + R)
    intervals = []
    for t, upper in enumerate(uppers):
        lower = float(ratios[t, best[t]])
        lower_source = _PROBE_CLASSES[sum(best[t] >= end for end in ends)]
        _check_order(lower, upper)
        intervals.append(
            OpNormInterval(
                min(lower, upper),
                upper,
                upper_source=upper_source,
                lower_source=lower_source if lower > 0.0 else "none",
            )
        )
    return intervals


_PROBE_CLASSES = ("frame", "basis", "random", "extremizer")


def _ratios(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """``num / den``, with 0 where a norm is not finite or ``den`` is 0."""
    live = (den > 0.0) & np.isfinite(den) & np.isfinite(num)
    ratios = np.zeros_like(num)
    np.divide(num, den, out=ratios, where=live)
    return ratios


def _random_bounds(basis, random, den, w2, q) -> np.ndarray:
    """A bound on the computed ratio of each probe (column) of ``random``
    for each trial, ``(T, k)``, from the numerators ``basis`` of the
    basis probes, ``(T, d1)``, and the denominators ``den`` of the ``k``
    probes: inf for a trial whose basis numerators are not all finite
    and positive, and for every trial when ``den`` is not.

    With ``H = diag(w2) C_dual2 A``, a probe ``f = sum_k f_k e_k`` has
    ``||H f||_q <= sum_k |f_k| ||H e_k||_q``, and ``||H e_k||_q`` is the
    basis numerator.  The bound is ``(S (1 + m) + s) / den`` with ``S =
    basis @ |random|``.  Write ``u = 2**-53``, ``mu = 2**-1074`` and
    ``gamma(k) = k u / (1 - k u)`` (Higham, *Accuracy and Stability of
    Numerical Algorithms*, 2002, sec. 3.1).  In exact arithmetic ``S``
    would bound the numerator; the computed numerator and ``S`` each err
    by relative terms and by underflow:

    * relative: the complex product ``A_2 f`` (``A_2 = C_dual2 A``, inner
      length ``d1``) by ``sqrt(2) gamma(2 d1)``, the scaling by ``w2`` by
      ``u``, each ``q``-norm of ``n2`` entries by ``gamma(n2 + 4)`` (an
      entry's error ``u`` becomes ``q u`` in its power, and the root
      divides it by ``q`` again), and ``S`` by ``gamma(d1 + 1)``: in all
      at most ``gamma(4 (n2 + d1) + 16)``, below ``m = max(2**-30, (n2 +
      d1) 2**-50)`` at any size that fits in memory;
    * absolute, by underflow: the product's entries by ``2 d1 mu``,
      hence its weighted norm by ``2 d1 mu ||w2||_q``; the scaled
      entries and the norm by ``2 n2 mu``, in the numerator and in each
      basis numerator, which ``S`` multiplies by ``||f||_1``; and ``S``
      itself by ``d1 mu``.  All of it is below ``s = 16 mu (n2 + d1 + 2)
      (||w2||_q + max_f ||f||_1 + 1)``.

    So the computed numerator is at most ``S (1 + m) + s`` whatever the
    summation order, and a correctly rounded division keeps that order:
    the computed ratio is at most the bound.  A numerator that overflows
    makes no ratio, and a bound that overflows is inf."""
    bounds = np.full((len(basis), random.shape[1]), np.inf)
    known = (np.isfinite(basis) & (basis > 0.0)).all(axis=-1)
    if not known.any() or not (np.isfinite(den) & (den > 0.0)).all():
        return bounds
    n2, d1 = len(w2), len(random)
    a = np.abs(random)
    margin = max(2.0**-30, (n2 + d1) * 2.0**-50)
    with np.errstate(over="ignore"):
        slack = (n2 + d1 + 2) * (_pnorm(w2, q) + float(a.sum(axis=0).max()) + 1.0)
        S = basis[known] @ a
        bounds[known] = (S * (1.0 + margin) + slack * 2.0**-1070) / den
    return bounds


def _check_order(lower: float, upper: float) -> None:
    """Raise unless ``lower`` exceeds ``upper`` by at most ``_CLAMP_RTOL``
    relative, the most that rounding may lift it."""
    if lower - upper > _CLAMP_RTOL * upper:
        raise FloatingPointError(
            f"operator-norm lower bound {lower!r} exceeds upper bound {upper!r}"
        )


def _binade(x: np.ndarray, axis=None):
    """The exponent ``e`` with the largest magnitude among the real and
    imaginary parts of the C-contiguous ``x`` in ``[2**(e-1), 2**e)``, and
    0 for an array of zeros: ``x * 2**-e`` has parts of at most 1.  With
    ``axis``, an integer array of one exponent per trial of the stack
    ``x``, over the given axes of ``x.view(float)``."""
    top = np.abs(x.view(float)).max(axis=axis, initial=0.0)
    e = np.frexp(top)[1]
    return int(e) if axis is None else e


def _ldexp(x: np.ndarray, e) -> np.ndarray:
    """A new array ``x * 2**e`` for the C-contiguous ``x``, each real and
    imaginary part scaled exactly unless it leaves the normal range;
    ``e`` broadcasts against ``x.view(float)``."""
    return np.ldexp(x.view(float), e).view(x.dtype)


def _weighted_analysis(pair: FramePair, w: np.ndarray):
    """``(A, G^-1)``: the weighted analysis map ``A = diag(w) C_dual`` in
    extended precision and the inverse of its Gram ``G = A^H A`` in
    double, both read-only; ``None`` when ``G`` cannot be inverted."""
    A = pair.dual.vectors.conj() * w[:, None]
    try:
        G_inv = np.linalg.inv(A.conj().T @ A)
    except np.linalg.LinAlgError:
        return None
    A = pair.dual.vectors.conj().astype(np.clongdouble) * w[:, None]
    A.flags.writeable = G_inv.flags.writeable = False
    return A, G_inv


# rows whose double-precision norm estimate is within this relative
# distance of the largest one are evaluated in extended precision
_ROW_TIE = 2.0**-20


def _l2_to_sup_interval(
    A: np.ndarray, pair1: FramePair, pair2: FramePair, w1: np.ndarray, w2: np.ndarray
) -> list:
    """The norm of each trial of the ``(T, d2, d1)`` stack ``A`` from the
    ``l^2_w1`` coorbit space of ``pair1`` into the ``l^inf_w2`` one of
    ``pair2`` in closed form, as a list with ``None`` for a trial whose
    bounds are not finite, and ``None`` for every trial when the
    weighted Gram of ``pair1`` cannot be inverted.

    With ``A1 = diag(w1) C_dual1``, ``G = A1^H A1`` and the weighted rows
    ``r_i = w2_i (C_dual2 A)_i``, the norm is ``max_i s_i`` with
    ``s_i^2 = r_i G^-1 r_i^H``, attained by the witness ``x_i = G^-1
    r_i^H``.  The rows are ranked by ``s_i^2`` in double precision, from
    the remembered ``G^-1``.  Those estimates err by about ``eps`` times
    the condition number of ``G``, so a row more than ``_ROW_TIE`` below
    the largest is taken to stay below it; each row within ``_ROW_TIE``
    is bounded from the inputs in extended precision, with its
    double-precision witness ``x``:

    * above, by ``s_i^2 = x^H G x + 2 Re(x^H e) + e^H G^-1 e <= ||A1
      x||^2 + 2 Re(x^H e) + ||e||^2 / sigma^2`` with the residual ``e =
      r_i^H - A1^H A1 x``, which holds for every ``x``, and ``sigma =
      min(w1) sqrt(A_dual1) <= sigma_min(A1)`` from the dual's lower
      frame bound.  The residual enters squared, so the bound exceeds
      ``s_i`` by a term of second order in the error of ``x``;
    * below, by ``|r_i x| / ||A1 x||``, at most the ratio ``||diag(w2)
      C_dual2 A x||_inf / ||A1 x||_2`` of the probe ``x``, and equal to
      it for the largest row.

    Each bound is then rounded outward to double.  By homogeneity
    ``w1``, ``w2``, ``A`` and the rows are first scaled by exact powers
    of two to parts of at most 1, and both bounds are scaled back at the
    end: a norm beyond the float range gives ``(inf, inf)``, and one
    below the normal range is rounded to the nearest subnormal, without
    a warning.

    The ranking is stacked; the powers of two are taken per trial, and
    the tie rows of each trial, whose number varies, are bounded one
    trial at a time (:func:`_l2_bounds`).
    """
    T = len(A)
    e1 = _binade(w1)
    w1s = np.ldexp(w1, -e1)
    factor = _remembered(
        pair1, ("l2", w1.tobytes()), lambda: _weighted_analysis(pair1, w1s)
    )
    if factor is None:
        return [None] * T
    A1, G_inv = factor
    A = np.ascontiguousarray(A)
    eA, e2 = _binade(A, axis=(-2, -1)), _binade(w2)
    A = _ldexp(A, -eA[:, None, None])
    R = pair2.dual.vectors.conj() @ A
    R *= np.ldexp(w2, -e2)[:, None]
    eR = _binade(R, axis=(-2, -1))
    R = _ldexp(R, -eR[:, None, None])
    # R[t] is w2s[t] * (C_dual2 A[t]), rounded
    w2s = np.ldexp(w2, -e2 - eR[:, None])
    sigma = w1s.min() * math.sqrt(pair1.dual.bounds[0])
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        X = G_inv @ R.conj().swapaxes(-1, -2)
        s2 = np.einsum("tjk,tkj->tj", R, X).real
        tops = s2.max(axis=-1)
        intervals = []
        for t in range(T):
            e = int(eA[t]) + e2 + int(eR[t]) - e1
            intervals.append(
                _l2_bounds(
                    A[t], X[t], s2[t], tops[t], w2s[t], e, pair2, A1, sigma
                )
            )
    return intervals


def _l2_bounds(A, X, s2, top, w2s, e, pair2, A1, sigma) -> OpNormInterval | None:
    """One trial of :func:`_l2_to_sup_interval`, from its scaled ``A``,
    its witnesses ``X``, their double-precision ``s2`` and its largest
    ``top``: the extended-precision bounds of its tie rows, scaled back
    by ``2**e``."""
    if not np.isfinite(top):
        return None
    if top == 0.0:  # R = 0
        return OpNormInterval(0.0, 0.0, upper_source="exact-l2", lower_source="none")
    rows = np.flatnonzero(s2 >= top * (1.0 - _ROW_TIE))
    x = X[:, rows].astype(np.clongdouble)
    r = pair2.dual.vectors[rows].conj().astype(np.clongdouble) @ A
    r *= w2s[rows, None]
    y = A1 @ x
    res = r.conj().T - (y.conj().T @ A1).conj().T
    energy = (np.abs(y) ** 2).sum(axis=0)
    upper = np.sqrt(
        energy
        + 2.0 * (x.conj() * res).sum(axis=0).real
        + (np.abs(res) ** 2).sum(axis=0) / sigma**2
    ).max()
    lower = (np.abs((r * x.T).sum(axis=1)) / np.sqrt(energy)).max()
    upper, lower = _outward(upper, np.inf), _outward(lower, -np.inf)
    if not math.isfinite(upper):
        return None
    _check_order(lower, upper)
    lower, upper = np.ldexp([min(lower, upper), upper], e)
    return OpNormInterval(
        lower,
        upper,
        upper_source="exact-l2",
        lower_source="witness" if lower > 0.0 else "none",
    )


def _outward(v: np.longdouble, direction: float) -> float:
    """The extended-precision ``v`` rounded to a double towards
    ``direction``, ``inf`` or ``-inf``."""
    d = np.float64(v)
    if d != v and (d < v) == (direction > 0):
        d = np.nextafter(d, direction)
    return float(d)
