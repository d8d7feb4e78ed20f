"""Weighted and mixed-norm sequence spaces and the norms they induce on
the ambient space through dual-frame coefficients.

The vector norm is ``||f|| = || analysis(dual, f) ||_{l^p_w}``; kernels
of operators get the analogous double-index (mixed) norms.  Operator
norms between two such spaces are returned as rigorous
``(lower, upper)`` intervals; the interval collapses to a point in the
cases where an extreme-point sweep is provably exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .frames import FramePair, analysis, is_orthonormal_basis, synthesis
from .generators import substream
from .localisation import as_weight
from .numeric import PreconditionError, as_matrix, as_vector


def _check_exponent(p) -> float:
    p = float(p)
    if not (1.0 <= p):
        raise PreconditionError(f"exponent {p} outside [1, inf]")
    return p


def _holder_conjugate(p: float) -> float:
    if p == 1.0:
        return np.inf
    if np.isinf(p):
        return 1.0
    return p / (p - 1.0)


def _pnorm(v: np.ndarray, p: float) -> float:
    a = np.abs(v)
    if a.size == 0:
        return 0.0
    if np.isinf(p):
        return float(a.max())
    if p == 1.0:
        return float(a.sum())
    if p == 2.0:
        return float(np.sqrt((a * a).sum()))
    return float((a**p).sum() ** (1.0 / p))


def _pnorm_along(A: np.ndarray, p: float, axis: int) -> np.ndarray:
    a = np.abs(A)
    if np.isinf(p):
        return a.max(axis=axis)
    if p == 1.0:
        return a.sum(axis=axis)
    return (a**p).sum(axis=axis) ** (1.0 / p)


# ---------------------------------------------------------------------------
# space specifications


@dataclass(frozen=True, eq=False)
class SeqSpaceSpec:
    """Weighted ``l^p_w``: the norm is ``|| c * w ||_p``."""

    p: float
    weight: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "p", _check_exponent(self.p))
        w = as_weight(self.weight)
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
        W = np.asarray(self.weights, dtype=float)
        if W.ndim != 2 or not np.all(np.isfinite(W)) or np.any(W <= 0):
            raise PreconditionError("weight grid must be 2-D, positive, finite")
        W.flags.writeable = False
        object.__setattr__(self, "weights", W)


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
# norms and pairings


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
    weighted = np.abs(A) * spec.weights
    inner = _pnorm_along(weighted, spec.p, axis=spec.inner_axis)
    return _pnorm(inner, spec.q)


def coorbit_norm(spec: CoorbitSpec, f) -> float:
    """``|| analysis(dual, f) ||_{l^p_w}``."""
    return weighted_seq_norm(analysis(spec.pair.dual, f), spec.seq)


def coorbit_pairing(spec: CoorbitSpec, f, g) -> complex:
    """Duality pairing ``sum_i (C_dual f)_i conj((C_frame g)_i)``."""
    a = analysis(spec.pair.dual, f)
    b = analysis(spec.pair.frame, g)
    return complex(np.sum(a * b.conj()))


def atomic_decomposition(spec: CoorbitSpec, f) -> np.ndarray:
    """Coefficients ``c`` with ``synthesis(frame, c) = f`` and
    ``||c||_{l^1_w}`` equal to the coorbit norm; only defined at p=1."""
    if spec.seq.p != 1.0:
        raise PreconditionError("atomic decomposition requires p = 1")
    return analysis(spec.pair.dual, f)


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
        return self[1] - self[0] <= 1e-12 * max(self[1], 1.0)


def _holder_extremizer(row: np.ndarray, p: float) -> np.ndarray:
    """Coefficient vector of unit ``l^p`` norm maximizing ``|<row, x>|``."""
    x = np.zeros_like(row)
    if not np.any(row):
        x[0] = 1.0
        return x
    if p == 1.0:
        i = int(np.argmax(np.abs(row)))
        x[i] = np.conj(row[i]) / abs(row[i])
        return x
    if np.isinf(p):
        nz = row != 0
        x[nz] = np.conj(row[nz]) / np.abs(row[nz])
        x[~nz] = 1.0
        return x
    q = _holder_conjugate(p)
    mag = np.abs(row) ** (q - 1.0)
    phase = np.ones_like(row)
    nz = row != 0
    phase[nz] = np.conj(row[nz]) / np.abs(row[nz])
    x = phase * mag
    return x / _pnorm(x, p)


def coorbit_opnorm(
    O, src: CoorbitSpec, dst: CoorbitSpec, seed: int = 0
) -> OpNormInterval:
    """Enclose the norm of ``O`` as a map between two coorbit spaces.

    The upper bound comes from the coefficient-domain matrix
    ``M = C_dual2 O D_frame1`` (an exact factorization of the operator
    through the source coefficients), combining the column bound (exact
    for ``p=1``), the row Hoelder bound (exact for ``q=inf``), the Schur
    interpolation bound for ``p=q`` and the spectral norm for
    ``p=q=2``.  The lower bound sweeps frame vectors, standard basis
    vectors, synthesized Hoelder extremizers and ``10 * d1`` seeded
    random probes.

    The enclosure collapses to an exact value when the source frame is
    an orthonormal basis and ``p=1``, where the extreme points of the
    unit ball are the weighted basis directions.
    """
    A = as_matrix(O)
    d1 = src.pair.frame.space_dim
    d2 = dst.pair.frame.space_dim
    if A.shape != (d2, d1):
        raise PreconditionError(
            f"operator shape {A.shape} does not map C^{d1} to C^{d2}"
        )
    p = src.seq.p
    q = dst.seq.p
    w1 = src.seq.weight
    w2 = dst.seq.weight

    if p == 1.0 and is_orthonormal_basis(src.pair):
        best = 0.0
        for i in range(src.pair.frame.cardinality):
            image = A @ src.pair.frame.vectors[i]
            best = max(best, coorbit_norm(dst, image) / w1[i])
        return OpNormInterval(best, best)

    # coefficient-domain matrix and its weight-scaled version
    M = dst.pair.dual.vectors.conj() @ A @ src.pair.frame.vectors.T
    B = M * w2[:, None] / w1[None, :]

    uppers = []
    p_conj = _holder_conjugate(p)
    row_dual = _pnorm_along(B, p_conj, axis=1)
    uppers.append(_pnorm(row_dual, q))
    if p == 1.0:
        uppers.append(float(np.max(_pnorm_along(B, q, axis=0), initial=0.0)))
    if p == q:
        c_row = float(np.max(np.abs(B).sum(axis=1), initial=0.0))
        c_col = float(np.max(np.abs(B).sum(axis=0), initial=0.0))
        theta = 0.0 if np.isinf(p) else 1.0 / p
        uppers.append(c_row ** (1.0 - theta) * c_col**theta)
    if p == 2.0 and q == 2.0:
        uppers.append(float(np.linalg.norm(B, 2)))
    upper = min(uppers)

    candidates = [src.pair.frame.vectors[i] for i in range(src.pair.frame.cardinality)]
    candidates.extend(np.eye(d1, dtype=complex))
    # synthesized Hoelder extremizers of the scaled coefficient matrix
    for j in range(B.shape[0]):
        x = _holder_extremizer(B[j], p)
        candidates.append(synthesis(src.pair.frame, x / w1))
    rng = substream(seed, "coorbit", "opnorm")
    for _ in range(10 * d1):
        z = rng.standard_normal(d1) + 1j * rng.standard_normal(d1)
        candidates.append(z)

    lower = 0.0
    for f in candidates:
        denom = coorbit_norm(src, f)
        if denom <= 0.0:
            continue
        lower = max(lower, coorbit_norm(dst, A @ f) / denom)
    lower = min(lower, upper)
    return OpNormInterval(lower, upper)
