"""Frames in finite-dimensional complex Hilbert spaces.

A frame is a spanning family ``{psi_i}`` indexed by an :class:`IndexSet`
with a metric; the module provides analysis/synthesis, Gram and cross
Gram matrices, frame bounds and canonical duals.

Conventions (fixed once, tested everywhere):

* ``analysis(frame, f)[i] = <f, psi_i>``,
* ``synthesis(frame, c) = sum_i c_i psi_i``,
* ``cross_gram(A, B)[i, i'] = <a_{i'}, b_i>`` so that the matrix acts as
  ``analysis(B, synthesis(A, c))`` on coefficient vectors.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .numeric import (
    PreconditionError,
    ConditioningError,
    _complex_from_json,
    _complex_to_json,
    _json_int,
    as_matrix,
    as_vector,
)

# smallest/largest frame-operator eigenvalue ratio below which a vector
# family is rejected as "not a frame"
SPAN_RTOL = 1e-12
# ... and below which canonical_dual refuses to build a dual
CONDITION_RTOL = 1e-10


class NotAFrameError(ValueError):
    """Vector family does not span the space (or barely does)."""


# ---------------------------------------------------------------------------
# index sets


def _axis_distances(n: int, cyclic: bool, full: bool) -> np.ndarray:
    """Float distances ``|i - i'|`` on one axis ``0..n-1`` (``min(d, n - d)``
    when cyclic): all ``n x n`` of them, or only the row of ``i = 0``."""
    idx = np.arange(n, dtype=float)
    d = np.abs(idx[:, None] - idx) if full else idx[None, :]
    if cyclic:
        d = np.minimum(d, n - d)
    return d


def _product_table(t1: np.ndarray, t2: np.ndarray, combine) -> np.ndarray:
    """``combine(t1[c1, c1'], t2[c2, c2'])`` over a product grid, with
    axes ``(c1, c2)`` and ``(c1', c2')`` each flattened row-major."""
    grid = combine(t1[:, None, :, None], t2[None, :, None, :])
    return grid.reshape(t1.shape[0] * t2.shape[0], t1.shape[1] * t2.shape[1])


@dataclass(frozen=True)
class IndexSet:
    """Finite index set with a metric.

    kind
        ``"linear"`` (grid ``0..N-1``, absolute-difference metric),
        ``"cyclic"`` (``Z_N``, cyclic distance), or
        ``"product_cyclic"`` (``Z_{N1} x Z_{N2}``, coordinatewise cyclic
        distances combined by ``max`` or ``sum``).
    size
        ``N`` or ``(N1, N2)``.
    metric
        ``"abs"`` | ``"cyclic"`` | ``"max"`` | ``"sum"``.
    """

    kind: str
    size: int | tuple[int, int]
    metric: str = ""

    def __post_init__(self):
        if self.kind in ("linear", "cyclic"):
            n = int(self.size)
            if n < 1:
                raise PreconditionError("index set must be non-empty")
            object.__setattr__(self, "size", n)
            default = "abs" if self.kind == "linear" else "cyclic"
            object.__setattr__(self, "metric", self.metric or default)
            if self.metric != default:
                raise PreconditionError(f"bad metric {self.metric!r} for {self.kind}")
        elif self.kind == "product_cyclic":
            n1, n2 = (int(s) for s in self.size)
            if n1 < 1 or n2 < 1:
                raise PreconditionError("index set must be non-empty")
            object.__setattr__(self, "size", (n1, n2))
            object.__setattr__(self, "metric", self.metric or "max")
            if self.metric not in ("max", "sum"):
                raise PreconditionError(f"bad metric {self.metric!r} for product grid")
        else:
            raise PreconditionError(f"unknown index set kind {self.kind!r}")

    def __len__(self) -> int:
        if self.kind == "product_cyclic":
            return self.size[0] * self.size[1]
        return self.size

    def labels(self) -> list:
        """Ordered labels; product grids are row-major, first coordinate
        slowest."""
        if self.kind == "product_cyclic":
            n1, n2 = self.size
            return [(c1, c2) for c1 in range(n1) for c2 in range(n2)]
        return list(range(self.size))

    def _distances(self, full: bool) -> np.ndarray:
        if self.kind != "product_cyclic":
            return _axis_distances(self.size, self.kind == "cyclic", full)
        n1, n2 = self.size
        d1 = _axis_distances(n1, True, full)
        d2 = _axis_distances(n2, True, full)
        combine = np.maximum if self.metric == "max" else np.add
        return _product_table(d1, d2, combine)

    def distance_matrix(self) -> np.ndarray:
        """Float ``n x n`` matrix of ``rho(i, i')`` with rows and columns in
        :meth:`labels` order (row-major on product grids).  It holds ``n^2``
        doubles, so a product grid of 1024 labels takes 8 MB.  The decay
        grids of :mod:`framelab.localisation` build it only for index sets
        other than ``max``-metric product grids, which they form from the
        two per-axis tables instead."""
        return self._distances(full=True)

    def distances_from_origin(self) -> np.ndarray:
        """Distances to the first label (used by polynomial weights); row 0
        of :meth:`distance_matrix`, computed in ``O(n)``."""
        return self._distances(full=False)[0]

    def to_json(self) -> dict:
        size = list(self.size) if self.kind == "product_cyclic" else self.size
        return {"kind": self.kind, "size": size, "metric": self.metric}

    @staticmethod
    def from_json(obj: dict) -> "IndexSet":
        size = obj["size"]
        if isinstance(size, list):
            if len(size) != 2:
                raise PreconditionError(f"size must be N or [N1, N2], got {size!r}")
            size = tuple(_json_int(s, "size") for s in size)
        else:
            size = _json_int(size, "size")
        return IndexSet(kind=obj["kind"], size=size, metric=obj.get("metric", ""))


def linear_index_set(n: int) -> IndexSet:
    return IndexSet(kind="linear", size=n)


def cyclic_index_set(n: int) -> IndexSet:
    return IndexSet(kind="cyclic", size=n)


def product_cyclic_index_set(n1: int, n2: int, metric: str = "max") -> IndexSet:
    return IndexSet(kind="product_cyclic", size=(n1, n2), metric=metric)


# ---------------------------------------------------------------------------
# frames


@dataclass(frozen=True, eq=False)
class Frame:
    """Immutable indexed family of vectors spanning ``C^d``.

    ``vectors`` has one row per index.  Construction fails with
    :class:`NotAFrameError` when the family does not (numerically) span
    the space.  ``bounds`` holds the optimal frame bounds: the extreme
    eigenvalues of the frame operator, found by that check.
    """

    space_dim: int
    index_set: IndexSet
    vectors: np.ndarray
    bounds: tuple[float, float] = field(init=False)

    def __post_init__(self):
        # a private copy: freezing it leaves the caller's array writable,
        # and later writes there cannot invalidate ``bounds``
        V = as_matrix(np.array(self.vectors, dtype=complex))
        if V.shape != (len(self.index_set), self.space_dim):
            raise PreconditionError(
                f"vectors have shape {V.shape}, expected "
                f"({len(self.index_set)}, {self.space_dim})"
            )
        if V.shape[0] < V.shape[1]:
            raise NotAFrameError(
                f"{V.shape[0]} vectors cannot span a {V.shape[1]}-dim space"
            )
        S = V.T @ V.conj()
        eigs = np.linalg.eigvalsh(S)
        if eigs[0] <= SPAN_RTOL * max(eigs[-1], 1e-300):
            raise NotAFrameError(
                f"vectors do not span the space: frame-operator eigenvalues "
                f"range [{eigs[0]:.3e}, {eigs[-1]:.3e}]"
            )
        V.flags.writeable = False
        object.__setattr__(self, "vectors", V)
        object.__setattr__(self, "bounds", (float(eigs[0]), float(eigs[-1])))

    @staticmethod
    def from_vectors(vectors, index_set: IndexSet | None = None) -> "Frame":
        V = as_matrix(vectors)
        if index_set is None:
            index_set = linear_index_set(V.shape[0])
        return Frame(space_dim=V.shape[1], index_set=index_set, vectors=V)

    @property
    def cardinality(self) -> int:
        return self.vectors.shape[0]


@dataclass(frozen=True, eq=False)
class FramePair:
    """A frame bundled with its canonical dual."""

    frame: Frame
    dual: Frame

    @property
    def bounds(self) -> tuple[float, float]:
        """The optimal bounds of ``frame``."""
        return self.frame.bounds


def analysis(frame: Frame, f) -> np.ndarray:
    """Coefficients ``<f, psi_i>`` in index order."""
    v = as_vector(f)
    if v.shape[0] != frame.space_dim:
        raise PreconditionError(
            f"vector has dim {v.shape[0]}, frame space is {frame.space_dim}"
        )
    return frame.vectors.conj() @ v


def synthesis(frame: Frame, c) -> np.ndarray:
    """``sum_i c_i psi_i``."""
    coef = as_vector(c)
    if coef.shape[0] != frame.cardinality:
        raise PreconditionError(
            f"{coef.shape[0]} coefficients for {frame.cardinality} frame vectors"
        )
    return frame.vectors.T @ coef


def cross_gram(frame_a: Frame, frame_b: Frame) -> np.ndarray:
    """Matrix with entries ``<a_{i'}, b_i>``; equals the composition
    ``analysis(frame_b, .) o synthesis(frame_a, .)`` on coefficients."""
    if frame_a.space_dim != frame_b.space_dim:
        raise PreconditionError("frames live in different spaces")
    return frame_b.vectors.conj() @ frame_a.vectors.T


def gram(frame: Frame) -> np.ndarray:
    return cross_gram(frame, frame)


def frame_operator(frame: Frame) -> np.ndarray:
    """``sum_i psi_i psi_i^H``, Hermitian positive definite."""
    V = frame.vectors
    return V.T @ V.conj()


def frame_bounds(frame: Frame) -> tuple[float, float]:
    """Optimal bounds: extreme eigenvalues of the frame operator."""
    return frame.bounds


def canonical_dual(frame: Frame) -> FramePair:
    """Pair the frame with ``{S^-1 psi_i}``."""
    a, b = frame.bounds
    if a < CONDITION_RTOL * b:
        raise ConditioningError(
            f"frame too ill-conditioned for a stable dual (A/B = {a / b:.3e})",
            smallest_eigenvalue=a,
        )
    dual_vectors = np.linalg.solve(frame_operator(frame), frame.vectors.T).T
    dual = Frame(
        space_dim=frame.space_dim, index_set=frame.index_set, vectors=dual_vectors
    )
    return FramePair(frame=frame, dual=dual)


def is_orthonormal_basis(pair: FramePair) -> bool:
    """Whether the primal frame is an orthonormal basis (Gram equals the
    identity to ``1e-12`` and the cardinality matches the dimension)."""
    frame = pair.frame
    if frame.cardinality != frame.space_dim:
        return False
    return float(np.max(np.abs(gram(frame) - np.eye(frame.space_dim)))) <= 1e-12


def _check_operator(O, pair1: FramePair, pair2: FramePair) -> np.ndarray:
    """``O`` as a validated ``d2 x d1`` matrix mapping the space of
    ``pair1`` into that of ``pair2``."""
    A = as_matrix(O)
    d1 = pair1.frame.space_dim
    d2 = pair2.frame.space_dim
    if A.shape != (d2, d1):
        raise PreconditionError(
            f"operator shape {A.shape} does not map C^{d1} to C^{d2}"
        )
    return A


# ---------------------------------------------------------------------------
# serialization


def frame_to_json(frame: Frame) -> dict:
    return {
        "space_dim": frame.space_dim,
        "index_set": frame.index_set.to_json(),
        "vectors": [_complex_to_json(row) for row in frame.vectors],
    }


def frame_from_json(obj: dict) -> Frame:
    try:
        d = _json_int(obj["space_dim"], "space_dim")
        index_set = IndexSet.from_json(obj["index_set"])
        rows = [_complex_from_json(row) for row in obj["vectors"]]
    except (KeyError, TypeError) as exc:
        raise PreconditionError(f"malformed frame object: {exc}") from exc
    if len({len(row) for row in rows}) != 1:
        raise PreconditionError("frame vectors must form a rectangular table")
    return Frame(space_dim=d, index_set=index_set, vectors=rows)
