"""Tensor-product frames, kernels as Hilbert-Schmidt matrices, Galerkin
matrices and the coefficient-array projection.

A kernel acting from ``C^d1`` to ``C^d2`` is stored as its ``d2 x d1``
operator matrix; the rank-one tensor of ``f1`` and ``f2`` is the matrix
``f2 f1^H``, so ``hs_inner(K, simple_tensor(f1, f2)) = <K f1, f2>``.
Double indices ``(i, j)`` are flattened row-major with ``i`` slowest;
all Kronecker identities are stated under that ordering.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coorbit import MixedSpaceSpec, mixed_norm
from .frames import (
    Frame,
    FramePair,
    IndexSet,
    _check_operator,
    cross_gram,
    linear_index_set,
)
from .numeric import (
    PreconditionError,
    _complex_from_json,
    _complex_to_json,
    as_matrix,
    as_vector,
)


def simple_tensor(f1, f2) -> np.ndarray:
    """Rank-one kernel ``f |-> <f, f1> f2``, i.e. the matrix
    ``f2 f1^H``.  Conjugate-homogeneous in ``f1`` by construction."""
    a = as_vector(f1)
    b = as_vector(f2)
    return np.outer(b, a.conj())


def hs_inner(K1, K2) -> complex:
    """Hilbert-Schmidt inner product ``trace(K2^H K1)``."""
    A = as_matrix(K1)
    B = as_matrix(K2)
    if A.shape != B.shape:
        raise PreconditionError(f"kernel shapes differ: {A.shape} vs {B.shape}")
    return complex(np.vdot(B, A))


def galerkin(O, pair1: FramePair, pair2: FramePair) -> np.ndarray:
    """Galerkin matrix ``k[i, j] = <O dual1_i, dual2_j>``.

    Under the Hilbert-Schmidt identification these are exactly the
    coefficients of the kernel against the dual tensor frame, so
    ``synthesize_kernel(galerkin(O)) == O`` in finite dimensions.

    The result is a row-major (C-contiguous) ``n1 x n2`` array.
    """
    A = _check_operator(O, pair1, pair2)
    return pair1.dual.vectors @ (A.T @ pair2.dual.vectors.conj().T)


def synthesize_kernel(k, pair1: FramePair, pair2: FramePair) -> np.ndarray:
    """Kernel ``sum_{i,j} k[i,j] psi1_i (x) psi2_j`` as an operator
    matrix; acts as ``f |-> sum_{i,j} k[i,j] <f, psi1_i> psi2_j``."""
    K = as_matrix(k)
    n1 = pair1.frame.cardinality
    n2 = pair2.frame.cardinality
    if K.shape != (n1, n2):
        raise PreconditionError(
            f"coefficient array shape {K.shape}, expected ({n1}, {n2})"
        )
    return pair2.frame.vectors.T @ K.T @ pair1.frame.vectors.conj()


def correspondence_residual(k, pair1: FramePair, pair2: FramePair) -> float:
    """Sup-norm distance of ``k`` from its analyze-after-synthesize
    projection, relative to ``max(||k||_inf, 1)``.

    The projection is idempotent, so a vanishing residual certifies
    that ``k`` is the coefficient array of an actual kernel.
    """
    projected = galerkin(synthesize_kernel(k, pair1, pair2), pair1, pair2)
    K = np.asarray(k, dtype=complex)  # validated by synthesize_kernel
    denom = max(float(np.max(np.abs(K), initial=0.0)), 1.0)
    return float(np.max(np.abs(K - projected), initial=0.0)) / denom


def kernel_norm(K, pair1: FramePair, pair2: FramePair, spec: MixedSpaceSpec) -> float:
    """Mixed norm of the kernel's dual-tensor-frame coefficients."""
    return mixed_norm(galerkin(K, pair1, pair2), spec)


def tensor_gram(pair1: FramePair, pair2: FramePair) -> np.ndarray:
    """Gram matrix of the tensor frame over ``(I x J)^2``: equals
    ``kron(conj(G1), G2)`` in the row-major ordering."""
    g1 = cross_gram(pair1.frame, pair1.frame)
    g2 = cross_gram(pair2.frame, pair2.frame)
    return np.kron(g1.conj(), g2)


@dataclass(frozen=True, eq=False)
class TensorFrame:
    """Frame ``{psi1_i (x) psi2_j}`` for the space of ``d2 x d1``
    kernels, with elements materialized on demand."""

    pair1: FramePair
    pair2: FramePair

    @property
    def index_shape(self) -> tuple[int, int]:
        return (self.pair1.frame.cardinality, self.pair2.frame.cardinality)

    @property
    def cardinality(self) -> int:
        n1, n2 = self.index_shape
        return n1 * n2

    @property
    def bounds(self) -> tuple[float, float]:
        a1, b1 = self.pair1.bounds
        a2, b2 = self.pair2.bounds
        return (a1 * a2, b1 * b2)

    def element(self, i: int, j: int) -> np.ndarray:
        return simple_tensor(self.pair1.frame.vectors[i], self.pair2.frame.vectors[j])

    def as_frame(self) -> Frame:
        """Materialize as an ordinary frame of flattened kernels (the
        flat inner product coincides with the Hilbert-Schmidt one)."""
        n1, n2 = self.index_shape
        vectors = np.array(
            [self.element(i, j).ravel() for i in range(n1) for j in range(n2)]
        )
        return Frame.from_vectors(vectors, linear_index_set(n1 * n2))


def tensor_frame(pair1: FramePair, pair2: FramePair) -> TensorFrame:
    return TensorFrame(pair1=pair1, pair2=pair2)


# ---------------------------------------------------------------------------
# serialization: coefficient arrays travel with their index sets


def galerkin_to_json(k, index_i: IndexSet, index_j: IndexSet) -> dict:
    K = as_matrix(k)
    if K.shape != (len(index_i), len(index_j)):
        raise PreconditionError(
            f"coefficient array shape {K.shape} does not match index sets"
        )
    entries = _complex_to_json(K)
    return {"I": index_i.to_json(), "J": index_j.to_json(), "entries": entries}


def galerkin_from_json(obj: dict) -> tuple[np.ndarray, IndexSet, IndexSet]:
    try:
        index_i = IndexSet.from_json(obj["I"])
        index_j = IndexSet.from_json(obj["J"])
        entries = obj["entries"]
    except (KeyError, TypeError) as exc:
        raise PreconditionError(f"malformed coefficient object: {exc}") from exc
    n1, n2 = len(index_i), len(index_j)
    flat = _complex_from_json(entries)
    if len(flat) != n1 * n2:
        raise PreconditionError(
            f"index sets imply {n1}x{n2} entries, got {len(flat)}"
        )
    return flat.reshape(n1, n2), index_i, index_j
