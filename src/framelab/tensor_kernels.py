"""Kernels as Hilbert-Schmidt matrices, Galerkin matrices and the
coefficient-array projection.

A kernel acting from ``C^d1`` to ``C^d2`` is stored as its ``d2 x d1``
operator matrix; the rank-one tensor of ``f1`` and ``f2`` is the matrix
``T = f2 f1^H``, whose Hilbert-Schmidt pairing ``trace(T^H K)`` with a
kernel ``K`` is ``<K f1, f2>``.  Double indices ``(i, j)`` are flattened
row-major with ``i`` slowest.
"""

from __future__ import annotations

import numpy as np

from .frames import FramePair, IndexSet, _check_operator
from .numeric import (
    PreconditionError,
    _complex_from_json,
    _complex_to_json,
    _row_blocks,
    as_matrix,
)


def galerkin(O, pair1: FramePair, pair2: FramePair) -> np.ndarray:
    """Galerkin matrix ``k[i, j] = <O dual1_i, dual2_j>``.

    Under the Hilbert-Schmidt identification these are exactly the
    coefficients of the kernel against the dual tensor frame, so
    ``synthesize_kernel(galerkin(O)) == O`` in finite dimensions.

    The result is a row-major (C-contiguous) ``n1 x n2`` array.
    """
    return _galerkin(_check_operator(O, pair1, pair2)[None], pair1, pair2)[0]


def _galerkin(A: np.ndarray, pair1: FramePair, pair2: FramePair) -> np.ndarray:
    """:func:`galerkin` of each trial of a checked ``(T, d2, d1)`` stack
    ``A``, as a C-contiguous ``(T, n1, n2)`` stack; each trial's two
    products are slices of stacked ``matmul`` calls with the shapes of
    a one-trial call, so they have its bits."""
    return pair1.dual.vectors @ (A.swapaxes(-1, -2) @ pair2.dual.vectors.conj().T)


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

    The projection ``D1 @ (A.T @ D2^H)`` of the synthesized kernel ``A``
    is formed one row block at a time and reduced at once, so no
    ``n1 x n2`` complex temporary is built; a non-finite block makes the
    residual non-finite.
    """
    A = _check_operator(synthesize_kernel(k, pair1, pair2), pair1, pair2)
    K = np.asarray(k, dtype=complex)  # validated by synthesize_kernel
    D1 = pair1.dual.vectors
    right = A.T @ pair2.dual.vectors.conj().T
    k_max = res = np.float64(0.0)
    for r0, r1 in _row_blocks(*K.shape):
        k_rows = K[r0:r1]
        diff = D1[r0:r1] @ right
        diff -= k_rows
        k_max = np.maximum(k_max, np.max(np.abs(k_rows), initial=0.0))
        res = np.maximum(res, np.max(np.abs(diff), initial=0.0))
    return float(res) / max(float(k_max), 1.0)


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
