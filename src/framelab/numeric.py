"""Dense complex linear-algebra backend.

Input validation (arrays and norm exponents), singular values, a
checked positive-definite solve, the row blocks of reductions over
matrix products and matrix serialization live here so that numerical
conventions are fixed in exactly one place:

* scalars are complex doubles,
* the inner product ``<f, g> = np.vdot(g, f)`` is linear in ``f`` and
  conjugate-linear in ``g``,
* singular values are reported descending.
"""

from __future__ import annotations

import numpy as np

# smallest/largest eigenvalue ratio below which solve_posdef refuses a matrix
DEFINITENESS_RTOL = 1e-12


class PreconditionError(ValueError):
    """Input violates a documented precondition (shape, symmetry, ...)."""


class ConditioningError(ValueError):
    """Matrix too close to singular/indefinite for the requested solve."""

    def __init__(self, message: str, smallest_eigenvalue: float):
        super().__init__(message)
        self.smallest_eigenvalue = smallest_eigenvalue


def as_matrix(M) -> np.ndarray:
    """Coerce to a 2-D complex array and reject non-finite entries."""
    A = np.asarray(M, dtype=complex)
    if A.ndim != 2:
        raise PreconditionError(f"expected a 2-D matrix, got ndim={A.ndim}")
    if not np.isfinite(A).all():
        raise PreconditionError("matrix contains NaN or Inf entries")
    return A


def as_vector(f) -> np.ndarray:
    A = np.asarray(f, dtype=complex)
    if A.ndim != 1:
        raise PreconditionError(f"expected a 1-D vector, got ndim={A.ndim}")
    if not np.isfinite(A).all():
        raise PreconditionError("vector contains NaN or Inf entries")
    return A


def _check_exponent(p, prefix: str = "") -> float:
    """``p`` as a float, rejected unless ``1 <= p <= inf``; ``prefix``
    goes before ``p`` in the error message."""
    p = float(p)
    if not (1.0 <= p):
        raise PreconditionError(f"exponent {prefix}{p} outside [1, inf]")
    return p


def svd_values(M) -> np.ndarray:
    """Singular values, descending; ``min(rows, cols)`` of them."""
    A = as_matrix(M)
    return np.linalg.svd(A, compute_uv=False)


def solve_posdef(M, B) -> np.ndarray:
    """Solve ``M X = B`` for Hermitian positive definite ``M``.

    The smallest eigenvalue must exceed ``DEFINITENESS_RTOL`` times the
    spectral scale of ``M``; otherwise a :class:`ConditioningError`
    carrying that eigenvalue is raised.  ``B`` may be a vector or a
    matrix of right-hand sides.
    """
    A = as_matrix(M)
    if A.shape[0] != A.shape[1]:
        raise PreconditionError(f"matrix is {A.shape}, not square")
    rhs = np.asarray(B, dtype=complex)
    if not np.isfinite(rhs).all():
        raise PreconditionError("right-hand side contains NaN or Inf")
    eigs = np.linalg.eigvalsh(A)
    scale = max(float(eigs[-1]), 1e-300)
    if eigs[0] <= DEFINITENESS_RTOL * scale:
        raise ConditioningError(
            f"matrix is not safely positive definite "
            f"(smallest eigenvalue {eigs[0]:.3e}, scale {scale:.3e})",
            smallest_eigenvalue=float(eigs[0]),
        )
    return np.linalg.solve(A, rhs)


# Complex entries in one row block of a reduction over a matrix product:
# the largest temporary that ``localisation._gram_sup`` and
# ``tensor_kernels.correspondence_residual`` form.
_BLOCK_ENTRIES = 2**16


def _row_blocks(n_rows: int, n_cols: int) -> list[tuple[int, int]]:
    """Row ranges ``(r0, r1)`` covering ``0..n_rows`` in blocks of about
    ``_BLOCK_ENTRIES / n_cols`` rows.  No block has a single row unless
    ``n_rows == 1``: NumPy hands a one-row product to ``gemv``, whose
    sums need not match the bits of the ``gemm`` that a full product
    uses, so a trailing single row joins the block before it."""
    step = max(_BLOCK_ENTRIES // n_cols, 2)
    starts = list(range(0, n_rows, step))
    if len(starts) > 1 and n_rows - starts[-1] == 1:
        starts.pop()
    return list(zip(starts, starts[1:] + [n_rows]))


# ---------------------------------------------------------------------------
# serialization: complex entries travel as [re, im] pairs of JSON numbers;
# a matrix is {"rows": n, "cols": m, "entries": [[re, im], ...]} row-major


def _complex_to_json(values) -> list:
    """``[[re, im], ...]`` for the entries of ``values`` in row-major order."""
    return [[float(z.real), float(z.imag)] for z in np.ravel(values)]


def _complex_from_json(entries) -> np.ndarray:
    """Complex vector from a list of ``[re, im]`` pairs of JSON numbers."""
    out = []
    try:
        for re, im in entries:
            if type(re) not in (int, float) or type(im) not in (int, float):
                raise TypeError
            out.append(complex(re, im))
    except (TypeError, ValueError, OverflowError) as exc:
        raise PreconditionError(
            f"complex entry {len(out)} is not a [re, im] pair of numbers"
        ) from exc
    return np.array(out, dtype=complex)


def matrix_to_json(M) -> dict:
    A = as_matrix(M)
    return {"rows": A.shape[0], "cols": A.shape[1], "entries": _complex_to_json(A)}


def _json_int(value, name: str) -> int:
    """``value`` if it is a JSON integer; floats, strings and booleans
    are rejected rather than coerced."""
    if type(value) is not int:
        raise PreconditionError(f"{name} must be an integer, got {value!r}")
    return value


def matrix_from_json(obj: dict) -> np.ndarray:
    try:
        rows = _json_int(obj["rows"], "rows")
        cols = _json_int(obj["cols"], "cols")
        entries = obj["entries"]
    except (KeyError, TypeError) as exc:
        raise PreconditionError(f"malformed matrix object: {exc}") from exc
    if rows < 0 or cols < 0:
        raise PreconditionError(
            f"matrix claims {rows}x{cols}; dimensions must be nonnegative"
        )
    flat = _complex_from_json(entries)
    if len(flat) != rows * cols:
        raise PreconditionError(
            f"matrix claims {rows}x{cols} but has {len(flat)} entries"
        )
    return as_matrix(flat.reshape(rows, cols))

