"""Linear-algebra backend: spec examples and identities."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import framelab
from framelab.numeric import (
    ConditioningError,
    PreconditionError,
    as_matrix,
    as_vector,
    matrix_from_json,
    matrix_to_json,
    solve_posdef,
    svd_values,
)


def random_unitary(d, seed):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, _ = np.linalg.qr(A)
    return q


class TestSvdValues:
    def test_diagonal(self):
        np.testing.assert_allclose(svd_values(np.diag([3.0, 4.0])), [4.0, 3.0])

    def test_rank_one(self):
        rng = np.random.default_rng(5)
        u = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        s = svd_values(np.outer(u, v.conj()))
        assert s[0] == pytest.approx(np.linalg.norm(u) * np.linalg.norm(v))
        np.testing.assert_allclose(s[1:], 0.0, atol=1e-12)

    def test_frobenius_identity(self):
        rng = np.random.default_rng(6)
        M = rng.standard_normal((5, 7)) + 1j * rng.standard_normal((5, 7))
        s = svd_values(M)
        assert np.sum(s**2) == pytest.approx(np.linalg.norm(M) ** 2, rel=1e-9)

    def test_adjoint_invariance(self):
        rng = np.random.default_rng(7)
        M = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
        np.testing.assert_allclose(
            svd_values(M), svd_values(M.conj().T), rtol=1e-10
        )


class TestSolvePosdef:
    def test_identity(self):
        b = np.array([1.0, 2.0, 3.0])
        np.testing.assert_allclose(solve_posdef(np.eye(3), b), b)

    def test_diagonal(self):
        x = solve_posdef(np.diag([2.0, 4.0]), np.array([2.0, 4.0]))
        np.testing.assert_allclose(x, [1.0, 1.0])

    def test_residual(self):
        rng = np.random.default_rng(8)
        A = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        M = A @ A.conj().T + 16 * np.eye(16)
        B = rng.standard_normal((16, 2)) + 1j * rng.standard_normal((16, 2))
        X = solve_posdef(M, B)
        assert np.linalg.norm(M @ X - B) <= 1e-9 * np.linalg.norm(B)

    def test_recovery_well_conditioned(self):
        rng = np.random.default_rng(9)
        q = random_unitary(10, seed=10)
        M = q @ np.diag(np.linspace(1.0, 1e5, 10)) @ q.conj().T
        X0 = rng.standard_normal(10) + 1j * rng.standard_normal(10)
        X = solve_posdef(M, M @ X0)
        assert np.linalg.norm(X - X0) <= 1e-8 * np.linalg.norm(X0)

    def test_singular_raises_with_eigenvalue(self):
        M = np.diag([1.0, 0.0])
        with pytest.raises(ConditioningError) as excinfo:
            solve_posdef(M, np.array([1.0, 1.0]))
        assert excinfo.value.smallest_eigenvalue <= 1e-12

    def test_indefinite_raises(self):
        with pytest.raises(ConditioningError):
            solve_posdef(np.diag([1.0, -1.0]), np.array([1.0, 1.0]))


NON_FINITE = [
    complex(np.nan, 0.0),
    complex(np.inf, 0.0),
    complex(-np.inf, 1.0),
    complex(0.0, np.nan),
    complex(1.0, np.inf),
    complex(0.0, -np.inf),
]


@pytest.mark.parametrize("bad", NON_FINITE, ids=repr)
class TestNonFiniteRejected:
    """A NaN or Inf in either the real or the imaginary part alone is
    rejected, with the same message as before."""

    def test_as_matrix(self, bad):
        M = np.zeros((2, 2), dtype=complex)
        M[1, 0] = bad
        message = "^matrix contains NaN or Inf entries$"
        with pytest.raises(PreconditionError, match=message):
            as_matrix(M)

    def test_as_vector(self, bad):
        v = np.zeros(3, dtype=complex)
        v[2] = bad
        message = "^vector contains NaN or Inf entries$"
        with pytest.raises(PreconditionError, match=message):
            as_vector(v)

    def test_solve_posdef_rhs(self, bad):
        rhs = np.ones((2, 2), dtype=complex)
        rhs[0, 1] = bad
        message = "^right-hand side contains NaN or Inf$"
        with pytest.raises(PreconditionError, match=message):
            solve_posdef(np.eye(2), rhs)


@pytest.mark.parametrize("module", ["framelab", "framelab.cli"])
def test_import_loads_no_heavy_modules(module):
    """Importing the package or its CLI does no work beyond their own
    modules and NumPy: no scipy, process or thread pools, or event loop."""
    src = os.path.dirname(os.path.dirname(framelab.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    heavy = ["scipy", "concurrent.futures", "multiprocessing", "asyncio"]
    code = f"import sys, {module}; print([m for m in {heavy!r} if m in sys.modules])"
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


class TestSerialization:
    def test_round_trip(self):
        M = np.array([[1 + 2j, 3.0], [0.0, -1j]])
        again = matrix_from_json(json.loads(json.dumps(matrix_to_json(M))))
        np.testing.assert_array_equal(M, again)

    def test_entry_count_checked(self):
        with pytest.raises(PreconditionError):
            matrix_from_json({"rows": 2, "cols": 2, "entries": [[1.0, 0.0]]})

    def test_rejects_nan(self):
        with pytest.raises(PreconditionError):
            matrix_from_json(
                {"rows": 1, "cols": 1, "entries": [[float("nan"), 0.0]]}
            )

    @pytest.mark.parametrize(
        "rows, cols, name",
        [(2.9, 1, "rows"), ("2", 1, "rows"), (2, True, "cols"), (2.0, 1, "rows")],
    )
    def test_rejects_non_integer_dimensions(self, rows, cols, name):
        entries = [[1.0, 0.0]] * 2
        message = f"^{name} must be an integer, got "
        with pytest.raises(PreconditionError, match=message):
            matrix_from_json({"rows": rows, "cols": cols, "entries": entries})

    @pytest.mark.parametrize("rows, cols", [(-1, -1), (0, -1), (-2, -3)])
    def test_rejects_negative_dimensions(self, rows, cols):
        entries = [[1.0, 0.0]] * (rows * cols)
        message = f"^matrix claims {rows}x{cols}; dimensions must be nonnegative$"
        with pytest.raises(PreconditionError, match=message):
            matrix_from_json({"rows": rows, "cols": cols, "entries": entries})
