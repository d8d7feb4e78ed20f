"""Fixed blocks of host work that time how fast the host runs right now.

The host is shared: the same op can take 1.3 s one minute and 2.5 s a few
minutes later, with no change to the program.  ``run.py`` times a block
just before and just after each op and divides the op's wall time by the
mean of the two, so host speed drift that lasts longer than one op cancels
out; the run reports the median of these ratios.  No block calls
framelab, and their inputs come from a fixed seed, not the workload seed,
so a change to framelab or to the seed cannot move them.

Each workload uses the block whose work resembles its own, because the
host's drift does not slow every kind of work alike:

* :func:`compute_block` for the in-process verifier workloads: numpy calls
  on short complex vectors (as in the op-norm probes), plain Python (the
  interpreter) and a few mid-sized complex matrix products (BLAS);
* :func:`array_block` for galerkin-scale: elementwise numpy over
  1024 x 1024 complex arrays and tall-matrix products, bound by memory
  bandwidth as its dual, Gram and mixed-norm work is;
* :func:`process_block` for cli-cold: a fresh interpreter that imports
  numpy and ``scipy.linalg``, as framelab's CLI does, but not framelab.
"""

from __future__ import annotations

import functools
import subprocess
import sys
import time

import numpy as np

SEED = 20240228
SMALL_ROUNDS = 1000
PYTHON_STEPS = 200_000
MATMUL_PRODUCTS = 4
# (side, tall width, repeats) of the array block's inputs
ARRAY_SHAPES = ((1024, 64, 1), (512, 64, 3))
PROCESS_IMPORTS = "import numpy, scipy.linalg"


def _complex(rng: np.random.Generator, *shape: int) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@functools.cache
def _compute_inputs():
    rng = np.random.default_rng(SEED)
    return tuple(_complex(rng, n, n) for n in (8, 16, 32)), _complex(rng, 256, 256)


@functools.cache
def _array_inputs():
    rng = np.random.default_rng(SEED + 1)
    return tuple(
        (_complex(rng, n, n), _complex(rng, n, k), repeats) for n, k, repeats in ARRAY_SHAPES
    )


def compute_block() -> float:
    """Run the compute block once; returns its wall seconds (about 0.1 s)."""
    small, square = _compute_inputs()
    t0 = time.perf_counter()
    for k in range(SMALL_ROUNDS):
        for M in small:
            y = M @ M[:, k % M.shape[0]]
            a = np.abs(y)
            float((a**1.5).sum() ** (1 / 1.5)) + float(a.max())
            np.conj(M.T) @ (y / np.sqrt((a * a).sum()))
    counts: dict[int, float] = {}
    for i in range(PYTHON_STEPS):
        counts[i % 97] = counts.get(i % 97, 0.0) + i * 0.5
    for _ in range(MATMUL_PRODUCTS):
        square @ square.conj().T
    return time.perf_counter() - t0


def array_block() -> float:
    """Run the array block once; returns its wall seconds (about 0.08 s)."""
    inputs = _array_inputs()
    t0 = time.perf_counter()
    for square, tall, repeats in inputs:
        n, k = tall.shape
        for _ in range(repeats):
            gram = tall @ tall.conj().T
            a = np.abs(square)
            float(((a**1.5).sum(axis=0) ** (1 / 1.5)).max()) + float(a.sum(axis=1).max())
            float(np.abs(gram).max(axis=0).sum())
            small = tall.conj().T @ tall
            np.linalg.solve(small + n * np.eye(k), tall.conj().T)
    return time.perf_counter() - t0


def process_block(env: dict) -> float:
    """Start one interpreter that imports numpy and ``scipy.linalg`` and
    wait for it; returns its wall seconds (about 0.5 s)."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", PROCESS_IMPORTS], env=env, check=True)
    return time.perf_counter() - t0
