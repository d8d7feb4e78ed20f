"""Reproducible constructions of frames, windows and test operators.

Randomness discipline: every random draw comes from a named substream
derived by :func:`substream` from a root seed plus string labels
(convention: ``substream(seed, module, operation, trial)``).  The
derivation hashes the labels with BLAKE2b into a 128-bit key feeding a
PCG64 generator, so identical specs reproduce bit-identical output on
any platform.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from .frames import Frame, NotAFrameError, product_cyclic_index_set
from .numeric import PreconditionError

RNG_SCHEME = "blake2b128:pcg64:v1"


def substream(seed: int, *labels) -> np.random.Generator:
    """Independent, reproducible random stream for (seed, labels)."""
    tag = f"framelab:{RNG_SCHEME}:{int(seed)}:" + ":".join(str(l) for l in labels)
    key = hashlib.blake2b(tag.encode(), digest_size=16).digest()
    return np.random.default_rng(np.random.SeedSequence(int.from_bytes(key, "big")))


def _complex_normal(rng: np.random.Generator, shape) -> np.ndarray:
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def _unit_disk(rng: np.random.Generator, shape) -> np.ndarray:
    """Uniform samples from the closed complex unit disk."""
    radius = np.sqrt(rng.uniform(0.0, 1.0, shape))
    angle = rng.uniform(0.0, 2.0 * np.pi, shape)
    return radius * np.exp(1j * angle)


# ---------------------------------------------------------------------------
# frame families


def onb(d: int) -> Frame:
    """Standard orthonormal basis of ``C^d`` on a linear index set."""
    if d < 1:
        raise PreconditionError("dimension must be >= 1")
    return Frame.from_vectors(np.eye(d, dtype=complex))


def mercedes() -> Frame:
    """Three unit vectors at 120 degrees in the plane; tight with
    bounds (3/2, 3/2)."""
    r3 = np.sqrt(3.0)
    vectors = np.array(
        [[0.0, 1.0], [-r3 / 2.0, -0.5], [r3 / 2.0, -0.5]], dtype=complex
    )
    return Frame.from_vectors(vectors)


def gaussian_window(N: int) -> np.ndarray:
    """Periodized Gaussian ``exp(-pi d_c(t)^2 / N)`` with cyclic
    distance ``d_c``."""
    t = np.arange(N)
    d_c = np.minimum(t, N - t)
    return np.exp(-np.pi * d_c.astype(float) ** 2 / N).astype(complex)


def finite_gabor(N: int, a: int, b: int, window) -> Frame:
    """Cyclic time-frequency shifts of a window on a separable lattice.

    Vectors are ``g_{m,n}[t] = exp(2 pi i m b t / N) window[(t - n a) % N]``
    for ``m = 0..N/b-1`` (frequency, first index coordinate) and
    ``n = 0..N/a-1`` (time, second coordinate), on a product cyclic grid
    with the coordinatewise-max metric.  Window normalization is the
    caller's responsibility; the full lattice ``a = b = 1`` is tight
    with bounds ``N ||g||^2``.
    """
    if N < 1:
        raise PreconditionError("length must be >= 1")
    if a < 1 or b < 1 or N % a != 0 or N % b != 0:
        raise PreconditionError("time and frequency steps must divide the length")
    g = np.asarray(window, dtype=complex)
    if g.shape != (N,):
        raise PreconditionError(f"window must have length {N}")
    if not np.any(g):
        raise PreconditionError("window must be nonzero")
    n_freq, n_time = N // b, N // a
    t = np.arange(N)
    m = np.arange(n_freq)[:, None]
    n = np.arange(n_time)[:, None]
    phases = np.exp(2j * np.pi * m * b * t / N)
    translates = g[(t - n * a) % N]
    vectors = (phases[:, None, :] * translates[None, :, :]).reshape(-1, N)
    index_set = product_cyclic_index_set(n_freq, n_time, metric="max")
    return Frame(space_dim=N, index_set=index_set, vectors=vectors)


def decaying_perturbation(d: int, s: float, eps: float, seed: int = 0) -> Frame:
    """Basis perturbed by polynomially decaying noise.

    ``psi_i = e_i + eps * sum_j xi_{ij} (1 + |i-j|)^-s e_j`` with
    ``xi`` uniform on the complex unit disk.  If the family fails the
    frame check, the amplitude is halved, up to three retries.
    """
    if d < 1:
        raise PreconditionError("dimension must be >= 1")
    if not (s >= 0):
        raise PreconditionError("decay must be a nonnegative number")
    if not (0 <= eps < np.inf):
        raise PreconditionError("amplitude must be a nonnegative finite number")
    idx = np.arange(d)
    decay = (1.0 + np.abs(idx[:, None] - idx[None, :])) ** (-float(s))
    rng = substream(seed, "generators", "decaying_perturbation", d, s)
    xi = _unit_disk(rng, (d, d))
    amplitude = float(eps)
    for _ in range(4):
        vectors = np.eye(d, dtype=complex) + amplitude * xi * decay
        try:
            return Frame.from_vectors(vectors)
        except NotAFrameError:
            amplitude /= 2.0
    raise NotAFrameError(
        f"no frame after 3 amplitude halvings (d={d}, s={s}, eps={eps})"
    )


# ---------------------------------------------------------------------------
# operators


def random_operator(
    d2: int,
    d1: int,
    kind: str = "dense",
    seed: int = 0,
    width: int | None = None,
    rank: int | None = None,
) -> np.ndarray:
    """Deterministic random test operator mapping ``C^d1`` to ``C^d2``.

    ``kind`` is ``"dense"``, ``"banded"`` (requires ``width``; entries
    vanish for ``|row - col| > width``) or ``"lowrank"`` (requires
    ``rank``).
    """
    if d1 < 1 or d2 < 1:
        raise PreconditionError("dimensions must be >= 1")
    rng = substream(seed, "generators", "random_operator", d2, d1, kind)
    if kind == "dense":
        return _complex_normal(rng, (d2, d1))
    if kind == "banded":
        if width is None or width < 0:
            raise PreconditionError("banded operators need a bandwidth >= 0")
        M = _complex_normal(rng, (d2, d1))
        rows = np.arange(d2)[:, None]
        cols = np.arange(d1)[None, :]
        return np.where(np.abs(rows - cols) <= width, M, 0.0)
    if kind == "lowrank":
        if rank is None or rank < 1:
            raise PreconditionError("low-rank operators need a rank >= 1")
        U = _complex_normal(rng, (d2, rank))
        V = _complex_normal(rng, (rank, d1))
        return U @ V
    raise PreconditionError(f"unknown operator kind {kind!r}")


# ---------------------------------------------------------------------------
# declarative specs (CLI entry point)


@dataclass(frozen=True)
class GeneratorSpec:
    """Kind + parameters + seed; building the same spec twice yields
    bit-identical output."""

    kind: str
    parameters: dict = field(default_factory=dict)
    seed: int = 0

    def build(self):
        p = dict(self.parameters)
        if self.kind == "onb":
            return onb(int(p["dim"]))
        if self.kind == "mercedes":
            return mercedes()
        if self.kind == "gabor":
            N = int(p["length"])
            window = p.get("window", "gaussian")
            if isinstance(window, str):
                if window == "gaussian":
                    g = gaussian_window(N)
                elif window == "delta":
                    g = np.zeros(N, dtype=complex)
                    g[0] = 1.0
                elif window == "ones":
                    g = np.ones(N, dtype=complex) / np.sqrt(N)
                else:
                    raise PreconditionError(f"unknown window {window!r}")
            else:
                g = np.asarray(window, dtype=complex)
            return finite_gabor(N, int(p.get("time_step", 1)), int(p.get("freq_step", 1)), g)
        if self.kind == "decaying_perturbation":
            return decaying_perturbation(
                int(p["dim"]), float(p["decay"]), float(p["eps"]), seed=self.seed
            )
        if self.kind == "random_operator":
            return random_operator(
                int(p["rows"]),
                int(p["cols"]),
                kind=p.get("structure", "dense"),
                seed=self.seed,
                width=p.get("width"),
                rank=p.get("rank"),
            )
        raise PreconditionError(f"unknown generator kind {self.kind!r}")

    def to_json(self) -> dict:
        return {"kind": self.kind, "parameters": self.parameters, "seed": self.seed}

    @staticmethod
    def from_json(obj: dict) -> "GeneratorSpec":
        return GeneratorSpec(
            kind=obj["kind"],
            parameters=dict(obj.get("parameters", {})),
            seed=int(obj.get("seed", 0)),
        )


def load_generator_spec(path) -> GeneratorSpec:
    with open(path) as fh:
        return GeneratorSpec.from_json(json.load(fh))
