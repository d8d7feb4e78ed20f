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
from dataclasses import dataclass, field

import numpy as np

from .frames import Frame, NotAFrameError, product_cyclic_index_set
from .numeric import PreconditionError, _as_real, _check_int, _json_int

RNG_SCHEME = "blake2b128:pcg64:v1"


def substream(seed: int, *labels) -> np.random.Generator:
    """Independent, reproducible random stream for an integer seed and labels."""
    seed = _check_int(seed, "seed")
    tag = f"framelab:{RNG_SCHEME}:{seed}:" + ":".join(str(l) for l in labels)
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
    if _check_int(d, "d") < 1:
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
    N, a, b = _check_int(N, "N"), _check_int(a, "a"), _check_int(b, "b")
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
    frame check, the amplitude is halved, up to three retries.  ``s`` and
    ``eps`` are real numbers, not bools, taken as floats; the float ``s``
    labels the random stream, so an integer decay draws the frame of the
    equal float.
    """
    if _check_int(d, "d") < 1:
        raise PreconditionError("dimension must be >= 1")
    s, eps = _as_real(s, "decay "), _as_real(eps, "amplitude ")
    if not (s >= 0):
        raise PreconditionError("decay must be a nonnegative number")
    if not (0 <= eps < np.inf):
        raise PreconditionError("amplitude must be a nonnegative finite number")
    idx = np.arange(d)
    decay = (1.0 + np.abs(idx[:, None] - idx[None, :])) ** -s
    rng = substream(seed, "generators", "decaying_perturbation", d, s)
    xi = _unit_disk(rng, (d, d))
    amplitude = eps
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
    ``rank``).  Sizes, ``width``, ``rank`` and ``seed`` are integers.
    """
    if _check_int(d1, "d1") < 1 or _check_int(d2, "d2") < 1:
        raise PreconditionError("dimensions must be >= 1")
    rng = substream(seed, "generators", "random_operator", d2, d1, kind)
    if kind == "dense":
        return _complex_normal(rng, (d2, d1))
    if kind == "banded":
        if width is None or _check_int(width, "width") < 0:
            raise PreconditionError("banded operators need a bandwidth >= 0")
        M = _complex_normal(rng, (d2, d1))
        rows = np.arange(d2)[:, None]
        cols = np.arange(d1)[None, :]
        return np.where(np.abs(rows - cols) <= width, M, 0.0)
    if kind == "lowrank":
        if rank is None or _check_int(rank, "rank") < 1:
            raise PreconditionError("low-rank operators need a rank >= 1")
        U = _complex_normal(rng, (d2, rank))
        V = _complex_normal(rng, (rank, d1))
        return U @ V
    raise PreconditionError(f"unknown operator kind {kind!r}")


# ---------------------------------------------------------------------------
# declarative specs (CLI entry point)

# Each kind's parameters with their defaults; ``...`` marks a required one.
# ``GeneratorSpec.build`` rejects any other name, and the CLI's ``gen``
# reads its flags by these names.
_PARAMETERS = {
    "onb": {"dim": ...},
    "mercedes": {},
    "gabor": {"length": ..., "time_step": 1, "freq_step": 1, "window": "gaussian"},
    "decaying_perturbation": {"dim": ..., "decay": ..., "eps": ...},
    "random_operator": {
        "rows": ..., "cols": ..., "structure": "dense", "width": None, "rank": None
    },
}
_INTEGERS = {"dim", "length", "time_step", "freq_step", "rows", "cols", "width", "rank"}
_WINDOWS = {
    "gaussian": gaussian_window,
    "delta": lambda N: np.eye(1, N, dtype=complex)[0],
    "ones": lambda N: np.ones(N, dtype=complex) / np.sqrt(N),
}


def _check_value(name: str, v) -> None:
    """Spec values are outside input: integers must be JSON integers and
    numbers JSON numbers, never coerced from floats, strings or booleans."""
    if name in _INTEGERS:
        _json_int(v, name)
    elif name in ("decay", "eps") and type(v) not in (int, float):
        raise PreconditionError(f"{name} must be a number, got {v!r}")
    elif name == "window" and isinstance(v, str):
        if v not in _WINDOWS:
            raise PreconditionError(f"unknown window {v!r}")
    elif name == "window" and not (
        isinstance(v, list) and all(type(x) in (int, float) for x in v)
    ):
        raise PreconditionError(
            f"window must be a name or a list of numbers, got {v!r}"
        )


@dataclass(frozen=True)
class GeneratorSpec:
    """Kind + parameters + seed; building the same spec twice yields
    bit-identical output.  ``build`` checks the parameters against the
    kind's entry of ``_PARAMETERS`` and their values, and the seed."""

    kind: str
    parameters: dict = field(default_factory=dict)
    seed: int = 0

    def build(self):
        table = _PARAMETERS.get(self.kind)
        if table is None:
            raise PreconditionError(f"unknown generator kind {self.kind!r}")
        unknown = [k for k in self.parameters if k not in table]
        if unknown:
            raise PreconditionError(
                f"generator {self.kind} takes {list(table)}, not {unknown}"
            )
        missing = [k for k, v in table.items() if v is ... and k not in self.parameters]
        if missing:
            raise PreconditionError(f"generator {self.kind} needs {missing}")
        for name, value in self.parameters.items():
            _check_value(name, value)
        _json_int(self.seed, "seed")
        p = {**table, **self.parameters}
        if self.kind == "onb":
            return onb(p["dim"])
        if self.kind == "mercedes":
            return mercedes()
        if self.kind == "gabor":
            N, window = p["length"], p["window"]
            if isinstance(window, str):
                window = _WINDOWS[window](N)
            return finite_gabor(N, p["time_step"], p["freq_step"], window)
        if self.kind == "decaying_perturbation":
            return decaying_perturbation(p["dim"], p["decay"], p["eps"], seed=self.seed)
        return random_operator(
            p["rows"], p["cols"], p["structure"], self.seed, p["width"], p["rank"]
        )

    def to_json(self) -> dict:
        return {"kind": self.kind, "parameters": self.parameters, "seed": self.seed}

    @staticmethod
    def from_json(obj) -> "GeneratorSpec":
        if not (
            isinstance(obj, dict)
            and isinstance(obj.get("kind"), str)
            and isinstance(obj.get("parameters", {}), dict)
            and set(obj) <= {"kind", "parameters", "seed"}
        ):
            raise PreconditionError(
                'a generator spec must be a JSON object {"kind": string, '
                '"parameters": object, "seed": integer}, the last two optional'
            )
        return GeneratorSpec(obj["kind"], obj.get("parameters", {}), obj.get("seed", 0))
