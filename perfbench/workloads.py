"""The benchmark's four workloads.

Each workload builds its inputs from the benchmark seed in ``__init__``
(the set-up that ``setup_s`` times), then runs one op per ``op()`` call in
a closed loop driven by ``run.py``.  An op times itself, checks its own
outputs outside the timed region and raises :class:`CheckFailed` when an
output is wrong.  Every call into framelab goes through a module
attribute (``self.fl.galerkin``), so a :class:`tracing.Tracer` sees it.
"""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from statistics import median

import numpy as np

import calibration

# Largest round-trip error and correspondence residual an op may report.
EXACTNESS_TOL = 1e-9


class CheckFailed(Exception):
    """An op ran but produced a wrong or failing output."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def tail(values) -> tuple[float, float] | None:
    """Highest percentile with at least ten samples above it, as
    ``(value, percentile)``; ``None`` below eleven samples."""
    n = len(values)
    if n < 11:
        return None
    k = n - 11
    return float(sorted(values)[k]), 100.0 * (k + 1) / n


def run_child(argv, cwd, env, stem) -> tuple[float, int, float, str, str]:
    """Run one child process to completion; returns wall seconds, exit
    code, peak RSS in MB, standard output and standard error.

    The child is reaped with ``wait4`` so that its own resource usage is
    read, not the running maximum over every child of this process.
    """
    out_path, err_path = f"{stem}.out", f"{stem}.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path) as out, open(err_path) as err:
        return wall, proc.returncode, usage.ru_maxrss / 1024.0, out.read(), err.read()


def complex_operator(rng: np.random.Generator, d: int) -> np.ndarray:
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


def gabor(fl, N: int):
    return fl.finite_gabor(N, 2, 2, fl.gaussian_window(N))


class Workload:
    name = ""
    warm_up = False
    peak_in_own_process = True

    def __init__(self, fl, seed: int, workdir: str, env: dict):
        self.fl = fl
        self.seed = seed
        self.workdir = workdir
        self.env = env

    def op(self) -> dict[str, float]:
        raise NotImplementedError

    def traced_op(self) -> dict[str, float]:
        """The op a traced run times with and without spans."""
        return self.op()

    def calibrate(self) -> float:
        """Wall seconds of the fixed host-speed block that ``op_cal``
        divides each op by."""
        return calibration.compute_block()

    def peak_rss_mb(self, samples, op_process_mb: float) -> float:
        """Peak RSS of the workload's ops.  ``op_process_mb`` is that of a
        fresh process that built the inputs and ran one op, with no
        calibration block in it."""
        return op_process_mb

    def report(self, samples) -> list[tuple[str, object, str, int]]:
        """Rows ``(metric, value, unit, samples)`` for the run's table."""
        return []

    def layers(self, samples) -> dict[str, float]:
        """Per-layer values this workload measures without spans."""
        return {}


def timing_rows(prefix: str, values) -> list[tuple[str, object, str, int]]:
    t = tail(values)
    tail_value = "n/a (<11 samples)" if t is None else f"{t[0]:.6g} (p{t[1]:.0f})"
    return [
        (f"{prefix}_s", median(values), "s", len(values)),
        (f"{prefix}_tail_s", tail_value, "s", len(values)),
    ]


class SuiteFull(Workload):
    name = "suite-full"
    warm_up = True

    def __init__(self, *args):
        super().__init__(*args)
        self.reference = None

    def op(self):
        t0 = time.perf_counter()
        summary = self.fl.run_suite("full", self.seed)
        elapsed = time.perf_counter() - t0
        failing = [c["name"] for c in summary["checks"] if not c["pass"]]
        require(summary["pass"], f"suite full failed checks {failing}")
        stripped = json.dumps(self.fl.strip_timings(summary), sort_keys=True)
        if self.reference is None:
            self.reference = stripped
        require(stripped == self.reference, "stripped summary differs from the first run")
        values = {"op": elapsed}
        values.update({f"suite.{c['name']}.s": c["elapsed_s"] for c in summary["checks"]})
        return values

    def report(self, samples):
        return timing_rows("suite_full", samples["op"])

    def layers(self, samples):
        return {k: median(v) for k, v in samples.items() if k.startswith("suite.")}


class CliCold(Workload):
    name = "cli-cold"
    peak_in_own_process = False  # the CLI children's peak RSS is the metric

    def __init__(self, *args):
        super().__init__(*args)
        import framelab.cli  # noqa: F401  (binds self.fl.cli)

        rng = np.random.default_rng(self.seed)
        frame_path = os.path.join(self.workdir, "gabor32.json")
        op_path = os.path.join(self.workdir, "op32.json")
        with open(frame_path, "w") as fh:
            json.dump(self.fl.frame_to_json(gabor(self.fl, 32)), fh)
        with open(op_path, "w") as fh:
            json.dump(self.fl.matrix_to_json(complex_operator(rng, 32)), fh)
        self.argv = {
            "suite_fast": ["suite", "fast", "--seed", str(self.seed)],
            "verify_outer": [
                "verify", "outer", "--frame1", frame_path, "--frame2", frame_path,
                "--op", op_path, "--seed", str(self.seed),
            ],
        }
        self.reference: dict[str, str] = {}

    def calibrate(self):
        return calibration.process_block(self.env)

    def _check(self, verb: str, code: int, stdout: str) -> dict:
        require(code == 0, f"{verb} exited with code {code}")
        out = json.loads(stdout)
        if verb == "suite_fast":
            require(out["pass"], "suite fast reported pass=false")
            canonical = json.dumps(self.fl.strip_timings(out), sort_keys=True)
        else:
            require(out["pass"], "verify outer reported pass=false")
            lower, upper = out["details"]["opnorm_lower"], out["details"]["opnorm_upper"]
            require(lower <= upper, f"op-norm interval ({lower}, {upper}) is inverted")
            canonical = json.dumps(out, sort_keys=True)
        ref = self.reference.setdefault(verb, canonical)
        require(canonical == ref, f"{verb} output differs from the first run")
        return out

    def op(self):
        values = {"op": 0.0, "rss_mb": 0.0}
        for verb, argv in self.argv.items():
            stem = os.path.join(self.workdir, verb)
            wall, code, rss, stdout, _ = run_child(
                [sys.executable, "-m", "framelab.cli", *argv], self.workdir, self.env, stem
            )
            out = self._check(verb, code, stdout)
            values[verb] = wall
            values["op"] += wall
            values["rss_mb"] = max(values["rss_mb"], rss)
            if verb == "verify_outer":
                values["gap_rel"] = gap_rel(out["details"])
        return values

    def traced_op(self):
        values = {"op": 0.0}
        for verb, argv in self.argv.items():
            out, err = io.StringIO(), io.StringIO()
            t0 = time.perf_counter()
            with redirect_stdout(out), redirect_stderr(err):
                code = self.fl.cli.dispatch(argv)
            wall = time.perf_counter() - t0
            self._check(verb, code, out.getvalue())
            values[verb] = wall
            values["op"] += wall
        return values

    def peak_rss_mb(self, samples, op_process_mb):
        return max(samples["rss_mb"])

    def report(self, samples):
        return timing_rows("cli_suite_fast", samples["suite_fast"]) + [
            ("cli_verify_s", median(samples["verify_outer"]), "s", len(samples["verify_outer"])),
            ("opnorm_gap_rel", median(samples["gap_rel"]), "1", len(samples["gap_rel"])),
        ]

    def layers(self, samples):
        return {f"cli.{verb}.dispatch_s": median(samples[verb]) for verb in self.argv}


# (label, generator, size) of the galerkin-scale ladder
LADDER = (("gabor16", "gabor", 16), ("gabor64", "gabor", 64), ("decaying128", "decaying", 128))
# (p, q, inner_axis) of the mixed norms taken of each Galerkin matrix
MIXED = ((1.0, np.inf, 0), (2.0, 2.0, 0), (np.inf, 1.0, 1), (1.5, 3.0, 1))


class GalerkinScale(Workload):
    name = "galerkin-scale"

    def calibrate(self):
        return calibration.array_block()

    def __init__(self, *args):
        super().__init__(*args)
        rng = np.random.default_rng(self.seed)
        self.operators = {label: complex_operator(rng, d) for label, _, d in LADDER}
        self.shapes: dict[str, tuple[int, int]] = {}

    def op(self):
        fl = self.fl
        t0 = time.perf_counter()
        results = []
        for label, kind, d in LADDER:
            if kind == "gabor":
                frame = gabor(fl, d)
            else:
                frame = fl.decaying_perturbation(d, 4.0, 0.05, seed=self.seed)
            pair = fl.canonical_dual(frame)
            loc = fl.localisation_report(pair, fl.JaffardParams(3.0, frame.index_set))
            O = self.operators[label]
            k = fl.galerkin(O, pair, pair)
            back = fl.synthesize_kernel(k, pair, pair)
            residual = fl.correspondence_residual(k, pair, pair)
            w = fl.poly_weight(frame.index_set, 1.0)
            grid = fl.tensor_weights(w, w)
            norms = [fl.mixed_norm(k, fl.MixedSpaceSpec(p, q, ax, grid)) for p, q, ax in MIXED]
            results.append((label, frame, loc, O, back, residual, norms))
        elapsed = time.perf_counter() - t0
        for label, frame, loc, O, back, residual, norms in results:
            self.shapes[label] = (frame.cardinality, frame.space_dim)
            err = float(np.linalg.norm(back - O) / np.linalg.norm(O))
            require(err <= EXACTNESS_TOL, f"{label}: round-trip error {err:.3e}")
            require(residual <= EXACTNESS_TOL, f"{label}: correspondence residual {residual:.3e}")
            require(all(np.isfinite(norms)) and min(norms) > 0, f"{label}: mixed norms {norms}")
            require(
                np.isfinite([loc.jaffard_gram, loc.jaffard_dual_gram, loc.jaffard_cross]).all(),
                f"{label}: non-finite localisation constants",
            )
        return {"op": elapsed}

    def report(self, samples):
        return timing_rows("galerkin_sweep", samples["op"])

    def layers(self, samples):
        """Operation counts and bytes moved for ``galerkin`` and
        ``synthesize_kernel``, computed from the array shapes.

        Both are two complex matmuls; a complex multiply-add is 8 real
        flops and an element 16 bytes, each operand read once and each
        result (and the conjugated copy) written once.  With n frame
        vectors in C^d both come to ``8 (n d^2 + n^2 d)`` flops and
        ``16 (6 n d + n^2 + d^2)`` bytes.
        """
        out = {}
        for label, (n, d) in self.shapes.items():
            gflop = 8.0 * (n * d * d + n * n * d) / 1e9
            mb = 16.0 * (6 * n * d + n * n + d * d) / 1e6
            for fn in ("galerkin", "synthesize_kernel"):
                out[f"tensor_kernels.{fn}.gflop.{label}"] = gflop
                out[f"tensor_kernels.{fn}.mb_moved.{label}"] = mb
        return out


def gap_rel(details: dict) -> float:
    lower, upper = details["opnorm_lower"], details["opnorm_upper"]
    return (upper - lower) / upper if upper > 0 else 0.0


class OpnormGrid(Workload):
    name = "opnorm-grid"

    P_VALUES = (1.0, 1.5, 2.0, 3.0, np.inf)

    def __init__(self, *args):
        super().__init__(*args)
        fl = self.fl
        rng = np.random.default_rng(self.seed)
        frames = (
            gabor(fl, 16),
            gabor(fl, 32),
            fl.decaying_perturbation(32, 4.0, 0.05, seed=self.seed),
        )
        self.cases = []
        for frame in frames:
            pair = fl.canonical_dual(frame)
            w = fl.poly_weight(frame.index_set, 1.0)
            self.cases.append((pair, w, complex_operator(rng, frame.space_dim)))

    def op(self):
        fl = self.fl
        t0 = time.perf_counter()
        reports = []
        for pair, w, O in self.cases:
            reports.append(fl.verify_outer(O, pair, pair, w, w, seed=self.seed))
            for p in self.P_VALUES:
                for variant in ("i", "ii"):
                    reports.append(
                        fl.schur_characterization(O, pair, pair, w, w, p, variant, seed=self.seed)
                    )
        elapsed = time.perf_counter() - t0
        gaps = []
        for rep in reports:
            require(rep.passed, f"{rep.name} failed (ratio {rep.ratio})")
            lower, upper = rep.details["opnorm_lower"], rep.details["opnorm_upper"]
            require(lower <= upper, f"{rep.name}: op-norm interval ({lower}, {upper}) is inverted")
            gaps.append(gap_rel(rep.details))
        return {"op": elapsed, "calls": float(len(reports)), "gap_rel": float(np.mean(gaps))}

    def report(self, samples):
        calls = sum(samples["calls"])
        return [
            ("verify_calls_per_s", calls / sum(samples["op"]), "1/s", int(calls)),
            ("opnorm_gap_rel", median(samples["gap_rel"]), "1", len(samples["gap_rel"])),
        ]

    def layers(self, samples):
        return {"coorbit.opnorm_gap_rel": median(samples["gap_rel"])}


WORKLOADS = {w.name: w for w in (SuiteFull, CliCold, GalerkinScale, OpnormGrid)}
