"""framelab benchmark: one workload, one seed, a closed loop for a fixed time.

    python3 perfbench/run.py --workload suite-full --seed 0 --seconds 25 --trace 0

Run from anywhere; framelab is imported from ``src/`` beside this
directory and nowhere else.  With ``--trace 0`` the last line of standard
output is a JSON object with the end-to-end metrics; with ``--trace 1``
it carries the per-layer metrics of a traced run instead.  The lines
before it print every metric named in ``perfbench/README.md`` with its
unit and sample count.  ``--workload all`` runs every workload, one
process each.
"""

import os
import sys

# BLAS and OpenMP pools must be sized before numpy loads: with two threads
# the first small factorization of a process can cost 40x a warm one.
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
if "numpy" in sys.modules:
    sys.exit("perfbench: numpy was imported before the BLAS threads were pinned")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOAD_NAMES = ("suite-full", "cli-cold", "galerkin-scale", "opnorm-grid")
SETUP_REPEATS = 5  # fresh processes whose set-up times give setup_s
CHILD_REPEATS = 3  # fresh processes per import/interpreter layer metric
MAX_FAILURES_KEPT = 5

END_TO_END = (
    ("op_cal", "cal"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)

_SIZES = ("gabor16", "gabor64", "decaying128")
_CHECKS = (
    "kernel_roundtrip", "correspondence", "outer_onb_equality", "outer_gabor_budget",
    "schur_onb_exact", "schur_gabor_budget", "projective_sandwich", "inner_decomposition",
    "frame_independence", "schatten_sufficiency", "gabor_tightness", "decaying_jaffard",
    "element_norm_bounds", "compression_sweep",
)
_VERIFIERS = (
    "verify_outer", "verify_inner", "verify_projective", "schur_characterization",
    "verify_frame_independence", "schatten_check", "compress_operator",
)


def _unit(name: str) -> str:
    if name.endswith(".calls") or name.endswith("_per_call") or name.endswith("_per_op"):
        return "count"
    if ".gflop." in name:
        return "GFLOP"
    if ".mb_moved." in name:
        return "MB"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    return "1"


_PER_LAYER_NAMES = (
    [f"coorbit.coorbit_opnorm.{m}" for m in ("calls", "s", "self_s")]
    + ["coorbit.coorbit_norm.calls", "coorbit.coorbit_norm.s"]
    + ["coorbit.opnorm_probes_per_call", "coorbit.mixed_norm.calls", "coorbit.mixed_norm.s"]
    + ["coorbit.opnorm_gap_rel"]
    + ["frames.Frame.calls", "frames.Frame.s", "frames.canonical_dual.calls"]
    + ["frames.canonical_dual.s", "frames.frame_bounds.calls", "frames.frame_bounds.s"]
    + ["frames.analysis.calls", "frames.synthesis.calls", "frames.frame_from_json.s"]
    + ["numeric.as_vector.calls", "numeric.as_matrix.calls", "numeric.solve_posdef.s"]
    + ["numeric.svd_values.s", "numeric.import_s"]
    + ["tensor_kernels.galerkin.calls", "tensor_kernels.galerkin.s"]
    + ["tensor_kernels.synthesize_kernel.s", "tensor_kernels.correspondence_residual.s"]
    + [
        f"tensor_kernels.{fn}.{what}.{size}"
        for fn in ("galerkin", "synthesize_kernel")
        for what in ("gflop", "mb_moved")
        for size in _SIZES
    ]
    + ["localisation.schur_weighted_bound.calls", "localisation.schur_weighted_bound.s"]
    + ["localisation.jaffard_norm.s", "localisation.localisation_report.s"]
    + [f"theorems.{v}.{m}" for v in _VERIFIERS for m in ("calls", "s", "self_s")]
    + ["generators.finite_gabor.s", "generators.decaying_perturbation.s"]
    + ["generators.random_operator.calls", "generators.random_operator.s"]
    + ["generators.substream.calls"]
    + [f"suite.{c}.s" for c in _CHECKS]
    + ["cli.interpreter_s", "cli.import_s"]
    + ["cli.suite_fast.dispatch_s", "cli.verify_outer.dispatch_s"]
    + ["trace.overhead_s", "trace.overhead_frac", "trace.spans_per_op"]
)
PER_LAYER = tuple((name, _unit(name)) for name in _PER_LAYER_NAMES)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only",
        action="store_true",
        help="build the workload's inputs once, print the set-up seconds and exit "
        "(the benchmark repeats set-up in fresh processes this way)",
    )
    parser.add_argument(
        "--then-one-op",
        action="store_true",
        help="with --setup-only: then run one op and print the peak RSS in MB",
    )
    return parser.parse_args(argv)


def import_framelab():
    """Import framelab from this checkout's ``src/``; exit if it is absent."""
    package = SRC / "framelab"
    if not (package / "__init__.py").is_file():
        sys.exit(f"perfbench: no framelab sources at {package}")
    sys.path.insert(0, str(SRC))
    import framelab

    if Path(framelab.__file__).resolve().parent != package:
        sys.exit(f"perfbench: framelab was imported from {framelab.__file__}, not {package}")
    return framelab


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def git_commit() -> str:
    """Commit of the checkout, read from ``.git`` without running git
    (which would search directories above the checkout)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown (no .git directory)"
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return f"unknown ({ref})"


def environment(np) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": ",".join(sorted({os.environ[var] for var in THREAD_VARS})),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
    }


def run_ops(fn, seconds, failures, tracer=None, calibrate=None):
    """Closed loop: call ``fn`` until ``seconds`` have passed (at least
    once).  Returns the samples of every successful op, ops attempted and
    ops failed.

    With ``calibrate`` (a function returning the wall seconds of a fixed
    block of work), the block runs before the first op and after every
    op, inside the same ``seconds``, and each op's sample ``"cal"`` is the
    mean of the blocks just before and just after it.
    """
    samples: dict[str, list[float]] = {}
    attempted = failed = 0
    before = calibrate() if calibrate else None
    deadline = time.perf_counter() + seconds
    while attempted == 0 or time.perf_counter() < deadline:
        if tracer is not None:
            tracer.op_id = attempted
        attempted += 1
        try:
            values = fn()
        except Exception:  # a failing op is counted and the loop goes on
            failed += 1
            if len(failures) < MAX_FAILURES_KEPT:
                failures.append(traceback.format_exc(limit=4))
            continue
        if calibrate:
            after = calibrate()
            values["cal"] = (before + after) / 2.0
            before = after
        for key, value in values.items():
            samples.setdefault(key, []).append(value)
    return samples, attempted, failed


def _child_samples(argv, stem, read) -> list[float]:
    """``read(wall, stdout, stderr)`` of CHILD_REPEATS fresh processes."""
    from workloads import run_child

    values = []
    for _ in range(CHILD_REPEATS):
        wall, code, _, stdout, stderr = run_child(argv, str(ROOT), child_env(), stem)
        if code != 0:
            raise RuntimeError(f"{argv} exited with code {code}")
        values.append(read(wall, stdout, stderr))
    return values


def setup_processes(args, workdir, peak_op: bool) -> tuple[list[float], float]:
    """Set-up (import plus inputs) of the workload in fresh processes.

    Returns the set-up seconds of each, and, when ``peak_op``, the peak
    RSS in MB of the first one, which goes on to run one op (0.0 if not).
    """
    from workloads import run_child

    argv = [
        sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
        "--seed", str(args.seed), "--setup-only",
    ]
    values, peak_mb = [], 0.0
    for i in range(SETUP_REPEATS):
        extra = ["--then-one-op"] if peak_op and i == 0 else []
        _, code, _, stdout, _ = run_child(
            argv + extra, str(ROOT), child_env(), os.path.join(workdir, "setup")
        )
        if code != 0:
            raise RuntimeError(f"set-up process exited with code {code}")
        lines = stdout.strip().splitlines()
        values.append(float(lines[0]))
        if extra:
            peak_mb = float(lines[1])
    return values, peak_mb


def import_layers(workdir) -> dict[str, float]:
    """Interpreter start, cold import, and ``framelab.numeric``'s
    cumulative import time from ``-X importtime``, each a median of
    fresh processes."""
    stem = os.path.join(workdir, "import")
    timed_import = (
        "import time; t = time.perf_counter(); import framelab; "
        "print(time.perf_counter() - t)"
    )

    def numeric_cumulative(wall, stdout, stderr):
        for line in stderr.splitlines():
            fields = [f.strip() for f in line.split("|")]
            if len(fields) == 3 and fields[2] == "framelab.numeric":
                return int(fields[1]) / 1e6
        raise RuntimeError("framelab.numeric missing from -X importtime output")

    return {
        "cli.interpreter_s": median(
            _child_samples([sys.executable, "-c", "pass"], stem, lambda w, o, e: w)
        ),
        "cli.import_s": median(
            _child_samples([sys.executable, "-c", timed_import], stem, lambda w, o, e: float(o))
        ),
        "numeric.import_s": median(
            _child_samples(
                [sys.executable, "-X", "importtime", "-c", "import framelab"],
                stem,
                numeric_cumulative,
            )
        ),
    }


def print_rows(rows) -> None:
    print(f"  {'metric':44s} {'value':>22s}  {'unit':6s} samples")
    for name, value, unit, n in rows:
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {name:44s} {shown:>22s}  {unit:6s} {n}")


def run_all(args) -> int:
    worst = 0
    for name in WORKLOAD_NAMES:
        argv = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        worst = max(worst, subprocess.run(argv, check=False).returncode)
    return worst


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    t0 = time.perf_counter()
    fl = import_framelab()
    import numpy as np

    import workloads

    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        wl = workloads.WORKLOADS[args.workload](fl, args.seed, workdir, child_env())
        if args.setup_only:
            print(repr(time.perf_counter() - t0), flush=True)
            if args.then_one_op:
                wl.op()
                print(repr(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0))
            return 0
        return measure(args, wl, workdir, np)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, wl, workdir, np) -> int:
    env = environment(np)
    failures: list[str] = []
    attempted = failed = 0
    if wl.warm_up:
        _, attempted, failed = run_ops(wl.op, 0.0, failures)

    if args.trace == 0:
        setups, op_process_mb = setup_processes(args, workdir, wl.peak_in_own_process)
        wl.calibrate()  # warm-up, discarded
        samples, a, f = run_ops(wl.op, args.seconds, failures, calibrate=wl.calibrate)
        attempted, failed = attempted + a, failed + f
        if not samples:
            sys.exit("perfbench: no op succeeded\n" + "".join(failures))
        values = {
            "op_cal": median(op / cal for op, cal in zip(samples["op"], samples["cal"])),
            "peak_rss_mb": wl.peak_rss_mb(samples, op_process_mb),
            "setup_s": median(setups),
        }
        metrics = END_TO_END
        rows = [
            ("setup_s", values["setup_s"], "s", len(setups)),
            ("op_cal", values["op_cal"], "cal", len(samples["op"])),
            ("op_s", median(samples["op"]), "s", len(samples["op"])),
            ("calibration_s", median(samples["cal"]), "s", len(samples["cal"])),
            ("peak_rss_mb", values["peak_rss_mb"], "MB", 1),
        ] + wl.report(samples)
    else:
        import tracing

        half = args.seconds / 2.0
        base, a, f = run_ops(wl.traced_op, half, failures)
        with tracing.Tracer() as tracer:
            traced, a2, f2 = run_ops(wl.traced_op, half, failures, tracer)
        attempted, failed = attempted + a + a2, failed + f + f2
        if not base or not traced:
            sys.exit("perfbench: no op succeeded\n" + "".join(failures))
        values = tracer.summary(a2)
        values.update(wl.layers(base))
        values.update(import_layers(workdir))
        untraced_s, traced_s = median(base["op"]), median(traced["op"])
        values["trace.overhead_s"] = traced_s - untraced_s
        values["trace.overhead_frac"] = (traced_s - untraced_s) / untraced_s
        tracer.save(OUT / f"spans-{args.workload}.npz")
        metrics = PER_LAYER
        rows = [
            ("untraced op_s", untraced_s, "s", len(base["op"])),
            ("traced op_s", traced_s, "s", len(traced["op"])),
        ]

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(values.get(name, 0.0)), "unit": unit}
                    for name, unit in metrics},
    }
    rows.append(("fail_frac", f"{failed / attempted:g} ({failed}/{attempted})", "1", attempted))
    if args.trace:
        rows += [(name, m["value"], m["unit"], "per op") for name, m in result["metrics"].items()]

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("  environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    print_rows(rows)
    for failure in failures:
        print("  failure: " + failure.strip().replace("\n", "\n    "))
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump({"args": vars(args), "environment": env, "result": result,
                   "samples": samples if args.trace == 0 else base,
                   "failures": failures}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
