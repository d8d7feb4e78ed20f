"""Smoke test of the benchmark itself (not part of the framelab test suite).

    python3 perfbench/smoke_test.py

Runs one tiny iteration of every workload untraced and traced, checks the
result line against the contract and ``BENCHMARK.json``, checks that
tracing leaves the stripped ``run_suite`` output byte-identical and puts
every wrapped attribute back, and checks that the benchmark refuses to run
without framelab's sources.
"""

import run  # first: pins the BLAS threads before numpy is imported

import json  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402


def bench(workload: str, trace: int, cwd: Path = run.ROOT) -> subprocess.CompletedProcess:
    argv = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", "1", "--seconds", "0", "--trace", str(trace),
    ]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_declaration() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    for key, declared in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        assert [(m["name"], m["unit"]) for m in spec[key]] == list(declared), key


def check_result(proc: subprocess.CompletedProcess, declared) -> None:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
    assert [(n, m["unit"]) for n, m in result["metrics"].items()] == list(declared)
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())


def check_tracing_is_transparent() -> None:
    fl = run.import_framelab()
    import tracing

    def stripped_fast_suite() -> str:
        return json.dumps(fl.strip_timings(fl.run_suite("fast", 0)), sort_keys=True)

    modules = {name: mod for name, mod in sys.modules.items() if name.startswith("framelab")}
    before = {(name, attr): value for name, mod in modules.items() for attr, value in vars(mod).items()}
    init = fl.Frame.__init__
    plain = stripped_fast_suite()
    with tracing.Tracer() as tracer:
        traced = stripped_fast_suite()
    assert len(tracer.start) > 0, "no spans recorded"
    assert plain == traced, "traced suite output differs from the untraced one"
    after = {(name, attr): value for name, mod in modules.items() for attr, value in vars(mod).items()}
    assert fl.Frame.__init__ is init and all(after[k] is v for k, v in before.items())


def check_refuses_without_sources() -> None:
    run.OUT.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=run.OUT))
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = bench("galerkin-scale", 0, cwd=bare)
        assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout
    finally:
        shutil.rmtree(bare)


def main() -> int:
    checks = [("BENCHMARK.json matches run.py", check_declaration)]
    for workload in run.WORKLOAD_NAMES:
        for trace, declared in ((0, run.END_TO_END), (1, run.PER_LAYER)):
            checks.append((
                f"{workload} --trace {trace}",
                lambda w=workload, t=trace, d=declared: check_result(bench(w, t), d),
            ))
    checks += [
        ("tracing leaves run_suite output and attributes unchanged", check_tracing_is_transparent),
        ("refuses to run without src/framelab", check_refuses_without_sources),
    ]
    failed = 0
    for label, check in checks:
        try:
            check()
        except Exception as exc:  # report every check, then fail
            failed += 1
            print(f"FAIL {label}: {exc!r}")
        else:
            print(f"ok   {label}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
