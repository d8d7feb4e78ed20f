"""Command-line front end.

Exit codes: 0 success, 1 failed verification, 2 usage error, 3 input
validation error.  Reports go to stdout (or ``-o``), diagnostics to
stderr; every emitted report embeds the resolved configuration and the
tool version.  The default seed can be overridden with the
``FRAMELAB_SEED`` environment variable.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import __version__
from .coorbit import CoorbitSpec, MixedSpaceSpec, SeqSpaceSpec, coorbit_norm, tensor_weights
from .frames import (
    canonical_dual,
    frame_bounds,
    frame_from_json,
    frame_to_json,
)
from .generators import GeneratorSpec, load_generator_spec
from .localisation import JaffardParams, as_weight, localisation_report
from .numeric import (
    PreconditionError,
    _complex_from_json,
    matrix_from_json,
    matrix_to_json,
)
from .suite import run_suite
from .tensor_kernels import (
    galerkin,
    galerkin_from_json,
    galerkin_to_json,
    synthesize_kernel,
)
from .theorems import (
    compress_operator,
    compressions_to_csv,
    reports_to_csv,
    schatten_check,
    schur_characterization,
    verify_frame_independence,
    verify_inner,
    verify_outer,
    verify_projective,
)

USAGE_ERROR = 2
VALIDATION_ERROR = 3


def _default_seed() -> int:
    return int(os.environ.get("FRAMELAB_SEED", "0"))


def _load_json(path):
    with open(path) as fh:
        return json.load(fh)


def _load_frame(path):
    frame = frame_from_json(_load_json(path))
    a, b = frame_bounds(frame)
    print(
        f"loaded {path}: {frame.cardinality} vectors in C^{frame.space_dim}, "
        f"bounds ({a:.6g}, {b:.6g})",
        file=sys.stderr,
    )
    return frame


def _load_matrix(path):
    return matrix_from_json(_load_json(path))


def _load_vector(path) -> np.ndarray:
    obj = _load_json(path)
    if isinstance(obj, dict) and "rows" in obj:
        M = matrix_from_json(obj)
        if 1 not in M.shape:
            raise PreconditionError(f"{path} holds a matrix, not a vector")
        return M.ravel()
    entries = obj["entries"] if isinstance(obj, dict) else obj
    return _complex_from_json(entries)


def _load_weight(path, n: int) -> np.ndarray:
    """A weight vector from a JSON list of numbers, bare or under
    ``"values"``; strings and booleans are rejected rather than coerced."""
    obj = _load_json(path)
    values = obj.get("values") if isinstance(obj, dict) else obj
    if not isinstance(values, list) or any(type(v) not in (int, float) for v in values):
        raise PreconditionError("weights must be a JSON list of numbers")
    try:
        w = np.array(values, dtype=float)
    except OverflowError as exc:
        raise PreconditionError("weights must be positive and finite") from exc
    return as_weight(w, n)


def _weights_for(args, frame1, frame2):
    w1 = (
        _load_weight(args.weight1, frame1.cardinality)
        if args.weight1
        else np.ones(frame1.cardinality)
    )
    w2 = (
        _load_weight(args.weight2, frame2.cardinality)
        if args.weight2
        else np.ones(frame2.cardinality)
    )
    return w1, w2


def _emit(payload: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(payload)
            if not payload.endswith("\n"):
                fh.write("\n")
    else:
        sys.stdout.write(payload)
        if not payload.endswith("\n"):
            sys.stdout.write("\n")


def _emit_json(obj, out_path: str | None) -> None:
    _emit(json.dumps(obj, sort_keys=True), out_path)


def _with_provenance(report: dict, args) -> dict:
    config = {
        k: v for k, v in sorted(vars(args).items()) if k != "func" and v is not None
    }
    return {**report, "config": config, "version": __version__}


def _parse_exponent(text: str) -> float:
    if text in ("inf", "Inf", "INF"):
        return np.inf
    return float(text)


# ---------------------------------------------------------------------------
# verbs


def _cmd_gen(args) -> int:
    source = args.source
    if source.endswith(".json") or os.path.exists(source):
        spec = load_generator_spec(source)
    else:
        params = {}
        if source == "onb":
            params["dim"] = args.dim
        elif source == "mercedes":
            pass
        elif source == "gabor":
            params.update(
                length=args.length,
                time_step=args.time_step,
                freq_step=args.freq_step,
                window=args.window,
            )
        elif source in ("decaying", "decaying_perturbation"):
            source = "decaying_perturbation"
            params.update(dim=args.dim, decay=args.decay, eps=args.eps)
        elif source in ("operator", "random_operator"):
            source = "random_operator"
            params.update(rows=args.rows, cols=args.cols, structure=args.kind)
            if args.width is not None:
                params["width"] = args.width
            if args.rank is not None:
                params["rank"] = args.rank
        else:
            raise PreconditionError(
                f"unknown generator {source!r} and no such spec file"
            )
        missing = [k for k, v in params.items() if v is None]
        if missing:
            raise PreconditionError(f"generator {source} needs {missing}")
        spec = GeneratorSpec(kind=source, parameters=params, seed=args.seed)
    built = spec.build()
    if hasattr(built, "vectors"):
        a, b = frame_bounds(built)
        print(
            f"frame: {built.cardinality} vectors in C^{built.space_dim}, "
            f"bounds ({a:.6g}, {b:.6g})",
            file=sys.stderr,
        )
        _emit_json(frame_to_json(built), args.output)
    else:
        _emit_json(matrix_to_json(built), args.output)
    return 0


def _cmd_bounds(args) -> int:
    frame = _load_frame(args.frame)
    a, b = frame_bounds(frame)
    _emit_json(
        {
            "A": a,
            "B": b,
            "cardinality": frame.cardinality,
            "space_dim": frame.space_dim,
        },
        args.output,
    )
    return 0


def _cmd_dual(args) -> int:
    pair = canonical_dual(_load_frame(args.frame))
    _emit_json(frame_to_json(pair.dual), args.output)
    return 0


def _cmd_localize(args) -> int:
    frame = _load_frame(args.frame)
    pair = canonical_dual(frame)
    report = localisation_report(
        pair, JaffardParams(args.s, frame.index_set), threshold=args.threshold
    )
    _emit_json(_with_provenance(report.to_json(), args), args.output)
    return 0


def _cmd_coorbit_norm(args) -> int:
    frame = _load_frame(args.frame)
    pair = canonical_dual(frame)
    f = _load_vector(args.vector)
    w = (
        _load_weight(args.weight, frame.cardinality)
        if args.weight
        else np.ones(frame.cardinality)
    )
    spec = CoorbitSpec(pair, SeqSpaceSpec(_parse_exponent(args.p), w))
    _emit_json({"norm": coorbit_norm(spec, f)}, args.output)
    return 0


def _cmd_galerkin(args) -> int:
    O = _load_matrix(args.operator)
    f1 = _load_frame(args.frame1)
    f2 = _load_frame(args.frame2)
    pair1, pair2 = canonical_dual(f1), canonical_dual(f2)
    k = galerkin(O, pair1, pair2)
    _emit_json(galerkin_to_json(k, f1.index_set, f2.index_set), args.output)
    return 0


def _cmd_kernel_synth(args) -> int:
    k, index_i, index_j = galerkin_from_json(_load_json(args.coefficients))
    f1 = _load_frame(args.frame1)
    f2 = _load_frame(args.frame2)
    if (len(index_i), len(index_j)) != (f1.cardinality, f2.cardinality):
        raise PreconditionError(
            "coefficient index sets do not match the frame cardinalities"
        )
    pair1, pair2 = canonical_dual(f1), canonical_dual(f2)
    _emit_json(matrix_to_json(synthesize_kernel(k, pair1, pair2)), args.output)
    return 0


def _cmd_verify(args) -> int:
    pair1 = canonical_dual(_load_frame(args.frame1))
    pair2 = canonical_dual(_load_frame(args.frame2))
    w1, w2 = _weights_for(args, pair1.frame, pair2.frame)

    which = args.which
    if which == "independence":
        if not (args.frame1b and args.frame2b):
            raise PreconditionError(
                "independence needs --frame1b and --frame2b for the second family"
            )
        pair1b = canonical_dual(_load_frame(args.frame1b))
        pair2b = canonical_dual(_load_frame(args.frame2b))
        p = _parse_exponent(args.p)
        q = _parse_exponent(args.q)
        spec = MixedSpaceSpec(p, q, args.inner_axis, tensor_weights(w1, w2))
    O = _load_matrix(args.op)
    if which == "outer":
        report = verify_outer(O, pair1, pair2, w1, w2, seed=args.seed)
    elif which == "inner":
        report = verify_inner(O, pair1, pair2, w1, w2)
    elif which == "projective":
        report = verify_projective(O, pair1, pair2, w1, w2)
    elif which == "schur":
        p = _parse_exponent(args.p)
        report = schur_characterization(
            O, pair1, pair2, w1, w2, p, args.variant, seed=args.seed
        )
    elif which == "independence":
        report = verify_frame_independence(
            O, (pair1, pair2), (pair1b, pair2b), spec
        )
    elif which == "schatten":
        report = schatten_check(O, pair1, pair2, _parse_exponent(args.p))
    else:  # pragma: no cover - blocked by argparse choices
        raise PreconditionError(f"unknown verification {which!r}")

    if args.format == "csv":
        _emit(reports_to_csv([report]), args.output)
    else:
        _emit_json(_with_provenance(report.to_json(), args), args.output)
    return 0 if report.passed else 1


def _cmd_compress(args) -> int:
    O = _load_matrix(args.operator)
    pair1 = canonical_dual(_load_frame(args.frame1))
    pair2 = canonical_dual(_load_frame(args.frame2))
    w1, w2 = _weights_for(args, pair1.frame, pair2.frame)
    taus = [float(t) for t in args.tau.split(",")]
    results = [
        compress_operator(O, pair1, pair2, w1, w2, tau, exact_error=args.exact_error)
        for tau in taus
    ]
    if args.format == "csv":
        _emit(compressions_to_csv([rep for _, rep in results]), args.output)
        return 0
    if len(results) == 1:
        k_tau, rep = results[0]
        payload = _with_provenance(rep.to_json(), args)
        payload["coefficients"] = galerkin_to_json(
            k_tau, pair1.frame.index_set, pair2.frame.index_set
        )
        _emit_json(payload, args.output)
    else:
        _emit_json(
            _with_provenance(
                {"sweep": [rep.to_json() for _, rep in results]}, args
            ),
            args.output,
        )
    return 0


def _cmd_suite(args) -> int:
    summary = run_suite(args.name, seed=args.seed)
    _emit_json(_with_provenance(summary, args), args.output)
    if not summary["pass"]:
        first = next(c["name"] for c in summary["checks"] if not c["pass"])
        print(f"suite failed at check: {first}", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="framelab",
        description="Frames, co-orbit norms, Galerkin kernels and their "
        "verification suites.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a frame or test operator")
    p.add_argument("source", help="generator spec file or kind "
                   "(onb|mercedes|gabor|decaying|operator)")
    p.add_argument("--dim", type=int)
    p.add_argument("--length", type=int)
    p.add_argument("--time-step", type=int, default=1)
    p.add_argument("--freq-step", type=int, default=1)
    p.add_argument("--window", default="gaussian")
    p.add_argument("--decay", type=float)
    p.add_argument("--eps", type=float)
    p.add_argument("--rows", type=int)
    p.add_argument("--cols", type=int)
    p.add_argument("--kind", default="dense", choices=["dense", "banded", "lowrank"])
    p.add_argument("--width", type=int)
    p.add_argument("--rank", type=int)
    p.add_argument("--seed", type=int, default=_default_seed())
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("bounds", help="frame bounds summary")
    p.add_argument("frame")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("dual", help="canonical dual frame")
    p.add_argument("frame")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_dual)

    p = sub.add_parser("localize", help="off-diagonal decay report")
    p.add_argument("frame")
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--threshold", type=float, default=1e6)
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_localize)

    p = sub.add_parser("coorbit-norm", help="weighted coefficient norm of a vector")
    p.add_argument("frame")
    p.add_argument("vector")
    p.add_argument("--p", required=True)
    p.add_argument("--weight")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_coorbit_norm)

    p = sub.add_parser("galerkin", help="Galerkin coefficients of an operator")
    p.add_argument("operator")
    p.add_argument("frame1")
    p.add_argument("frame2")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_galerkin)

    p = sub.add_parser("kernel-synth", help="synthesize an operator from coefficients")
    p.add_argument("coefficients")
    p.add_argument("frame1")
    p.add_argument("frame2")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_kernel_synth)

    p = sub.add_parser("verify", help="run one verification check")
    p.add_argument(
        "which",
        choices=["outer", "inner", "projective", "schur", "independence", "schatten"],
    )
    p.add_argument("--frame1", required=True)
    p.add_argument("--frame2", required=True)
    p.add_argument("--frame1b")
    p.add_argument("--frame2b")
    p.add_argument("--op", required=True, help="operator/kernel matrix file")
    p.add_argument("--weight1")
    p.add_argument("--weight2")
    p.add_argument("--p", default="2")
    p.add_argument("--q", default="inf")
    p.add_argument("--inner-axis", type=int, default=0, choices=[0, 1])
    p.add_argument("--variant", default="i", choices=["i", "ii"])
    p.add_argument("--seed", type=int, default=_default_seed())
    p.add_argument("--format", default="json", choices=["json", "csv"])
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("compress", help="threshold Galerkin coefficients")
    p.add_argument("operator")
    p.add_argument("frame1")
    p.add_argument("frame2")
    p.add_argument("--tau", required=True, help="threshold or comma list for a sweep")
    p.add_argument("--weight1")
    p.add_argument("--weight2")
    p.add_argument("--exact-error", action="store_true")
    p.add_argument("--format", default="json", choices=["json", "csv"])
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_compress)

    p = sub.add_parser("suite", help="run the verification suite")
    p.add_argument("name", choices=["fast", "full"])
    p.add_argument("--seed", type=int, default=_default_seed())
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_suite)

    return parser


def dispatch(argv) -> int:
    try:
        parser = build_parser()
    except ValueError as exc:  # only _default_seed can raise here
        print(f"error: FRAMELAB_SEED: {exc}", file=sys.stderr)
        return USAGE_ERROR
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    # PreconditionError, ConditioningError, NotAFrameError and
    # json.JSONDecodeError are all ValueErrors
    except (FileNotFoundError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return VALIDATION_ERROR


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
