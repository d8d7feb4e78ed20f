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
from .generators import _PARAMETERS, GeneratorSpec
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
    schatten_check,
    schur_characterization,
    verify_frame_independence,
    verify_inner,
    verify_outer,
    verify_projective,
)

USAGE_ERROR = 2
VALIDATION_ERROR = 3
# spellings of generator kinds that only the command line accepts
_ALIASES = {"decaying": "decaying_perturbation", "operator": "random_operator"}


def _default_seed() -> int:
    return int(os.environ.get("FRAMELAB_SEED", "0"))


def _load_json(path):
    with open(path) as fh:
        return json.load(fh)


def _describe(frame) -> str:
    a, b = frame_bounds(frame)
    n, d = frame.cardinality, frame.space_dim
    return f"{n} vectors in C^{d}, bounds ({a:.6g}, {b:.6g})"


def _load_frame(path):
    frame = frame_from_json(_load_json(path))
    print(f"loaded {path}: {_describe(frame)}", file=sys.stderr)
    return frame


def _load_pair(path, loaded: dict):
    """The canonical pair of the frame file ``path``.  ``loaded`` is the
    invocation's table of pairs by path, so a file named twice is parsed
    and factored once, and the op-norm data remembered for its pair are
    filled once; each argument still gets its own ``loaded`` line."""
    if path in loaded:
        pair, description = loaded[path]
    else:
        frame = frame_from_json(_load_json(path))
        pair, description = None, _describe(frame)
    print(f"loaded {path}: {description}", file=sys.stderr)
    if pair is None:
        pair = canonical_dual(frame)
        loaded[path] = pair, description
    return pair


def _load_matrix(path):
    return matrix_from_json(_load_json(path))


def _load_vector(path) -> np.ndarray:
    obj = _load_json(path)
    if isinstance(obj, dict) and "rows" in obj:
        M = matrix_from_json(obj)
        if 1 not in M.shape:
            raise PreconditionError(f"{path} holds a matrix, not a vector")
        return M.ravel()
    if isinstance(obj, dict):
        if "entries" not in obj:
            raise PreconditionError(
                f"{path} must hold a matrix object, a list of [re, im] pairs "
                'or {"entries": [[re, im], ...]}'
            )
        obj = obj["entries"]
    return _complex_from_json(obj)


def _load_weight(path, n: int) -> np.ndarray:
    """A weight vector from a JSON list of numbers, bare or under
    ``"values"``; strings and booleans are rejected rather than coerced.
    Without a file, unit weights."""
    if not path:
        return np.ones(n)
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
    return (
        _load_weight(args.weight1, frame1.cardinality),
        _load_weight(args.weight2, frame2.cardinality),
    )


def _emit(payload: str, out_path: str | None) -> None:
    payload += "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def _emit_json(obj, out_path: str | None) -> None:
    _emit(json.dumps(obj, sort_keys=True), out_path)


def _emit_csv(reports, header: str, out_path: str | None) -> None:
    """One row per report: the ``header`` fields of its ``to_json()``."""
    fields = header.split(",")
    rows = [",".join(str(r.to_json()[f]) for f in fields) for r in reports]
    _emit("\n".join([header, *rows]), out_path)


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
    kind = _ALIASES.get(source, source)
    if source.endswith(".json") or os.path.exists(source):
        spec = GeneratorSpec.from_json(_load_json(source))
    elif kind in _PARAMETERS:
        flags = {name: getattr(args, name) for name in _PARAMETERS[kind]}
        params = {name: v for name, v in flags.items() if v is not None}
        spec = GeneratorSpec(kind, params, args.seed)
    else:
        raise PreconditionError(f"unknown generator {source!r} and no such spec file")
    built = spec.build()
    if hasattr(built, "vectors"):
        print(f"frame: {_describe(built)}", file=sys.stderr)
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
    w = _load_weight(args.weight, frame.cardinality)
    spec = CoorbitSpec(pair, SeqSpaceSpec(_parse_exponent(args.p), w))
    _emit_json({"norm": coorbit_norm(spec, f)}, args.output)
    return 0


def _cmd_galerkin(args) -> int:
    O = _load_matrix(args.operator)
    loaded = {}
    pair1 = _load_pair(args.frame1, loaded)
    pair2 = _load_pair(args.frame2, loaded)
    k = galerkin(O, pair1, pair2)
    index_i, index_j = pair1.frame.index_set, pair2.frame.index_set
    _emit_json(galerkin_to_json(k, index_i, index_j), args.output)
    return 0


def _cmd_kernel_synth(args) -> int:
    k, index_i, index_j = galerkin_from_json(_load_json(args.coefficients))
    loaded = {}
    pair1 = _load_pair(args.frame1, loaded)
    pair2 = _load_pair(args.frame2, loaded)
    cardinalities = (pair1.frame.cardinality, pair2.frame.cardinality)
    if (len(index_i), len(index_j)) != cardinalities:
        raise PreconditionError(
            "coefficient index sets do not match the frame cardinalities"
        )
    _emit_json(matrix_to_json(synthesize_kernel(k, pair1, pair2)), args.output)
    return 0


def _cmd_verify(args) -> int:
    loaded = {}
    pair1 = _load_pair(args.frame1, loaded)
    pair2 = _load_pair(args.frame2, loaded)
    w1, w2 = _weights_for(args, pair1.frame, pair2.frame)

    which = args.which
    if which == "independence":
        if not (args.frame1b and args.frame2b):
            raise PreconditionError(
                "independence needs --frame1b and --frame2b for the second family"
            )
        pair1b = _load_pair(args.frame1b, loaded)
        pair2b = _load_pair(args.frame2b, loaded)
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
        _emit_csv([report], "name,lhs,rhs,ratio,budget,pass,seed", args.output)
    else:
        _emit_json(_with_provenance(report.to_json(), args), args.output)
    return 0 if report.passed else 1


def _cmd_compress(args) -> int:
    O = _load_matrix(args.operator)
    loaded = {}
    pair1 = _load_pair(args.frame1, loaded)
    pair2 = _load_pair(args.frame2, loaded)
    w1, w2 = _weights_for(args, pair1.frame, pair2.frame)
    taus = [float(t) for t in args.tau.split(",")]
    results = [
        compress_operator(O, pair1, pair2, w1, w2, tau, exact_error=args.exact_error)
        for tau in taus
    ]
    reports = [rep for _, rep in results]
    if args.format == "csv":
        _emit_csv(reports, "threshold,kept,total,sparsity,error_surrogate", args.output)
        return 0
    if len(results) == 1:
        k_tau, rep = results[0]
        payload = _with_provenance(rep.to_json(), args)
        payload["coefficients"] = galerkin_to_json(
            k_tau, pair1.frame.index_set, pair2.frame.index_set
        )
        _emit_json(payload, args.output)
    else:
        sweep = {"sweep": [rep.to_json() for rep in reports]}
        _emit_json(_with_provenance(sweep, args), args.output)
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

    def verb(name, func, help):
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        return p

    p = verb("gen", _cmd_gen, "generate a frame or test operator")
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
    p.add_argument("--kind", dest="structure", default="dense",
                   choices=["dense", "banded", "lowrank"])
    p.add_argument("--width", type=int)
    p.add_argument("--rank", type=int)
    p.add_argument("--seed", type=int, default=_default_seed())

    verb("bounds", _cmd_bounds, "frame bounds summary").add_argument("frame")
    verb("dual", _cmd_dual, "canonical dual frame").add_argument("frame")

    p = verb("localize", _cmd_localize, "off-diagonal decay report")
    p.add_argument("frame")
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--threshold", type=float, default=1e6)

    p = verb("coorbit-norm", _cmd_coorbit_norm, "weighted coefficient norm of a vector")
    p.add_argument("frame")
    p.add_argument("vector")
    p.add_argument("--p", required=True)
    p.add_argument("--weight")

    p = verb("galerkin", _cmd_galerkin, "Galerkin coefficients of an operator")
    p.add_argument("operator")
    p.add_argument("frame1")
    p.add_argument("frame2")

    p = verb(
        "kernel-synth", _cmd_kernel_synth, "synthesize an operator from coefficients"
    )
    p.add_argument("coefficients")
    p.add_argument("frame1")
    p.add_argument("frame2")

    p = verb("verify", _cmd_verify, "run one verification check")
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

    p = verb("compress", _cmd_compress, "threshold Galerkin coefficients")
    p.add_argument("operator")
    p.add_argument("frame1")
    p.add_argument("frame2")
    p.add_argument("--tau", required=True, help="threshold or comma list for a sweep")
    p.add_argument("--weight1")
    p.add_argument("--weight2")
    p.add_argument("--exact-error", action="store_true")
    p.add_argument("--format", default="json", choices=["json", "csv"])

    p = verb("suite", _cmd_suite, "run the verification suite")
    p.add_argument("name", choices=["fast", "full"])
    p.add_argument("--seed", type=int, default=_default_seed())

    for p in sub.choices.values():  # last, as each verb's help lists it
        p.add_argument("-o", "--output")
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
