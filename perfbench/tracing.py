"""Spans around calls into framelab's public functions, recorded from outside.

A :class:`Tracer` replaces each listed function on its defining module and
on every framelab module that bound the same object by name (``suite`` and
the package ``__init__`` re-export many of them), so calls made inside
framelab are seen too.  ``Frame`` construction is traced through
``Frame.__init__``.  Every attribute is put back when the tracer exits.

Spans (name, start, end, parent span, op id) are kept in compact arrays in
memory and written once, at the end, by :meth:`Tracer.save`.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

# (module, public function) pairs, in the layer order the report uses.
TARGETS = (
    ("coorbit", "coorbit_opnorm"),
    ("coorbit", "coorbit_norm"),
    ("coorbit", "mixed_norm"),
    ("frames", "Frame"),
    ("frames", "canonical_dual"),
    ("frames", "frame_bounds"),
    ("frames", "analysis"),
    ("frames", "synthesis"),
    ("frames", "frame_from_json"),
    ("numeric", "as_vector"),
    ("numeric", "as_matrix"),
    ("numeric", "solve_posdef"),
    ("numeric", "svd_values"),
    ("tensor_kernels", "galerkin"),
    ("tensor_kernels", "synthesize_kernel"),
    ("tensor_kernels", "correspondence_residual"),
    ("localisation", "schur_weighted_bound"),
    ("localisation", "jaffard_norm"),
    ("localisation", "localisation_report"),
    ("theorems", "verify_outer"),
    ("theorems", "verify_inner"),
    ("theorems", "verify_projective"),
    ("theorems", "schur_characterization"),
    ("theorems", "verify_frame_independence"),
    ("theorems", "schatten_check"),
    ("theorems", "compress_operator"),
    ("generators", "finite_gabor"),
    ("generators", "decaying_perturbation"),
    ("generators", "random_operator"),
    ("generators", "substream"),
)


class Tracer:
    """Context manager that records one span per call of each target."""

    def __init__(self):
        self.names = [f"{mod}.{fn}" for mod, fn in TARGETS]
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.op_id = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, nid: int, fn):
        clock = time.perf_counter
        stack = self._stack
        name_id, parent, op, start, end = (
            self.name_id, self.parent, self.op, self.start, self.end
        )

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            op.append(self.op_id)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def __enter__(self) -> "Tracer":
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == "framelab" or key.startswith("framelab."))
        ]
        for nid, (mod_name, fn_name) in enumerate(TARGETS):
            home = sys.modules[f"framelab.{mod_name}"]
            original = getattr(home, fn_name)
            if isinstance(original, type):
                # classes are traced through their constructor, in place
                init = original.__init__
                self._restore.append((original, "__init__", init))
                original.__init__ = self._wrap(nid, init)
                continue
            wrapper = self._wrap(nid, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, attr, original))
                        setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- analysis ----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def summary(self, n_ops: int) -> dict[str, float]:
        """Per-op means of calls, inclusive seconds and self seconds.

        Inclusive time counts only the outermost span of a name, so a
        function reached again below itself is not counted twice.  Self
        time is a span's duration minus the durations of its direct child
        spans; the calls are sequential, so children never overlap.
        """
        a = self.arrays()
        name, parent = a["name_id"], a["parent"]
        dur = a["end"] - a["start"]
        k = len(self.names)
        has_parent = parent >= 0
        child_s = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_s = dur - child_s

        nested = np.zeros(len(dur), dtype=bool)
        ancestor = parent.copy()
        while np.any(ancestor >= 0):
            live = ancestor >= 0
            nested[live] |= name[ancestor[live]] == name[live]
            ancestor[live] = parent[ancestor[live]]

        calls = np.bincount(name, minlength=k)
        incl = np.bincount(name[~nested], weights=dur[~nested], minlength=k)
        excl = np.bincount(name, weights=self_s, minlength=k)
        scale = 1.0 / max(n_ops, 1)
        out = {}
        for i, full in enumerate(self.names):
            out[f"{full}.calls"] = float(calls[i]) * scale
            out[f"{full}.s"] = float(incl[i]) * scale
            out[f"{full}.self_s"] = float(excl[i]) * scale

        opnorm = self.names.index("coorbit.coorbit_opnorm")
        norm = self.names.index("coorbit.coorbit_norm")
        inner = (name == norm) & has_parent
        inner[inner] = name[parent[inner]] == opnorm
        out["coorbit.opnorm_probes_per_call"] = (
            float(np.count_nonzero(inner)) / 2.0 / calls[opnorm] if calls[opnorm] else 0.0
        )
        out["trace.spans_per_op"] = float(len(dur)) * scale
        return out

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())
