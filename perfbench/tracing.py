"""Spans around the package's public functions, recorded from outside it.

``Tracer.install`` replaces each function listed in ``LAYERS`` by a wrapper,
in every ``multipeak`` module namespace that holds the original, so a call made through ``dancer.lowest_eigenpairs`` is
traced as well as one made through ``spectrum.lowest_eigenpairs``.  A span
is (name, start, end, parent, operation); a layer's self time is its span's
duration minus the time its child spans cover.  Spans stay in memory in
flat arrays and are written out once, when the run ends.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import sys
import time
from array import array
from collections import defaultdict

# (module, function) -> span name
LAYERS = {
    ("groundstate", "solve_ground_state"): "groundstate.solve",
    ("groundstate", "eval_radial"): "groundstate.eval_radial",
    ("ansatz", "build_ansatz"): "ansatz.build",
    ("spectrum", "lowest_eigenpairs"): "spectrum.eigenpairs",
    ("spectrum", "near_kernel_basis"): "spectrum.near_kernel",
    ("reduction", "solve_correction"): "reduction.correction",
    ("reduction", "interaction_d"): "reduction.interaction_d",
    ("reduction", "equilibrate"): "reduction.equilibrate",
    ("dancer", "newton_solve"): "dancer.newton",
    ("dancer", "verify_evenness"): "dancer.probes",
    ("dancer", "minimal_period_gaps"): "dancer.probes",
    ("dancer", "align_and_compare"): "dancer.probes",
    ("dancer", "psi_decay_fit"): "dancer.psi_fit",
    ("weighted", "solve_orthogonal"): "weighted.solve_orthogonal",
    ("weighted", "weighted_sup"): "weighted.sup",
    ("domain", "solve_helmholtz"): "domain.solve_helmholtz",
    ("asymptotics", "interaction_quadrature"): "asymptotics.quadrature",
    ("asymptotics", "mass_constant"): "asymptotics.mass_constant",
    ("asymptotics", "taylor_remainder_check"): "asymptotics.taylor",
}

# span names whose number of calls is a metric
CALL_COUNTS = {
    "groundstate.solve", "groundstate.eval_radial", "ansatz.build",
    "spectrum.eigenpairs", "reduction.correction", "dancer.newton",
}


def _newton_tol(fn):
    signature = inspect.signature(fn)

    def tol(args, kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments["tol"]

    return tol


class Tracer:
    """Records spans and counters; not thread-safe (the benchmark has one thread)."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.ops: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[list] = []  # [span id, time covered by children]
        self._op = -1
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)

    # -------------------------------------------------------------- spans

    def set_operation(self, op: str) -> None:
        self.ops.append(op)
        self._op = len(self.ops) - 1

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def begin(self, name: str) -> None:
        span = len(self.span_name)
        self.span_name.append(self._name_id(name))
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_op.append(self._op)
        self.span_end.append(0.0)
        self._stack.append([span, 0.0])
        self.span_start.append(time.perf_counter())

    def end(self) -> None:
        t = time.perf_counter()
        span, covered = self._stack.pop()
        self.span_end[span] = t
        duration = t - self.span_start[span]
        self.self_time[self.names[self.span_name[span]]] += duration - covered
        if self._stack:
            self._stack[-1][1] += duration

    def add_child_spans(self, spans: list[dict]) -> None:
        """Append spans a child process recorded, under the current operation."""
        offset = len(self.span_name)
        for s in spans:
            self.span_name.append(self._name_id(s["name"]))
            self.span_parent.append(s["parent"] + offset if s["parent"] >= 0 else -1)
            self.span_op.append(self._op)
            self.span_start.append(s["start"])
            self.span_end.append(s["end"])

    def spans(self):
        for i in range(len(self.span_name)):
            yield {
                "id": i,
                "name": self.names[self.span_name[i]],
                "start": self.span_start[i],
                "end": self.span_end[i],
                "parent": self.span_parent[i],
                "op": self.ops[self.span_op[i]] if self.span_op[i] >= 0 else None,
            }

    def write(self, path) -> None:
        """JSON lines, gzip-compressed: the oracles pass alone has ~9e5 spans."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for span in self.spans():
                fh.write(json.dumps(span) + "\n")

    def take(self) -> dict[str, float]:
        """Self times (``<name>_s``) and counts accumulated since the last call."""
        out = {f"{k}_s": v for k, v in self.self_time.items()}
        out.update(self.counts)
        self.self_time.clear()
        self.counts.clear()  # cleared in place: the wrappers hold this dict
        return out

    # ------------------------------------------------------------ wrapping

    def _wrap(self, fn, name: str):
        begin, end, counts = self.begin, self.end, self.counts
        counted = name in CALL_COUNTS
        newton_tol = _newton_tol(fn) if name == "dancer.newton" else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counted:
                counts[f"{name}_calls"] += 1
            if name == "domain.solve_helmholtz":
                counts["domain.unknowns"] += args[0].grid.size
            begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                if newton_tol is not None:
                    counts["dancer.newton_failures"] += 1
                raise
            finally:
                end()
            if name == "reduction.correction":
                counts["reduction.fixed_point_iterations"] += result.iterations
            elif name == "reduction.equilibrate":
                counts["reduction.equilibrate_steps"] += result.newton_steps
            elif newton_tol is not None:
                counts["dancer.newton_iterations"] += result.iterations
                if not result.newton_history[-1] <= newton_tol(args, kwargs):
                    counts["dancer.newton_failures"] += 1
            return result

        return traced

    def install(self) -> None:
        """Wrap every function of ``LAYERS`` wherever the package imported it."""
        for module in {m for m, _ in LAYERS}:
            importlib.import_module(f"multipeak.{module}")
        namespaces = [
            vars(m) for n, m in list(sys.modules.items())
            if (n == "multipeak" or n.startswith("multipeak.")) and m is not None
        ]
        for (module, func), name in LAYERS.items():
            original = getattr(sys.modules[f"multipeak.{module}"], func)
            wrapper = self._wrap(original, name)
            for ns in namespaces:
                for attr, value in list(ns.items()):
                    if value is original:
                        ns[attr] = wrapper
