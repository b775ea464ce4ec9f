"""In-memory span tracing of the fracsmooth layers, installed from outside.

The library has no instrumentation of its own, so the tracer replaces each
traced function with a wrapper at every place it is bound: the defining
module, every ``fracsmooth`` module that imported it by name (``zeros``
imports ``z_span``/``z_many``/``z_eval``, ``moduli`` imports ``apply_diff``,
``lp_norm`` and ``psi_many``), the package namespace, and the backend module
object that ``kernel`` calls through (``_impl.gk15_panels``).  Each call
records one span: name, start, end, parent span and an optional size (points,
panels, records).  Per-layer metrics are derived from the spans afterwards.
"""
from __future__ import annotations

import json
import os
import sys
import time

import numpy as np

def _len_arg1(args, kwargs, result):
    return int(np.size(args[1]))


def _n_rows_failed(args, kwargs, result):
    return sum(1 for r in result if r.error is not None)


def _lost(args, kwargs, result):
    return int(result is None)


def _n_records(args, kwargs, result):
    return len(result)


def _grid_n(args, kwargs, result):
    return int(args[1])


def _out_bytes(args, kwargs, result):
    argv = list(args[0])
    if "--out" in argv:
        path = argv[argv.index("--out") + 1]
        if path != "-" and os.path.exists(path):
            return os.path.getsize(path)
    return 0


# (span name, module, attribute, size of one call or None).  Span names are
# "<module>.<function>"; the backend primitives are named "pykernels.*"
# whichever backend module is active (metric names may not start with "_").
# Only what the metrics need is wrapped, plus the library calls under
# ``cli.main`` (``scan_zero_set``, ``curve_points``) so that its self time is
# the CLI's own parsing and output writing.
TRACED = [
    ("pykernels.gk15_panels", "fracsmooth._backend.impl", "gk15_panels",
     _len_arg1),
    ("kernel.z_span", "fracsmooth.kernel", "z_span", None),
    ("kernel.z_many", "fracsmooth.kernel", "z_many", _len_arg1),
    ("kernel.psi_many", "fracsmooth.kernel", "psi_many", _len_arg1),
    ("kernel.curve_points", "fracsmooth.kernel", "curve_points", None),
    ("zeros.scan_zero_set", "fracsmooth.zeros", "scan_zero_set", _n_records),
    ("zeros._column", "fracsmooth.zeros", "_column", None),
    ("zeros._bisect_y", "fracsmooth.zeros", "_bisect_y", None),
    ("zeros._bisect_crossing", "fracsmooth.zeros", "_bisect_crossing", _lost),
    ("zeros._zero_in_window", "fracsmooth.zeros", "_zero_in_window", None),
    ("zeros.find_beta0", "fracsmooth.zeros", "find_beta0", None),
    ("fracdiff.apply_diff", "fracsmooth.fracdiff", "apply_diff", None),
    ("signal.lp_norm", "fracsmooth.signal", "lp_norm", None),
    ("signal.grid_values", "fracsmooth.signal", "grid_values", _grid_n),
    ("moduli.equivalence_scan", "fracsmooth.moduli", "equivalence_scan",
     _n_rows_failed),
    ("moduli.classical_modulus", "fracsmooth.moduli", "classical_modulus",
     None),
    ("moduli.integral_modulus", "fracsmooth.moduli", "integral_modulus", None),
    ("moduli.linearized_modulus", "fracsmooth.moduli", "linearized_modulus",
     None),
    ("moduli.star_modulus", "fracsmooth.moduli", "star_modulus", None),
    ("approx.near_best_error", "fracsmooth.approx", "near_best_error", None),
    ("multiplier.make_g_tau", "fracsmooth.multiplier", "make_g_tau", None),
    ("multiplier.beurling_bound", "fracsmooth.multiplier", "beurling_bound",
     None),
    ("cli.main", "fracsmooth.cli", "main", _out_bytes),
]


def _resolve(path):
    """Module object for a dotted path; the last part may be a module
    attribute (``fracsmooth._backend.impl``)."""
    head, _, attr = path.rpartition(".")
    if path in sys.modules:
        return sys.modules[path]
    return getattr(sys.modules[head], attr)


class Tracer:
    """Records spans as [name index, parent index, start, end, size]."""

    def __init__(self):
        self.names = []
        self.spans = []
        self.absent = []
        self._stack = []
        self._patches = []

    def _wrap(self, name, fn, size):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            rec = [name_id, stack[-1] if stack else -1, 0.0, 0.0, 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if size is not None:
                rec[4] = size(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every function of TRACED at each place it is bound."""
        import fracsmooth  # noqa: F401 - loads the package and the backend
        import fracsmooth.cli  # noqa: F401
        modules = [m for k, m in sys.modules.items()
                   if k == "fracsmooth" or k.startswith("fracsmooth.")]
        for name, owner, attr, size in TRACED:
            original = getattr(_resolve(owner), attr, None)
            if original is None:
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original, size)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self):
        for mod, key, original in reversed(self._patches):
            setattr(mod, key, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "absent": self.absent,
                       "fields": ["name", "parent", "start", "end", "size"],
                       "spans": self.spans}, fh)


class SpanStats:
    """Per-name aggregates over a finished trace."""

    def __init__(self, tracer):
        self.names = tracer.names
        spans = tracer.spans
        n = len(tracer.names)
        self.calls = [0] * n
        self.size = [0] * n
        self.self_s = [0.0] * n
        self.total_s = [0.0] * n
        self._spans = spans
        child_time = [0.0] * len(spans)
        for rec in spans:
            dur = rec[3] - rec[2]
            if rec[1] >= 0:
                child_time[rec[1]] += dur
        for i, rec in enumerate(spans):
            k = rec[0]
            dur = rec[3] - rec[2]
            self.calls[k] += 1
            self.size[k] += rec[4]
            self.self_s[k] += dur - child_time[i]
            if not self._inside(i, k):
                self.total_s[k] += dur

    def _inside(self, i, name_id):
        """Whether span i has an ancestor span with the given name."""
        p = self._spans[i][1]
        while p >= 0:
            if self._spans[p][0] == name_id:
                return True
            p = self._spans[p][1]
        return False

    def get(self, name, field):
        """``calls``, ``size``, ``self_s`` or ``total_s`` of one span name;
        0 when the name was never called or is absent from the program."""
        if name not in self.names:
            return 0
        return getattr(self, field)[self.names.index(name)]

    def calls_under(self, name, ancestor):
        """Calls of ``name`` made (at any depth) inside ``ancestor``."""
        if name not in self.names or ancestor not in self.names:
            return 0
        k, a = self.names.index(name), self.names.index(ancestor)
        return sum(1 for i, rec in enumerate(self._spans)
                   if rec[0] == k and self._inside(i, a))


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(stats, overhead_s):
    """The per-layer metric values named in BENCHMARK.json."""
    g = stats.get
    return {
        "pykernels.gk15_panels.calls": g("pykernels.gk15_panels", "calls"),
        "pykernels.gk15_panels.panels": g("pykernels.gk15_panels", "size"),
        "pykernels.gk15_panels.self_s": g("pykernels.gk15_panels", "self_s"),
        "kernel.z_span.calls": g("kernel.z_span", "calls"),
        "kernel.z_span.self_s": g("kernel.z_span", "self_s"),
        "kernel.z_many.calls": g("kernel.z_many", "calls"),
        "kernel.z_many.points": g("kernel.z_many", "size"),
        "kernel.z_many.self_s": g("kernel.z_many", "self_s"),
        "kernel.psi_many.points": g("kernel.psi_many", "size"),
        "kernel.psi_many.total_s": g("kernel.psi_many", "total_s"),
        "zeros._column.total_s": g("zeros._column", "total_s"),
        "zeros._bisect_crossing.total_s": g("zeros._bisect_crossing",
                                            "total_s"),
        "zeros.find_beta0.total_s": g("zeros.find_beta0", "total_s"),
        "zeros.y_steps_per_bracket": _ratio(
            stats.calls_under("kernel.z_span", "zeros._bisect_y"),
            g("zeros._bisect_y", "calls")),
        "zeros.beta_steps_per_crossing": _ratio(
            stats.calls_under("zeros._zero_in_window",
                              "zeros._bisect_crossing"),
            g("zeros._bisect_crossing", "calls")),
        "zeros.records": g("zeros.scan_zero_set", "size"),
        "zeros.lost_branches": g("zeros._bisect_crossing", "size"),
        "fracdiff.apply_diff.calls": g("fracdiff.apply_diff", "calls"),
        "fracdiff.apply_diff.self_s": g("fracdiff.apply_diff", "self_s"),
        "signal.lp_norm.calls": g("signal.lp_norm", "calls"),
        "signal.lp_norm.self_s": g("signal.lp_norm", "self_s"),
        "signal.grid_values.points": g("signal.grid_values", "size"),
        "moduli.classical_modulus.total_s": g("moduli.classical_modulus",
                                              "total_s"),
        "moduli.integral_modulus.total_s": g("moduli.integral_modulus",
                                             "total_s"),
        "moduli.linearized_modulus.total_s": g("moduli.linearized_modulus",
                                               "total_s"),
        "moduli.star_modulus.total_s": g("moduli.star_modulus", "total_s"),
        "moduli.rows_failed": g("moduli.equivalence_scan", "size"),
        "approx.near_best_error.total_s": g("approx.near_best_error",
                                            "total_s"),
        "multiplier.beurling_bound.total_s": g("multiplier.beurling_bound",
                                               "total_s"),
        "multiplier.make_g_tau.total_s": g("multiplier.make_g_tau", "total_s"),
        "cli.main.self_s": g("cli.main", "self_s"),
        "cli.output_bytes": g("cli.main", "size"),
        "trace.overhead_s": overhead_s,
    }
