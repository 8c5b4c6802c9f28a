"""In-memory span tracer installed around the public functions of bcsgl.

The tracer wraps module attributes from outside the package, so the
program itself carries no tracing code.  Each wrapped call records one
span ``(id, name, start, end, parent, attrs)``; spans are kept in memory
and written out once, when the traced process ends.  A span opened in a
worker thread with no open span of its own takes the main thread's
innermost open span as its parent (the fiber and descent pools are
started from there).

``process_metrics`` and ``combine`` turn the spans of one or more processes into the
per-layer numbers of the benchmark.  Self time is a span's duration
minus the part of its interval covered by its children.
"""

from __future__ import annotations

import itertools
import json
import math
import threading
import time
from collections import defaultdict

#: Span names whose subtree is the fiber work of one sweep point.
SWEEP_SPANS = {
    "bdg_verifier.semiclassical_trace": "trace",
    "bdg_verifier.alpha_delta_distance": "pair",
    "bdg_verifier.trial_state_energy": "energy",
}

#: h values (as 1/h) that get their own per-point metrics.
H_LABELS = (8, 16, 32, 64, 128)


class Tracer:
    """Spans of one process, recorded by the wrappers it hands out."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = []
        self._main = threading.main_thread()

    def _stack(self):
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, attrs=None):
        """Return ``fn`` wrapped in a span; ``attrs(args, kwargs, result)``
        may add a dict of attributes after a successful call."""
        spans, ids, main_stack = self.spans, self._ids, self._main_stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            elif stack is not main_stack and main_stack:
                parent = main_stack[-1]
            else:
                parent = None
            sid = next(ids)
            stack.append(sid)
            result = extra = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                if attrs is not None and result is not None:
                    extra = attrs(args, kwargs, result)
                spans.append((sid, name, start, end, parent, extra))

        return traced

    def dump(self, path, extra: dict):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, **extra}, fh)


def calibrate(calls: int = 20000) -> float:
    """Seconds a span adds to one call, measured on a no-op function."""
    def noop(x):
        return x

    wrapped = Tracer().wrap("noop", noop)
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        for i in range(calls):
            noop(i)
        t1 = time.perf_counter()
        for i in range(calls):
            wrapped(i)
        t2 = time.perf_counter()
        best = min(best, ((t2 - t1) - (t1 - t0)) / calls)
    return max(best, 0.0)


# ---------------------------------------------------------------------------
# Installation around the bcsgl modules
# ---------------------------------------------------------------------------


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _matrix_size(args, kwargs, result):
    a = _arg(args, kwargs, 0, "a")
    return {"n": int(a.shape[-1])}


def _points(args, kwargs, result):
    import numpy as np
    return {"points": int(np.size(args[1]))}


def _h_attr(args, kwargs, result):
    return {"h": float(_arg(args, kwargs, 4, "h"))}


def _fiber_attrs(args, kwargs, result):
    basis = _arg(args, kwargs, 0, "basis")
    xi = _arg(args, kwargs, 1, "xi")
    psi, a, w = (_arg(args, kwargs, i, k)
                 for i, k in ((2, "psi"), (3, "a"), (4, "w")))
    mu = _arg(args, kwargs, 6, "mu")
    key = hash((basis.h, basis.n_max, float(xi), psi.coeffs.tobytes(),
                a.coeffs.tobytes(), w.coeffs.tobytes(), float(mu)))
    return {"h": basis.h, "n_max": basis.n_max, "key": key}


def _minimize_attrs(args, kwargs, result):
    return {"iterations": int(sum(rec.get("iterations", 0)
                                  for rec in result.history)),
            "converged": bool(result.converged)}


def _suite_attrs(args, kwargs, result):
    return {"failed": sum(1 for r in result if not r.passed)}


def install(tracer: Tracer) -> None:
    """Wrap each layer's public functions where their callers look them up.

    ``cli`` imports ``find_tc``, ``normalize``, ``compute_coefficients``
    and ``minimize`` by name and ``bdg_verifier`` imports
    ``e2_constants`` by name, so those bindings are replaced as well.
    """
    import numpy.linalg
    import scipy.linalg

    from bcsgl import bdg_verifier, cli, gap_solver, gl_coeffs, gl_minimizer
    from bcsgl import properties, specfun

    def patch(owners, attr, name, attrs=None):
        original = getattr(owners[0], attr)
        wrapped = tracer.wrap(name, original, attrs)
        for owner in owners:
            setattr(owner, attr, wrapped)

    patch([scipy.linalg], "eigh", "scipy.linalg.eigh", _matrix_size)
    patch([numpy.linalg], "eigh", "numpy.linalg.eigh", _matrix_size)
    patch([numpy.linalg], "eigvalsh", "numpy.linalg.eigvalsh", _matrix_size)

    patch([gap_solver, cli], "find_tc", "gap_solver.find_tc")
    patch([gap_solver, cli], "normalize", "gap_solver.normalize")
    patch([gap_solver.GapSolution], "t", "gap_solver.t", _points)

    patch([gl_coeffs, cli], "compute_coefficients",
          "gl_coeffs.compute_coefficients")
    patch([gl_coeffs, bdg_verifier], "e2_constants", "gl_coeffs.e2_constants")

    patch([gl_minimizer, cli], "minimize", "gl_minimizer.minimize",
          _minimize_attrs)
    patch([gl_minimizer], "gl_energy", "gl_minimizer.gl_energy")
    patch([gl_minimizer], "gl_gradient", "gl_minimizer.gl_gradient")

    for attr in SWEEP_SPANS:
        patch([bdg_verifier], attr.split(".")[1], attr, _h_attr)
    patch([bdg_verifier], "build_fiber", "bdg_verifier.build_fiber",
          _fiber_attrs)

    patch([specfun], "fermi_f", "specfun.fermi")
    patch([specfun], "fermi_rho", "specfun.fermi")
    patch([specfun], "divided_difference", "specfun.divided_difference")

    patch([properties], "run_suite", "properties.run_suite", _suite_attrs)
    patch([cli], "validate_config", "cli.validate_config")
    patch([cli], "run_pipeline", "cli.run_pipeline")


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


def _layer_metrics() -> dict:
    """Per-layer metric name -> unit, in report order."""
    names = [
        ("gap_solver.find_tc_s", "s"), ("gap_solver.find_tc_calls", "count"),
        ("gap_solver.lambda_evals", "count"),
        ("gap_solver.pair_symbol_s", "s"),
        ("gap_solver.pair_symbol_points", "count"),
        ("gl_coeffs.compute_s", "s"), ("gl_coeffs.e2_constants_s", "s"),
        ("gl_minimizer.minimize_s", "s"),
        ("gl_minimizer.energy_evals", "count"),
        ("gl_minimizer.gradient_evals", "count"),
        ("gl_minimizer.eval_s", "s"), ("gl_minimizer.iterations", "count"),
        ("gl_minimizer.unconverged", "count"),
    ]
    for kind in ("trace", "pair", "energy"):
        names += [(f"bdg_verifier.{kind}_s.h{h}", "s") for h in H_LABELS]
    names += [(f"bdg_verifier.n_max.h{h}", "count") for h in H_LABELS]
    names += [
        ("bdg_verifier.fibers_built", "count"),
        ("bdg_verifier.build_fiber_s", "s"),
        ("bdg_verifier.eig_calls", "count"), ("bdg_verifier.eig_s", "s"),
        ("bdg_verifier.eig_flops", "flop"),
        ("bdg_verifier.eig_per_fiber", "ratio"),
        ("bdg_verifier.dropped_points", "count"),
        ("specfun.fermi_calls", "count"), ("specfun.fermi_s", "s"),
        ("specfun.divided_difference_s", "s"),
        ("properties.suite_s", "s"), ("properties.checks_failed", "count"),
        ("cli.import_s", "s"), ("cli.validate_s", "s"),
        ("cli.run_pipeline_s", "s"), ("cli.cache_hits", "count"),
        ("cli.cache_misses", "count"), ("cli.artifact_bytes", "bytes"),
        ("tracing.spans", "count"), ("tracing.overhead_s", "s"),
        ("tracing.overhead_share", "ratio"),
    ]
    return dict(names)


#: Per-layer metric name -> unit.
LAYER_METRICS = _layer_metrics()


def _self_times(spans) -> dict:
    """Span id -> duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for sid, _, start, end, parent, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = {}
    for sid, _, start, end, _, _ in spans:
        covered, cursor = 0.0, start
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out[sid] = (end - start) - covered
    return out


def process_metrics(spans) -> dict:
    """Per-layer sums over the spans of one traced process."""
    by_id = {s[0]: s for s in spans}
    self_time = _self_times(spans)

    def ancestors(span):
        parent = span[4]
        while parent is not None:
            up = by_id[parent]
            yield up
            parent = up[4]

    def in_sweep(span):
        """Under a sweep observable and outside the property suite."""
        names = {up[1] for up in ancestors(span)}
        return (not names.isdisjoint(SWEEP_SPANS)
                and "properties.run_suite" not in names)

    m = defaultdict(float)
    fibers = set()
    for span in spans:
        sid, name, start, end, _, attrs = span
        dur = end - start
        if name == "gap_solver.find_tc":
            m["gap_solver.find_tc_s"] += dur
            m["gap_solver.find_tc_calls"] += 1
        elif name == "scipy.linalg.eigh":
            if any(up[1] == "gap_solver.find_tc" for up in ancestors(span)):
                m["gap_solver.lambda_evals"] += 1
        elif name == "gap_solver.t":
            if in_sweep(span):
                m["gap_solver.pair_symbol_s"] += dur
                m["gap_solver.pair_symbol_points"] += (attrs or {}).get(
                    "points", 0)
        elif name == "gl_coeffs.compute_coefficients":
            m["gl_coeffs.compute_s"] += dur
        elif name == "gl_coeffs.e2_constants":
            m["gl_coeffs.e2_constants_s"] += dur
        elif name == "gl_minimizer.minimize":
            m["gl_minimizer.minimize_s"] += dur
            if attrs:
                m["gl_minimizer.iterations"] += attrs["iterations"]
                m["gl_minimizer.unconverged"] += not attrs["converged"]
        elif name in ("gl_minimizer.gl_energy", "gl_minimizer.gl_gradient"):
            key = ("gl_minimizer.energy_evals" if name.endswith("energy")
                   else "gl_minimizer.gradient_evals")
            m[key] += 1
            m["gl_minimizer.eval_s"] += self_time[sid]
        elif name in SWEEP_SPANS:
            if attrs and not any(up[1] == "properties.run_suite"
                                 for up in ancestors(span)):
                label = round(1.0 / attrs["h"])
                if label in H_LABELS:
                    m[f"bdg_verifier.{SWEEP_SPANS[name]}_s.h{label}"] += dur
        elif name == "bdg_verifier.build_fiber":
            if in_sweep(span) and attrs:
                m["bdg_verifier.fibers_built"] += 1
                m["bdg_verifier.build_fiber_s"] += dur
                fibers.add(attrs["key"])
                label = round(1.0 / attrs["h"])
                if label in H_LABELS:
                    m[f"bdg_verifier.n_max.h{label}"] = attrs["n_max"]
        elif name in ("numpy.linalg.eigh", "numpy.linalg.eigvalsh"):
            if in_sweep(span):
                m["bdg_verifier.eig_calls"] += 1
                m["bdg_verifier.eig_s"] += dur
                m["bdg_verifier.eig_flops"] += float(attrs["n"]) ** 3
        elif name == "specfun.fermi":
            m["specfun.fermi_calls"] += 1
            m["specfun.fermi_s"] += dur
        elif name == "specfun.divided_difference":
            m["specfun.divided_difference_s"] += dur
        elif name == "properties.run_suite":
            m["properties.suite_s"] += dur
            if attrs:
                m["properties.checks_failed"] += attrs["failed"]
        elif name == "cli.validate_config":
            m["cli.validate_s"] += dur
        elif name == "cli.run_pipeline":
            m["cli.run_pipeline_s"] += dur
    m["_distinct_fibers"] = len(fibers)
    m["tracing.spans"] = len(spans)
    return dict(m)


def combine(per_process: list, iterations: int) -> dict:
    """Sum process metrics, average over iterations, fill absent names."""
    total = defaultdict(float)
    for metrics in per_process:
        for key, value in metrics.items():
            if key.startswith("bdg_verifier.n_max."):
                total[key] = max(total[key], value)
            else:
                total[key] += value
    eig, distinct = total["bdg_verifier.eig_calls"], total["_distinct_fibers"]
    out = {}
    for name in LAYER_METRICS:
        value = total.get(name, 0.0)
        if not name.startswith("bdg_verifier.n_max."):
            value /= iterations
        out[name] = value
    out["bdg_verifier.eig_per_fiber"] = eig / distinct if distinct else 0.0
    return out
