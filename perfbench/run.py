"""Benchmark of the bcsgl pipeline, driven from outside the package.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src`` (nothing is installed).  Workloads (see NOTES.md for the reasons
behind each):

    reference   ``bcsgl all`` cold, the same again warm, then again with
                a shortened ``--h-list`` (three fresh processes)
    fine-sweep  ``verify-thm2`` then ``verify-thm3`` down to h = 1/128
    gl-scan     gap solve and coefficients for three potentials, then six
                GL minimizations, in one library process

Every child gets one BLAS thread; the CLI gets ``--workers`` = nproc and
the scan runs serially, so no workload uses more than nproc threads.
Whole workload iterations repeat until the next one would overrun
``--seconds`` (at least one runs).  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` repeats the iterations with a span around each
layer's calls and reports the per-layer metrics and the tracing
overhead.  The report goes to stdout; its last line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracer as tr  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = json.loads((HERE / "reference_values.json").read_text())

THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
EDIT_H_LIST = "0.125,0.0625,0.03125"
FINE_H_LIST = "0.0625,0.03125,0.015625,0.0078125"
#: Hard limit on one run, below the 180 s a run may take.
RUN_LIMIT_S = 170.0

WORKLOADS = {
    "reference": "headline user run on the built-in config; touches every "
                 "layer and the artifact cache (write, read, invalidate)",
    "fine-sweep": "trace and pair sweeps down to h = 1/128: eigensolver-"
                  "bound fiber work, no GL minimization",
    "gl-scan": "gap solves and GL minimizations through the library; "
               "no fiber work",
}

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mib": "MiB"}

_GATE_KEYS = {
    "trace_expansion": [("fitted_order", "order_threshold", 1),
                        ("quartic_term_relative_mismatch", "match_threshold",
                         -1)],
    "pair_distance": [("fitted_order", "order_threshold", 1),
                      ("leading_norm_ratio_drift", "stability_threshold", -1)],
    "energy_upper_bound": [("fitted_order", "order_threshold", 1),
                           ("min_gap", "allowed_slack", 1)],
}


class Ledger:
    """Attempted and failed operations, with the failures named."""

    def __init__(self):
        self.attempted = 0
        self.failures = []
        self.correct = True

    def check(self, ok: bool, what: str, affects_output: bool = True) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
            if affects_output:
                self.correct = False
        return ok

    def close(self, what: str, value, expected, rel=0.0, abs_=0.0) -> bool:
        ok = (isinstance(value, (int, float)) and math.isfinite(value)
              and abs(value - expected) <= abs_ + rel * abs(expected))
        return self.check(ok, f"{what}: got {value!r}, recorded {expected!r}")


class Runner:
    """Starts the child processes of one benchmark run."""

    def __init__(self, work: Path, ledger: Ledger, traced: bool,
                 deadline: float):
        self.work = work
        self.ledger = ledger
        self.traced = traced
        self.deadline = deadline
        self.process_metrics = []
        self.import_s = 0.0
        self.env = {**os.environ, **THREAD_ENV}
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([os.environ["PYTHONPATH"]]
                          if os.environ.get("PYTHONPATH") else []))
        self._spans = 0

    def _run(self, argv: list) -> tuple:
        timeout = max(5.0, self.deadline - time.monotonic())
        start = time.perf_counter()
        try:
            proc = subprocess.run(argv, cwd=ROOT, env=self.env,
                                  capture_output=True, text=True,
                                  timeout=timeout)
            code, out, err = proc.returncode, proc.stdout, proc.stderr
        except subprocess.TimeoutExpired as exc:
            code, out, err = -1, "", f"timed out after {exc.timeout:.0f} s"
        return time.perf_counter() - start, code, out, err

    def _collect(self, spans_path: Path) -> None:
        if not spans_path.is_file():
            return
        data = json.loads(spans_path.read_text())
        spans_path.unlink()
        spans = [tuple(s) for s in data["spans"]]
        self.process_metrics.append(tr.process_metrics(spans))
        self.import_s += data["import_s"]

    def cli(self, args: list, label: str) -> tuple:
        """Run one bcsgl command; returns (seconds, parsed stdout or None)."""
        if self.traced:
            self._spans += 1
            spans = self.work / f"spans-{self._spans}.json"
            argv = [sys.executable, str(HERE / "traced_cli.py"), str(spans)]
        else:
            spans = None
            argv = [sys.executable, "-m", "bcsgl.cli"]
        seconds, code, out, err = self._run(argv + [str(a) for a in args])
        if spans is not None:
            self._collect(spans)
        payload = _parse_json(out)
        status = payload.get("status") if payload else None
        self.ledger.check(code == 0 and status == "ok",
                          f"{label}: exit {code}, status {status!r}"
                          + (f", stderr: {err.strip()[-300:]}" if code else ""))
        return seconds, payload

    def scan(self, seed: int) -> tuple:
        """Run the GL scan process; returns (seconds, parsed stdout or None)."""
        argv = [sys.executable, str(HERE / "scan.py"), str(seed)]
        spans = None
        if self.traced:
            spans = self.work / "spans-scan.json"
            argv.append(str(spans))
        seconds, code, out, err = self._run(argv)
        if spans is not None:
            self._collect(spans)
        payload = _parse_json(out)
        self.ledger.check(code == 0 and payload is not None,
                          f"gl-scan: exit {code}, stderr: {err.strip()[-300:]}")
        return seconds, payload


def _parse_json(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return None


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


def _artifact_digests(out: Path) -> dict:
    return {str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.rglob("*")) if p.is_file()}


def _artifact_bytes(out: Path) -> int:
    return sum(p.stat().st_size for p in out.rglob("*") if p.is_file())


def _check_h_points(ledger: Ledger, out: Path, sweeps, h_list: str,
                    label: str) -> int:
    """One operation per requested h point of each sweep; a point missing
    from ``report.h_values`` in ``sweeps/<name>.json`` fails."""
    requested = [float(h) for h in h_list.split(",")]
    dropped = 0
    for name in sweeps:
        path = out / "sweeps" / f"{name}.json"
        payload = _parse_json(path.read_text()) if path.is_file() else None
        kept = set(payload["report"]["h_values"]) if payload else set()
        for h in requested:
            if not ledger.check(h in kept, f"{label}: {name} dropped h={h}"):
                dropped += 1
    return dropped


def _check_gates(ledger: Ledger, name: str, gates: dict, label: str) -> float:
    """One operation per gate; returns the smallest relative margin."""
    for key in sorted(k for k in gates if k.endswith("_ok")):
        ledger.check(bool(gates[key]), f"{label}: {name} gate {key} failed")
    margins = []
    for value_key, threshold_key, sign in _GATE_KEYS[name]:
        value, threshold = gates.get(value_key), gates.get(threshold_key)
        if isinstance(value, (int, float)) and threshold:
            margins.append(sign * (value - threshold) / abs(threshold))
    return _finite_min(margins)


def _finite_min(values):
    finite = [v for v in values if v is not None and math.isfinite(v)]
    return min(finite) if finite else None


def _check_orders(ledger: Ledger, sweeps: dict, recorded: dict,
                  label: str) -> None:
    tol = REFERENCE["tolerances"]["fitted_order_abs"]
    for name, expected in recorded.items():
        got = sweeps.get(name, {}).get("fitted_order")
        ledger.close(f"{label}: {name} fitted order", got, expected, abs_=tol)


def _check_all(ledger: Ledger, payload, out: Path, h_list: str,
               recorded: dict, label: str, cache: dict) -> tuple:
    """Checks on one ``bcsgl all``; returns (smallest gate margin,
    dropped h points)."""
    if not payload or "pipeline" not in payload:
        ledger.check(False, f"{label}: no pipeline output")
        return None, 0
    pipe, tol = payload["pipeline"], REFERENCE["tolerances"]
    rel = tol["scalar_rel"]
    ledger.close(f"{label}: T_c", pipe["T_c"], recorded["T_c"], rel=rel)
    coef = pipe["coefficients"]
    ledger.close(f"{label}: B1", coef["B1"][0][0], recorded["B1"], rel=rel)
    for key in ("B2", "B3"):
        ledger.close(f"{label}: {key}", coef[key], recorded[key], rel=rel)
    ledger.close(f"{label}: GL energy", pipe["gl_energy"],
                 recorded["gl_energy"], rel=tol["gl_energy_rel"])
    _check_orders(ledger, pipe["sweeps"], recorded["fitted_order"], label)
    ledger.check(payload["properties"]["all_passed"],
                 f"{label}: property checks failed: "
                 f"{payload['properties']['failures']}")
    margin = _finite_min(_check_gates(ledger, name, gates, label)
                         for name, gates in sorted(pipe["sweeps"].items()))
    dropped = _check_h_points(ledger, out, pipe["sweeps"], h_list, label)
    for hit in pipe["cached_stages"].values():
        cache["hits" if hit else "misses"] += 1
    return margin, dropped


# ---------------------------------------------------------------------------
# Workloads: one iteration each; returns step times and observations
# ---------------------------------------------------------------------------


def iterate_reference(runner: Runner, seed: int, index: int,
                      workers: int) -> dict:
    out = runner.work / f"reference-{index}"
    recorded = REFERENCE["reference"]
    ledger, cache = runner.ledger, {"hits": 0, "misses": 0}
    base = ["--out", out, "--workers", workers, "--seed", seed]
    full_h_list = ",".join(str(h) for h in recorded["h_list"])
    cold_s, cold = runner.cli(base + ["all"], "cold")
    checks = [_check_all(ledger, cold, out, full_h_list, recorded["full"],
                         "cold", cache)]
    digests = _artifact_digests(out)
    warm_s, warm = runner.cli(base + ["all"], "warm")
    checks.append(_check_all(ledger, warm, out, full_h_list,
                             recorded["full"], "warm", cache))
    ledger.check(_artifact_digests(out) == digests,
                 "warm: artifacts not byte-identical to the cold run's")
    edit_s, edit = runner.cli(base + ["--h-list", EDIT_H_LIST, "all"], "edit")
    checks.append(_check_all(ledger, edit, out, EDIT_H_LIST,
                             recorded["edit"], "edit", cache))
    size = _artifact_bytes(out)
    shutil.rmtree(out, ignore_errors=True)
    return {"steps": {"cold_s": cold_s, "warm_s": warm_s, "edit_s": edit_s},
            "gate_margin_min": _finite_min(margin for margin, _ in checks),
            "dropped": sum(dropped for _, dropped in checks),
            "cache": cache, "artifact_bytes": size}


def iterate_fine_sweep(runner: Runner, seed: int, index: int,
                       workers: int) -> dict:
    out = runner.work / f"fine-sweep-{index}"
    recorded = REFERENCE["fine-sweep"]
    ledger, cache = runner.ledger, {"hits": 0, "misses": 0}
    base = ["--out", out, "--workers", workers, "--seed", seed,
            "--h-list", FINE_H_LIST]
    total, margins, dropped = 0.0, [], 0
    for command, name in (("verify-thm2", "trace_expansion"),
                          ("verify-thm3", "pair_distance")):
        seconds, payload = runner.cli(base + [command], command)
        total += seconds
        gates = (payload or {}).get("gates", {})
        _check_orders(ledger, {name: gates}, {name: recorded["fitted_order"]
                                              [name]}, command)
        margins.append(_check_gates(ledger, name, gates, command))
        dropped += _check_h_points(ledger, out, [name], FINE_H_LIST, command)
        if payload and "cached" in payload:
            cache["hits" if payload["cached"] else "misses"] += 1
    gap = _parse_json((out / "gap.json").read_text()) \
        if (out / "gap.json").is_file() else None
    ledger.close("fine-sweep: T_c", (gap or {}).get("solution", {})
                 .get("T_c"), recorded["T_c"],
                 rel=REFERENCE["tolerances"]["scalar_rel"])
    size = _artifact_bytes(out)
    shutil.rmtree(out, ignore_errors=True)
    return {"steps": {"sweep_s": total},
            "gate_margin_min": _finite_min(margins),
            "dropped": dropped, "cache": cache, "artifact_bytes": size}


def iterate_gl_scan(runner: Runner, seed: int, index: int,
                    workers: int) -> dict:
    recorded, tol = REFERENCE["gl-scan"], REFERENCE["tolerances"]
    ledger = runner.ledger
    seconds, payload = runner.scan(seed)
    payload = payload or {"gaps": [], "minima": []}
    gaps = {g["potential"]: g for g in payload["gaps"]}
    for label, expected in recorded["gaps"].items():
        got = gaps.get(label, {})
        for key, value in expected.items():
            ledger.close(f"gl-scan: {label} {key}", got.get(key), value,
                         rel=tol["scalar_rel"])
    minima = {f"{m['potential']}/{m['field']}": m for m in payload["minima"]}
    for key, energy in recorded["energies"].items():
        got = minima.get(key, {})
        ledger.close(f"gl-scan: {key} GL energy", got.get("energy"), energy,
                     rel=tol["gl_energy_rel"])
        ledger.check(bool(got.get("converged")),
                     f"gl-scan: {key} minimize converged=False "
                     f"(|grad| = {got.get('gradient_norm')})",
                     affects_output=False)
    return {"steps": {"scan_s": seconds},
            "calls": {"gap_call_s": [g["seconds"] for g in payload["gaps"]],
                      "minimize_call_s": [m["seconds"]
                                          for m in payload["minima"]]},
            "gate_margin_min": None, "dropped": 0,
            "cache": {"hits": 0, "misses": 0}, "artifact_bytes": 0}


ITERATE = {"reference": iterate_reference, "fine-sweep": iterate_fine_sweep,
           "gl-scan": iterate_gl_scan}


# ---------------------------------------------------------------------------
# Machine block and statistics
# ---------------------------------------------------------------------------


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable (not a git checkout)"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def machine_block(runner: Runner, seed: int, workers: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "thread_env": {k: runner.env[k] for k in THREAD_ENV},
        "workers": workers,
        "git_commit": _git_commit(),
        "seed": seed,
    }


def summary(values: list) -> dict:
    """Median, and the highest percentile with at least ten samples above
    it (null below 20 samples, where that would sit under the median)."""
    values = sorted(values)
    n = len(values)
    out = {"median": statistics.median(values) if values else None, "n": n,
           "p_hi": None, "p_hi_level": None}
    if n >= 20:
        out["p_hi"] = values[n - 11]
        out["p_hi_level"] = round(100.0 * (n - 10) / n, 1)
    return out


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "bcsgl" / "cli.py").is_file():
        print(f"error: no bcsgl sources under {SRC}; run from the root of "
              "a source checkout", file=sys.stderr)
        return 2

    t_run = time.monotonic()
    work = ROOT / ".perfbench-work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ledger = Ledger()
    traced = bool(args.trace)
    runner = Runner(work, ledger, traced, t_run + RUN_LIMIT_S)
    nproc = len(os.sched_getaffinity(0))
    workers = 1 if args.workload == "gl-scan" else nproc
    try:
        machine = machine_block(runner, args.seed, workers)
        setup = []
        if not traced:
            for _ in range(3):
                seconds, _ = runner.cli(["validate"], "setup")
                setup.append(seconds)
        iterations = []
        start = time.perf_counter()
        while True:
            iterations.append(ITERATE[args.workload](
                runner, args.seed, len(iterations), workers))
            elapsed = time.perf_counter() - start
            per_iteration = elapsed / len(iterations)
            if (elapsed + per_iteration > args.seconds
                    or time.monotonic() + 2 * per_iteration
                    > t_run + RUN_LIMIT_S):
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    samples = {}
    for it in iterations:
        for key, value in {**it["steps"], **it.get("calls", {})}.items():
            samples.setdefault(key, []).extend(
                value if isinstance(value, list) else [value])
    samples["wall_s"] = [sum(it["steps"].values()) for it in iterations]
    if setup:
        samples["setup_s"] = setup
    end_to_end = {name: {**summary(values), "unit": "s"}
                  for name, values in samples.items()}
    end_to_end["peak_rss_mib"] = {
        "value": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        / 1024.0, "unit": "MiB"}
    end_to_end["fail_ratio"] = {
        "value": len(ledger.failures) / ledger.attempted, "unit": "ratio",
        "failed": len(ledger.failures), "attempted": ledger.attempted}
    margin = _finite_min(it["gate_margin_min"] for it in iterations)
    if margin is not None:
        end_to_end["gate_margin_min"] = {"value": margin, "unit": "ratio"}
    report = {
        "workload": args.workload,
        "why": WORKLOADS[args.workload],
        "trace": args.trace,
        "machine": machine,
        "iterations": len(iterations),
        "end_to_end": end_to_end,
        "failures": ledger.failures,
    }
    if traced:
        layers = tr.combine(runner.process_metrics, len(iterations))
        per_span = tr.calibrate()
        traced_wall = end_to_end["wall_s"]["median"]
        layers["cli.import_s"] = runner.import_s / len(iterations)
        for key in ("hits", "misses"):
            layers[f"cli.cache_{key}"] = statistics.mean(
                it["cache"][key] for it in iterations)
        layers["cli.artifact_bytes"] = statistics.mean(
            it["artifact_bytes"] for it in iterations)
        layers["bdg_verifier.dropped_points"] = statistics.mean(
            it["dropped"] for it in iterations)
        layers["tracing.overhead_s"] = layers["tracing.spans"] * per_span
        layers["tracing.overhead_share"] = (layers["tracing.overhead_s"]
                                            / traced_wall)
        report["tracing"] = {
            "per_span_s": per_span, "traced_wall_s": traced_wall,
            "note": "overhead_s = spans x per-span cost of a wrapped no-op; "
                    "the traced wall_s against an untraced run's wall_s "
                    "gives the measured overhead"}
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in tr.LAYER_METRICS.items()}
    else:
        values = {"setup_s": end_to_end["setup_s"]["median"],
                  "wall_s": end_to_end["wall_s"]["median"],
                  "peak_rss_mib": end_to_end["peak_rss_mib"]["value"]}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    report["metrics"] = metrics
    print(json.dumps(report, indent=2, default=str))
    print(json.dumps({"correct": ledger.correct,
                      "attempted": ledger.attempted,
                      "failed": len(ledger.failures),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
