"""Pipeline command line: configuration, orchestration, caching, reports.

The ``bcsgl`` entry point reads a JSON run configuration, executes the
stage chain

    gap solve -> normalize -> coefficients -> energy minimization
    -> semiclassical sweeps

and writes machine-readable artifacts (``gap.json``, ``coeffs.json``,
``gl.json``, ``sweeps/*.json``, ``report.csv``) into the configured
output directory.  Every artifact embeds the content hash of the
normalized configuration and of the package source; a re-run with an
unchanged configuration and code leaves the files untouched, and a
change to either recomputes every affected stage.

Exit codes: 0 success, 2 configuration error, 3 numerical failure,
4 acceptance regression (a convergence gate or property check failed).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

from . import bdg_verifier as bv
from . import properties
from .gap_solver import (
    GapSolution,
    MomentumGrid,
    NoPairingError,
    PotentialSpec,
    find_tc,
    normalize,
)
from .gl_coeffs import GLCoefficients, compute_coefficients
from .gl_minimizer import GLState, TorusField, minimize

__all__ = [
    "ConfigError",
    "RunConfig",
    "main",
    "prop_test_suite",
    "run_pipeline",
    "validate_config",
]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_REGRESSION = 4

DEFAULT_H_LIST = (0.125, 0.0625, 0.03125, 0.015625)

#: Fixed two-mode pair field used by the trace and distance sweeps.
_SWEEP_PSI = TorusField.from_modes({0: 0.75, 1: 0.2 + 0.1j}, n_max=2)

_GATE_TRACE_ORDER = 4.5
_GATE_TRACE_MATCH = 0.05
_GATE_PAIR_ORDER = 2.3
_GATE_PAIR_STABILITY = 0.05
_GATE_ENERGY_ORDER = 0.8
_GATE_ENERGY_SLACK = 0.1


class ConfigError(Exception):
    """Invalid run configuration; carries one entry per violated key."""

    def __init__(self, violations: list[dict]):
        self.violations = violations
        super().__init__("; ".join(
            f"{v['key']}: {v['message']}" for v in violations))


class StageError(Exception):
    """A pipeline stage failed; rendered as an error JSON naming it."""

    def __init__(self, stage: str, kind: str, message: str):
        self.stage = stage
        self.kind = kind
        super().__init__(message)


@dataclass(frozen=True)
class RunConfig:
    """Validated, normalized run configuration."""

    potential: PotentialSpec
    D: float
    w_field: TorusField
    a_field: TorusField
    gap_grid: MomentumGrid
    torus_n_max: int
    fiber_m: int
    h_list: tuple
    outputs: Path
    seed: int
    normalized: dict

    @property
    def config_hash(self) -> str:
        """SHA-256 of the normalized config and of the package source.

        The output directory is not an input of any stage, so it is left
        out: a copy of a finished output directory is a cache hit.
        """
        inputs = {k: v for k, v in self.normalized.items() if k != "outputs"}
        payload = json.dumps(inputs, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(
            (_code_digest() + payload).encode()).hexdigest()


@functools.lru_cache(maxsize=None)
def _code_digest() -> str:
    """SHA-256 of this package's ``*.py`` files, so that the artifact
    cache never serves a result that different code produced."""
    digest = hashlib.sha256()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# Configuration ingestion
# ---------------------------------------------------------------------------


def default_config() -> dict:
    """The built-in reference run: every key except ``D`` has a default."""
    return {
        "potential": {"family": "gaussian_well", "g": 2.0, "w": 1.0,
                      "mu": 1.0, "dim": 1},
        "D": 1.0,
        "fields": {"W": [[1, 0.5]], "A": []},
        "grids": {"gap": None, "torus_n_max": 32, "fiber_m": 16,
                  "h_list": list(DEFAULT_H_LIST)},
        "outputs": "bcsgl-out",
        "seed": 0,
    }


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_finite_number(value) -> bool:
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


def _check_field_list(key: str, entries, errors: list) -> list:
    normalized = []
    if not isinstance(entries, list):
        errors.append({"key": key, "message": "must be a list of "
                       "[frequency, amplitude] pairs"})
        return normalized
    for i, entry in enumerate(entries):
        where = f"{key}[{i}]"
        if (not isinstance(entry, (list, tuple)) or len(entry) != 2):
            errors.append({"key": where,
                           "message": "must be a [frequency, amplitude] pair"})
            continue
        freq, amp = entry
        if not (_is_int(freq) and freq >= 0):
            errors.append({"key": where,
                           "message": "frequency must be an integer >= 0"})
            continue
        if not _is_finite_number(amp):
            errors.append({"key": where,
                           "message": "amplitude must be a finite number"})
            continue
        normalized.append([int(freq), float(amp)])
    return normalized


def _field_from_list(entries: list) -> TorusField:
    total = TorusField.zero(0)
    for freq, amp in entries:
        if freq == 0:
            total = total + TorusField.constant(amp)
        else:
            total = total + TorusField.cosine(amp, freq)
    return total


def _validate_raw(raw: dict) -> RunConfig:
    errors: list[dict] = []
    if not isinstance(raw, dict):
        raise ConfigError([{"key": "", "message": "top level must be a "
                            "JSON object"}])
    defaults = default_config()
    known = set(defaults)
    for key in raw:
        if key not in known:
            errors.append({"key": key, "message": "unknown key"})

    # -- potential ---------------------------------------------------------
    pot_raw = raw.get("potential", defaults["potential"])
    potential = None
    if not isinstance(pot_raw, dict):
        errors.append({"key": "potential", "message": "must be an object"})
    else:
        merged = {**defaults["potential"], **pot_raw}
        for key in pot_raw:
            if key not in defaults["potential"]:
                errors.append({"key": f"potential.{key}",
                               "message": "unknown key"})
        family = merged["family"]
        if family not in ("gaussian_well", "square_well"):
            errors.append({
                "key": "potential.family",
                "message": "must be 'gaussian_well' or 'square_well'",
            })
        for name in ("g", "w", "mu"):
            if not _is_finite_number(merged[name]):
                errors.append({"key": f"potential.{name}",
                               "message": "must be a finite number"})
        if not (_is_int(merged["dim"]) and merged["dim"] == 1):
            errors.append({"key": "potential.dim",
                           "message": "the pipeline runs in dimension 1"})
        if not any(e["key"].startswith("potential") for e in errors):
            g, w, mu = (float(merged[k]) for k in ("g", "w", "mu"))
            pot_norm = {"family": family, "g": g, "w": w, "mu": mu, "dim": 1}
            try:
                potential = PotentialSpec(family, {"g": g, "w": w}, mu, 1)
            except ValueError as exc:
                key = ("potential.g" if "depth" in str(exc)
                       else "potential.w")
                errors.append({"key": key, "message": str(exc)})

    # -- D -----------------------------------------------------------------
    d_value = None
    if "D" not in raw:
        errors.append({"key": "D", "message": "required (temperature-"
                       "distance parameter; no default)"})
    elif not _is_finite_number(raw["D"]) or raw["D"] <= 0:
        errors.append({"key": "D", "message": "must be a finite number > 0"})
    else:
        d_value = float(raw["D"])

    # -- fields ------------------------------------------------------------
    fields_raw = raw.get("fields", {})
    if not isinstance(fields_raw, dict):
        errors.append({"key": "fields", "message": "must be an object"})
        fields_raw = {}
    for key in fields_raw:
        if key not in ("W", "A"):
            errors.append({"key": f"fields.{key}", "message": "unknown key"})
    w_list = _check_field_list(
        "fields.W", fields_raw.get("W", defaults["fields"]["W"]), errors)
    a_list = _check_field_list(
        "fields.A", fields_raw.get("A", defaults["fields"]["A"]), errors)

    # -- grids -------------------------------------------------------------
    grids_raw = raw.get("grids", {})
    if not isinstance(grids_raw, dict):
        errors.append({"key": "grids", "message": "must be an object"})
        grids_raw = {}
    for key in grids_raw:
        if key not in defaults["grids"]:
            errors.append({"key": f"grids.{key}", "message": "unknown key"})
    merged_grids = {**defaults["grids"], **grids_raw}

    gap_grid = None
    gap_raw = merged_grids["gap"]
    if gap_raw is not None:
        if (not isinstance(gap_raw, dict)
                or set(gap_raw) != {"cutoff", "n_points"}):
            errors.append({"key": "grids.gap", "message": "must be null or "
                           "an object with keys 'cutoff' and 'n_points'"})
        elif not _is_finite_number(gap_raw["cutoff"]):
            errors.append({"key": "grids.gap.cutoff",
                           "message": "must be a finite number"})
        elif not _is_int(gap_raw["n_points"]):
            errors.append({"key": "grids.gap.n_points",
                           "message": "must be an integer"})
        else:
            try:
                gap_grid = MomentumGrid(float(gap_raw["cutoff"]),
                                        gap_raw["n_points"])
            except ValueError as exc:
                errors.append({"key": "grids.gap", "message": str(exc)})
    elif potential is not None:
        gap_grid = MomentumGrid.default_for(potential)

    n_max = merged_grids["torus_n_max"]
    if not (_is_int(n_max) and n_max >= 1):
        errors.append({"key": "grids.torus_n_max",
                       "message": "must be an integer >= 1"})
    fiber_m = merged_grids["fiber_m"]
    if not (_is_int(fiber_m) and fiber_m >= 1):
        errors.append({"key": "grids.fiber_m",
                       "message": "must be an integer >= 1"})

    h_list = merged_grids["h_list"]
    if (not isinstance(h_list, list) or not h_list
            or not all(_is_finite_number(h) for h in h_list)):
        errors.append({"key": "grids.h_list",
                       "message": "must be a nonempty list of finite numbers"})
    else:
        if not all(0.0 < h < 1.0 for h in h_list):
            errors.append({"key": "grids.h_list",
                           "message": "entries must lie in (0, 1)"})
        if any(b >= a for a, b in zip(h_list, h_list[1:])):
            errors.append({"key": "grids.h_list",
                           "message": "must be strictly decreasing"})

    # -- outputs / seed ----------------------------------------------------
    outputs = raw.get("outputs", defaults["outputs"])
    if not isinstance(outputs, str) or not outputs:
        errors.append({"key": "outputs",
                       "message": "must be a nonempty path string"})
    seed = raw.get("seed", defaults["seed"])
    if not _is_int(seed):
        errors.append({"key": "seed", "message": "must be an integer"})

    if errors:
        raise ConfigError(errors)

    normalized = {
        "potential": pot_norm,
        "D": d_value,
        "fields": {"W": w_list, "A": a_list},
        "grids": {
            "gap": {"cutoff": gap_grid.cutoff,
                    "n_points": gap_grid.n_points},
            "torus_n_max": int(n_max),
            "fiber_m": int(fiber_m),
            "h_list": [float(h) for h in h_list],
        },
        "outputs": outputs,
        "seed": int(seed),
    }
    return RunConfig(
        potential=potential,
        D=d_value,
        w_field=_field_from_list(w_list),
        a_field=_field_from_list(a_list),
        gap_grid=gap_grid,
        torus_n_max=int(n_max),
        fiber_m=int(fiber_m),
        h_list=tuple(float(h) for h in h_list),
        outputs=Path(outputs),
        seed=int(seed),
        normalized=normalized,
    )


def validate_config(path, overrides: dict | None = None) -> RunConfig:
    """Load, schema-check and normalize a JSON run configuration.

    Parameters
    ----------
    path : str or Path or None
        Configuration file; ``None`` uses the built-in reference run.
    overrides : dict, optional
        Command-line overrides (``outputs``, ``seed``, ``h_list``)
        applied to the raw configuration before validation, so the
        content hash reflects them.

    Returns
    -------
    RunConfig

    Raises
    ------
    ConfigError
        With one entry per violated key.
    """
    if path is None:
        raw = default_config()
    else:
        path = Path(path)
        if not path.is_file():
            raise ConfigError([{"key": "--config",
                                "message": f"file not found: {path}"}])
        try:
            raw = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError([{"key": "--config",
                                "message": f"invalid JSON: {exc}"}]) from exc
    if overrides:
        if "outputs" in overrides:
            raw["outputs"] = overrides["outputs"]
        if "seed" in overrides:
            raw["seed"] = overrides["seed"]
        if "h_list" in overrides:
            raw.setdefault("grids", {})
            if isinstance(raw["grids"], dict):
                raw["grids"]["h_list"] = overrides["h_list"]
    return _validate_raw(raw)


# ---------------------------------------------------------------------------
# Artifact cache
# ---------------------------------------------------------------------------


def _write_atomic(path: Path, text: str) -> None:
    """Write through a temporary file in the same directory, then
    ``os.replace`` it, so an interrupted write never leaves a partial
    artifact in place of a complete one."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _dump_json(path: Path, payload: dict) -> None:
    _write_atomic(path, json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _load_cached(path: Path, config_hash: str) -> dict | None:
    """Artifact content if it exists and was produced by this config."""
    if not path.is_file():
        return None
    try:
        payload = json.loads(path.read_text())
    except (json.JSONDecodeError, OSError):
        return None
    if payload.get("config_hash") != config_hash:
        return None
    return payload


def _stage(cfg: RunConfig, name: str, stage: str, compute
           ) -> tuple[dict, bool]:
    """Run one stage through the artifact cache; returns (payload,
    was_cached).

    The artifact ``name`` under the output directory is read back when it
    carries ``cfg.config_hash``; otherwise ``compute()`` gives the payload,
    which is written with that hash.  A failure becomes a
    :class:`StageError` naming ``stage``.
    """
    path = cfg.outputs / name
    cached = _load_cached(path, cfg.config_hash)
    if cached is not None:
        return cached, True
    try:
        payload = {"config_hash": cfg.config_hash, **compute()}
    except StageError:
        raise
    except NoPairingError as exc:
        raise StageError(stage, "no-pairing", str(exc)) from exc
    except Exception as exc:
        raise StageError(stage, "numerical", repr(exc)) from exc
    _dump_json(path, payload)
    return payload, False


# ---------------------------------------------------------------------------
# Pipeline stages
# ---------------------------------------------------------------------------


class _Run:
    """The stages of one command, each read back or computed at most once.

    Hits and misses alike are decoded from the artifact payload.  A stage
    runs its upstream stages only when its own artifact is missing or
    stale; a sweep reads them before its h loop, which would otherwise
    record their failure as dropped points.  ``cached`` records, for
    every stage run so far, whether its artifact was read back.
    """

    def __init__(self, cfg: RunConfig, workers: int):
        self.cfg, self.workers = cfg, workers
        self.cached, self._sweeps = {}, {}

    def _payload(self, key: str, name: str, stage: str, compute) -> dict:
        payload, self.cached[key] = _stage(self.cfg, name, stage, compute)
        return payload

    @functools.cached_property
    def sol(self) -> GapSolution:
        cfg = self.cfg
        payload = self._payload("gap", "gap.json", "gap", lambda: {
            "solution": normalize(find_tc(cfg.potential, cfg.gap_grid),
                                  cfg.D).to_dict()})
        return GapSolution.from_dict(payload["solution"])

    @functools.cached_property
    def coef(self) -> GLCoefficients:
        payload = self._payload("coeffs", "coeffs.json", "coeffs", lambda: {
            "coefficients": compute_coefficients(self.sol).to_dict()})
        return GLCoefficients.from_dict(payload["coefficients"])

    @functools.cached_property
    def state(self) -> GLState:
        cfg = self.cfg
        payload = self._payload("gl-min", "gl.json", "gl-min", lambda: {
            "state": minimize(cfg.a_field, cfg.w_field, self.coef,
                              n_max=cfg.torus_n_max, seed=cfg.seed).to_dict()})
        return GLState.from_dict(payload["state"])

    @functools.cached_property
    def fiber_reports(self) -> dict:
        """Trace-expansion and pair-distance reports, keyed by artifact
        name, from one ``alpha_delta_distance`` per h, so both share their
        kept and dropped points."""
        cfg, sol = self.cfg, self.sol

        def observe(h):
            res = bv.alpha_delta_distance(
                sol, _SWEEP_PSI, cfg.a_field, cfg.w_field, h,
                m_fibers=cfg.fiber_m, workers=self.workers)
            # how far the residual sits above the roundoff of its lhs
            res["residual_over_floor"] = (abs(res["residual"])
                                          / res["lhs_floor"])
            return res["residual"], res

        # a reference of 0.0 leaves the residuals as they are, so the fit
        # of the shared sweep is the trace record's
        shared = bv.h_sweep(observe, cfg.h_list, reference=0.0,
                            label="trace_expansion and pair_distance")

        def record(label, extra_keys, **fields):
            return {**shared, "label": label, **fields, "extras": [
                {k: res[k] for k in (*extra_keys, *bv.LADDER_KEYS)}
                for res in shared["extras"]]}

        h1 = [float(res["h1_distance"]) for res in shared["extras"]]
        return {
            "trace_expansion": record(
                "trace_expansion",
                ("lhs", "e1_term", "e2_term", "residual_over_floor")),
            "pair_distance": record(
                "pair_distance", ("l2_distance", "l2_leading"), observed=h1,
                fitted_order=bv.fit_order(shared["h_values"], h1)),
        }

    def sweep(self, command: str) -> dict:
        """Payload of the artifact of the sweep ``command`` runs.

        The trace and pair sweeps come from one fiber pass, so the one
        that computes it writes the other's artifact too.
        """
        name, run_sweep, _ = _SWEEPS[command]
        if name in self._sweeps:
            return self._sweeps[name]

        def compute():
            report, gates = run_sweep(self)
            # A dropped h point is listed in the report's failures;
            # dropping the finest one also fails the sweep, whose fit then
            # stops short of it.
            gates["finest_point_ok"] = self.cfg.h_list[-1] in report["h_values"]
            gates["passed"] = all(gates[k] for k in gates if k.endswith("_ok"))
            return {"report": report, "gates": gates,
                    "passed": gates["passed"]}

        self._sweeps[name] = self._payload(name, f"sweeps/{name}.json",
                                           command, compute)
        if command in _FIBER_SWEEPS and not self.cached[name]:
            for other in _FIBER_SWEEPS:
                self.sweep(other)
        return self._sweeps[name]


def _trace_sweep(run: _Run) -> tuple[dict, dict]:
    report = run.fiber_reports["trace_expansion"]
    last = report["extras"][-1]
    match = abs(report["observed"][-1]) / max(abs(last["e2_term"]), 1e-300)
    return report, {
        "fitted_order": report["fitted_order"],
        "order_threshold": _GATE_TRACE_ORDER,
        "order_ok": bool(report["fitted_order"] >= _GATE_TRACE_ORDER),
        "quartic_term_relative_mismatch": match,
        "match_threshold": _GATE_TRACE_MATCH,
        "match_ok": bool(match <= _GATE_TRACE_MATCH),
    }


def _pair_sweep(run: _Run) -> tuple[dict, dict]:
    report = run.fiber_reports["pair_distance"]
    ratios = [e["l2_leading"] ** 2 / h
              for h, e in zip(report["h_values"], report["extras"])]
    if len(ratios) >= 2:
        drift = abs(ratios[-1] - ratios[-2]) / max(abs(ratios[-2]), 1e-300)
    else:
        drift = 0.0
    return report, {
        "fitted_order": report["fitted_order"],
        "order_threshold": _GATE_PAIR_ORDER,
        "order_ok": bool(report["fitted_order"] >= _GATE_PAIR_ORDER),
        "leading_norm_ratio_drift": drift,
        "stability_threshold": _GATE_PAIR_STABILITY,
        "stability_ok": bool(drift <= _GATE_PAIR_STABILITY),
    }


def _energy_sweep(run: _Run) -> tuple[dict, dict]:
    cfg, sol, coef, state = run.cfg, run.sol, run.coef, run.state
    target = state.energy - coef.B3

    def observe(h):
        res = bv.trial_state_energy(
            sol, state.psi, cfg.a_field, cfg.w_field, h,
            m_fibers=cfg.fiber_m, workers=run.workers)
        return res["scaled"], {k: res[k] for k in (
            "beta", "m_fibers", "capped", "f_bcs_diff_floor",
            "delta_f_bcs_diff")}

    report = bv.h_sweep(observe, cfg.h_list, reference=target,
                        label="energy_upper_bound")
    gaps = [obs - target for obs in report["observed"]]
    slack = _GATE_ENERGY_SLACK * abs(gaps[0])
    magnitudes = [abs(g) for g in gaps]
    return report, {
        "gaps": gaps,
        "min_gap": min(gaps),
        "allowed_slack": -slack,
        "sign_ok": bool(all(g >= -slack for g in gaps)),
        "decreasing_ok": bool(all(b < a for a, b in
                                  zip(magnitudes, magnitudes[1:]))),
        "fitted_order": report["fitted_order"],
        "order_threshold": _GATE_ENERGY_ORDER,
        "order_ok": bool(report["fitted_order"] >= _GATE_ENERGY_ORDER),
    }


#: How the trace and pair sweeps share their fiber pass, for both helps.
_FIBER_PASS_HELP = ("one fiber pass per h writes both the verify-thm2 and "
                    "verify-thm3 artifacts, doubling its Bloch momenta up "
                    "to fiber_m until lhs and the pair norms stop moving")

#: Sweep command -> (artifact name, sweep, help text).
_SWEEPS = {
    "verify-thm2": ("trace_expansion", _trace_sweep,
                    "trace-expansion order sweep; " + _FIBER_PASS_HELP),
    "verify-thm3": ("pair_distance", _pair_sweep,
                    "pair-operator distance sweep; " + _FIBER_PASS_HELP),
    "verify-energy": ("energy_upper_bound", _energy_sweep,
                      "trial-state energy upper-bound sweep, doubling "
                      "its Bloch momenta from the first M above 2 h u_max "
                      "(u_max the reach of V) up to fiber_m until the "
                      "free-energy difference stops moving"),
}


#: The sweeps that share one fiber pass (:attr:`_Run.fiber_reports`).
_FIBER_SWEEPS = ("verify-thm2", "verify-thm3")


def _write_report_csv(cfg: RunConfig, payloads: dict) -> None:
    lines = ["sweep,h,observable,target,residual"]
    for name, payload in payloads.items():
        report = payload["report"]
        ref = report["reference"]
        for h, obs in zip(report["h_values"], report["observed"]):
            lines.append(f"{name},{h!r},{obs!r},{ref!r},{obs - ref!r}")
    path = cfg.outputs / "report.csv"
    content = "\n".join(lines) + "\n"
    if path.is_file() and path.read_text() == content:
        return
    _write_atomic(path, content)


def run_pipeline(cfg: RunConfig, workers: int = 1) -> dict:
    """Execute every stage, honoring the artifact cache.

    Returns a summary dict; raises StageError on numerical failure.
    """
    run = _Run(cfg, workers)
    # every upstream stage before any sweep, so none runs if one fails
    sol, coef, state = run.sol, run.coef, run.state
    payloads = {name: run.sweep(command)
                for command, (name, _, _) in _SWEEPS.items()}
    _write_report_csv(cfg, payloads)
    return {
        "config_hash": cfg.config_hash,
        "T_c": sol.T_c,
        "coefficients": coef.to_dict(),
        "gl_energy": state.energy,
        "sweeps": {name: payload["gates"]
                   for name, payload in payloads.items()},
        "all_gates_passed": all(p["passed"] for p in payloads.values()),
        "cached_stages": run.cached,
    }


def prop_test_suite(seed: int = 0) -> dict:
    """Run the named invariant checks; summarize failures with witnesses."""
    results = properties.run_suite(seed=seed)
    failures = [r.to_dict() for r in results if not r.passed]
    return {
        "total": len(results),
        "passed": len(results) - len(failures),
        "failures": failures,
        "all_passed": not failures,
    }


# ---------------------------------------------------------------------------
# Command line
# ---------------------------------------------------------------------------


def _emit(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True, indent=2))


def _config_error(exc: ConfigError) -> int:
    _emit({"status": "error", "stage": "config",
           "violations": exc.violations})
    return EXIT_CONFIG


def _stage_error(exc: StageError) -> int:
    _emit({"status": "error", "stage": exc.stage, "kind": exc.kind,
           "message": str(exc)})
    return EXIT_NUMERICAL


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bcsgl",
        description="Microscopic-to-macroscopic superconductivity "
                    "pipeline: gap solve, coefficient extraction, energy "
                    "minimization, and semiclassical verification sweeps.",
    )
    parser.add_argument("--config", metavar="PATH", default=None,
                        help="JSON run configuration (default: built-in "
                             "reference run)")
    parser.add_argument("--out", metavar="DIR", default=None,
                        help="override the output directory")
    parser.add_argument("--workers", metavar="N", type=int,
                        default=os.cpu_count() or 1,
                        help="worker threads for the per-fiber sweep "
                             "work only; GL descents always run serially "
                             "(default: hardware parallelism).  Workers "
                             "multiply with BLAS threads: the finest pair "
                             "point (h = 1/128, 2 cores) took 2.87 s with "
                             "2 BLAS threads x 2 workers, 1.84 s with 2 x 1 "
                             "and 1.47 s with 1 x 2, so run with "
                             "OPENBLAS_NUM_THREADS=1")
    parser.add_argument("--seed", metavar="K", type=int, default=None,
                        help="override the configured random seed")
    parser.add_argument("--h-list", metavar="a,b,c", default=None,
                        help="override the semiclassical h values "
                             "(comma-separated, strictly decreasing)")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in [
        ("validate", "check the configuration and print its normalized "
                     "form"),
        ("tc", "solve for the critical temperature"),
        ("coeffs", "derive the macroscopic coefficients"),
        ("gl-min", "minimize the macroscopic energy"),
        *((command, entry[2]) for command, entry in _SWEEPS.items()),
        ("prop-tests", "run the named invariant checks"),
        ("all", "full pipeline plus invariant checks"),
    ]:
        sub.add_parser(name, help=text)
    return parser


def _parse_h_list(text: str) -> list:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError([{"key": "--h-list",
                            "message": f"invalid float: {exc}"}]) from exc


def _load_config(args) -> RunConfig:
    overrides = {}
    if args.out is not None:
        overrides["outputs"] = args.out
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.h_list is not None:
        overrides["h_list"] = _parse_h_list(args.h_list)
    return validate_config(args.config, overrides)


def _cmd_validate(cfg: RunConfig) -> int:
    _emit({"status": "ok", "config_hash": cfg.config_hash,
           "normalized": cfg.normalized})
    return EXIT_OK


def _cmd_stage(run: _Run, command: str) -> int:
    """``tc``, ``coeffs`` or ``gl-min``: one stage and what it needs."""
    if command == "tc":
        key, body = "gap", {"T_c": run.sol.T_c, "beta_c": run.sol.beta_c}
    elif command == "coeffs":
        key, body = command, {"coefficients": run.coef.to_dict()}
    else:
        state = run.state
        key, body = command, {"energy": state.energy,
                              "gradient_norm": state.gradient_norm,
                              "converged": state.converged}
    _emit({"status": "ok", **body, "config_hash": run.cfg.config_hash,
           "cached": run.cached[key]})
    return EXIT_OK


def _cmd_verify(run: _Run, command: str) -> int:
    payload = run.sweep(command)
    name = _SWEEPS[command][0]
    status = "ok" if payload["passed"] else "regression"
    _emit({"status": status, "sweep": name, "gates": payload["gates"],
           "config_hash": run.cfg.config_hash, "cached": run.cached[name]})
    return EXIT_OK if payload["passed"] else EXIT_REGRESSION


def _cmd_prop_tests(seed: int) -> int:
    summary = prop_test_suite(seed=seed)
    status = "ok" if summary["all_passed"] else "regression"
    _emit({"status": status, **summary})
    return EXIT_OK if summary["all_passed"] else EXIT_REGRESSION


def _cmd_all(cfg: RunConfig, workers: int) -> int:
    pipeline = run_pipeline(cfg, workers)
    props = prop_test_suite(seed=cfg.seed)
    ok = pipeline["all_gates_passed"] and props["all_passed"]
    _emit({"status": "ok" if ok else "regression",
           "pipeline": pipeline, "properties": props})
    return EXIT_OK if ok else EXIT_REGRESSION


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "prop-tests":
            seed = args.seed if args.seed is not None else 0
            return _cmd_prop_tests(seed)
        cfg = _load_config(args)
        if args.command == "validate":
            return _cmd_validate(cfg)
        if args.command == "all":
            return _cmd_all(cfg, args.workers)
        run = _Run(cfg, args.workers)
        if args.command in _SWEEPS:
            return _cmd_verify(run, args.command)
        return _cmd_stage(run, args.command)
    except ConfigError as exc:
        return _config_error(exc)
    except StageError as exc:
        return _stage_error(exc)


if __name__ == "__main__":
    sys.exit(main())
