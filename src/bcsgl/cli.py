"""Pipeline command line: configuration, orchestration, caching, reports.

The ``bcsgl`` entry point reads a JSON run configuration, executes the
stage chain

    gap solve -> normalize -> coefficients -> energy minimization
    -> semiclassical sweeps

and writes machine-readable artifacts (``gap.json``, ``coeffs.json``,
``gl.json``, ``sweeps/*.json``, ``report.csv``, and under ``all`` and
``prop-tests`` the property suite's ``properties.json``) into the
configured output directory.  Every artifact carries the ``key`` of its
own inputs and of the package source: the gap solve keys on the
potential, the gap grid and D; the coefficients on the gap key; the GL
minimum on that key, the fields, ``torus_n_max`` and the seed; a sweep
on its upstream key and the h-list; the property suite on the gap,
coefficient and GL keys, whose results it checks.  The stages, the suite
and the h points (``points/<key>.json``) are read back or computed: a
fiber point (shared by the trace and pair sweeps) keys on the gap key,
the fields, ``fiber_m`` and h, an energy point on the GL key,
``fiber_m`` and h.  ``points/`` is never pruned; it holds one small file
per distinct (key, h).  A sweep, one row of ``_SWEEPS``, is a view of
the h points of its kind: their fit and its gates, refitted on every run
and, like ``report.csv``, written when its bytes change.  A re-run
leaves every file byte-identical, and an edited run recomputes only what
its edit touches and writes the bytes of a cold run of the edited
config.

The module imports the standard library alone; NumPy and the numerical
modules load in the first stage, h point or property suite that
computes.  So ``validate`` and every command whose artifacts and h
points are all read back (a warm ``all``, a cached ``tc``, a sweep or
an edited ``all`` whose h points are on disk) run without them, while
a command that computes (``tc`` on a fresh output directory, a cold
``all``) loads them.  A cached result is reported from
its artifact payload; objects are decoded from it only for a stage that
computes on them, and a sweep is refitted from its points' payloads.

A command computes on one :class:`~concurrent.futures.ThreadPoolExecutor`
of ``--workers`` threads: every stage, h point and the property suite
that is not read back is a task on it, and the main thread only reads
back, decodes, queues and waits.  The h points of its sweeps are queued
finest h first, behind the stage chain, and each point folds its fibers
serially on its own thread; under ``all`` the property suite is queued
behind the h points.  So at most ``--workers`` threads compute at once,
and no artifact depends on that count.

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
from collections import namedtuple
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

from . import (LADDER_KEYS, POTENTIAL_RULES, d_error, default_gap_grid,
               gap_grid_coverage_error, gap_grid_error, h_list_errors,
               h_sweep)

__all__ = [
    "ConfigError",
    "RunConfig",
    "main",
    "run_pipeline",
    "validate_config",
]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_REGRESSION = 4

DEFAULT_H_LIST = (0.125, 0.0625, 0.03125, 0.015625)

#: Modes of the fixed pair field used by the trace and distance sweeps.
_SWEEP_PSI_MODES = {0: 0.75, 1: 0.2 + 0.1j}

_GATE_TRACE_MATCH = 0.05
_GATE_PAIR_STABILITY = 0.05
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
    """Validated, normalized run configuration.

    The fields are plain data.  The objects a stage computes on, the
    potential, the gap grid and the two external fields, are built from
    ``normalized`` on first use.
    """

    D: float
    torus_n_max: int
    fiber_m: int
    h_list: tuple
    outputs: Path
    seed: int
    normalized: dict

    @functools.cached_property
    def potential(self):
        """The :class:`gap_solver.PotentialSpec`."""
        from .gap_solver import PotentialSpec

        pot = self.normalized["potential"]
        return PotentialSpec(pot["family"], pot["g"], pot["w"], pot["mu"])

    @functools.cached_property
    def gap_grid(self):
        """The :class:`gap_solver.MomentumGrid` of the gap solve."""
        from .gap_solver import MomentumGrid

        return MomentumGrid.from_dict(self.normalized["grids"]["gap"])

    @functools.cached_property
    def w_field(self):
        """The external potential ``W``, a :class:`gl_minimizer.TorusField`."""
        return _field_from_list(self.normalized["fields"]["W"])

    @functools.cached_property
    def a_field(self):
        """The vector potential ``A``, a :class:`gl_minimizer.TorusField`."""
        return _field_from_list(self.normalized["fields"]["A"])

    @property
    def config_hash(self) -> str:
        """:func:`_key` of the normalized config without ``outputs``."""
        return _key({k: v for k, v in self.normalized.items()
                     if k != "outputs"})


@functools.lru_cache(maxsize=None)
def _code_digest() -> str:
    """SHA-256 of this package's ``*.py`` files, so that the artifact
    cache never serves a result that different code produced."""
    digest = hashlib.sha256()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _key(*inputs) -> str:
    """SHA-256 of the package digest and of ``inputs`` as canonical JSON.

    No key covers the output directory, which is not an input of any
    stage: a copy of a finished output directory is a cache hit.
    """
    payload = json.dumps(inputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256((_code_digest() + payload).encode()).hexdigest()


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


def _finite(rule=lambda value: None):
    """Rule of a leaf that is a finite number obeying ``rule``."""
    return lambda value: (rule(value) if _is_finite_number(value)
                          else "must be a finite number")


def _count(value):
    """Rule of a leaf that counts modes or fibers."""
    return None if _is_int(value) and value >= 1 else "must be an integer >= 1"


def _check_field_list(entries, key: str, errors: list) -> list:
    if not isinstance(entries, list):
        errors.append({"key": key, "message": "must be a list of "
                       "[frequency, amplitude] pairs"})
        return []
    normalized = []
    for i, entry in enumerate(entries):
        if not isinstance(entry, (list, tuple)) or len(entry) != 2:
            message = "must be a [frequency, amplitude] pair"
        elif not (_is_int(entry[0]) and entry[0] >= 0):
            message = "frequency must be an integer >= 0"
        elif not _is_finite_number(entry[1]):
            message = "amplitude must be a finite number"
        else:
            normalized.append([int(entry[0]), float(entry[1])])
            continue
        errors.append({"key": f"{key}[{i}]", "message": message})
    return normalized


def _check_gap(gap, key: str, errors: list) -> dict | None:
    """A given gap grid, normalized; ``None`` for ``null``, which
    :func:`validate_config` replaces by the potential's default grid."""
    if gap is None:
        return None
    if not isinstance(gap, dict) or set(gap) != {"cutoff", "n_points"}:
        message = ("must be null or an object with keys 'cutoff' and "
                   "'n_points'")
    elif not _is_finite_number(gap["cutoff"]):
        key, message = f"{key}.cutoff", "must be a finite number"
    elif not _is_int(gap["n_points"]):
        key, message = f"{key}.n_points", "must be an integer"
    else:
        message = gap_grid_error(gap["cutoff"], gap["n_points"])
    if message:
        errors.append({"key": key, "message": message})
        return None
    return {"cutoff": float(gap["cutoff"]), "n_points": gap["n_points"]}


def _check_h_list(h_list, key: str, errors: list) -> list:
    if (not isinstance(h_list, list) or not h_list
            or not all(_is_finite_number(h) for h in h_list)):
        errors.append({"key": key,
                       "message": "must be a nonempty list of finite numbers"})
        return h_list
    errors.extend({"key": key, "message": message}
                  for message in h_list_errors(h_list))
    return [float(h) for h in h_list]


#: The check of each leaf of :func:`default_config`.  A number or string
#: leaf has a rule that returns its violation or ``None``, and takes the
#: type of its default; a list or grid leaf has a check that appends its
#: violations and returns its normalized value.
_LEAVES = {
    "potential.family": POTENTIAL_RULES["family"],
    "potential.g": _finite(POTENTIAL_RULES["g"]),
    "potential.w": _finite(POTENTIAL_RULES["w"]),
    "potential.mu": _finite(),
    "potential.dim": lambda value: (None if _is_int(value) and value == 1
                                    else "the pipeline runs in dimension 1"),
    "D": d_error,
    "fields.W": _check_field_list,
    "fields.A": _check_field_list,
    "grids.gap": _check_gap,
    "grids.torus_n_max": _count,
    "grids.fiber_m": _count,
    "grids.h_list": _check_h_list,
    "outputs": lambda value: (None if isinstance(value, str) and value
                              else "must be a nonempty path string"),
    # NumPy's generators take no negative seed
    "seed": lambda value: ("must be an integer" if not _is_int(value)
                           else None if value >= 0
                           else "must be an integer >= 0"),
}

#: The leaves without a default, and the violation of leaving them out.
_REQUIRED = {"D": "required (temperature-distance parameter; no default)"}


def _merge(raw, defaults: dict, where: str, overrides: dict,
           errors: list) -> dict | None:
    """The object ``raw`` of the config at key ``where``, merged over
    ``defaults`` and normalized, and its violations appended to
    ``errors``: a non-object, each unknown key, and those of each leaf
    (:data:`_LEAVES`).  A leaf named in ``overrides`` takes the value
    given there in place of the configured one."""
    if not isinstance(raw, dict):
        errors.append({"key": where, "message": "must be an object" if where
                       else "top level must be a JSON object"})
        return None
    prefix = f"{where}." if where else ""
    errors.extend({"key": prefix + name, "message": "unknown key"}
                  for name in raw if name not in defaults)
    merged = {}
    for name, default in defaults.items():
        key = prefix + name
        value = overrides.get(name, raw.get(name, default))
        if isinstance(default, dict):
            merged[name] = _merge(value, default, key, overrides, errors)
        elif key in _REQUIRED and name not in raw:
            errors.append({"key": key, "message": _REQUIRED[key]})
        elif isinstance(default, (int, float, str)):
            message = _LEAVES[key](value)
            if message:
                errors.append({"key": key, "message": message})
            else:
                merged[name] = type(default)(value)
        else:
            merged[name] = _LEAVES[key](value, key, errors)
    return merged


def _field_from_list(entries: list):
    from .gl_minimizer import TorusField

    total = TorusField.zero(0)
    for freq, amp in entries:
        if freq == 0:
            total = total + TorusField.constant(amp)
        else:
            total = total + TorusField.cosine(amp, freq)
    return total


def validate_config(path, overrides: dict | None = None) -> RunConfig:
    """Load, schema-check and normalize a JSON run configuration.

    Parameters
    ----------
    path : str or Path or None
        Configuration file; ``None`` uses the built-in reference run.
    overrides : dict, optional
        Command-line overrides (``outputs``, ``seed``, ``h_list``), each
        replacing the configured value of its key once the objects that
        hold the key are checked, so the content hash reflects them.

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
    errors: list[dict] = []
    config = _merge(raw, default_config(), "", overrides or {}, errors)
    if config is None:
        raise ConfigError(errors)
    # the gap grid's default and coverage depend on valid mu and w
    pot, grids = config["potential"], config["grids"]
    if pot and grids and {"mu", "w"} <= pot.keys():
        if grids["gap"] is None:
            cutoff, n_points = default_gap_grid(pot["mu"], pot["w"])
            grids["gap"] = {"cutoff": cutoff, "n_points": n_points}
        else:
            coverage = gap_grid_coverage_error(grids["gap"]["cutoff"],
                                               pot["mu"], pot["w"])
            if coverage:
                errors.append({"key": "grids.gap", "message": coverage})
    if errors:
        raise ConfigError(errors)
    return RunConfig(D=config["D"], torus_n_max=grids["torus_n_max"],
                     fiber_m=grids["fiber_m"], h_list=tuple(grids["h_list"]),
                     outputs=Path(config["outputs"]), seed=config["seed"],
                     normalized=config)


# ---------------------------------------------------------------------------
# Artifact cache
# ---------------------------------------------------------------------------


def _write_atomic(path: Path, text: str) -> bool:
    """Write through a temporary file in the same directory, then
    ``os.replace`` it, so an interrupted write never leaves a partial
    artifact in place of a complete one; returns whether it wrote.  A
    file that holds these bytes already, UTF-8 or not, is left alone."""
    data = text.encode()
    if path.is_file() and path.read_bytes() == data:
        return False
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    return True


def _dump_json(path: Path, payload: dict) -> bool:
    return _write_atomic(path,
                         json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _load_cached(path: Path, key: str) -> dict | None:
    """Artifact content if it is a JSON object carrying ``key``; a
    missing, unreadable or undecodable file is a miss."""
    try:
        payload = json.loads(path.read_text())
    except (OSError, ValueError):
        return None
    if not isinstance(payload, dict) or payload.get("key") != key:
        return None
    return payload


# ---------------------------------------------------------------------------
# Pipeline stages
# ---------------------------------------------------------------------------


def _guarded(stage: str, compute):
    """``compute()``, whose failure becomes a :class:`StageError` naming
    ``stage``."""
    try:
        return compute()
    except StageError:
        raise
    except Exception as exc:
        raise StageError(stage, "numerical", repr(exc)) from exc


class _Run:
    """The results of one command, each read back or computed at most once.

    Every result, a stage, an h point or the property suite, passes
    through :meth:`_result`: it is read back when its artifact carries
    its key, and otherwise computed by a task on the command's executor,
    ``pool``, of ``workers`` threads.  The main thread only reads back,
    decodes, queues and waits, so no more than ``workers`` threads
    compute.  ``cached`` maps the key of every result asked for so far to
    whether its artifact was read back, and that of every sweep refitted
    so far (:meth:`sweep`) to whether it computed no h point and left its
    artifact as it was.

    A stage's artifact payload is the attribute named after its file
    (:attr:`gap`, :attr:`coeffs`, :attr:`gl`), and :attr:`sol` is the
    decoded gap solution.  Only a result that computes runs the stages it
    reads and decodes objects from their payloads, which loads the
    numerical modules.  A sweep (:meth:`sweep`, from its row of
    :data:`_SWEEPS`) collects the futures of its h points
    (:meth:`submit`), each of which folds its fibers serially on its own
    thread (:func:`bdg_verifier._fold_fibers`).

    The run is a context manager that shuts the executor down,
    cancelling what is still queued.
    """

    def __init__(self, cfg: RunConfig, workers: int):
        self.cfg = cfg
        self.pool = ThreadPoolExecutor(workers)
        self.cached, self._points = {}, {}
        norm, grids = cfg.normalized, cfg.normalized["grids"]
        gap = _key("gap", norm["potential"], grids["gap"], norm["D"])
        coeffs = _key("coeffs", gap)
        gl_min = _key("gl-min", coeffs, norm["fields"], grids["torus_n_max"],
                      norm["seed"])
        fiber = _key("fiber", gap, norm["fields"], grids["fiber_m"])
        energy = _key("energy", gl_min, grids["fiber_m"])
        #: Artifact name -> key; ``fiber`` and ``energy`` are what the h
        #: points of those sweeps read (:meth:`submit`), and the property
        #: suite keys on the three stages it checks.
        self.keys = {"gap": gap, "coeffs": coeffs, "gl-min": gl_min,
                     "fiber": fiber, "energy": energy,
                     "properties": _key("properties", gap, coeffs, gl_min)}
        self.keys |= {row.name: _key(row.name, self.keys[row.kind],
                                     cfg.h_list) for row in _SWEEPS.values()}

    def __enter__(self) -> "_Run":
        return self

    def __exit__(self, *exc) -> None:
        # a failed stage leaves queued tasks unstarted
        self.pool.shutdown(cancel_futures=True)

    def _result(self, path: Path, key: str, prepare) -> Future:
        """The payload of the artifact at ``path``, as a future.

        An artifact that carries ``key`` is read back: a done future.
        Otherwise ``prepare()`` runs on the calling thread; it runs the
        stages the result reads, decodes its inputs, imports its modules
        and returns a compute, which a task on the pool runs and whose
        payload it writes with ``key``.  So no task resolves a stage or is
        the first to load a module, and a failed stage queues nothing.  An
        exception of the compute is the future's and writes nothing.
        """
        payload = _load_cached(path, key)
        self.cached[key] = payload is not None
        if payload is None:
            compute = prepare()

            def task():
                payload = {"key": key, **compute()}
                _dump_json(path, payload)
                return payload

            return self.pool.submit(task)
        done = Future()
        done.set_result(payload)
        return done

    def submit(self, *kinds: str) -> None:
        """Read back, or else queue, the h points of ``kinds`` (``fiber``,
        ``energy``) not yet submitted, finest h first across all of them;
        :meth:`_prepare_point` is the ``prepare`` of each."""
        new = [kind for kind in kinds if kind not in self._points]
        for kind in new:
            self._points[kind] = {}
        for h in reversed(self.cfg.h_list):
            for kind in new:
                key = _key(self.keys[kind], h)
                self._points[kind][h] = self._result(
                    self.cfg.outputs / "points" / f"{key}.json", key,
                    functools.partial(self._prepare_point, kind, h))

    def _prepare_point(self, kind: str, h: float):
        """The ``prepare`` (:meth:`_result`) of the ``kind`` h point at
        ``h``: a ``fiber`` point is :func:`bdg_verifier.alpha_delta_distance`
        of the probe field :data:`_SWEEP_PSI_MODES`, an ``energy`` point
        :func:`bdg_verifier.trial_state_energy` of the GL state.  A
        failure of its compute propagates as it is, so the sweep lists it
        and never caches it."""
        from . import bdg_verifier as bv
        from .gl_minimizer import TorusField

        cfg = self.cfg
        if kind == "fiber":
            observable = bv.alpha_delta_distance
            psi = TorusField.from_modes(_SWEEP_PSI_MODES, n_max=2)
        else:
            observable = bv.trial_state_energy
            psi = TorusField.from_dict(self.gl["state"]["psi"])
        inputs = (self.sol, psi, cfg.a_field, cfg.w_field, h)

        def compute():
            res = observable(*inputs, m_fibers=cfg.fiber_m)
            if kind == "fiber":
                # how far the residual sits above the roundoff of its lhs
                res["residual_over_floor"] = (abs(res["residual"])
                                              / res["lhs_floor"])
            return res

        return compute

    def suite(self) -> Future:
        """The payload of ``properties.json`` (:meth:`_result`): the
        property suite on this run's gap solution, coefficients and GL
        state (:func:`properties.run_suite`), whose failure becomes a
        :class:`StageError` naming it."""
        def prepare():
            from . import properties
            from .gl_coeffs import GLCoefficients
            from .gl_minimizer import TorusField

            cfg = self.cfg
            run = properties.RunObjects(
                self.sol, GLCoefficients.from_dict(self.coeffs["coefficients"]),
                TorusField.from_dict(self.gl["state"]["psi"]), cfg.a_field,
                cfg.w_field, cfg.seed)

            def compute():
                results = properties.run_suite(run)
                failures = [r.to_dict() for r in results if not r.passed]
                return {"total": len(results),
                        "passed": len(results) - len(failures),
                        "failures": failures, "all_passed": not failures}

            return functools.partial(_guarded, "properties", compute)

        return self._result(self.cfg.outputs / "properties.json",
                            self.keys["properties"], prepare)

    @functools.cached_property
    def gap(self) -> dict:
        """Payload of ``gap.json``."""
        cfg = self.cfg

        def prepare():
            from . import gap_solver as gs

            potential, grid = cfg.potential, cfg.gap_grid

            def compute():
                try:
                    sol = gs.find_tc(potential, grid)
                except gs.NoPairingError as exc:
                    raise StageError("gap", "no-pairing", str(exc)) from exc
                return {"solution": gs.normalize(sol, cfg.D).to_dict()}

            return compute

        return _guarded("gap", lambda: self._result(
            cfg.outputs / "gap.json", self.keys["gap"], prepare).result())

    @functools.cached_property
    def sol(self):
        """The :class:`gap_solver.GapSolution` of :attr:`gap`."""
        from .gap_solver import GapSolution

        return GapSolution.from_dict(self.gap["solution"])

    @functools.cached_property
    def coeffs(self) -> dict:
        """Payload of ``coeffs.json``."""
        def prepare():
            from . import gl_coeffs

            sol = self.sol
            return lambda: {"coefficients":
                            gl_coeffs.compute_coefficients(sol).to_dict()}

        return _guarded("coeffs", lambda: self._result(
            self.cfg.outputs / "coeffs.json", self.keys["coeffs"],
            prepare).result())

    @functools.cached_property
    def gl(self) -> dict:
        """Payload of ``gl.json``."""
        cfg = self.cfg

        def prepare():
            from . import gl_minimizer
            from .gl_coeffs import GLCoefficients

            coef = GLCoefficients.from_dict(self.coeffs["coefficients"])
            a, w = cfg.a_field, cfg.w_field
            return lambda: {"state": gl_minimizer.minimize(
                a, w, coef, n_max=cfg.torus_n_max, seed=cfg.seed).to_dict()}

        return _guarded("gl-min", lambda: self._result(
            cfg.outputs / "gl.json", self.keys["gl-min"], prepare).result())

    def sweep(self, command: str) -> dict:
        """Refit the sweep ``command`` runs from its h points, write its
        artifact when the bytes change, and return the artifact payload.

        Every sweep is one :func:`bcsgl.h_sweep` over the h points
        of its kind (:data:`_SWEEPS`), plus its gates.
        """
        row = _SWEEPS[command]

        def refit():
            self.submit(row.kind)
            points = self._points[row.kind]
            # a reference of 0.0 leaves a fiber observable as it is
            reference = (0.0 if row.kind == "fiber"
                         else self.gl["state"]["energy"]
                         - self.coeffs["coefficients"]["B3"])

            def observe(h):
                res = points[h].result()
                return res[row.observed], {k: res[k] for k in row.extras}

            report = h_sweep(observe, self.cfg.h_list,
                             reference=reference, label=row.name)
            order = report["fitted_order"]
            gates = {**row.gates(report), "fitted_order": order,
                     "order_threshold": row.order,
                     "order_ok": order is not None and order >= row.order}
            # A dropped h point is listed in the report's failures;
            # dropping the finest one also fails the sweep, whose fit then
            # stops short of it.
            gates["finest_point_ok"] = self.cfg.h_list[-1] in report["h_values"]
            gates["passed"] = all(gates[k] for k in gates if k.endswith("_ok"))
            return {"key": self.keys[row.name], "report": report,
                    "gates": gates, "passed": gates["passed"]}

        payload = _guarded(command, refit)
        wrote = _dump_json(self.cfg.outputs / "sweeps" / f"{row.name}.json",
                           payload)
        points = (_key(self.keys[row.kind], h) for h in self.cfg.h_list)
        self.cached[self.keys[row.name]] = not wrote and all(
            self.cached[key] for key in points)
        return payload


#: One row of :data:`_SWEEPS`.
_Sweep = namedtuple("_Sweep", "name kind observed extras order gates help")


def _trace_gates(report: dict) -> dict:
    last = report["extras"][-1]
    match = abs(report["observed"][-1]) / max(abs(last["e2_term"]), 1e-300)
    return {
        "quartic_term_relative_mismatch": match,
        "match_threshold": _GATE_TRACE_MATCH,
        "match_ok": bool(match <= _GATE_TRACE_MATCH),
    }


def _pair_gates(report: dict) -> dict:
    ratios = [e["l2_leading"] ** 2 / h
              for h, e in zip(report["h_values"], report["extras"])]
    if len(ratios) >= 2:
        drift = abs(ratios[-1] - ratios[-2]) / max(abs(ratios[-2]), 1e-300)
    else:
        drift = 0.0
    return {
        "leading_norm_ratio_drift": drift,
        "stability_threshold": _GATE_PAIR_STABILITY,
        "stability_ok": bool(drift <= _GATE_PAIR_STABILITY),
    }


def _energy_gates(report: dict) -> dict:
    gaps = [obs - report["reference"] for obs in report["observed"]]
    slack = _GATE_ENERGY_SLACK * abs(gaps[0])
    magnitudes = [abs(g) for g in gaps]
    return {
        "gaps": gaps,
        "min_gap": min(gaps),
        "allowed_slack": -slack,
        "sign_ok": bool(all(g >= -slack for g in gaps)),
        "decreasing_ok": bool(all(b < a for a, b in
                                  zip(magnitudes, magnitudes[1:]))),
    }


#: How the trace and pair sweeps share their fiber pass, for both helps.
_FIBER_PASS_HELP = ("one fiber pass per h writes both the verify-thm2 and "
                    "verify-thm3 artifacts, doubling its Bloch momenta up "
                    "to fiber_m until lhs and the pair norms stop moving")

#: Sweep command -> (artifact name ``sweeps/<name>.json``, kind of its h
#: points, the point key it fits, the point keys kept per h, a fiber
#: point's with its Bloch-ladder record :data:`bcsgl.LADDER_KEYS`, least
#: fitted order that passes, its own gates from its record, help text).
_SWEEPS = {
    "verify-thm2": _Sweep(
        "trace_expansion", "fiber", "residual",
        ("lhs", "e1_term", "e2_term", "residual_over_floor", "window",
         *LADDER_KEYS),
        4.5, _trace_gates,
        "trace-expansion order sweep; " + _FIBER_PASS_HELP),
    "verify-thm3": _Sweep(
        "pair_distance", "fiber", "h1_distance",
        ("l2_distance", "l2_leading", "window", *LADDER_KEYS),
        2.3, _pair_gates,
        "pair-operator distance sweep; " + _FIBER_PASS_HELP),
    # the remainder term and its half-resolution check show, also for a
    # point read back, whether that quadrature converged
    "verify-energy": _Sweep(
        "energy_upper_bound", "energy", "scaled",
        ("beta", "m_fibers", "capped", "f_bcs_diff_floor",
         "delta_f_bcs_diff", "term_remainder", "term_remainder_check",
         "window"),
        0.8, _energy_gates,
        "trial-state energy upper-bound sweep, doubling its Bloch momenta "
        "from the first M above 2 h u_max (u_max the reach of V) up to "
        "fiber_m until the free-energy difference stops moving"),
}


def _write_report_csv(cfg: RunConfig, payloads: dict) -> None:
    lines = ["sweep,h,observable,target,residual"]
    for name, payload in payloads.items():
        report = payload["report"]
        ref = report["reference"]
        for h, obs in zip(report["h_values"], report["observed"]):
            lines.append(f"{name},{h!r},{obs!r},{ref!r},{obs - ref!r}")
    _write_atomic(cfg.outputs / "report.csv", "\n".join(lines) + "\n")


def run_pipeline(cfg: RunConfig, workers: int = 1) -> dict:
    """Execute every stage and the property suite, honoring the artifact
    cache, on ``workers`` threads.

    Returns a summary dict, with the suite's result under ``properties``;
    raises StageError on numerical failure.
    """
    with _Run(cfg, workers) as run:
        # every upstream stage before any h point, so none is queued if
        # one fails
        gap, coeffs, gl = run.gap, run.coeffs, run.gl
        run.submit("fiber", "energy")
        props = run.suite()
        payloads = {row.name: run.sweep(command)
                    for command, row in _SWEEPS.items()}
        _write_report_csv(cfg, payloads)
        summary = {
            "config_hash": cfg.config_hash,
            "T_c": gap["solution"]["T_c"],
            "coefficients": coeffs["coefficients"],
            "gl_energy": gl["state"]["energy"],
            "sweeps": {name: payload["gates"]
                       for name, payload in payloads.items()},
            "all_gates_passed": all(p["passed"] for p in payloads.values()),
            "cached_stages": {name: run.cached[key]
                              for name, key in run.keys.items()
                              if key in run.cached},
        }
        summary["properties"] = {k: v for k, v in props.result().items()
                                 if k != "key"}
    return summary


# ---------------------------------------------------------------------------
# Command line
# ---------------------------------------------------------------------------


def _emit(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True, indent=2))


def _at_least(least: int, what: str):
    """The ``type`` of an integer option of at least ``least``; any other
    value is a usage error, not a ``what`` integer."""
    def parse(text: str) -> int:
        try:
            if int(text) >= least:
                return int(text)
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"not a {what} integer: {text!r}")
    return parse


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
    parser.add_argument("--workers", metavar="N", type=_at_least(1, "positive"),
                        default=os.cpu_count() or 1,
                        help="threads that compute, N >= 1: each stage, "
                             "h point and the property suite is a task on "
                             "them, the h points of the sweeps run in "
                             "parallel, each point's fibers in order on its "
                             "own thread, and GL descents run serially "
                             "(default: hardware parallelism).  "
                             "Each thread calls BLAS, so the 'bcsgl' "
                             "script sets OPENBLAS_NUM_THREADS, "
                             "OMP_NUM_THREADS and MKL_NUM_THREADS to 1 "
                             "where unset when N > 1")
    parser.add_argument("--seed", metavar="K",
                        type=_at_least(0, "non-negative"), default=None,
                        help="override the configured random seed, K >= 0")
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
        *((command, row.help) for command, row in _SWEEPS.items()),
        ("prop-tests", "run the named checks on the run's gap solution, "
                       "coefficients and GL state"),
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
    h_list = None if args.h_list is None else _parse_h_list(args.h_list)
    overrides = {"outputs": args.out, "seed": args.seed, "h_list": h_list}
    return validate_config(args.config, {k: v for k, v in overrides.items()
                                         if v is not None})


def _command(run: _Run, command: str) -> int:
    """A command that reads one result: a stage (``tc``, ``coeffs``,
    ``gl-min``), a sweep or the property suite (``prop-tests``).  Prints
    the result with its status, the config hash and whether it was read
    back, and returns its exit code."""
    passed = True
    if command == "tc":
        sol = run.gap["solution"]
        name, body = "gap", {"T_c": sol["T_c"], "beta_c": sol["beta_c"]}
    elif command == "coeffs":
        name, body = command, {"coefficients": run.coeffs["coefficients"]}
    elif command == "gl-min":
        state = run.gl["state"]
        name, body = command, {k: state[k] for k in
                               ("energy", "gradient_norm", "converged")}
    elif command == "prop-tests":
        body = {k: v for k, v in run.suite().result().items() if k != "key"}
        name, passed = "properties", body["all_passed"]
    else:
        row, payload = _SWEEPS[command], run.sweep(command)
        # the other sweeps of its kind are refitted from the same h points
        for other in _SWEEPS:
            if other != command and _SWEEPS[other].kind == row.kind:
                run.sweep(other)
        name, passed = row.name, payload["passed"]
        body = {"sweep": row.name, "gates": payload["gates"]}
    _emit({"status": "ok" if passed else "regression", **body,
           "config_hash": run.cfg.config_hash,
           "cached": run.cached[run.keys[name]]})
    return EXIT_OK if passed else EXIT_REGRESSION


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _load_config(args)
        if args.command == "validate":
            _emit({"status": "ok", "config_hash": cfg.config_hash,
                   "normalized": cfg.normalized})
            return EXIT_OK
        if args.command != "all":
            with _Run(cfg, args.workers) as run:
                return _command(run, args.command)
        pipeline = run_pipeline(cfg, args.workers)
        props = pipeline.pop("properties")
        ok = pipeline["all_gates_passed"] and props["all_passed"]
        _emit({"status": "ok" if ok else "regression",
               "pipeline": pipeline, "properties": props})
        return EXIT_OK if ok else EXIT_REGRESSION
    except ConfigError as exc:
        _emit({"status": "error", "stage": "config",
               "violations": exc.violations})
        return EXIT_CONFIG
    except StageError as exc:
        _emit({"status": "error", "stage": exc.stage, "kind": exc.kind,
               "message": str(exc)})
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
