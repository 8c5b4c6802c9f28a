"""BCS-to-Ginzburg-Landau pipeline at desk scale.

This package derives macroscopic Ginzburg-Landau (GL) coefficients from a
microscopic BCS pairing interaction and verifies, numerically and in one
dimension, the semiclassical statements that connect the two descriptions:

``specfun``
    Numerically stable special functions (Fermi weight f, occupation rho,
    the g-family, the gap-operator symbol) and the two-node divided
    difference f[x, y] of the fiber traces.
``gap_solver``
    Critical temperature and translation-invariant gap profile for a local
    attractive potential, solved in the even momentum sector.
``gl_coeffs``
    Quadratures mapping the gap profile to the GL coefficients B1, B2, B3
    and the trace-expansion constants E1, E2.
``gl_minimizer``
    Pseudospectral minimization of the periodic GL functional on the unit
    torus, with external electric-like potential W and magnetic-like
    potential A.
``bdg_verifier``
    Fiber-decomposed Bogoliubov-de Gennes operators, trace asymptotics,
    pair-operator decomposition, and free-energy upper-bound sweeps.
``properties``
    Named checks of one run: identities its gap solution, coefficients
    and GL state satisfy on every config, with witness values.
``cli``
    Command-line pipeline driver writing JSON/CSV artifacts.

The package module itself holds what the CLI needs before, or without,
any numerical stage, and so imports the standard library alone: the
rules on the potential, the gap grid, ``D`` and the h-list, each
returning why an input breaks it, which the library raises and the
config validation reports under the input's key; the default gap grid;
and the order fits of the h-sweeps (:func:`h_sweep`).
"""

from __future__ import annotations

import math
import numbers
import os
import sys
from typing import Callable, Sequence

#: The BLAS and OpenMP thread variables the console entry sets.
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")


# ---------------------------------------------------------------------------
# The library's input rules, shared with the CLI's config validation
# ---------------------------------------------------------------------------

#: The gap solve's rule on each parameter of a potential.
POTENTIAL_RULES = {
    "family": lambda family: (
        None if family in ("gaussian_well", "square_well")
        else "must be 'gaussian_well' or 'square_well'"),
    # 0 encodes the free problem V = 0
    "g": lambda g: (f"well depth g must be >= 0, got {float(g)}" if g < 0
                    else None),
    "w": lambda w: (None if w > 0
                    else f"well width w must be positive, got {float(w)}"),
}


def gap_grid_error(cutoff: float, n_points: int) -> str | None:
    """Why ``(cutoff, n_points)`` is no momentum grid of the gap solve."""
    if not cutoff > 0:
        return "cutoff must be positive"
    return "n_points must be at least 8" if n_points < 8 else None


def d_error(D) -> str | None:
    """Why ``D`` is no coefficient of the gap normalization."""
    if (isinstance(D, numbers.Real) and not isinstance(D, bool)
            and math.isfinite(D) and D > 0):
        return None
    return "must be a finite number > 0"


def h_list_errors(h_list: Sequence[float]) -> list[str]:
    """Why a list of numbers is no h-list of a sweep: each rule it breaks."""
    errors = []
    if not all(0.0 < h < 1.0 for h in h_list):
        errors.append("entries must lie in (0, 1)")
    if any(b >= a for a, b in zip(h_list, h_list[1:])):
        errors.append("must be strictly decreasing")
    return errors


def default_gap_grid(mu: float, width: float) -> tuple[float, int]:
    """``(cutoff, n_points)`` of the desk-scale default momentum grid of
    the gap solve for chemical potential ``mu`` and interaction range
    ``width``, resolving the Fermi surface and the well.

    :meth:`gap_solver.MomentumGrid.default_for` builds its grid from it,
    and so does the CLI's config validation, which loads no NumPy.
    """
    return max(6.0 * math.sqrt(1.0 + abs(mu)), 12.0 / width), 512


def gap_grid_coverage_error(cutoff: float, mu: float, width: float
                            ) -> str | None:
    """Why a gap grid of momentum ``cutoff`` cannot cover the Fermi
    momentum and the well of range ``width`` at chemical potential ``mu``
    (the cutoff must reach ``sqrt(2 mu) + 5/width``), or ``None``.

    The gap solve raises it, and the CLI's config validation reports it.
    """
    minimum = math.sqrt(max(2.0 * mu, 0.0)) + 5.0 / width
    if cutoff < minimum:
        return (f"momentum cutoff {cutoff:.3f} below kinematic coverage "
                f"threshold {minimum:.3f} (sqrt(2 mu) + 5/w)")
    return None


# ---------------------------------------------------------------------------
# h-sweeps: the order fits, on the standard library alone
# ---------------------------------------------------------------------------

#: Values at or below 100 units of roundoff are left out of the order fits.
_ROUNDOFF_FLOOR = 100.0 * sys.float_info.epsilon
#: The pair-block norms of :func:`bdg_verifier.alpha_delta_distance`.
PAIR_NORMS = ("h1_distance", "l2_distance", "l2_leading")
#: Bloch-ladder record of each :func:`bdg_verifier.alpha_delta_distance`
#: result.
LADDER_KEYS = ("m_fibers", "capped", "lhs_floor", "delta_lhs",
               *(f"delta_{k}" for k in PAIR_NORMS))


def fit_order(h_values: Sequence[float], observed: Sequence[float]
              ) -> float | None:
    """Log-log least-squares slope over the points above the roundoff
    floor ``_ROUNDOFF_FLOOR`` (100x unit roundoff), so sub-roundoff values
    never pollute the fit; ``None`` (valid JSON) with fewer than two.

    The slope is the closed form ``sum dx dy / sum dx^2`` about the means,
    every sum a :func:`math.fsum`.
    """
    kept = [(math.log(h), math.log(abs(float(v))))
            for h, v in zip(h_values, observed)
            if abs(float(v)) > _ROUNDOFF_FLOOR]
    if len(kept) < 2:
        return None
    x_mean = math.fsum(x for x, _ in kept) / len(kept)
    y_mean = math.fsum(y for _, y in kept) / len(kept)
    return (math.fsum((x - x_mean) * (y - y_mean) for x, y in kept)
            / math.fsum((x - x_mean) ** 2 for x, _ in kept))


def local_orders(h_values: Sequence[float], observed: Sequence[float]
                 ) -> list:
    """Log-log slope of each pair of successive points, ``None`` where
    either ``|observed|`` is at or below the fit's roundoff floor."""
    obs = [abs(float(v)) for v in observed]
    return [math.log(a / b) / math.log(h_a / h_b)
            if min(a, b) > _ROUNDOFF_FLOOR else None
            for h_a, h_b, a, b in zip(h_values, h_values[1:], obs, obs[1:])]


def h_sweep(observable: Callable, h_list: Sequence[float], *,
            reference: float | None = None, label: str = "") -> dict:
    """Evaluate an observable along a decreasing h-list and fit its order.

    ``observable(h)`` returns a float or a ``(float, dict)`` pair whose
    dict is carried along as per-point extras.  Per-h failures are
    collected; the sweep aborts only when fewer than three values survive
    (all of them, for a list of fewer than three).

    Returns the sweep record, the ``"report"`` of a sweep artifact:
    ``h_values`` and ``observed`` of the kept points, their ``extras``,
    ``failures`` (``[h, repr(exc)]`` per dropped point), ``reference``,
    ``label``, the roundoff ``floor`` of the fit, and ``fitted_order``
    and ``local_orders``, the :func:`fit_order` and :func:`local_orders`
    of ``observed - reference`` (of ``observed`` without a reference).
    """
    h_list = list(h_list)
    errors = h_list_errors(h_list)
    if errors:
        raise ValueError("; ".join(f"h_list {e}" for e in errors))

    h_ok, values, extras, failures = [], [], [], []
    for h in h_list:
        try:
            result = observable(h)
        except Exception as exc:   # noqa: BLE001 -- aggregated below
            failures.append([h, repr(exc)])
            continue
        if isinstance(result, tuple):
            value, extra = result
        else:
            value, extra = result, {}
        h_ok.append(h)
        values.append(float(value))
        extras.append(extra)
    if len(h_ok) < min(3, len(h_list)):
        raise RuntimeError(
            f"sweep '{label}' kept {len(h_ok)} of {len(h_list)} points; "
            f"failures: {failures}"
        )
    gaps = values if reference is None else [v - reference for v in values]
    return {"h_values": h_ok, "observed": values,
            "fitted_order": fit_order(h_ok, gaps),
            "local_orders": local_orders(h_ok, gaps), "reference": reference,
            "label": label, "extras": extras, "floor": _ROUNDOFF_FLOOR,
            "failures": failures}


def main(argv=None) -> int:
    """The ``bcsgl`` console script: the thread policy, then the CLI.

    Each of the ``--workers`` threads calls BLAS, and a multithreaded
    BLAS under several workers oversubscribes the cores.  So with more
    than one worker this sets each of :data:`THREAD_VARIABLES` that is
    unset to 1, before the CLI runs and a stage that computes loads
    NumPy.  The CLI's own parser reads the worker count, so a malformed
    command line stops there, with its usage error, and sets no variable.
    Importing the package changes no variable, and ``python -m
    bcsgl.cli`` runs the CLI with the environment as it is.
    """
    from . import cli

    args = sys.argv[1:] if argv is None else list(argv)
    if cli._build_parser().parse_args(args).workers > 1:
        for name in THREAD_VARIABLES:
            os.environ.setdefault(name, "1")
    return cli.main(args)


def __getattr__(name: str):
    # ``__version__`` is looked up on first use: reading the installed
    # metadata would cost every fresh process about 20 ms.
    if name != "__version__":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib.metadata import PackageNotFoundError, version

    try:  # pragma: no cover - metadata present after installation
        value = version("bcsgl")
    except PackageNotFoundError:  # pragma: no cover - running from a checkout
        value = "0.0.0"
    globals()["__version__"] = value
    return value


__all__ = [
    "specfun",
    "gap_solver",
    "gl_coeffs",
    "gl_minimizer",
    "bdg_verifier",
    "properties",
    "cli",
]
