"""Named checks of one run: identities its own objects satisfy.

Each check evaluates one identity of the derivation on the run's
normalized gap solution, its GL coefficients and its GL minimum in the
run's fields, against a fixed tolerance, and reports the measured
witness values.  Every check holds on every config, so a failure names
a fault of the run, not a limit of its resolution:

* the lowest eigenvalue of the dense ``K_{T_c} + V`` on the run's grid
  vanishes at its ``T_c``, an oracle independent of the ``r x r``
  Birman-Schwinger matrices that :func:`gap_solver.find_tc` decides on;
* the run's profile satisfies the balance condition of its ``D``;
* at ``beta_c`` the quartic trace-term blocks are twice ``B1``, ``B2``
  and ``B3``, and ``B3`` equals its normalization-identity form;
* at the run's GL minimum, the zero state's energy is ``B3`` and the
  energy's gradient matches a finite difference.

The registry is data, so a caller can run every check and render
failures with their witnesses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from . import gap_solver as gs
from . import gl_coeffs as gc
from . import gl_minimizer as gm

__all__ = ["PropertyResult", "RunObjects", "run_suite"]


@dataclass
class PropertyResult:
    """Outcome of one named property check."""

    module: str
    name: str
    passed: bool
    witness: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "module": self.module,
            "name": self.name,
            "passed": self.passed,
            "witness": self.witness,
        }


class RunObjects(NamedTuple):
    """What the checks read: the run's normalized gap solution, its
    coefficients, its GL minimum ``psi`` in the fields ``a`` and ``w``,
    and the seed of its GL stage."""

    sol: gs.GapSolution
    coef: gc.GLCoefficients
    psi: gm.TorusField
    a: gm.TorusField
    w: gm.TorusField
    seed: int


# ---------------------------------------------------------------------------
# Individual checks: each returns (passed, witness)
# ---------------------------------------------------------------------------


def _gap_eigenvalue_residual(run: RunObjects):
    # a dense eigvalsh of K_T + V on purpose: find_tc takes lambda_min from
    # r x r Birman-Schwinger matrices, and this is its independent check
    sol = run.sol
    matrix = gs.build_gap_matrix(sol.spec, sol.grid, sol.T_c)
    lam = np.linalg.eigvalsh(matrix)[0]
    return abs(lam) <= 1e-8, {"lambda_min_at_tc": float(lam), "tol": 1e-8}


def _normalization_balance(run: RunObjects):
    res = gs.normalization_residual(run.sol)
    return res <= 1e-8, {"relative_residual": float(res), "tol": 1e-8}


def _critical_coefficient_identities(run: RunObjects):
    sol, coef = run.sol, run.coef
    blocks = gc.e2_constants(sol, sol.beta_c)
    rel = lambda a, b: abs(a - b) / max(abs(b), 1e-300)  # noqa: E731
    devs = {
        "c_w_vs_2b2": rel(blocks.c_W, 2.0 * coef.B2),
        "c_quartic_vs_2b3": rel(blocks.c_quartic, 2.0 * coef.B3),
        "c_grad_vs_2b1": rel(blocks.c_grad_psi, 2.0 * coef.b1_scalar),
    }
    worst = max(devs.values())
    return worst <= 1e-10, {**devs, "tol": 1e-10}


def _quartic_alternative_form(run: RunObjects):
    alt = gc.b3_alternative_form(run.sol)
    rel = abs(alt - run.coef.B3) / abs(run.coef.B3)
    return rel <= 1e-8, {"relative_difference": float(rel), "tol": 1e-8}


def _gl_gradient_vs_finite_difference(run: RunObjects):
    # at the minimum the gradient vanishes, so the check moves off it by a
    # seeded smooth field and steps along another
    rng = np.random.default_rng(run.seed + 17)
    n_max = run.psi.n_max
    decay = np.exp(-np.abs(np.arange(-n_max, n_max + 1)) / 2.5)

    def smooth(scale):
        return gm.TorusField(scale * decay * (
            rng.standard_normal(2 * n_max + 1)
            + 1j * rng.standard_normal(2 * n_max + 1)), n_max)

    psi, eta = run.psi + smooth(0.4), smooth(0.3)
    grad = gm.gl_gradient(psi, run.a, run.w, run.coef)
    analytic = gm.directional_derivative(grad, eta)
    step = 1e-6
    plus = gm.gl_energy(psi + eta * step, run.a, run.w, run.coef)
    minus = gm.gl_energy(psi + eta * (-step), run.a, run.w, run.coef)
    numeric = (plus - minus) / (2 * step)
    rel = abs(analytic - numeric) / max(abs(numeric), 1e-300)
    return rel <= 1e-6, {
        "analytic": float(analytic),
        "finite_difference": float(numeric),
        "relative_error": float(rel),
        "tol": 1e-6,
    }


def _gl_zero_state_energy(run: RunObjects):
    zero = gm.TorusField.zero(run.psi.n_max)
    energy = gm.gl_energy(zero, run.a, run.w, run.coef)
    dev = abs(energy - run.coef.B3)
    return dev <= 1e-13, {"deviation_from_quartic_offset": float(dev),
                          "tol": 1e-13}


_REGISTRY: list[tuple[str, str, Callable]] = [
    ("gap_solver", "critical_eigenvalue_residual", _gap_eigenvalue_residual),
    ("gap_solver", "normalization_balance", _normalization_balance),
    ("gl_coeffs", "critical_temperature_identities",
     _critical_coefficient_identities),
    ("gl_coeffs", "quartic_alternative_form", _quartic_alternative_form),
    ("gl_minimizer", "gradient_matches_finite_difference",
     _gl_gradient_vs_finite_difference),
    ("gl_minimizer", "zero_state_energy_offset", _gl_zero_state_energy),
]


def run_suite(run: RunObjects) -> list[PropertyResult]:
    """Run every property check on ``run`` and collect the results.

    Returns
    -------
    list of PropertyResult
        One entry per check, in registry order; an exception inside a
        check is itself a failure, with the error string as witness.
    """
    results = []
    for module, name, check in _REGISTRY:
        try:
            passed, witness = check(run)
        except Exception as exc:  # noqa: BLE001 -- reported as failure
            passed, witness = False, {"error": repr(exc)}
        results.append(PropertyResult(module, name, bool(passed), witness))
    return results
