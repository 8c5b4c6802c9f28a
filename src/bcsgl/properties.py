"""Named invariant checks shared by the test suite and the command line.

Each property evaluates one cross-cutting identity of the pipeline
(permutation symmetry of divided differences, the scalar entropy
inequality on a grid, coefficient identities at the critical
temperature, fiber/supercell agreement, ...) against a fixed tolerance
and reports the measured witness values.  The registry is data, so a
caller can run everything or the checks of chosen modules, and render
failures with their witnesses.

All checks run on the reference configuration (Gaussian well g=2, w=1,
mu=1, normalized with D=1) with seeded randomness; shared expensive
objects (the critical-temperature solve, the coefficient set) are built
lazily once per suite run.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import bdg_verifier as bv
from . import gap_solver as gs
from . import gl_coeffs as gc
from . import gl_minimizer as gm
from . import specfun

__all__ = ["PropertyResult", "run_suite"]


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


def _jsonable(value):
    """Coerce numpy scalars/arrays inside a witness to plain Python."""
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return _jsonable(value.tolist())
    if isinstance(value, (np.floating, np.integer, np.bool_)):
        return value.item()
    return value


class _Context:
    """Lazily built shared objects for the reference configuration."""

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = np.random.default_rng(seed)

    @functools.cached_property
    def sol(self) -> gs.GapSolution:
        spec = gs.reference_well()
        grid = gs.MomentumGrid.default_for(spec)
        return gs.normalize(gs.find_tc(spec, grid), 1.0)

    @functools.cached_property
    def coef(self) -> gc.GLCoefficients:
        return gc.compute_coefficients(self.sol)

    def small_fiber(self):
        basis = bv.FiberBasis(0.25, 8, 4)
        psi = gm.TorusField.from_modes({0: 0.75, 1: 0.2 + 0.1j}, n_max=2)
        a = gm.TorusField.cosine(0.2, 1)
        w = gm.TorusField.cosine(0.5, 1)
        return basis, psi, a, w

    def small_fibers(self, nodes=None) -> list:
        """The small fiber family's operators at ``nodes`` (default: the
        whole Bloch grid)."""
        basis, psi, a, w = self.small_fiber()
        nodes = basis.xi_nodes if nodes is None else nodes
        return [bv.build_fiber(basis, xi, psi, a, w, self.sol.t, self.sol.mu)
                for xi in nodes]


def _occupations(matrix: np.ndarray, beta: float) -> np.ndarray:
    """Eigenvalues of the Gibbs state ``(1 + e^{beta H})^{-1}``."""
    return specfun.fermi_rho(beta * np.linalg.eigvalsh(matrix))


# ---------------------------------------------------------------------------
# Individual checks: each returns (passed, witness)
# ---------------------------------------------------------------------------


def _dd_permutation_symmetry(ctx: _Context):
    nodes = ctx.rng.uniform(-4.0, 4.0, size=5)
    base = specfun.divided_difference("f", nodes)
    worst = 0.0
    for _ in range(4):
        perm = ctx.rng.permutation(nodes)
        worst = max(worst, abs(specfun.divided_difference("f", perm) - base))
    return worst <= 1e-9, {"max_permutation_deviation": worst, "tol": 1e-9}


def _dd_closed_form_identities(ctx: _Context):
    # the closed forms couple the divided-difference tables to the
    # g-functions, so a sign error in either side surfaces here
    worst, at_node = 0.0, None
    deviations = {}
    for a in np.linspace(0.2, 6.0, 8):
        local = {
            "quintuple_vs_g1_over_16a": abs(
                specfun.divided_difference("f", [a, a, a, -a, -a])
                - specfun.g1(a) / (16.0 * a)),
            "quadruple_vs_g1_over_8": abs(
                specfun.divided_difference("f", [a, a, a, -a])
                - specfun.g1(a) / 8.0),
            "rho_triple_antisymmetry": abs(
                specfun.divided_difference("rho", [a, a, -a])
                + specfun.divided_difference("rho", [a, -a, -a])),
            "triple_vs_minus_g0_over_4": abs(
                specfun.divided_difference("f", [a, a, -a])
                + specfun.g0(a) / 4.0),
            "balanced_quadruple_vanishes": abs(
                specfun.divided_difference("f", [a, a, -a, -a])),
        }
        peak = max(local.values())
        if peak > worst:
            worst, at_node, deviations = peak, float(a), local
    return worst <= 1e-9, {"node": at_node, **deviations, "tol": 1e-9}


def _g_chain_consistency(ctx: _Context):
    z = np.linspace(-10.0, 10.0, 401)
    z = z[np.abs(z) > 0.05]
    step = 1e-3
    d_g0 = (specfun.g0(z - 2 * step) - 8 * specfun.g0(z - step)
            + 8 * specfun.g0(z + step) - specfun.g0(z + 2 * step)) / (12 * step)
    err_g1 = float(np.max(np.abs(specfun.g1(z) + d_g0)
                          / np.abs(specfun.g1(z))))
    d_g1 = (specfun.g1(z - 2 * step) - 8 * specfun.g1(z - step)
            + 8 * specfun.g1(z + step) - specfun.g1(z + 2 * step)) / (12 * step)
    err_g2 = float(np.max(
        np.abs(specfun.g2(z) - (d_g1 + 2.0 * specfun.g1(z) / z))
        / np.abs(specfun.g2(z))))
    err_ratio = float(np.max(np.abs(
        specfun.g1_over_z(z) - specfun.g1(z) / z)))
    worst = max(err_g1, err_g2, err_ratio)
    return worst <= 1e-6, {
        "g1_vs_minus_g0_prime": err_g1,
        "g2_vs_g1_prime_plus_ratio": err_g2,
        "g1_over_z_consistency": err_ratio,
        "tol": 1e-6,
    }


def _fermi_weight_identity(ctx: _Context):
    z = np.linspace(-30.0, 30.0, 601)
    worst = float(np.max(np.abs(
        specfun.fermi_f(z) - specfun.fermi_f(-z) - z
    )))
    return worst <= 1e-12, {"max_identity_residual": worst, "tol": 1e-12}


def _klein_inequality_grid(ctx: _Context):
    eps = 1e-4
    x = np.linspace(eps, 1.0 - eps, 200)
    y = np.linspace(eps, 1.0 - eps, 200)
    margin = specfun.entropy_inequality_margin(x[:, None], y[None, :])
    worst = float(np.min(margin))
    return worst >= -1e-12, {"min_margin": worst, "tol": -1e-12}


def _gap_eigenvalue_residual(ctx: _Context):
    # a dense eigvalsh of K_T + V on purpose: find_tc takes lambda_min from
    # r x r Birman-Schwinger matrices, and this is its independent check
    sol = ctx.sol
    matrix = gs.build_gap_matrix(sol.spec, sol.grid, sol.T_c)
    lam = np.linalg.eigvalsh(matrix)[0]
    return abs(lam) <= 1e-8, {"lambda_min_at_tc": float(lam), "tol": 1e-8}


def _normalization_balance(ctx: _Context):
    res = gs.normalization_residual(ctx.sol)
    return res <= 1e-8, {"relative_residual": float(res), "tol": 1e-8}


def _real_space_decay(ctx: _Context):
    report = gs.decay_report(ctx.sol)
    ok = report.fitted_decay_rate >= gs.MIN_DECAY_RATIO * report.kappa_c
    return ok, {
        "fitted_decay_rate": float(report.fitted_decay_rate),
        "kappa_c": float(report.kappa_c),
        "required_ratio": gs.MIN_DECAY_RATIO,
    }


def _critical_coefficient_identities(ctx: _Context):
    sol, coef = ctx.sol, ctx.coef
    blocks = gc.e2_constants(sol, sol.beta_c)
    rel = lambda a, b: abs(a - b) / max(abs(b), 1e-300)  # noqa: E731
    devs = {
        "c_w_vs_2b2": rel(blocks.c_W, 2.0 * coef.B2),
        "c_quartic_vs_2b3": rel(blocks.c_quartic, 2.0 * coef.B3),
        "c_grad_vs_2b1": rel(blocks.c_grad_psi, 2.0 * coef.b1_scalar),
    }
    worst = max(devs.values())
    return worst <= 1e-10, {**devs, "tol": 1e-10}


def _small_momentum_routes(ctx: _Context):
    consts = gc.semiclassical_smallp_constants(ctx.sol, ctx.sol.beta_c)
    worst = consts.max_relative_mismatch()
    return worst <= 1e-7, {"max_route_mismatch": float(worst), "tol": 1e-7}


def _quartic_alternative_form(ctx: _Context):
    coef = ctx.coef
    alt = gc.b3_alternative_form(ctx.sol)
    rel = abs(alt - coef.B3) / abs(coef.B3)
    return rel <= 1e-8, {"relative_difference": float(rel), "tol": 1e-8}


def _gl_gradient_vs_finite_difference(ctx: _Context):
    rng = np.random.default_rng(ctx.seed + 17)
    n_max = 6
    coeffs = 0.4 * (rng.standard_normal(2 * n_max + 1)
                    + 1j * rng.standard_normal(2 * n_max + 1))
    coeffs *= np.exp(-np.abs(np.arange(-n_max, n_max + 1)) / 2.5)
    psi = gm.TorusField(coeffs, n_max)
    eta = gm.TorusField(
        0.3 * (rng.standard_normal(2 * n_max + 1)
               + 1j * rng.standard_normal(2 * n_max + 1)), n_max)
    a = gm.TorusField.cosine(0.2, 1)
    w = gm.TorusField.cosine(0.5, 1)
    coef = ctx.coef
    grad = gm.gl_gradient(psi, a, w, coef)
    analytic = gm.directional_derivative(grad, eta)
    step = 1e-6
    plus = gm.gl_energy(psi + eta * step, a, w, coef)
    minus = gm.gl_energy(psi + eta * (-step), a, w, coef)
    numeric = (plus - minus) / (2 * step)
    rel = abs(analytic - numeric) / max(abs(numeric), 1e-300)
    return rel <= 1e-6, {
        "analytic": float(analytic),
        "finite_difference": float(numeric),
        "relative_error": float(rel),
        "tol": 1e-6,
    }


def _gl_gauge_invariance(ctx: _Context):
    rng = np.random.default_rng(ctx.seed + 29)
    psi = gm.TorusField(
        0.5 * (rng.standard_normal(5) + 1j * rng.standard_normal(5)), 2)
    a = gm.TorusField.cosine(0.3, 1)
    w = gm.TorusField.cosine(0.5, 1)
    chi = gm.TorusField.sine(0.2, 1)
    coef = ctx.coef
    before = gm.gl_energy(psi, a, w, coef)
    psi_g, a_g = gm.gauge_transform(psi, a, chi)
    after = gm.gl_energy(psi_g, a_g, w, coef)
    drift = abs(after - before) / max(abs(before), 1e-300)
    return drift <= 1e-10, {
        "relative_energy_drift": float(drift), "tol": 1e-10
    }


def _gl_zero_state_energy(ctx: _Context):
    coef = ctx.coef
    psi = gm.TorusField.zero(4)
    w = gm.TorusField.cosine(0.5, 1)
    energy = gm.gl_energy(psi, gm.TorusField.zero(0), w, coef)
    dev = abs(energy - coef.B3)
    return dev <= 1e-13, {"deviation_from_quartic_offset": float(dev),
                          "tol": 1e-13}


def _fiber_hermiticity(ctx: _Context):
    worst = 0.0
    for op in ctx.small_fibers():
        full = op.matrix
        worst = max(worst, float(np.abs(full - full.conj().T).max()))
    return worst <= 1e-12, {"max_hermiticity_drift": worst, "tol": 1e-12}


def _occupation_bounds(ctx: _Context):
    occ = np.concatenate([_occupations(op.matrix, ctx.sol.beta_c)
                          for op in ctx.small_fibers()])
    low, high = float(occ.min()), float(occ.max())
    ok = low >= -1e-12 and high <= 1.0 + 1e-12
    return ok, {"min_occupation": low, "max_occupation": high, "tol": 1e-12}


def _xlogx(p: np.ndarray) -> np.ndarray:
    """``p log p``, with its limit 0 at ``p = 0``."""
    return p * np.log(np.where(p > 0.0, p, 1.0))


def _entropy_reflection(ctx: _Context):
    xi = ctx.small_fiber()[0].half_nodes[1]
    entropies = []
    for op in ctx.small_fibers([xi, -xi]):
        occ = _occupations(op.matrix, ctx.sol.beta_c)
        entropies.append(
            float(-np.sum(_xlogx(occ) + _xlogx(1.0 - occ))))
    s_plus, s_minus = entropies
    dev = abs(s_plus - s_minus)
    return dev <= 1e-10, {
        "entropy_at_xi": float(s_plus),
        "entropy_at_minus_xi": float(s_minus),
        "difference": float(dev),
        "tol": 1e-10,
    }


def _supercell_agreement(ctx: _Context):
    basis, psi, a, w = ctx.small_fiber()
    sol = ctx.sol
    union = np.sort(np.concatenate([np.linalg.eigvalsh(op.matrix)
                                    for op in ctx.small_fibers()]))
    h_pair, _ = bv.supercell_hamiltonian(
        basis.h, basis.m_fibers, 2 * (basis.n_max + 8) + 1,
        psi, a, w, sol.t, sol.mu,
    )
    sup = np.linalg.eigvalsh(h_pair)
    threshold = (basis.h * 2 * math.pi * (basis.n_max - 3)) ** 2 \
        - abs(sol.mu) - 1.0
    window = union[np.abs(union) <= threshold]
    worst = float(max(np.min(np.abs(sup - lam)) for lam in window))
    return worst <= 1e-8 and len(window) > 50, {
        "max_eigenvalue_distance": worst,
        "window_size": int(len(window)),
        "tol": 1e-8,
    }


def _block_diagonal(op: bv.FiberOperator) -> np.ndarray:
    """The fiber without its pairing blocks: ``diag(K, M22)``."""
    k, m22 = op.k_block, op.m22_block
    n = len(k)
    out = np.zeros((n + len(m22),) * 2, np.result_type(k, m22))
    out[:n, :n], out[n:, n:] = k, m22
    return out


def _diagonal_shift_invariance(ctx: _Context):
    # tr H_Delta - tr H_0 summed eigenvalue by eigenvalue, with and without
    # a common diagonal shift of both operators
    ops = ctx.small_fibers()
    shift = 0.37 * np.eye(2 * ctx.small_fiber()[0].size)

    def trace_difference(offset):
        return math.fsum(
            float(np.sum(np.linalg.eigvalsh(op.matrix + offset)
                         - np.linalg.eigvalsh(
                             _block_diagonal(op) + offset)))
            for op in ops) / len(ops)

    dev = abs(trace_difference(0.0) - trace_difference(shift))
    return dev <= 1e-11, {"trace_difference_shift": float(dev), "tol": 1e-11}


def _zero_pairing_trace(ctx: _Context):
    sol = ctx.sol
    res = bv.semiclassical_trace(
        sol, gm.TorusField.zero(0), gm.TorusField.cosine(0.2, 1),
        gm.TorusField.cosine(0.5, 1), 0.25, m_fibers=4,
    )
    dev = abs(res["lhs"])
    return dev <= 1e-12, {"lhs_without_pairing": float(dev), "tol": 1e-12}


_REGISTRY: list[tuple[str, str, Callable]] = [
    ("specfun", "divided_difference_permutation_symmetry",
     _dd_permutation_symmetry),
    ("specfun", "divided_difference_closed_forms",
     _dd_closed_form_identities),
    ("specfun", "g_chain_derivative_consistency", _g_chain_consistency),
    ("specfun", "fermi_weight_reflection_identity", _fermi_weight_identity),
    ("specfun", "entropy_inequality_grid", _klein_inequality_grid),
    ("gap_solver", "critical_eigenvalue_residual", _gap_eigenvalue_residual),
    ("gap_solver", "normalization_balance", _normalization_balance),
    ("gap_solver", "real_space_decay_rate", _real_space_decay),
    ("gl_coeffs", "critical_temperature_identities",
     _critical_coefficient_identities),
    ("gl_coeffs", "small_momentum_route_agreement", _small_momentum_routes),
    ("gl_coeffs", "quartic_alternative_form", _quartic_alternative_form),
    ("gl_minimizer", "gradient_matches_finite_difference",
     _gl_gradient_vs_finite_difference),
    ("gl_minimizer", "gauge_invariance", _gl_gauge_invariance),
    ("gl_minimizer", "zero_state_energy_offset", _gl_zero_state_energy),
    ("bdg_verifier", "fiber_hermiticity", _fiber_hermiticity),
    ("bdg_verifier", "occupation_bounds", _occupation_bounds),
    ("bdg_verifier", "entropy_reflection_symmetry", _entropy_reflection),
    ("bdg_verifier", "supercell_spectrum_agreement", _supercell_agreement),
    ("bdg_verifier", "diagonal_shift_invariance",
     _diagonal_shift_invariance),
    ("bdg_verifier", "zero_pairing_trace", _zero_pairing_trace),
]


def run_suite(seed: int = 0, modules: list[str] | None = None
              ) -> list[PropertyResult]:
    """Run the property checks and collect the results.

    Parameters
    ----------
    seed : int
        Seed for the randomized checks.
    modules : list of str, optional
        Restrict to these module names.

    Returns
    -------
    list of PropertyResult
        One entry per executed check; an exception inside a check is
        itself a failure, with the error string as witness.
    """
    ctx = _Context(seed)
    results = []
    for module, name, check in _REGISTRY:
        if modules is not None and module not in modules:
            continue
        try:
            passed, witness = check(ctx)
        except Exception as exc:  # noqa: BLE001 -- reported as failure
            passed, witness = False, {"error": repr(exc)}
        results.append(
            PropertyResult(module, name, bool(passed), _jsonable(witness)))
    return results
