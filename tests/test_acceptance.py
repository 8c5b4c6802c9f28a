"""End-to-end acceptance gates.

Each class pins one user-facing guarantee of the package at its gate
tolerance, on the reference configuration (Gaussian well g=2, w=1, mu=1,
normalized with D=1).  The trace and pair sweeps run with a vector
potential, which the command-line reference run does not.

The twenty named invariant checks of ``bcsgl.properties`` run by name in
``test_properties.py``.  Some tests below still restate one of them or a
unit test; ROADMAP.md lists each with the test or check that covers it.
"""

import math

import numpy as np
import pytest

from bcsgl import bdg_verifier as bv
from bcsgl import gap_solver as gs
from bcsgl import specfun as sf
from bcsgl.gl_coeffs import b3_alternative_form, compute_coefficients
from bcsgl.gl_minimizer import TorusField, directional_derivative, \
    gauge_transform, gl_energy, gl_gradient, minimize

pytestmark = pytest.mark.acceptance

H_LIST = (0.125, 0.0625, 0.03125, 0.015625)
ZERO = TorusField.zero(0)
WORKERS = 4


@pytest.fixture(scope="module")
def two_mode_fields():
    """Pair field and externals with at most two Fourier modes each."""
    psi = TorusField.from_modes({0: 0.75, 1: 0.2 + 0.1j}, n_max=2)
    a = TorusField.cosine(0.2, 1)
    w = TorusField.cosine(0.5, 1)
    return psi, a, w


class TestGFunctionDerivatives:
    def test_chain_against_central_differences(self):
        z = np.linspace(-10.0, 10.0, 2001)
        z = z[np.abs(z) >= 0.05]
        step = 1e-5
        fd0 = (sf.g0(z + step) - sf.g0(z - step)) / (2 * step)
        assert np.max(np.abs(sf.g1(z) + fd0) / np.abs(sf.g1(z))) < 1e-6
        fd1 = (sf.g1(z + step) - sf.g1(z - step)) / (2 * step)
        rel = np.abs(sf.g2(z) - (fd1 + 2.0 * sf.g1(z) / z)) \
            / np.abs(sf.g2(z))
        assert np.max(rel) < 1e-6


class TestEntropyInequality:
    def test_margin_on_dense_grid(self):
        x = np.linspace(0.005, 0.995, 200)
        margin = sf.entropy_inequality_margin(x[:, None], x[None, :])
        assert margin.min() >= -1e-12


class TestGapSolver:
    def test_free_problem_reports_no_pairing(self):
        spec = gs.PotentialSpec.gaussian(g=0.0, w=1.0, mu=1.0)
        with pytest.raises(gs.NoPairingError, match="no pairing"):
            gs.find_tc(spec)

    def test_reference_well_critical_point(self, gap_sol):
        assert gap_sol.T_c > 0.0
        matrix = gs.build_gap_matrix(gap_sol.spec, gap_sol.grid,
                                     gap_sol.T_c)
        assert abs(gs.lowest_eigenpair(matrix).eigenvalue) < 1e-8

    def test_grid_doubling_drift(self, gap_sol, gap_sol_fine):
        drift = abs(gap_sol_fine.T_c - gap_sol.T_c) / gap_sol.T_c
        assert drift < 1e-4


class TestNormalization:
    def test_residual_after_normalize(self, gap_sol):
        assert gs.normalization_residual(gap_sol) < 1e-8

    def test_two_quartic_forms_agree(self, gap_sol, gl_coef):
        alt = b3_alternative_form(gap_sol)
        assert abs(alt - gl_coef.B3) / gl_coef.B3 < 1e-8

    def test_quartic_ratio_linear_in_density(self, gap_sol_raw):
        ratios = []
        for d in (1.0, 2.0):
            coef = compute_coefficients(gs.normalize(gap_sol_raw, d))
            ratios.append(coef.B3 / abs(coef.B2))
        assert abs(ratios[1] / ratios[0] - 2.0) < 1e-8


class TestCoefficientPositivity:
    def test_gradient_and_quartic_coefficients_positive(self, gl_coef):
        assert gl_coef.b1_scalar > 0.0
        assert gl_coef.B3 > 0.0


class TestEnergyMinimizer:
    def test_gradient_matches_finite_differences(self, gl_coef):
        rng = np.random.default_rng(5)
        n_max = 6
        decay = np.exp(-np.abs(np.arange(-n_max, n_max + 1)) / 2.0)
        psi = TorusField(0.4 * decay * (
            rng.standard_normal(2 * n_max + 1)
            + 1j * rng.standard_normal(2 * n_max + 1)), n_max)
        eta = TorusField(0.3 * decay * (
            rng.standard_normal(2 * n_max + 1)
            + 1j * rng.standard_normal(2 * n_max + 1)), n_max)
        a, w = TorusField.cosine(0.2, 1), TorusField.cosine(0.5, 1)
        grad = gl_gradient(psi, a, w, gl_coef)
        analytic = directional_derivative(grad, eta)
        step = 1e-6
        numeric = (gl_energy(psi + eta * step, a, w, gl_coef)
                   - gl_energy(psi + eta * (-step), a, w, gl_coef)) \
            / (2 * step)
        assert abs(analytic - numeric) / abs(numeric) < 1e-6

    def test_free_minimum_is_unimodular(self, gl_coef):
        state = minimize(ZERO, ZERO, gl_coef, n_max=16)
        assert state.energy < 1e-10
        values = np.abs(state.psi.values_on_grid(256))
        assert np.max(np.abs(values - 1.0)) < 1e-5

    def test_gauge_invariance(self, gl_coef):
        rng = np.random.default_rng(11)
        psi = TorusField(0.5 * (rng.standard_normal(5)
                                + 1j * rng.standard_normal(5)), 2)
        a, w = TorusField.cosine(0.3, 1), TorusField.cosine(0.5, 1)
        chi = TorusField.sine(0.2, 1)
        before = gl_energy(psi, a, w, gl_coef)
        psi_g, a_g = gauge_transform(psi, a, chi)
        after = gl_energy(psi_g, a_g, w, gl_coef)
        assert abs(after - before) / abs(before) < 1e-10

    def test_zero_field_energy_is_quartic_offset(self, gl_coef):
        energy = gl_energy(TorusField.zero(4), ZERO,
                           TorusField.cosine(0.5, 1), gl_coef)
        assert energy == gl_coef.B3


@pytest.fixture(scope="module")
def fiber_pass(gap_sol, two_mode_fields):
    """One pass over the fibers per h gives the trace and the pair
    sweep, as in the command line."""
    psi, a, w = two_mode_fields
    return {h: bv.alpha_delta_distance(gap_sol, psi, a, w, h,
                                       workers=WORKERS)
            for h in H_LIST}


@pytest.fixture(scope="module")
def trace_sweep(fiber_pass):
    def observe(h):
        res = fiber_pass[h]
        return res["residual"], {"e2_term": res["e2_term"]}

    return bv.h_sweep(observe, H_LIST, label="trace_expansion")


class TestTraceExpansionOrder:
    def test_residual_order_exceeds_four_and_a_half(self, trace_sweep):
        assert trace_sweep.fitted_order >= 4.5

    def test_quartic_term_matches_at_finest_h(self, trace_sweep):
        residual = trace_sweep.observed[-1]
        e2_term = trace_sweep.extras[-1]["e2_term"]
        assert abs(residual) / abs(e2_term) < 0.05


@pytest.fixture(scope="module")
def pair_distance_sweep(fiber_pass):
    def observe(h):
        res = fiber_pass[h]
        return res["h1_distance"], {"l2_leading": res["l2_leading"]}

    return bv.h_sweep(observe, H_LIST, label="pair_distance")


class TestPairDistanceOrder:
    def test_sobolev_distance_order(self, pair_distance_sweep):
        assert pair_distance_sweep.fitted_order >= 2.3

    def test_leading_norm_ratio_stabilizes(self, pair_distance_sweep):
        ratios = [e["l2_leading"] ** 2 / h
                  for h, e in zip(pair_distance_sweep.h_values,
                                  pair_distance_sweep.extras)]
        drift = abs(ratios[-1] - ratios[-2]) / ratios[-2]
        assert drift < 0.05


@pytest.fixture(scope="module")
def energy_gap_sweep(gap_sol, gl_coef, gl_min_state):
    target = gl_min_state.energy - gl_coef.B3

    def observe(h):
        res = bv.trial_state_energy(gap_sol, gl_min_state.psi, ZERO,
                                    TorusField.cosine(0.5, 1), h,
                                    workers=WORKERS)
        return res["scaled"] - target, {}

    return bv.h_sweep(observe, H_LIST, label="energy_upper_bound")


class TestEnergyUpperBound:
    def test_gap_positive_or_small(self, energy_gap_sweep):
        slack = 0.1 * abs(energy_gap_sweep.observed[0])
        assert all(gap >= -slack for gap in energy_gap_sweep.observed)

    def test_gap_magnitude_decreases(self, energy_gap_sweep):
        magnitudes = [abs(g) for g in energy_gap_sweep.observed]
        assert all(b < a for a, b in zip(magnitudes, magnitudes[1:]))

    def test_gap_order(self, energy_gap_sweep):
        assert energy_gap_sweep.fitted_order >= 0.8


@pytest.fixture(scope="module")
def supercell_case(gap_sol, two_mode_fields):
    psi, a, w = two_mode_fields
    h, n_max, m_cells = 0.25, 8, 4
    basis = bv.FiberBasis(h, n_max, m_cells)
    h_pair, h_free = bv.supercell_hamiltonian(
        h, m_cells, 2 * (n_max + 8) + 1, psi, a, w,
        gap_sol.t, gap_sol.mu)
    return basis, h_pair, h_free


class TestFiberSupercellConsistency:
    def test_spectra_match_in_reliable_window(self, gap_sol,
                                              two_mode_fields,
                                              supercell_case):
        psi, a, w = two_mode_fields
        basis, h_pair, _ = supercell_case
        union = np.sort(np.concatenate([
            np.linalg.eigvalsh(bv.build_fiber(basis, xi, psi, a, w,
                                              gap_sol.t, gap_sol.mu).matrix)
            for xi in basis.xi_nodes]))
        sup = np.linalg.eigvalsh(h_pair)
        threshold = (basis.h * 2 * math.pi * (basis.n_max - 3)) ** 2 \
            - abs(gap_sol.mu) - 1.0
        window = union[np.abs(union) <= threshold]
        assert len(window) > 50
        assert max(np.min(np.abs(sup - lam)) for lam in window) < 1e-8

    def test_traces_match(self, gap_sol, two_mode_fields, supercell_case):
        psi, a, w = two_mode_fields
        basis, h_pair, h_free = supercell_case
        beta = gap_sol.beta_c
        lhs = bv.semiclassical_trace(
            gap_sol, psi, a, w, basis.h, n_max=basis.n_max,
            m_fibers=basis.m_fibers)["lhs"]
        fiber_tr = lhs * beta / basis.h
        sup_tr = (np.sum(sf.fermi_f(beta * np.linalg.eigvalsh(h_pair)))
                  - np.sum(sf.fermi_f(beta * np.linalg.eigvalsh(h_free)))
                  ) / basis.m_fibers
        assert fiber_tr == pytest.approx(sup_tr, abs=1e-8)


class TestRealSpaceDecay:
    def test_decay_rate_near_theory(self, gap_sol):
        report = gs.decay_report(gap_sol)
        assert report.fitted_decay_rate >= 0.9 * report.kappa_c

    def test_moments_finite_and_grid_stable(self, gap_sol):
        coarse = gs.decay_report(gap_sol)
        fine = gs.decay_report(gap_sol, n_x=8192)
        for key, value in coarse.moment_table.items():
            assert math.isfinite(value) and value > 0.0
            assert abs(fine.moment_table[key] - value) / value < 0.01
