"""End-to-end acceptance gates.

Each class pins one user-facing guarantee of the package at its gate
tolerance, on the reference configuration (Gaussian well g=2, w=1, mu=1,
normalized with D=1).  The trace and pair sweeps run with a vector
potential, which the command-line reference run does not; the energy
sweep's gates run on that reference run in ``test_cli.py``.

The six named checks of ``bcsgl.properties`` check the artifacts of one
run; ``test_properties.py`` runs each by name on the reference run, with
the reference well's checks of ``reference_checks.py``.  The
one kept restatement below asserts exact equality where its named check
allows 1e-13.  The free-problem and
free-minimum gates stay here: they alone solve on ``find_tc``'s default
grid and sample the free minimum at 256 points.
"""

import numpy as np
import pytest

import bcsgl
from bcsgl import bdg_verifier as bv
from bcsgl import gap_solver as gs
from bcsgl.gl_minimizer import TorusField, gl_energy, minimize

pytestmark = pytest.mark.acceptance

H_LIST = (0.125, 0.0625, 0.03125, 0.015625)
ZERO = TorusField.zero(0)


@pytest.fixture(scope="module")
def two_mode_fields():
    """Pair field and externals with at most two Fourier modes each."""
    psi = TorusField.from_modes({0: 0.75, 1: 0.2 + 0.1j}, n_max=2)
    a = TorusField.cosine(0.2, 1)
    w = TorusField.cosine(0.5, 1)
    return psi, a, w


class TestGapSolver:
    def test_free_problem_reports_no_pairing(self):
        spec = gs.PotentialSpec.gaussian(g=0.0, w=1.0, mu=1.0)
        with pytest.raises(gs.NoPairingError, match="no pairing"):
            gs.find_tc(spec)


class TestEnergyMinimizer:
    def test_free_minimum_is_unimodular(self, gl_coef):
        state = minimize(ZERO, ZERO, gl_coef, n_max=16)
        assert state.energy < 1e-10
        values = np.abs(state.psi.values_on_grid(256))
        assert np.max(np.abs(values - 1.0)) < 1e-5

    def test_zero_field_energy_is_quartic_offset(self, gl_coef):
        energy = gl_energy(TorusField.zero(4), ZERO,
                           TorusField.cosine(0.5, 1), gl_coef)
        assert energy == gl_coef.B3


@pytest.fixture(scope="module")
def fiber_pass(gap_sol, two_mode_fields):
    """One pass over the fibers per h gives the trace and the pair
    sweep, as in the command line."""
    psi, a, w = two_mode_fields
    return {h: bv.alpha_delta_distance(gap_sol, psi, a, w, h)
            for h in H_LIST}


@pytest.fixture(scope="module")
def trace_sweep(fiber_pass):
    def observe(h):
        res = fiber_pass[h]
        return res["residual"], {"e2_term": res["e2_term"]}

    return bcsgl.h_sweep(observe, H_LIST, label="trace_expansion")


class TestTraceExpansionOrder:
    def test_residual_order_exceeds_four_and_a_half(self, trace_sweep):
        assert trace_sweep["fitted_order"] >= 4.5

    def test_quartic_term_matches_at_finest_h(self, trace_sweep):
        residual = trace_sweep["observed"][-1]
        e2_term = trace_sweep["extras"][-1]["e2_term"]
        assert abs(residual) / abs(e2_term) < 0.05


@pytest.fixture(scope="module")
def pair_distance_sweep(fiber_pass):
    def observe(h):
        res = fiber_pass[h]
        return res["h1_distance"], {"l2_leading": res["l2_leading"]}

    return bcsgl.h_sweep(observe, H_LIST, label="pair_distance")


class TestPairDistanceOrder:
    def test_sobolev_distance_order(self, pair_distance_sweep):
        assert pair_distance_sweep["fitted_order"] >= 2.3

    def test_leading_norm_ratio_stabilizes(self, pair_distance_sweep):
        ratios = [e["l2_leading"] ** 2 / h
                  for h, e in zip(pair_distance_sweep["h_values"],
                                  pair_distance_sweep["extras"])]
        drift = abs(ratios[-1] - ratios[-2]) / ratios[-2]
        assert drift < 0.05
