"""Tests for the coefficient quadratures.

Reference values were frozen from runs cross-checked against adaptive
quadrature (`scipy.integrate.quad`) and against the independent
divided-difference route; independent identities between the
coefficient families are checked exactly.
"""

import numpy as np
import pytest
from scipy.integrate import quad

from bcsgl import specfun
from bcsgl.gap_solver import GapSolution, normalize
from bcsgl.gl_coeffs import (
    GLCoefficients,
    compute_coefficients,
    e1_constant,
    e2_constants,
)
from reference_checks import semiclassical_smallp_constants
from synthetic_symbol import SyntheticPairSymbol

# Frozen from the reference well (g=2, w=1, mu=1) at D=1; independently
# confirmed by the divided-difference route and grid doubling.
REFERENCE_B1 = 0.135143797183227
REFERENCE_B2 = -0.02456287901146156
REFERENCE_B3 = 0.18444241894088095


def _adaptive(f):
    """Full-line integral of an even function, accurate to ~1e-13."""
    total = 0.0
    for a, b in [(0.0, 1.0), (1.0, 12.0)]:
        total += quad(f, a, b, epsabs=1e-13, epsrel=1e-13, limit=200)[0]
    return 2.0 * total / (2.0 * np.pi)


@pytest.fixture(scope="module")
def synthetic():
    return SyntheticPairSymbol(mu=1.0, amplitude=1.0, width=1.0)


@pytest.fixture(scope="module")
def smallp_constants(gap_sol):
    return semiclassical_smallp_constants(gap_sol, gap_sol.beta_c)


class TestComputeCoefficients:
    def test_requires_normalized_solution(self, gap_sol_raw):
        with pytest.raises(ValueError, match="normalize"):
            compute_coefficients(gap_sol_raw)

    def test_reference_values(self, gap_sol):
        coeffs = compute_coefficients(gap_sol)
        assert coeffs.b1_scalar == pytest.approx(REFERENCE_B1, rel=1e-7)
        assert coeffs.B2 == pytest.approx(REFERENCE_B2, rel=1e-7)
        assert coeffs.B3 == pytest.approx(REFERENCE_B3, rel=1e-7)
        assert coeffs.beta_c == pytest.approx(1.0 / gap_sol.T_c, rel=1e-14)

    def test_b1_positive_definite_and_b3_positive(self, gap_sol):
        coeffs = compute_coefficients(gap_sol)
        assert np.linalg.eigvalsh(coeffs.B1).min() > 0.0
        assert coeffs.B3 > 0.0

    def test_validation_rejects_bad_coefficients(self):
        with pytest.raises(ValueError, match="positive definite"):
            GLCoefficients(np.array([[-1.0]]), 0.0, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError, match="B3"):
            GLCoefficients(np.array([[1.0]]), 0.0, -1.0, 1.0, 1.0)

    def test_quartic_ratio_linear_in_density(self, gap_sol_raw):
        ratios = []
        for d in (1.0, 2.0):
            c = compute_coefficients(normalize(gap_sol_raw, D=d))
            ratios.append(c.B3 / abs(c.B2))
        assert abs(ratios[1] / ratios[0] - 2.0) < 1e-8

    def test_grid_doubling_stability(self, gap_sol, gap_sol_fine):
        a = compute_coefficients(gap_sol)
        b = compute_coefficients(gap_sol_fine)
        assert abs(a.b1_scalar - b.b1_scalar) / abs(b.b1_scalar) < 1e-5
        assert abs(a.B2 - b.B2) / abs(b.B2) < 1e-5
        assert abs(a.B3 - b.B3) / b.B3 < 1e-5

    def test_needs_no_derivatives_of_t(self, gap_sol, monkeypatch):
        """The moment table reads the samples of t only: t'' stays with
        the block that needs it."""
        coeffs = compute_coefficients(gap_sol)
        e1 = e1_constant(gap_sol, gap_sol.beta_c)

        def forbidden(self, p):
            raise AssertionError("derivative of t evaluated")

        monkeypatch.setattr(GapSolution, "t_second", forbidden)
        again = compute_coefficients(gap_sol)
        assert np.array_equal(again.B1, coeffs.B1)
        assert (again.B2, again.B3) == (coeffs.B2, coeffs.B3)
        assert e1_constant(gap_sol, gap_sol.beta_c) == e1

    def test_serialization_round_trip(self, gap_sol):
        coeffs = compute_coefficients(gap_sol)
        clone = GLCoefficients.from_dict(coeffs.to_dict())
        assert np.array_equal(clone.B1, coeffs.B1)
        assert clone.B2 == coeffs.B2
        assert clone.B3 == coeffs.B3
        assert clone.D == coeffs.D
        assert clone.beta_c == coeffs.beta_c


class TestQuadraticConstant:
    def test_matches_adaptive_quadrature(self, synthetic):
        beta = 2.0
        value = e1_constant(synthetic, beta)
        oracle = -(beta / 2.0) * _adaptive(
            lambda q: np.exp(-2 * q * q) * specfun.g0(beta * (q * q - 1.0))
        )
        assert abs(value - oracle) / abs(oracle) < 1e-6

    def test_rejects_nonpositive_beta(self, synthetic):
        with pytest.raises(ValueError, match="beta"):
            e1_constant(synthetic, 0.0)

    def test_rejects_unknown_source(self):
        for routine in (e1_constant, e2_constants, semiclassical_smallp_constants):
            with pytest.raises(TypeError, match="GapSolution"):
                routine(object(), 1.0)


class TestQuarticConstants:
    def test_matches_adaptive_quadrature(self, synthetic):
        beta = 2.0
        blocks = e2_constants(synthetic, beta)
        t = lambda q: np.exp(-q * q)
        t2nd = lambda q: (4 * q * q - 2.0) * np.exp(-q * q)
        arg = lambda q: beta * (q * q - 1.0)
        oracles = {
            "c_grad_t": -(beta / 8.0)
            * _adaptive(lambda q: t(q) * t2nd(q) * specfun.g0(arg(q))),
            "c_grad_psi": (beta**2 / 8.0)
            * _adaptive(
                lambda q: t(q) ** 2
                * (specfun.g1(arg(q)) + 2 * beta * q * q * specfun.g2(arg(q)))
            ),
            "c_W": (beta**2 / 2.0)
            * _adaptive(lambda q: t(q) ** 2 * specfun.g1(arg(q))),
            "c_quartic": (beta**3 / 8.0)
            * _adaptive(lambda q: t(q) ** 4 * specfun.g1_over_z(arg(q))),
        }
        assert blocks.c_grad_t == pytest.approx(oracles["c_grad_t"], rel=1e-10)
        assert blocks.c_grad_psi == pytest.approx(oracles["c_grad_psi"], rel=1e-10)
        assert blocks.c_W == pytest.approx(oracles["c_W"], rel=1e-10)
        assert blocks.c_quartic == pytest.approx(oracles["c_quartic"], rel=1e-10)

    def test_critical_temperature_identities(self, gap_sol):
        """At beta = beta_c the quartic-term blocks are twice the GL ones."""
        coeffs = compute_coefficients(gap_sol)
        blocks = e2_constants(gap_sol, gap_sol.beta_c)
        assert blocks.c_W == pytest.approx(2.0 * coeffs.B2, rel=1e-12)
        assert blocks.c_quartic == pytest.approx(2.0 * coeffs.B3, rel=1e-12)
        assert blocks.c_grad_psi == pytest.approx(2.0 * coeffs.b1_scalar, rel=1e-12)

    def test_inconsistent_second_derivative_warns(self, synthetic):
        class Lying(SyntheticPairSymbol):
            def t_second(self, q):
                return 1.05 * super().t_second(q)

        liar = Lying(mu=1.0)
        with pytest.warns(UserWarning, match="second derivative"):
            e2_constants(liar, 2.0)


class TestSmallMomentumConstants:
    def test_routes_agree_on_synthetic(self, synthetic):
        sp = semiclassical_smallp_constants(synthetic, 2.0)
        assert sp.max_relative_mismatch() < 1e-7

    def test_identities_with_quartic_blocks(self, synthetic):
        """F(0,0,0), L(0,0) and G''(0) are fixed multiples/combinations
        of the quartic-term blocks at the same beta."""
        beta = 2.0
        sp = semiclassical_smallp_constants(synthetic, beta)
        blocks = e2_constants(synthetic, beta)
        assert sp.f000_closed == pytest.approx(
            (beta / 2.0) * blocks.c_quartic, rel=1e-12
        )
        assert sp.l00_closed == pytest.approx((beta / 2.0) * blocks.c_W, rel=1e-12)
        assert sp.hess_g0_closed == pytest.approx(
            beta * (blocks.c_grad_t + blocks.c_grad_psi), rel=1e-12
        )
        assert sp.g0_closed == pytest.approx(
            (beta / 2.0) * e1_constant(synthetic, beta), rel=1e-12
        )

    def test_grid_doubling_stability(self, gap_sol_fine, smallp_constants):
        fine = semiclassical_smallp_constants(gap_sol_fine, gap_sol_fine.beta_c)
        for name in ("f000_dd", "g0_dd", "l00_dd"):
            a, b = getattr(smallp_constants, name), getattr(fine, name)
            assert abs(a - b) / abs(b) < 1e-5
        a, b = smallp_constants.hess_g0_dd, fine.hess_g0_dd
        assert abs(a - b) / abs(b) < 1e-5

    def test_rejects_nonpositive_beta(self, synthetic):
        with pytest.raises(ValueError, match="beta"):
            semiclassical_smallp_constants(synthetic, -1.0)


class TestSyntheticProfile:
    def test_derivatives_consistent(self, synthetic):
        q = np.linspace(0.1, 3.0, 11)
        h = 1e-5
        fd1 = (synthetic.t(q + h) - synthetic.t(q - h)) / (2 * h)
        fd2 = (synthetic.t(q + h) - 2 * synthetic.t(q) + synthetic.t(q - h)) / h**2
        assert np.allclose(synthetic.t_prime(q), fd1, rtol=1e-8, atol=1e-8)
        assert np.allclose(synthetic.t_second(q), fd2, rtol=1e-5, atol=1e-5)

    def test_quadrature_is_midpoint(self, synthetic):
        q, dq = synthetic.grid.nodes, synthetic.grid.dq
        assert q[0] == pytest.approx(dq / 2)
        assert len(q) == synthetic.n_points
        assert q[-1] == pytest.approx(synthetic.cutoff - dq / 2)
