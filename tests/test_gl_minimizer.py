"""Tests for the torus GL energy, its gradient, and the minimizer."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from scipy.fft import next_fast_len

import bcsgl
from bcsgl import gl_minimizer as gm
from bcsgl.gl_coeffs import GLCoefficients
from bcsgl.gl_minimizer import (
    _GTOL,
    GLState,
    TorusField,
    _descend,
    _evaluate,
    _in_unknowns,
    _quadratic_part,
    _trust_step,
    directional_derivative,
    gauge_transform,
    gl_energy,
    gl_gradient,
    minimize,
)

# Frozen from a converged multistart run (all four starts agree to 13
# digits; stable under doubling n_max to 8e-13 relative).
REFERENCE_MIN_ENERGY = -1.2418462905608e-05

ZERO = TorusField.zero(0)


def _random_field(n_max, rng, scale=0.4, offset=1.0):
    coeffs = scale * (
        rng.standard_normal(2 * n_max + 1)
        + 1j * rng.standard_normal(2 * n_max + 1)
    )
    coeffs[n_max] += offset
    return TorusField(coeffs, n_max)


def _norm_l2(f):
    """``||f||_{L^2}`` on the unit torus (Parseval)."""
    return float(np.linalg.norm(f.coeffs))


def _hessian_action(psi, eta, a, w, coef):
    """Exact Hessian action along ``eta`` as complex coefficients, with
    the Wirtinger gradient at ``psi``."""
    _, grad, (lin, conj) = _evaluate(
        psi, _quadratic_part(a, w, coef, psi.n_max), coef)
    return lin @ eta.coeffs + conj @ np.conj(eta.coeffs), grad


def _grid_route(psi, a, w, coef):
    """Energy, gradient and Hessian action with the covariant derivative
    applied on the collocation grid, the route the matrix form replaced:
    an independent oracle for :func:`_evaluate`."""
    n_max = psi.n_max
    m = next_fast_len(4 * max(psi.n_max, a.n_max, w.n_max) + 1)
    mult = 2j * np.pi * np.fft.fftfreq(m, d=1.0 / m)
    a_g, w_g, psi_g = (f.values_on_grid(m) for f in (a, w, psi))
    abs2 = np.abs(psi_g) ** 2

    def cov(f_g):
        return -1j * np.fft.ifft(mult * np.fft.fft(f_g)) + 2.0 * a_g * f_g

    def coeffs(values):
        return (np.fft.fft(values) / m)[np.arange(-n_max, n_max + 1) % m]

    dpsi = cov(psi_g)
    energy = (coef.b1_scalar * np.mean(np.abs(dpsi) ** 2)
              + coef.B2 * np.mean(w_g * abs2)
              + coef.B3 * np.mean((1.0 - abs2) ** 2)).real
    linear = coef.B2 * w_g - 2.0 * coef.B3 * (1.0 - abs2)
    grad = coeffs(coef.b1_scalar * cov(dpsi) + linear * psi_g)

    def hessp(eta):
        eta_g = TorusField(eta, n_max).values_on_grid(m)
        return coeffs(
            coef.b1_scalar * cov(cov(eta_g)) + linear * eta_g
            + 2.0 * coef.B3 * (abs2 * eta_g + psi_g ** 2 * np.conj(eta_g)))

    return energy, grad, hessp


def _assert_hessian_action(psi, eta, a, w, coef, eps=1e-5):
    """The exact Hessian action matches central differences of the
    gradient along ``eta``.  Along ``i psi`` it equals ``i grad``: the
    gradient turns with the global phase, so the phase direction is a
    zero mode of the Hessian wherever the gradient vanishes."""
    action, grad = _hessian_action(psi, eta, a, w, coef)
    fd = (
        gl_gradient(psi + eps * eta, a, w, coef).coeffs
        - gl_gradient(psi - eps * eta, a, w, coef).coeffs
    ) / (2 * eps)
    assert np.linalg.norm(action - fd) <= 1e-6 * np.linalg.norm(fd) + 1e-12
    phase, _ = _hessian_action(psi, 1j * psi, a, w, coef)
    assert np.linalg.norm(phase - 1j * grad) <= 1e-12 * (
        1.0 + np.linalg.norm(grad))


class TestTorusField:
    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError, match="coefficients"):
            TorusField(np.zeros(4, dtype=complex), 2)

    def test_cosine_matches_formula(self):
        f = TorusField.cosine(0.5, 2)
        x = np.linspace(0, 1, 7, endpoint=False)
        assert np.allclose(f.evaluate(x), 0.5 * np.cos(4 * np.pi * x))
        assert f.is_real()

    def test_sine_matches_formula(self):
        f = TorusField.sine(0.3, 1)
        x = np.linspace(0, 1, 7, endpoint=False)
        assert np.allclose(f.evaluate(x), 0.3 * np.sin(2 * np.pi * x))
        assert f.is_real()

    def test_is_real_tolerance_is_absolute(self):
        """An O(1) coefficient 4e-6 off conjugate symmetry is not real at
        tol 1e-10; exact cosines and sines are real at tol 0."""
        near = TorusField.from_modes({1: 0.5, -1: 0.5 + 4e-6j})
        assert not near.is_real(tol=1e-10)
        assert TorusField.cosine(3.0, 2).is_real(tol=0.0)
        assert TorusField.sine(3.0, 2).is_real(tol=0.0)

    def test_from_modes(self):
        f = TorusField.from_modes({0: 1.0, 2: 0.5j})
        assert f.n_max == 2
        assert f.coeff(2) == 0.5j
        assert f.coeff(-2) == 0.0
        with pytest.raises(ValueError, match="exceeds"):
            TorusField.from_modes({3: 1.0}, n_max=2)

    def test_grid_values_match_direct_evaluation(self):
        rng = np.random.default_rng(3)
        f = _random_field(5, rng)
        m = 32
        x = np.arange(m) / m
        assert np.allclose(f.values_on_grid(m), f.evaluate(x), atol=1e-12)

    def test_grid_too_small_rejected(self):
        with pytest.raises(ValueError, match="grid"):
            TorusField.zero(8).values_on_grid(10)

    def test_derivative(self):
        f = TorusField.cosine(1.0, 3)
        x = np.linspace(0, 1, 11, endpoint=False)
        expected = -6 * np.pi * np.sin(6 * np.pi * x)
        assert np.allclose(f.derivative().evaluate(x), expected)

    def test_pad_and_truncate(self):
        f = TorusField.from_modes({0: 1.0, 1: 0.5})
        padded = f.with_n_max(4)
        assert padded.coeff(1) == 0.5 and padded.coeff(4) == 0.0
        truncated = padded.with_n_max(1)
        assert np.allclose(truncated.coeffs, f.coeffs)

    def test_arithmetic(self):
        f = TorusField.cosine(1.0, 1)
        g = TorusField.constant(2.0, 3)
        h = 2.0 * f + g - g
        x = np.linspace(0, 1, 9, endpoint=False)
        assert np.allclose(h.evaluate(x), 2.0 * np.cos(2 * np.pi * x))

    def test_norms_match_grid_quadrature(self):
        rng = np.random.default_rng(4)
        f = _random_field(6, rng)
        vals = f.values_on_grid(64)
        l2 = np.sqrt(np.mean(np.abs(vals) ** 2))
        assert _norm_l2(f) == pytest.approx(l2, rel=1e-12)

    def test_serialization_round_trip(self):
        rng = np.random.default_rng(5)
        f = _random_field(4, rng)
        clone = TorusField.from_dict(f.to_dict())
        assert clone.n_max == f.n_max
        assert np.allclose(clone.coeffs, f.coeffs, atol=1e-15)


class TestEnergy:
    def test_constant_fields(self, gl_coef):
        for c in (1.0, 0.0, 0.7, 0.3 + 0.2j):
            expected = gl_coef.B3 * (1.0 - abs(c) ** 2) ** 2
            value = gl_energy(TorusField.constant(c, 4), ZERO, ZERO, gl_coef)
            assert value == pytest.approx(expected, abs=1e-14)

    def test_complex_external_field_rejected(self, gl_coef):
        w = TorusField.from_modes({1: 0.5j})  # not conjugate-symmetric
        psi = TorusField.from_modes({0: 1.0, 1: 0.5})
        with pytest.raises(FloatingPointError, match="imaginary"):
            gl_energy(psi, ZERO, w, gl_coef)

    def test_grid_refinement_leaves_energy_unchanged(self, gl_coef):
        """The default collocation grid integrates every term exactly."""
        rng = np.random.default_rng(6)
        psi = _random_field(7, rng)
        a = TorusField.cosine(0.2, 1)
        w = TorusField.cosine(0.5, 1)
        coarse = gl_energy(psi, a, w, gl_coef)
        quad = _quadratic_part(a, w, gl_coef, psi.n_max)
        fine = _evaluate(psi, quad, gl_coef, m=512)[0]
        assert coarse == pytest.approx(fine, rel=1e-14)

    def test_global_phase_invariance(self, gl_coef):
        rng = np.random.default_rng(7)
        psi = _random_field(5, rng)
        a = TorusField.cosine(0.1, 1)
        w = TorusField.cosine(0.4, 1)
        base = gl_energy(psi, a, w, gl_coef)
        rotated = gl_energy(np.exp(0.77j) * psi, a, w, gl_coef)
        assert abs(rotated - base) <= 1e-12 * max(1.0, abs(base))


class TestGridOracle:
    """The matrix form against the covariant derivative on the grid."""

    @pytest.mark.parametrize("case", ["complex", "real"])
    def test_matches_grid_route(self, gl_coef, case):
        """Energy, gradient and the assembled Hessian, applied to random
        directions, against the grid route's Hessian action."""
        rng = np.random.default_rng(12)
        if case == "complex":
            psi = _random_field(7, rng)
            a = TorusField.cosine(0.2, 1) + TorusField.sine(0.1, 3)
            w = TorusField.cosine(0.5, 1) + TorusField.sine(0.3, 2)
        else:
            psi = TorusField(_random_field(7, rng).coeffs.real, 7)
            a, w = ZERO, TorusField.cosine(0.5, 1)
        energy, grad, _ = _evaluate(
            psi, _quadratic_part(a, w, gl_coef, psi.n_max), gl_coef)
        energy_g, grad_g, hessp_g = _grid_route(psi, a, w, gl_coef)
        assert energy == pytest.approx(energy_g, rel=1e-12)
        pairs = [(grad, grad_g)]
        for _ in range(3):
            eta = _random_field(7, rng, scale=0.5, offset=0.0)
            pairs.append((_hessian_action(psi, eta, a, w, gl_coef)[0],
                          hessp_g(eta.coeffs)))
        for got, want in pairs:
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


class TestGradient:
    def test_finite_difference_match(self, gl_coef):
        rng = np.random.default_rng(8)
        psi = _random_field(6, rng)
        a = TorusField.cosine(0.2, 1)
        w = TorusField.cosine(0.5, 1)
        grad = gl_gradient(psi, a, w, gl_coef)
        near_unit = _random_field(6, rng, scale=0.01)
        eps = 1e-5
        for trial in range(3):
            eta = _random_field(6, rng, scale=0.5, offset=0.0)
            fd = (
                gl_energy(psi + eps * eta, a, w, gl_coef)
                - gl_energy(psi - eps * eta, a, w, gl_coef)
            ) / (2 * eps)
            assert directional_derivative(grad, eta) == pytest.approx(
                fd, rel=1e-6
            )
            for base in (psi, near_unit):
                _assert_hessian_action(base, eta, a, w, gl_coef)

    def test_each_term_separately(self, gap_sol):
        """Finite-difference check with the other two coefficients
        switched off (a tiny positive value keeps validation happy)."""
        tiny = 1e-300
        variants = {
            "kinetic": GLCoefficients(np.array([[1.0]]), 0.0, tiny, 1.0, 1.0),
            "potential": GLCoefficients(np.array([[tiny]]), 1.0, tiny, 1.0, 1.0),
            "quartic": GLCoefficients(np.array([[tiny]]), 0.0, 1.0, 1.0, 1.0),
        }
        rng = np.random.default_rng(9)
        psi = _random_field(5, rng)
        a = TorusField.cosine(0.3, 1)
        w = TorusField.cosine(0.7, 1)
        eps = 1e-5
        for coef in variants.values():
            grad = gl_gradient(psi, a, w, coef)
            eta = _random_field(5, rng, scale=0.5, offset=0.0)
            fd = (
                gl_energy(psi + eps * eta, a, w, coef)
                - gl_energy(psi - eps * eta, a, w, coef)
            ) / (2 * eps)
            assert directional_derivative(grad, eta) == pytest.approx(
                fd, rel=1e-6, abs=1e-12
            )
            _assert_hessian_action(psi, eta, a, w, coef)

    def test_uniform_state_is_stationary_without_fields(self, gl_coef):
        psi = TorusField.constant(1.0, 6)
        grad = gl_gradient(psi, ZERO, ZERO, gl_coef)
        assert _norm_l2(grad) < 1e-12
        phase, _ = _hessian_action(psi, 1j * psi, ZERO, ZERO, gl_coef)
        assert np.linalg.norm(phase) < 1e-12

    def test_zero_state_is_stationary(self, gl_coef):
        w = TorusField.cosine(0.5, 1)
        grad = gl_gradient(TorusField.constant(0.0, 6), ZERO, w, gl_coef)
        assert _norm_l2(grad) < 1e-12


@pytest.fixture(scope="module")
def reference_state(gl_coef):
    return minimize(ZERO, TorusField.cosine(0.5, 1), gl_coef, n_max=32)


class TestMinimize:
    def test_free_minimum_is_unit_circle(self, gl_coef):
        state = minimize(ZERO, ZERO, gl_coef, n_max=16)
        assert state.energy < 1e-10
        assert state.gradient_norm < 1e-8
        x = np.linspace(0, 1, 128, endpoint=False)
        assert np.abs(np.abs(state.psi.evaluate(x)) - 1.0).max() < 1e-5

    def test_reference_configuration_regression(self, reference_state):
        assert reference_state.energy == pytest.approx(
            REFERENCE_MIN_ENERGY, rel=1e-9
        )
        assert reference_state.gradient_norm < 1e-8
        assert reference_state.converged

    def test_energy_bounded_by_candidates(self, reference_state, gl_coef):
        w = TorusField.cosine(0.5, 1)
        assert reference_state.energy <= gl_coef.B3
        assert reference_state.energy <= gl_energy(
            TorusField.constant(1.0, 0), ZERO, w, gl_coef
        ) + 1e-15

    def test_monotone_descent(self, reference_state):
        assert all(rec["monotone"] for rec in reference_state.history)

    def test_strong_repulsion_returns_zero_state(self, gap_sol, gl_coef):
        repulsive = GLCoefficients(
            gl_coef.B1, 10.0, gl_coef.B3, gl_coef.D, gl_coef.beta_c
        )
        w = TorusField.constant(1.0, 0)
        state = minimize(ZERO, w, repulsive, n_max=8)
        assert state.energy <= repulsive.B3
        assert np.abs(state.psi.coeffs).max() < 1e-4

    def test_mode_doubling_stability(self, reference_state, gl_coef):
        fine = minimize(ZERO, TorusField.cosine(0.5, 1), gl_coef, n_max=64)
        rel = abs(fine.energy - reference_state.energy) / abs(fine.energy)
        assert rel < 1e-6

    def test_mean_zero_vector_potential_is_gauge_trivial(
        self, reference_state, gl_coef
    ):
        """In one dimension a mean-zero vector potential is a pure gauge,
        so it cannot change the minimum energy."""
        state = minimize(
            TorusField.cosine(0.2, 1), TorusField.cosine(0.5, 1),
            gl_coef, n_max=32,
        )
        assert state.energy == pytest.approx(reference_state.energy, rel=1e-7)

    def test_phase_is_hessian_zero_mode_at_minimum(
        self, reference_state, gl_coef
    ):
        psi = reference_state.psi
        w = TorusField.cosine(0.5, 1)
        phase, _ = _hessian_action(psi, 1j * psi, ZERO, w, gl_coef)
        assert np.linalg.norm(phase) < 1e-12

    def test_known_nonconvergence_point_converges(self):
        """Gaussian well g=3, w=0.7, mu=0.5 in W = 2 cos 2 pi x at n_max=16
        used to stop one start above gtol under one BLAS thread."""
        script = textwrap.dedent("""
            import json
            from bcsgl import gap_solver as gs
            from bcsgl.gl_coeffs import compute_coefficients
            from bcsgl.gl_minimizer import TorusField, minimize
            spec = gs.PotentialSpec.gaussian(3.0, 0.7, 0.5)
            coef = compute_coefficients(gs.normalize(gs.find_tc(spec), 1.0))
            states = [minimize(TorusField.zero(0), TorusField.cosine(2.0),
                               coef, n_max=16, seed=seed) for seed in (0, 1)]
            print(json.dumps([[s.converged, s.history] for s in states]))
        """)
        src = str(Path(bcsgl.__file__).resolve().parents[1])
        path = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=path)
        result = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            env=env, check=True)
        for converged, history in json.loads(result.stdout):
            assert converged
            assert len(history) == 4
            assert all(rec["gradient_norm"] < 1e-9 for rec in history)

    def test_state_validate_and_serialize(self, reference_state, gl_coef):
        w = TorusField.cosine(0.5, 1)
        energy = gl_energy(reference_state.psi, ZERO, w, gl_coef)
        grad = gl_gradient(reference_state.psi, ZERO, w, gl_coef)
        assert abs(energy - reference_state.energy) < 1e-14
        assert abs(_norm_l2(grad) - reference_state.gradient_norm) < 1e-12
        clone = GLState.from_dict(reference_state.to_dict())
        assert clone.energy == reference_state.energy
        assert np.allclose(clone.psi.coeffs, reference_state.psi.coeffs)
        assert clone.history == reference_state.history


@pytest.fixture(scope="module")
def g3_coef():
    """GL coefficients of the Gaussian well g=3, w=0.7, mu=0.5 at D=1."""
    from bcsgl import gap_solver as gs
    from bcsgl.gl_coeffs import compute_coefficients
    spec = gs.PotentialSpec.gaussian(3.0, 0.7, 0.5)
    return compute_coefficients(gs.normalize(gs.find_tc(spec), 1.0))


class TestRealDescent:
    """A = 0 and an even W: the descent runs on the real coefficients."""

    # minimize(A = 0.2 sin, W = 0.5 cos, g3_coef, n_max=16, seed=0),
    # frozen from the complex descent that this input still takes
    G3_A_SIN_ENERGY = -4.649599322276328e-05

    def test_state_is_real_and_critical(self, reference_state, gl_coef):
        psi = reference_state.psi
        assert np.all(psi.coeffs.imag == 0.0)
        assert reference_state.converged
        # the full Wirtinger gradient, imaginary directions included
        grad = gl_gradient(psi, ZERO, TorusField.cosine(0.5, 1), gl_coef)
        assert _norm_l2(grad) < _GTOL

    def test_every_seeded_start_reaches_roundoff_floor(self, reference_state,
                                                       gl_coef):
        w = TorusField.cosine(0.5, 1)
        seeded = minimize(ZERO, w, gl_coef, n_max=32, seed=1)
        for state in (reference_state, seeded):
            assert state.converged
            for rec in state.history:
                assert rec["gradient_norm"] <= 2e-12, rec
                assert rec["iterations"] <= 15, rec
                assert rec["monotone"], rec

    def test_vector_potential_keeps_complex_descent(self, g3_sin_state):
        state = g3_sin_state
        assert np.abs(state.psi.coeffs.imag).max() > 1e-3
        assert state.converged
        assert state.energy == pytest.approx(self.G3_A_SIN_ENERGY, rel=1e-12)


@pytest.fixture(scope="module")
def square_coef():
    """GL coefficients of the square well g=2, w=1, mu=1 at D=1."""
    from bcsgl import gap_solver as gs
    from bcsgl.gl_coeffs import compute_coefficients
    spec = gs.PotentialSpec.square(2.0, 1.0, 1.0)
    return compute_coefficients(gs.normalize(gs.find_tc(spec), 1.0))


@pytest.fixture(scope="module")
def g3_sin_state(g3_coef):
    return minimize(TorusField.sine(0.2, 1), TorusField.cosine(0.5, 1),
                    g3_coef, n_max=16)


class TestTrustRegion:
    """The dense trust-region step on the cases a descent must not stall
    in: negative curvature with no gradient along it, and the
    global-phase zero mode of the packed unknowns."""

    def test_indefinite_start_reaches_minimum(self, square_coef):
        """At psi = 0.5 the constant mode has negative curvature, and the
        descent must pass the psi = 0 saddle (energy B3) to the minimum."""
        w = TorusField.cosine(0.5, 1)
        start = TorusField.constant(0.5, 8)
        _, grad, hess = _evaluate(
            start, _quadratic_part(ZERO, w, square_coef, 8), square_coef)
        assert np.linalg.eigvalsh(_in_unknowns(grad, hess, True)[1])[0] < 0
        record = _descend(start, "constant-0.5", ZERO, w,
                          square_coef).history[0]
        best = minimize(ZERO, w, square_coef, n_max=8)
        assert record["gradient_norm"] <= 2e-12
        assert record["energy"] < square_coef.B3 - 0.2
        assert record["energy"] == pytest.approx(best.energy, rel=1e-12)

    def test_phase_zero_mode_takes_no_step(self, g3_sin_state, g3_coef):
        """At the A = 0.2 sin minimum the packed Hessian has the phase
        direction as a zero mode; the step pseudo-inverts it."""
        psi = g3_sin_state.psi
        quad = _quadratic_part(TorusField.sine(0.2, 1),
                               TorusField.cosine(0.5, 1), g3_coef, psi.n_max)
        _, grad, hess = _evaluate(psi, quad, g3_coef)
        jac, packed = _in_unknowns(grad, hess, False)
        lam = np.linalg.eigvalsh(packed)
        assert np.abs(lam).min() <= 1e-12 * np.abs(lam).max()
        assert np.linalg.norm(_trust_step(packed, jac, 1.0)) <= 1e-12

    @pytest.mark.parametrize("a_amp", [0.0, 0.2])
    @pytest.mark.parametrize("w_amp", [0.5, 2.0])
    @pytest.mark.parametrize("potential", ["gaussian-g2", "square-g2",
                                           "gaussian-g3"])
    def test_every_start_converges(self, request, potential, w_amp, a_amp):
        """The three wells of the benchmark's GL scan, in each of its
        fields, at n_max 16."""
        coef = request.getfixturevalue(
            {"gaussian-g2": "gl_coef", "square-g2": "square_coef",
             "gaussian-g3": "g3_coef"}[potential])
        a = TorusField.sine(a_amp, 1) if a_amp else ZERO
        state = minimize(a, TorusField.cosine(w_amp, 1), coef, n_max=16)
        assert state.converged
        for rec in state.history:
            assert rec["gradient_norm"] <= 2e-12, rec
            assert rec["monotone"], rec


class TestGaugeTransform:
    def test_energy_invariance(self, gl_coef):
        rng = np.random.default_rng(10)
        psi = _random_field(6, rng)
        a = TorusField.cosine(0.2, 1)
        w = TorusField.cosine(0.5, 1)
        chi = TorusField.sine(0.3, 1)
        psi2, a2 = gauge_transform(psi, a, chi)
        before = gl_energy(psi, a, w, gl_coef)
        after = gl_energy(psi2, a2, w, gl_coef)
        assert abs(after - before) / max(1.0, abs(before)) < 1e-10

    def test_constant_gauge_is_global_phase(self, gl_coef):
        rng = np.random.default_rng(11)
        psi = _random_field(4, rng)
        chi = TorusField.constant(0.4, 0)
        psi2, a2 = gauge_transform(psi, ZERO, chi)
        expected = np.exp(-0.8j) * psi.coeffs
        center = psi2.n_max
        got = psi2.coeffs[center - 4: center + 5]
        assert np.allclose(got, expected, atol=1e-12)
        assert np.allclose(a2.coeffs, 0.0)

    def test_transformed_potential_keeps_mean(self):
        a = TorusField.cosine(0.2, 1)
        chi = TorusField.sine(0.5, 2)
        _, a2 = gauge_transform(TorusField.constant(1.0, 2), a, chi)
        assert (a2 - a).coeff(0) == pytest.approx(0.0, abs=1e-15)

    def test_complex_gauge_rejected(self):
        for chi in (TorusField.from_modes({1: 0.5}),
                    TorusField.from_modes({1: 0.5, -1: 0.5 + 4e-6j})):
            with pytest.raises(ValueError, match="real"):
                gauge_transform(TorusField.constant(1.0, 1), ZERO, chi)
