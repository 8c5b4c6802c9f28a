"""Tests for the Bloch-fiber pairing operator and its h-sweeps.

Oracles: dense real-space supercell diagonalization, the closed-form
2x2 reduction for constant order parameter, and frozen regression
values for the composite observables.
"""

import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import block_diag
from scipy.special import xlogy

import bcsgl
from bcsgl import bdg_verifier as bv
from bcsgl import specfun
from bcsgl.gap_solver import normalize
from bcsgl.gl_minimizer import TorusField
import reference_checks as rc
from pair_blocks import dense_alpha, fiber_matrix, full_blocks, held_arrays
from synthetic_symbol import SyntheticPairSymbol

# Frozen outputs of the reference configuration (gaussian well g=2, w=1,
# mu=1, D=1), recomputed from scratch for regression locking.
RESIDUAL_H8 = -3.4314993933018027e-05
H1_DISTANCE_H8 = 0.01517746458805304
L2_LEADING_H8 = 0.15434609774743666
SCALED_ENERGY_H8 = -0.18309154609638587
LHS_CONSTANT = -0.03375574367838836

ZERO = TorusField.zero(0)


def pair_interaction_symbol_form(sol, h, p_modes):
    """``integral V(x) alpha0(x)^2 cos^2(h p x / 2) dx`` per mode, through
    the pair symbol: ``-(beta_c/16) integral t g0 (2t + t(q-hp) + t(q+hp)) dq``
    (the trial-state energy takes the real-space quadrature route)."""
    q = sol.grid.nodes
    g0 = specfun.g0(sol.beta_c * (q * q - sol.mu))
    t_q = sol.t_samples
    out = np.empty(len(p_modes))
    for i, p in enumerate(p_modes):
        shifted = sol.t(q - h * p) + sol.t(q + h * p)
        integrand = t_q * g0 * (2.0 * t_q + shifted)
        out[i] = -(sol.beta_c / 16.0) * 2.0 * np.sum(integrand) * sol.grid.dq
    return out


def free_matrix(op):
    """The decoupled (``Delta = 0``) fiber as a dense block-diagonal matrix."""
    k, _, m22 = full_blocks(op)
    return block_diag(k, m22)


# The dense fiber route, the oracle of the windowed pass: one eigh of the
# whole 2N x 2N fiber, the spectrum of its decoupled blocks, and the plain
# sums of Fermi weights.

def free_spectrum(op):
    """Sorted spectrum of the decoupled fiber (block-diagonal)."""
    k, _, m22 = full_blocks(op)
    return np.sort(np.concatenate([np.linalg.eigvalsh(k),
                                   np.linalg.eigvalsh(m22)]))


def pair_block(matrix, beta):
    """Eigenvalues of ``matrix`` and the upper-right block of
    ``(1 + e^{beta H})^{-1}``, from one dense eigh."""
    lam, vec = np.linalg.eigh(matrix)
    rho = specfun.fermi_rho(beta * lam)
    n = matrix.shape[0] // 2
    return lam, (vec[:n] * rho) @ vec[n:].conj().T


def fiber_trace(op, lam, beta):
    """``sum_j f(beta lam_j) - f(beta lam0_j)`` with ``lam`` the spectrum of
    ``op`` and ``lam0`` that of its decoupled blocks, and its mass
    ``sum_j |f(beta lam_j)| + |f(beta lam0_j)|``."""
    f = specfun.fermi_f(beta * lam)
    f0 = specfun.fermi_f(beta * free_spectrum(op))
    return (float(np.sum(f - f0)),
            float(np.sum(np.abs(f)) + np.sum(np.abs(f0))))


def dense_pass(op, beta):
    """``(trace, mass, alpha)`` of one fiber by the dense route."""
    lam, alpha = pair_block(fiber_matrix(op), beta)
    return (*fiber_trace(op, lam, beta), alpha)


def pair_sums(op, alpha, beta):
    """The pair-block sums of ``bv._pair_sums`` from a dense ``alpha``,
    with whole ``N x N`` arrays: row- and column-weighted H1, L2 of
    ``alpha - lead`` and L2 of ``lead``."""
    h, kappa = op.h, op.momenta
    phi = (beta / 2.0) * specfun.g0(beta * (h * h * kappa * kappa - op.mu)) \
        * op.t_values
    modes = np.arange(len(kappa))
    lead = (h / 2.0) * bv._coeff_matrix(op.psi, modes) \
        * (phi[:, None] + phi[None, :])
    diff_sq = np.abs(alpha - lead) ** 2
    weight = 1.0 + (h * kappa) ** 2
    return (float(np.sum(weight[:, None] * diff_sq)),
            float(np.sum(diff_sq * weight[None, :])),
            float(np.sum(diff_sq)), float(np.sum(np.abs(lead) ** 2)))


def single_mode_fiber(xi0, delta):
    """The one-mode fiber ``K = [[xi0]]``, ``Delta = [[delta]]``, ``M22 =
    [[-xi0]]``: momentum 0, ``mu = -xi0``, ``t = 1`` and ``psi = -delta``
    at ``h = 1``, so that ``-(h/2) psi (t + t)`` is ``delta`` exactly."""
    return bv.FiberOperator(np.zeros(1), np.ones(1),
                            TorusField.constant(-delta), ZERO, ZERO, 1.0,
                            -xi0)


def spied_buffers(monkeypatch):
    """The buffer of each partition the fiber pass runs, in order."""
    buffers, spans = [], bv._window_spans

    def recording(n, buffer, mirror=None):
        buffers.append(buffer)
        return spans(n, buffer, mirror)

    monkeypatch.setattr(bv, "_window_spans", recording)
    return buffers


def assert_doublings(op, beta, buffers, scale):
    """Each buffer doubles the one before, once or more times; each
    doubling skipped has a coupling part of the leak over the bound (its
    partition would fail), and each buffer run has it within."""
    def far(buffer):
        return 2.0 * beta * op.coupling[buffer + 1:].sum()

    assert buffers[0] == bv._WINDOW_BUFFER
    for before, after in zip(buffers, buffers[1:]):
        skipped = 2 * before
        while skipped < after:
            assert far(skipped) > bv._WINDOW_LEAK_BOUND * scale, skipped
            skipped *= 2
        assert skipped == after
        assert far(after) <= bv._WINDOW_LEAK_BOUND * scale, after


def occupations(matrix, beta):
    """Eigenvalues of the Gibbs state ``(1 + e^{beta H})^{-1}``."""
    return specfun.fermi_rho(beta * np.linalg.eigvalsh(matrix))


def entropy(matrix, beta):
    """``-sum [lam ln lam + (1-lam) ln(1-lam)]`` over the state's spectrum."""
    occ = occupations(matrix, beta)
    return float(-np.sum(xlogy(occ, occ) + xlogy(1.0 - occ, 1.0 - occ)))


@pytest.fixture(scope="module")
def fields():
    """Reference <=2-mode field triple (psi, a, w)."""
    return (
        TorusField.from_modes({0: 0.75, 1: 0.2 + 0.1j}, n_max=2),
        TorusField.cosine(0.2, 1),
        TorusField.cosine(0.5, 1),
    )


@pytest.fixture(scope="module")
def shared_pass(gap_sol, fields):
    """``alpha_delta_distance`` with its default cap of 16 fibers at
    h = 1/8, 1/16 and 1/32: the trace and pair values of one fiber pass
    per h."""
    psi, a, w = fields
    return {h: bv.alpha_delta_distance(gap_sol, psi, a, w, h)
            for h in (0.125, 0.0625, 0.03125)}


# ---------------------------------------------------------------------------
# Basis
# ---------------------------------------------------------------------------


class TestFiberBasis:
    def test_modes_and_momenta(self):
        basis = bv.FiberBasis(0.25, 4, 8)
        assert basis.size == 9
        np.testing.assert_array_equal(basis.modes, np.arange(-4, 5))
        np.testing.assert_allclose(
            basis.momenta(0.3), 2 * math.pi * basis.modes + 0.3
        )
        # (-pi, pi]: k = -3 .. 4, symmetric about 0 apart from xi = pi
        xi = basis.xi_nodes
        assert len(xi) == 8 and xi[3] == 0.0 and xi[-1] == math.pi
        np.testing.assert_allclose(xi, 2 * math.pi * np.arange(-3, 5) / 8)
        np.testing.assert_array_equal(xi[:3], -xi[4:7][::-1])
        np.testing.assert_array_equal(basis.half_nodes, xi[3:])

    def test_odd_grid_has_no_pi_node(self):
        basis = bv.FiberBasis(0.25, 4, 5)
        xi = basis.xi_nodes
        np.testing.assert_allclose(xi, 2 * math.pi * np.arange(-2, 3) / 5)
        np.testing.assert_array_equal(xi[:2], -xi[3:][::-1])
        np.testing.assert_array_equal(basis.half_nodes, xi[2:])

    def test_grids_nest(self):
        # the M-node grid is the even-k subset of the 2M-node grid, float
        # for float, so a doubled grid reuses every node it had
        for m in range(1, 17):
            coarse = bv.FiberBasis(0.25, 4, m).xi_nodes
            fine = bv.FiberBasis(0.25, 4, 2 * m).xi_nodes
            k = np.arange(1 - m, m + 1)
            np.testing.assert_array_equal(fine[k % 2 == 0], coarse, str(m))

    def test_validation(self):
        with pytest.raises(ValueError, match="h must lie"):
            bv.FiberBasis(1.5, 4, 8)
        with pytest.raises(ValueError, match="positive"):
            bv.FiberBasis(0.25, 0, 8)
        with pytest.raises(ValueError, match="positive"):
            bv.FiberBasis(0.25, 4, 0)

    def test_coverage_guard(self, gap_sol, fields):
        psi, a, w = fields
        basis = bv.FiberBasis(0.125, 2, 4)
        with pytest.raises(ValueError, match="increase n_max"):
            basis.check_coverage(12.0)
        with pytest.raises(ValueError, match="increase n_max"):
            bv.semiclassical_trace(gap_sol, psi, a, w, 0.125, n_max=2)

    def test_default_cutoff_covers_symbol(self, gap_sol):
        for h in (0.125, 0.015625):
            n = bv.default_mode_cutoff(h, 12.0)
            assert h * 2 * math.pi * n >= 12.0


# ---------------------------------------------------------------------------
# Fiber assembly
# ---------------------------------------------------------------------------


class TestFiberAssembly:
    def test_hermitian(self, gap_sol, fields):
        psi, a, w = fields
        basis = bv.FiberBasis(0.25, 8, 4)
        op = bv.build_fiber(basis, 0.7, psi, a, w, gap_sol.t, gap_sol.mu)
        full = fiber_matrix(op)
        assert np.abs(full - full.conj().T).max() <= 1e-12

    def test_matrix_is_the_block_assembly(self, gap_sol, fields):
        psi, a, w = fields
        basis = bv.FiberBasis(0.25, 8, 4)
        op = bv.build_fiber(basis, 0.7, psi, a, w, gap_sol.t, gap_sol.mu)
        k, delta, m22 = full_blocks(op)
        np.testing.assert_array_equal(fiber_matrix(op), np.block([
            [k, delta], [delta.conj().T, m22]]))
        np.testing.assert_array_equal(op.t_values,
                                      gap_sol.t(basis.h * op.momenta))

    def test_non_hermitian_diagonal_block_raises(self, gap_sol, fields,
                                                 monkeypatch):
        # a complex w that gets past the reality guard makes the particle
        # and hole blocks non-Hermitian; the check on every assembled block
        # sees it: a window of the fiber pass, and the full blocks
        psi, a, _ = fields
        monkeypatch.setattr(TorusField, "is_real", lambda self, tol=0: True)
        bad = TorusField.from_modes({1: 0.3j}, n_max=1)
        op = bv.build_fiber(bv.FiberBasis(0.25, 8, 4), 0.7, psi, a, bad,
                            gap_sol.t, gap_sol.mu)
        for assemble in (lambda: op.blocks(3, 9),
                         lambda: bv._fiber_pass(op, gap_sol.beta_c),
                         lambda: fiber_matrix(op)):
            with pytest.raises(FloatingPointError,
                               match="xi=0.700000 lost Hermiticity"):
                assemble()

    def test_complex_external_field_rejected(self, gap_sol, fields):
        psi, a, w = fields
        basis = bv.FiberBasis(0.25, 8, 4)
        # off conjugate symmetry by 4e-6 on an O(1) coefficient
        near = TorusField.from_modes({1: 0.5, -1: 0.5 + 4e-6j})
        for bad in (TorusField.from_modes({1: 0.3j}, n_max=1), near):
            for fa, fw in ((bad, w), (a, bad)):
                with pytest.raises(ValueError, match="real"):
                    bv.build_fiber(basis, 0.0, psi, fa, fw, gap_sol.t,
                                   gap_sol.mu)
        bv.build_fiber(basis, 0.0, psi, TorusField.sine(0.2, 1),
                       TorusField.cosine(0.5, 2), gap_sol.t, gap_sol.mu)

    def test_hole_block_is_reflected_conjugate(self, gap_sol, fields):
        psi, a, w = fields
        basis = bv.FiberBasis(0.25, 8, 4)
        xi = math.pi / 3
        op_plus = bv.build_fiber(basis, xi, psi, a, w, gap_sol.t, gap_sol.mu)
        op_minus = bv.build_fiber(basis, -xi, psi, a, w, gap_sol.t,
                                  gap_sol.mu)
        # hole block at xi = -conj(particle block at -xi, modes reversed)
        np.testing.assert_allclose(
            full_blocks(op_plus)[2],
            -np.conj(full_blocks(op_minus)[0][::-1, ::-1]),
            atol=1e-12,
        )

    def test_pairing_block_operator_symmetry(self, gap_sol, fields):
        psi, a, w = fields
        basis = bv.FiberBasis(0.25, 8, 4)
        xi = math.pi / 3
        op_plus = bv.build_fiber(basis, xi, psi, a, w, gap_sol.t, gap_sol.mu)
        op_minus = bv.build_fiber(basis, -xi, psi, a, w, gap_sol.t,
                                  gap_sol.mu)
        # symmetric kernel: Delta^xi[n, n'] = Delta^{-xi}[-n', -n]
        np.testing.assert_allclose(
            full_blocks(op_plus)[1],
            full_blocks(op_minus)[1][::-1, ::-1].T,
            atol=1e-12,
        )

    def test_zero_pairing(self, gap_sol, fields):
        _, a, w = fields
        basis = bv.FiberBasis(0.25, 8, 4)
        op = bv.build_fiber(basis, 0.3, ZERO, a, w, gap_sol.t, gap_sol.mu)
        assert np.abs(full_blocks(op)[1]).max() == 0.0

    def test_free_spectrum_matches_dense(self, gap_sol, fields):
        psi, a, w = fields
        basis = bv.FiberBasis(0.25, 8, 4)
        op = bv.build_fiber(basis, 1.1, psi, a, w, gap_sol.t, gap_sol.mu)
        dense = np.linalg.eigvalsh(free_matrix(op))
        np.testing.assert_allclose(free_spectrum(op), dense, atol=1e-11)

    def test_decoupled_spectrum_symmetric_across_reflection(
        self, gap_sol, fields
    ):
        _, a, w = fields
        basis = bv.FiberBasis(0.25, 8, 4)
        xi = 0.9
        both = np.concatenate([
            free_spectrum(bv.build_fiber(basis, xi, ZERO, a, w, gap_sol.t,
                                         gap_sol.mu)),
            free_spectrum(bv.build_fiber(basis, -xi, ZERO, a, w, gap_sol.t,
                                         gap_sol.mu)),
        ])
        both = np.sort(both)
        np.testing.assert_allclose(both, -both[::-1], atol=1e-11)


# ---------------------------------------------------------------------------
# Trace per unit volume
# ---------------------------------------------------------------------------


def _op_family(gap_sol, fields, basis):
    psi, a, w = fields

    def builder(xi):
        return bv.build_fiber(basis, xi, psi, a, w, gap_sol.t, gap_sol.mu)

    return builder


class TestTracePerUnitVolume:
    def test_expansion_constants_once_per_solution(self, gap_sol, fields,
                                                   monkeypatch):
        # every h point contracts the same E1 and E2 blocks: a solution
        # computes them once, with the bits of a solution computing anew
        psi, a, w = fields
        calls, e2_constants = [], bv.e2_constants

        def counting(source, beta):
            calls.append(beta)
            return e2_constants(source, beta)

        monkeypatch.setattr(bv, "e2_constants", counting)
        sol = replace(gap_sol)
        swept = [bv.alpha_delta_distance(sol, psi, a, w, h, m_fibers=16)
                 for h in (0.25, 0.125)]
        assert calls == [sol.beta_c]
        fresh = bv.alpha_delta_distance(replace(gap_sol), psi, a, w, 0.125,
                                        m_fibers=16)
        assert len(calls) == 2
        assert fresh == swept[1]

    def test_eigensolver_failure_reports_fiber(self, gap_sol, fields,
                                               monkeypatch):
        # only the fiber at xi = pi/2 fails; the error names that fiber.
        # The Bloch ladder folds xi = 0 and pi first and reaches pi/2 on
        # its M = 4 rung.
        psi, a, w = fields
        target = bv.FiberBasis(0.25, 8, 4).half_nodes[1]
        built = []
        build, eigh = bv.build_fiber, np.linalg.eigh

        def recording(basis, xi, *args):
            built.append(xi)
            return build(basis, xi, *args)

        def failing(matrix, *args, **kwargs):
            if built[-1] == target:
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return eigh(matrix, *args, **kwargs)

        monkeypatch.setattr(bv, "build_fiber", recording)
        monkeypatch.setattr(np.linalg, "eigh", failing)
        with pytest.raises(RuntimeError, match=f"xi={target:.6f}"):
            bv.semiclassical_trace(gap_sol, psi, a, w, 0.25, m_fibers=4)
        assert built == [0.0, math.pi, target]

    def test_free_spectrum_within_backward_error(self, gap_sol, fields):
        # Each solver returns the exact spectrum of a matrix within
        # n eps ||H||_2 of the input (backward error), so by Weyl the two
        # routes differ by at most twice that, eigenvalue by eigenvalue.
        basis = bv.FiberBasis(0.25, 8, 4)
        builder = _op_family(gap_sol, fields, basis)
        eps = np.finfo(float).eps
        for xi in basis.xi_nodes:
            op = builder(xi)
            dense = free_matrix(op)
            bound = 2 * dense.shape[0] * eps * np.linalg.norm(dense, 2)
            diff = np.abs(free_spectrum(op) - np.linalg.eigvalsh(dense))
            assert diff.max() <= bound, xi


# ---------------------------------------------------------------------------
# Translation-invariant closed-form oracle
# ---------------------------------------------------------------------------


class TestTranslationInvariantOracle:
    def test_lhs_matches_quadrature(self, gap_sol):
        c, h = 0.75, 0.25
        res = bv.semiclassical_trace(gap_sol, TorusField.constant(c), ZERO,
                                     ZERO, h)
        beta = gap_sol.beta_c
        q = np.linspace(0.0, 24.0, 100001)
        t_vals = np.concatenate(
            [gap_sol.t(q[i:i + 8192]) for i in range(0, len(q), 8192)]
        )
        kin = q * q - gap_sol.mu
        gap_fn = -h * c * t_vals
        energy = np.hypot(kin, gap_fn)
        f = specfun.fermi_f
        integrand = (
            f(beta * energy) + f(-beta * energy) - f(beta * kin) - f(-beta * kin)
        )
        oracle = 2.0 * np.trapezoid(integrand, q) / (2 * math.pi) / beta
        assert res["lhs"] == pytest.approx(oracle, rel=1e-8)

    def test_lhs_regression(self, gap_sol):
        res = bv.semiclassical_trace(
            gap_sol, TorusField.constant(0.75), ZERO, ZERO, 0.25
        )
        assert res["lhs"] == pytest.approx(LHS_CONSTANT, rel=1e-9)

    def test_trace_view_converges_on_the_trace(self, gap_sol):
        # the view's ladder waits for lhs alone: at the default cap it
        # converges without a warning, where the shared pass also waits
        # for the pair norms (its H1 change of 1.3e-11 is above its floor)
        args = (gap_sol, TorusField.constant(0.75), ZERO, ZERO, 0.25)
        res = bv.semiclassical_trace(*args)
        assert res["capped"] is False
        assert res["delta_lhs"] <= res["lhs_floor"]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            shared = bv.alpha_delta_distance(*args)
        assert abs(res["lhs"] - shared["lhs"]) <= res["lhs_floor"]

    def test_pair_block_closed_form(self, gap_sol):
        c, h = 0.75, 0.25
        basis = bv.FiberBasis(h, 16, 16)
        beta = gap_sol.beta_c
        op = bv.build_fiber(
            basis, basis.xi_nodes[3], TorusField.constant(c), ZERO, ZERO,
            gap_sol.t, gap_sol.mu,
        )
        lam, vec = np.linalg.eigh(fiber_matrix(op))
        gamma = (vec * specfun.fermi_rho(beta * lam)) @ vec.conj().T
        alpha = gamma[:basis.size, basis.size:]

        q = h * op.momenta
        kin = q * q - gap_sol.mu
        gap_fn = -h * c * gap_sol.t(q)
        energy = np.hypot(kin, gap_fn)
        expected = -0.5 * np.tanh(beta * energy / 2.0) * gap_fn / energy
        np.testing.assert_allclose(np.diag(alpha).real, expected, atol=1e-12)
        off = alpha - np.diag(np.diag(alpha))
        assert np.abs(off).max() < 1e-13


# ---------------------------------------------------------------------------
# Windowed fiber pass
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def window_fields(fields, gl_min_state, rich_fields):
    """The field triples of the windowed-pass cases: the sweep probe
    (complex), the real GL state (A = 0, W = 0.5 cos), the rich fields
    (A != 0) and the probe with A = 0.3 + 0.2 cos, whose constant mode
    a_0 puts the cross term 2 h^2 kappa a_0 on the diagonal of both
    blocks, so that a derived window or partner fiber has another mass
    than its source."""
    psi, a, w = fields
    return {"probe": fields,
            "gl_state": (gl_min_state.psi, ZERO, TorusField.cosine(0.5, 1)),
            "rich_fields": rich_fields,
            "constant_a": (psi, TorusField.constant(0.3) + a, w)}


@pytest.fixture(scope="module")
def windowed_fibers(gap_sol, window_fields):
    """Fibers of many windows at h = 1/64 (2N = 526), one per case of
    :func:`window_fields`, at a node with a partner elsewhere."""
    basis = bv._resolve_basis(gap_sol, 0.015625, 16, None)
    xi = basis.half_nodes[3]
    return {name: bv.build_fiber(basis, xi, *f, gap_sol.t, gap_sol.mu)
            for name, f in window_fields.items()}


@pytest.fixture(scope="module")
def self_partnered_fibers(gap_sol, window_fields):
    """The fibers ``xi = 0`` (mirror 0) and ``xi = pi`` (mirror 1) of each
    case, keyed ``(h, case, mirror)``: at h = 1/64 (N = 263, nine cores at
    both nodes, the middle one its own mirror) and at h = 1/32 with 80
    modes a side (N = 161, seven cores at xi = 0 and six at xi = pi, which
    meet at its centre)."""
    fibers = {}
    for h, n_max in ((0.015625, None), (0.03125, 80)):
        basis = bv._resolve_basis(gap_sol, h, 16, n_max)
        for mirror, xi in ((0, basis.half_nodes[0]),
                           (1, basis.half_nodes[-1])):
            for name, f in window_fields.items():
                fibers[h, name, mirror] = bv.build_fiber(
                    basis, xi, *f, gap_sol.t, gap_sol.mu)
    return fibers


WINDOW_CASES = ["probe", "gl_state", "rich_fields", "constant_a"]
SELF_PARTNERED = [(h, case, mirror) for h in (0.015625, 0.03125)
                  for case in WINDOW_CASES for mirror in (0, 1)]


def generic_spans(n, buffer):
    """The partition of an ``n``-mode fiber with a partner elsewhere:
    ``ceil(n / 32)`` even cores, or one window where the windows would
    cost more than the whole fiber."""
    cores = -(-n // 32)
    edges = [k * n // cores for k in range(cores + 1)]
    spans = [(max(0, a - buffer), min(n, b + buffer), a, b)
             for a, b in zip(edges, edges[1:])]
    if sum((hi - lo) ** 3 for lo, hi, _, _ in spans) >= n ** 3:
        return [(0, n, 0, n)]
    return spans


def check_tiny_buffer(op, beta, monkeypatch, mirror=None):
    """One buffer mode leaks 0.3 of max |alpha|: the buffer doubles until
    the leak is below the bound, skipping the doublings whose coupling
    part is over it (the rich fields couple modes up to 4 apart), and the
    values are those of the default partition."""
    base = bv._fiber_pass(op, beta, mirror)
    buffers = spied_buffers(monkeypatch)
    monkeypatch.setattr(bv, "_WINDOW_BUFFER", 1)
    doubled = bv._fiber_pass(op, beta, mirror)
    n = len(op.momenta)
    base_alpha = dense_alpha(base.alpha, n)
    assert_doublings(op, beta, buffers, np.abs(base_alpha).max())
    assert buffers[:2] == [1, 4]
    assert len(buffers) > 2 and doubled.window[1] == buffers[-1]
    eps = np.finfo(float).eps
    assert abs(doubled.trace - base.trace) <= 1e-2 * eps * base.mass
    assert np.abs(dense_alpha(doubled.alpha, n) - base_alpha).max() \
        <= 1e-11 * np.abs(base_alpha).max()


def check_whole_fiber_fallback(op, beta, monkeypatch, mirror=None):
    """No partition meets a bound of 0: the windows grow to one window on
    the whole fiber, the dense solve, and record no buffer."""
    monkeypatch.setattr(bv, "_WINDOW_LEAK_BOUND", 0.0)
    fp = bv._fiber_pass(op, beta, mirror)
    n = len(op.momenta)
    assert fp.window == (n, 0, 0.0)
    trace, mass, alpha = dense_pass(op, beta)
    assert abs(fp.trace - trace) <= np.finfo(float).eps * mass
    assert np.abs(dense_alpha(fp.alpha, n) - alpha).max() \
        <= 1e-12 * np.abs(alpha).max()


class TestWindowedPass:
    """The windowed pass against the dense route (one eigh of the whole
    fiber, plain sums of Fermi weights) and against itself on other
    window partitions."""

    def test_window_spans(self):
        # even cores of at most 32 modes, buffers clipped at the ends
        assert bv._window_spans(100, 8) == [
            (0, 33, 0, 25), (17, 58, 25, 50), (42, 83, 50, 75),
            (67, 100, 75, 100)]
        assert bv._window_spans(32, 8) == [(0, 32, 0, 32)]
        # with 24 buffer modes the four windows (49, 73, 73 and 49 modes)
        # would cost more eigensolve work than the whole fiber
        assert len(bv._window_spans(100, 16)) == 4
        assert bv._window_spans(100, 24) == [(0, 100, 0, 100)]

    @settings(max_examples=400, deadline=None)
    @given(st.integers(1, 2100), st.sampled_from([1, 8, 64]),
           st.sampled_from([None, 0, 1]))
    def test_partitions(self, n, buffer, mirror):
        # the cores tile [0, n), each padded by the buffer within the
        # fiber; a generic fiber keeps the even split, and a fiber that
        # reflects onto itself (i -> n - 1 - mirror - i) has the mirror of
        # each window clear of both ends (of every window at xi = 0) in
        # its partition, with no core larger than the even split's
        spans = bv._window_spans(n, buffer, mirror)
        assert spans[0][2] == 0 and spans[-1][3] == n
        assert all(b == a for (*_, b), (_, _, a, _) in zip(spans, spans[1:]))
        for lo, hi, a, b in spans:
            assert a < b
            assert (lo, hi) == (max(0, a - buffer), min(n, b + buffer))
        if mirror is None:
            assert spans == generic_spans(n, buffer)
            return
        end = n - mirror
        for lo, hi, a, b in spans:
            if mirror == 0 or (lo > 0 and hi < n):
                assert (end - hi, end - lo, end - b, end - a) in spans
        if len(spans) > 1:
            assert max(b - a for _, _, a, b in spans) <= -(-n // -(-n // 32))

    @pytest.mark.parametrize("case", WINDOW_CASES)
    def test_matches_the_dense_route(self, gap_sol, windowed_fibers, case):
        # measured: traces within 0.59 eps * mass (the dense route's own
        # roundoff), masses within 3.4e-16 relative, pair blocks within
        # 8.2e-13 of max |alpha|
        op = windowed_fibers[case]
        beta = gap_sol.beta_c
        fp = bv._fiber_pass(op, beta)
        n = len(op.momenta)
        assert len(bv._window_spans(n, fp.window[1])) > 1
        trace, mass, alpha = dense_pass(op, beta)
        eps = np.finfo(float).eps
        assert abs(fp.trace - trace) <= eps * mass
        assert fp.mass == pytest.approx(mass, rel=1e-14)
        assert np.abs(dense_alpha(fp.alpha, n) - alpha).max() \
            <= 1e-11 * np.abs(alpha).max()

    @pytest.mark.parametrize("case", WINDOW_CASES)
    def test_partner_matches_the_dense_route(self, gap_sol,
                                             windowed_fibers, case):
        # the partner -xi that the sweeps derive from the pass at xi
        # (_reflection), against the dense route of the fiber built at
        # -xi, with the tolerances of the fiber itself.  Measured: traces
        # within 0.55 eps * mass, masses within 2.3e-16 relative, pair
        # blocks within 8.5e-13 of max |alpha|; with a_0 != 0 the mass
        # copied from xi was off by 6.3e-6 relative
        op = windowed_fibers[case]
        beta = gap_sol.beta_c
        trace, mass, blocks = bv._reflection(op, beta,
                                             bv._fiber_pass(op, beta)[:3])
        basis = bv._resolve_basis(gap_sol, op.h, 16, len(op.momenta) // 2)
        minus = bv.build_fiber(basis, -op.xi, op.psi, op.a, op.w, gap_sol.t,
                               gap_sol.mu)
        dense_trace, dense_mass, alpha = dense_pass(minus, beta)
        eps = np.finfo(float).eps
        assert abs(trace - dense_trace) <= eps * dense_mass
        assert mass == pytest.approx(dense_mass, rel=1e-14)
        assert np.abs(dense_alpha(blocks, len(op.momenta)) - alpha).max() \
            <= 1e-11 * np.abs(alpha).max()

    @pytest.mark.parametrize("mirror", [None, 0])
    def test_two_divided_differences_per_solved_window(
            self, gap_sol, windowed_fibers, self_partnered_fibers,
            monkeypatch, mirror):
        # each solved window takes f[x, y] once per free block through
        # the module attribute specfun.divided_difference, which is where
        # the benchmark's tracer times it; a derived window takes none
        op = (windowed_fibers["probe"] if mirror is None
              else self_partnered_fibers[0.015625, "probe", mirror])
        calls, solved = [], []
        divided_difference, window = specfun.divided_difference, bv._window

        def counting(x, y):
            calls.append(np.broadcast_shapes(np.shape(x), np.shape(y)))
            return divided_difference(x, y)

        def recording(op, beta, lo, hi, a, b, columns=False):
            solved.append(2 * (hi - lo))
            return window(op, beta, lo, hi, a, b, columns)

        monkeypatch.setattr(specfun, "divided_difference", counting)
        monkeypatch.setattr(bv, "_window", recording)
        fp = bv._fiber_pass(op, gap_sol.beta_c, mirror)
        spans = bv._window_spans(len(op.momenta), fp.window[1], mirror)
        derived = 0 if mirror is None else (len(spans) - 1 - mirror) // 2
        assert len(solved) == len(spans) - derived
        assert derived > 0 or mirror is None
        assert calls == [(size, size // 2) for size in solved
                         for _ in range(2)]

    @pytest.mark.parametrize("case", WINDOW_CASES)
    def test_partitions_agree(self, gap_sol, windowed_fibers, monkeypatch,
                              case):
        # the Daleckii-Krein trace of a partition is exact up to the
        # couplings it drops; measured 1.5e-6 .. 7.5e-6 eps * mass apart
        op = windowed_fibers[case]
        beta = gap_sol.beta_c
        base = bv._fiber_pass(op, beta)
        monkeypatch.setattr(bv, "_WINDOW_CORE", 48)
        monkeypatch.setattr(bv, "_WINDOW_BUFFER", 12)
        other = bv._fiber_pass(op, beta)
        assert other.window[:2] != base.window[:2]
        eps = np.finfo(float).eps
        assert abs(other.trace - base.trace) <= 1e-2 * eps * base.mass
        n = len(op.momenta)
        base_alpha = dense_alpha(base.alpha, n)
        assert np.abs(dense_alpha(other.alpha, n) - base_alpha).max() \
            <= 1e-11 * np.abs(base_alpha).max()

    def test_a_tiny_buffer_doubles(self, gap_sol, windowed_fibers,
                                   monkeypatch):
        check_tiny_buffer(windowed_fibers["rich_fields"], gap_sol.beta_c,
                          monkeypatch)

    def test_a_leak_above_the_bound_grows_to_the_whole_fiber(
            self, gap_sol, windowed_fibers, monkeypatch):
        check_whole_fiber_fallback(windowed_fibers["gl_state"],
                                   gap_sol.beta_c, monkeypatch)

    @pytest.mark.parametrize("a, w, windows, partitions", [
        (ZERO, TorusField.cosine(0.5, 12), "several", [8, 16, 32]),
        (ZERO, TorusField.cosine(0.5, 48), "one", [8, 64]),
        (TorusField.cosine(0.2, 24), ZERO, "one", [8, 64]),
    ], ids=["W at 12", "W at 48", "A at 24"])
    def test_a_far_field_mode_widens_the_windows(self, gap_sol, fields,
                                                 monkeypatch, a, w, windows,
                                                 partitions):
        # a coupling farther than the buffer is no leak the pair block
        # shows at the buffer's edge (W at 48 with buffer 8 left alpha off
        # by 4.2e-6 of its max); its weight in the leak widens the buffer
        # past it (W at 12: buffer 32) or to the whole fiber.  Measured:
        # traces within 0.53 eps * mass, pair blocks within 9.5e-13.  The
        # buffer jumps over the doublings whose coupling part is over the
        # bound: W at 48 and A at 24 ran 8, 16, 32, 64 by plain doubling,
        # with the same window record and values
        basis = bv._resolve_basis(gap_sol, 0.015625, 16, None)
        op = bv.build_fiber(basis, basis.half_nodes[3], fields[0], a, w,
                            gap_sol.t, gap_sol.mu)
        beta = gap_sol.beta_c
        buffers = spied_buffers(monkeypatch)
        fp = bv._fiber_pass(op, beta)
        n = len(op.momenta)
        reach = int(np.nonzero(op.coupling)[0].max())
        core, buffer, _ = fp.window
        if windows == "several":
            assert core < n and buffer >= reach and buffer == 32
        else:
            assert fp.window == (n, 0, 0.0)
        assert buffers == partitions
        trace, mass, alpha = dense_pass(op, beta)
        assert_doublings(op, beta, buffers, np.abs(alpha).max())
        assert abs(fp.trace - trace) <= np.finfo(float).eps * mass
        assert np.abs(dense_alpha(fp.alpha, n) - alpha).max() \
            <= 1e-11 * np.abs(alpha).max()

    def test_coupling_bounds_the_blocks(self, gap_sol, rich_fields):
        # every entry d modes off the diagonal is within coupling[d]
        basis = bv.FiberBasis(0.0625, 40, 4)
        op = bv.build_fiber(basis, 0.3, *rich_fields, gap_sol.t, gap_sol.mu)
        blocks = full_blocks(op)
        n = len(blocks[0])
        d = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
        for block in blocks:
            off = d > 0
            assert np.all(np.abs(block[off]) <= op.coupling[d[off]])
        assert np.nonzero(op.coupling[1:])[0].max() + 1 == 4

    def test_matrix_is_assembled_only_when_asked(self, gap_sol, fields):
        # the fiber holds the data of its blocks: a pass over its windows
        # leaves no N x N array on it, and neither do its full blocks
        psi, a, w = fields
        op = bv.build_fiber(bv.FiberBasis(0.0625, 40, 4), 0.3, psi, a, w,
                            gap_sol.t, gap_sol.mu)
        bv._fiber_pass(op, gap_sol.beta_c)
        assert held_arrays(op) == []
        n = len(op.momenta)
        assert [b.shape for b in full_blocks(op)] == [(n, n)] * 3
        assert held_arrays(op) == []

    @pytest.mark.parametrize("case", WINDOW_CASES)
    def test_blocks_are_slices_of_the_full_blocks(self, windowed_fibers,
                                                  case):
        # each window's blocks are the slices of the full blocks, bit for
        # bit and in their dtype: real (the GL state) and complex (the
        # probe's pairing block, the rich fields' particle and hole blocks)
        op = windowed_fibers[case]
        n = len(op.momenta)
        fresh = replace(op)
        ranges = [(lo, hi) for lo, hi, _, _ in bv._window_spans(n, 8)]
        ranges += [(0, 1), (n - 1, n), (5, 200), (0, n)]
        for lo, hi in ranges:
            for part, full in zip(fresh.blocks(lo, hi), full_blocks(op)):
                assert part.dtype == full.dtype
                assert np.array_equal(part, full[lo:hi, lo:hi]), (lo, hi)
        kinds = [b.dtype.kind for b in full_blocks(op)]
        assert kinds == {"probe": ["f", "c", "f"], "gl_state": ["f", "f", "f"],
                         "rich_fields": ["c", "c", "c"],
                         "constant_a": ["f", "c", "f"]}[case]

    @pytest.mark.parametrize("case", WINDOW_CASES)
    def test_pair_sums_match_the_dense_oracle(self, gap_sol, windowed_fibers,
                                              case):
        # the sums one core row block at a time against whole N x N arrays
        # on the same pair block, densified: the same terms in another
        # order (the GL state's psi has 65 modes, so lead reaches far
        # beyond each window's columns).  Measured within 2.9e-16 relative
        op = windowed_fibers[case]
        beta = gap_sol.beta_c
        fp = bv._fiber_pass(op, beta)
        got = bv._pair_sums(op, fp.alpha, beta)
        want = pair_sums(op, dense_alpha(fp.alpha, len(op.momenta)), beta)
        assert got == pytest.approx(want, rel=1e-14)

    @pytest.mark.parametrize("case", WINDOW_CASES)
    def test_band_and_partner_match_the_dense_oracle(
            self, gap_sol, windowed_fibers, case):
        # the trial-state band ((e1x @ alpha) * conj(e1x)) @ phases at xi,
        # and at -xi with J alpha^T J, block by block and 64 modes at a
        # time against the dense pair block.  Measured within 4.9e-16 of
        # the largest entry (3.6e-16 with one product over all modes)
        op = windowed_fibers[case]
        fp = bv._fiber_pass(op, gap_sol.beta_c)
        n = len(op.momenta)
        alpha = dense_alpha(fp.alpha, n)
        modes = np.arange(n) - n // 2
        x_nodes = (np.arange(129) + 0.5) / 129
        u_nodes = np.linspace(-8.0, 8.0, 129)
        e1x = np.exp(2j * math.pi * np.outer(x_nodes, modes))
        for blocks, dense, xi in (
                (fp.alpha, alpha, op.xi),
                (bv._reflection(op, gap_sol.beta_c, fp[:3])[2],
                 alpha[::-1, ::-1].T, -op.xi)):
            phases = np.exp(-1j * np.outer(2.0 * math.pi * modes + xi,
                                           op.h * u_nodes))
            want = ((e1x @ dense) * e1x.conj()) @ phases
            got = bv._pair_band(blocks, e1x, phases)
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    def test_a_probe_fiber_pass_holds_no_full_block(self, gap_sol, fields):
        # at h = 1/128 (N = 507 modes) the pass peaks below a quarter of
        # one dense complex N x N block (measured 0.87 MiB against 0.98;
        # the parent's N x N pair block and blocks took 5.9 MiB).  The
        # fiber is built before tracing: the pair symbol's kernel blocks
        # are the build's, not the pass's
        basis = bv._resolve_basis(gap_sol, 0.0078125, 16, None)
        op = bv.build_fiber(basis, basis.half_nodes[1], *fields, gap_sol.t,
                            gap_sol.mu)
        n = len(op.momenta)
        assert n == 507
        tracemalloc.start()
        try:
            fp = bv._fiber_pass(op, gap_sol.beta_c)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert fp.window[:2] == (32, 8)
        assert peak < n * n * np.dtype(complex).itemsize / 4
        assert held_arrays(op) == []

    @pytest.mark.parametrize("xi0, delta", [(0.3, 0.2 + 0.1j),
                                            (-2.5, 0.05j), (40.0, 1e-3)])
    def test_single_mode_fiber_is_two_by_two(self, xi0, delta):
        # one mode: eigenvalues +-sqrt(xi0^2 + |Delta|^2) against +-xi0,
        # and alpha = -Delta tanh(beta E / 2) / (2 E)
        beta = 5.0
        op = single_mode_fiber(xi0, delta)
        assert [b.tolist() for b in full_blocks(op)] == [
            [[xi0]], [[delta]], [[-xi0]]]
        fp = bv._fiber_pass(op, beta)
        energy = math.hypot(xi0, abs(delta))
        f = specfun.fermi_f
        expected = (f(beta * energy) + f(-beta * energy)
                    - f(beta * xi0) - f(-beta * xi0))
        assert fp.trace == pytest.approx(expected, rel=1e-13)
        assert dense_alpha(fp.alpha, 1)[0, 0] == pytest.approx(
            -delta * math.tanh(beta * energy / 2.0) / (2.0 * energy),
            rel=1e-13)
        assert fp.window == (1, 0, 0.0)


class TestSelfPartneredFibers:
    """The fibers xi = 0 and xi = pi map to themselves under the
    particle-hole reflection, window by window: their pass solves one
    window of each mirror pair and derives the other."""

    @pytest.mark.parametrize("h, case, mirror", SELF_PARTNERED)
    def test_matches_the_dense_route(self, gap_sol, self_partnered_fibers,
                                     h, case, mirror):
        # the tolerances of the generic fibers; measured: traces within
        # 0.31 eps * mass, masses within 3.3e-16 relative (5.6e-16 with
        # a_0 != 0, where a derived window's mass was off by 2.0e-3 while
        # it copied its source's), pair blocks within 2.4e-12 of max |alpha|
        op = self_partnered_fibers[h, case, mirror]
        beta = gap_sol.beta_c
        fp = bv._fiber_pass(op, beta, mirror)
        n = len(op.momenta)
        assert len(bv._window_spans(n, fp.window[1], mirror)) > 1
        trace, mass, alpha = dense_pass(op, beta)
        eps = np.finfo(float).eps
        assert abs(fp.trace - trace) <= eps * mass
        assert fp.mass == pytest.approx(mass, rel=1e-14)
        assert np.abs(dense_alpha(fp.alpha, n) - alpha).max() \
            <= 1e-11 * np.abs(alpha).max()

    @pytest.mark.parametrize("h, case, mirror", SELF_PARTNERED)
    def test_derived_windows_match_direct_solves(
            self, gap_sol, self_partnered_fibers, monkeypatch, h, case,
            mirror):
        # each derived window against its own solve: the trace of its
        # mirror within 1.4e-3 eps * its mass, and the core rows J cols^T J
        # within 1.8e-13 of max |alpha| (measured).  Of the windows other
        # than the middle one at xi = 0 (its own mirror) and the two ends
        # at xi = pi (no mirror), half are derived
        op = self_partnered_fibers[h, case, mirror]
        beta = gap_sol.beta_c
        window, solved = bv._window, []

        def recording(op, beta, lo, hi, a, b, columns=False):
            solved.append((lo, hi, a, b))
            return window(op, beta, lo, hi, a, b, columns)

        monkeypatch.setattr(bv, "_window", recording)
        fp = bv._fiber_pass(op, beta, mirror)
        n = len(op.momenta)
        spans = bv._window_spans(n, fp.window[1], mirror)
        derived = [j for j, span in enumerate(spans) if span not in solved]
        assert len(solved) == len(set(solved))
        assert len(derived) == (len(spans) - 1 - mirror) // 2
        scale = max(np.abs(rows).max() for *_, rows in fp.alpha)
        eps, end = np.finfo(float).eps, n - mirror
        for j in derived:
            lo, hi, a, b = spans[j]
            source = (end - hi, end - lo, end - b, end - a)
            assert source in solved
            trace, mass, rows, _ = window(op, beta, lo, hi, a, b)
            assert abs(window(op, beta, *source)[0] - trace) \
                <= 1e-2 * eps * mass
            assert fp.alpha[j][:2] == (a, lo)
            assert np.abs(fp.alpha[j][2] - rows).max() <= 1e-12 * scale

    @pytest.mark.parametrize("mirror", [0, 1])
    def test_a_tiny_buffer_doubles(self, gap_sol, self_partnered_fibers,
                                   monkeypatch, mirror):
        check_tiny_buffer(self_partnered_fibers[0.015625, "rich_fields",
                                                mirror],
                          gap_sol.beta_c, monkeypatch, mirror)

    @pytest.mark.parametrize("mirror", [0, 1])
    def test_a_leak_above_the_bound_grows_to_the_whole_fiber(
            self, gap_sol, self_partnered_fibers, monkeypatch, mirror):
        check_whole_fiber_fallback(
            self_partnered_fibers[0.015625, "gl_state", mirror],
            gap_sol.beta_c, monkeypatch, mirror)


# ---------------------------------------------------------------------------
# Supercell oracle
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def supercell_instance(gap_sol, fields):
    psi, a, w = fields
    h, n_max, m_cells = 0.25, 8, 4
    basis = bv.FiberBasis(h, n_max, m_cells)
    h_pair, h_free = rc.supercell_hamiltonian(
        h, m_cells, 2 * (n_max + 8) + 1, psi, a, w, gap_sol.t, gap_sol.mu
    )
    return basis, h_pair, h_free


class TestSupercellOracle:
    def test_folded_trace_matches(self, gap_sol, fields, supercell_instance):
        # semiclassical_trace diagonalizes only xi >= 0 and folds in the
        # partners; the supercell sees every fiber.  Its 4 cells are the
        # ladder's cap, which h = 1/4 does not converge at
        basis, h_pair, h_free = supercell_instance
        psi, a, w = fields
        beta = gap_sol.beta_c
        with pytest.warns(UserWarning, match="reached the cap m_fibers=4 unconverged"):
            res = bv.semiclassical_trace(
                gap_sol, psi, a, w, basis.h, m_fibers=basis.m_fibers,
                n_max=basis.n_max,
            )
        sup_tr = (
            np.sum(specfun.fermi_f(beta * np.linalg.eigvalsh(h_pair)))
            - np.sum(specfun.fermi_f(beta * np.linalg.eigvalsh(h_free)))
        ) / basis.m_fibers
        assert res["lhs"] == pytest.approx(basis.h / beta * sup_tr, abs=1e-9)

    def test_ladder_trace_matches(self, gap_sol, fields):
        # the ladder stops below its cap of 16 at h = 1/8 (at M = 8); the
        # supercell of as many cells as the M it used is the same
        # quadrature.  Measured |difference| 1.4e-13 with one BLAS thread
        # and 1.7e-13 with two: the supercell's plain sums of Fermi
        # weights carry their own roundoff.
        psi, a, w = fields
        h, n_max = 0.125, 16
        beta = gap_sol.beta_c
        res = bv.semiclassical_trace(gap_sol, psi, a, w, h, n_max=n_max)
        m = res["m_fibers"]
        assert not res["capped"] and m < 16
        h_pair, h_free = rc.supercell_hamiltonian(
            h, m, 2 * (n_max + 8) + 1, psi, a, w, gap_sol.t, gap_sol.mu)
        sup_tr = (
            np.sum(specfun.fermi_f(beta * np.linalg.eigvalsh(h_pair)))
            - np.sum(specfun.fermi_f(beta * np.linalg.eigvalsh(h_free)))
        ) / m
        assert res["lhs"] == pytest.approx(h / beta * sup_tr, abs=1e-12)

    def test_pair_block_matches(self, gap_sol, fields, supercell_instance):
        # The supercell's Gibbs-state pair block, taken to plane waves
        # e^{i kappa_m x} (kappa_m = 2 pi m / M) by a DFT, splits into the
        # fibers xi_k = 2 pi k / M on the modes m = n M + k.  The fiber
        # keeps |n| <= 8, the supercell 16.  The fiber's pair block comes
        # from the library's pass (one window at this size).  Measured
        # max |difference| 1.2e-13 at xi = pi, 4.8e-14 at the other nodes,
        # against entries up to 0.15.
        basis, h_pair, _ = supercell_instance
        psi, a, w = fields
        beta = gap_sol.beta_c
        n_g = h_pair.shape[0] // 2
        _, alpha_grid = pair_block(h_pair, beta)
        alpha_pw = np.fft.fft(np.fft.ifft(alpha_grid, axis=1), axis=0)
        m_cells = basis.m_fibers
        for k, xi in zip(range(1 - (m_cells + 1) // 2, m_cells // 2 + 1),
                         basis.xi_nodes):
            idx = (basis.modes * m_cells + k) % n_g
            op = bv.build_fiber(basis, xi, psi, a, w, gap_sol.t, gap_sol.mu)
            alpha = dense_alpha(bv._fiber_pass(op, beta).alpha, basis.size)
            assert np.abs(alpha_pw[np.ix_(idx, idx)] - alpha).max() <= 1e-12

    def test_trace_difference_matches(self, gap_sol, fields,
                                      supercell_instance):
        # the trial-state energy's trace term takes its eigenvalues from
        # the pair-block eigensolve, at beta_c / (1 - h^2 D); the energy
        # ladder capped at the supercell's 4 cells has a single rung
        basis, h_pair, h_free = supercell_instance
        psi, a, w = fields
        with pytest.warns(UserWarning, match="m_fibers=4 unconverged: one rung"):
            res = bv.trial_state_energy(
                gap_sol, psi, a, w, basis.h, m_fibers=basis.m_fibers,
                n_max=basis.n_max,
            )
        beta = res["beta"]
        fiber_tr = 2.0 * beta * res["term_trace"]
        sup_tr = (
            np.sum(specfun.fermi_f(beta * np.linalg.eigvalsh(h_pair)))
            - np.sum(specfun.fermi_f(beta * np.linalg.eigvalsh(h_free)))
        ) / basis.m_fibers
        assert fiber_tr == pytest.approx(sup_tr, abs=1e-8)


# ---------------------------------------------------------------------------
# Semiclassical trace expansion
# ---------------------------------------------------------------------------


class TestSemiclassicalTrace:
    def test_residual_regression(self, shared_pass):
        res = shared_pass[0.125]
        assert res["residual"] == pytest.approx(RESIDUAL_H8, rel=1e-6)

    def test_fiber_count_doubling_stable(self, gap_sol, fields, shared_pass):
        psi, a, w = fields
        lhs8 = bv.semiclassical_trace(
            gap_sol, psi, a, w, 0.125, m_fibers=8
        )["lhs"]
        lhs16 = shared_pass[0.125]["lhs"]
        assert lhs8 == pytest.approx(lhs16, rel=1e-9)

    def test_two_point_order_above_fourth(self, shared_pass):
        r1, r2 = shared_pass[0.125], shared_pass[0.0625]
        order = math.log2(abs(r1["residual"]) / abs(r2["residual"]))
        assert order > 4.5

    def test_synthetic_source_rejected(self, fields):
        # the fiber observables take t, mu and beta_c from a gap solution
        psi, a, w = fields
        synth = SyntheticPairSymbol(mu=1.0)
        for observable in (bv.semiclassical_trace, bv.alpha_delta_distance,
                           bv.trial_state_energy):
            with pytest.raises(TypeError, match="GapSolution"):
                observable(synth, psi, a, w, 0.25)

    @pytest.mark.parametrize("h", [0.125, 0.0625])
    def test_lhs_matches_eigvalsh_oracle(self, gap_sol, fields, shared_pass,
                                         h):
        # The oracle diagonalizes every fiber of the grid with eigvalsh and
        # sums Fermi weights; the shared pass takes windowed Daleckii-Krein
        # sums and folds in the partners.  Measured |lhs - oracle|: 2.9e-14
        # at h = 1/8 and 7.2e-14 at h = 1/16, with one BLAS thread and
        # with two.  The bound is 5e-13, three times the largest
        # eigh/eigvalsh shift seen on any sweep (1.65e-13 at h = 1/8 on
        # the built-in config's fields).
        psi, a, w = fields
        res = shared_pass[h]
        beta = gap_sol.beta_c
        basis = bv.FiberBasis(h, res["n_max"], 16)
        values = []
        for xi in basis.xi_nodes:
            op = bv.build_fiber(basis, xi, psi, a, w, gap_sol.t, gap_sol.mu)
            values.append(float(np.sum(
                specfun.fermi_f(beta * np.linalg.eigvalsh(fiber_matrix(op)))
                - specfun.fermi_f(beta * free_spectrum(op)))))
        oracle = h / beta * math.fsum(values) / basis.m_fibers
        assert abs(res["lhs"] - oracle) <= 5e-13

    def test_trace_is_a_view_of_the_shared_pass(self, gap_sol, fields):
        psi, a, w = fields
        trace = bv.semiclassical_trace(gap_sol, psi, a, w, 0.25, m_fibers=16)
        shared = bv.alpha_delta_distance(gap_sol, psi, a, w, 0.25,
                                         m_fibers=16)
        assert trace == {k: shared[k] for k in trace}
        assert {"lhs", "e1_term", "e2_term", "residual"} <= set(trace)
        assert "h1_distance" not in trace


# ---------------------------------------------------------------------------
# Pair-block distance
# ---------------------------------------------------------------------------


class TestAlphaDistance:
    def test_regression(self, shared_pass):
        d = shared_pass[0.125]
        assert d["h1_distance"] == pytest.approx(H1_DISTANCE_H8, rel=1e-6)
        assert d["l2_leading"] == pytest.approx(L2_LEADING_H8, rel=1e-6)

    def test_leading_norm_scales_linearly_in_h(self, shared_pass):
        d1, d2 = shared_pass[0.125], shared_pass[0.0625]
        ratio1 = d1["l2_leading"] ** 2 / 0.125
        ratio2 = d2["l2_leading"] ** 2 / 0.0625
        assert ratio1 == pytest.approx(ratio2, rel=1e-2)

    def test_two_point_order_near_five_halves(self, shared_pass):
        d1, d2 = shared_pass[0.0625], shared_pass[0.03125]
        order = math.log2(d1["h1_distance"] / d2["h1_distance"])
        assert 2.0 < order < 3.0

    def test_eigensolver_failure_names_the_fiber(self, gap_sol, fields,
                                                 monkeypatch):
        # the windowed pass fails at xi = pi/2 alone, which the ladder
        # reaches on its M = 4 rung; a fiber's middle momentum is its xi
        psi, a, w = fields
        target = bv.FiberBasis(0.25, 8, 4).half_nodes[1]
        fiber_pass, passed = bv._fiber_pass, []

        def failing(op, beta, mirror=None):
            passed.append(op.momenta[op.momenta.size // 2])
            if passed[-1] == target:
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return fiber_pass(op, beta, mirror)

        monkeypatch.setattr(bv, "_fiber_pass", failing)
        with pytest.raises(RuntimeError, match="eigensolver failed on the "
                           f"fiber at xi={target:.6f}") as raised:
            bv.alpha_delta_distance(gap_sol, psi, a, w, 0.25, m_fibers=4)
        assert isinstance(raised.value.__cause__, np.linalg.LinAlgError)
        assert passed == [0.0, math.pi, target]


# ---------------------------------------------------------------------------
# Trial-state free energy
# ---------------------------------------------------------------------------


class TestTrialStateEnergy:
    def test_scaled_regression(self, gap_sol, gl_min_state):
        w = TorusField.cosine(0.5, 1)
        res = bv.trial_state_energy(
            gap_sol, gl_min_state.psi, ZERO, w, 0.125
        )
        assert res["scaled"] == pytest.approx(SCALED_ENERGY_H8, rel=1e-6)

    def test_remainder_sign_and_refinement(self, gap_sol, fields):
        psi, a, w = fields
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = bv.trial_state_energy(gap_sol, psi, a, w, 0.125)
        # attractive potential: V <= 0 makes the remainder term nonpositive
        assert res["term_remainder"] <= 0.0
        assert abs(res["term_remainder"] - res["term_remainder_check"]) <= max(
            1e-12, 0.1 * abs(res["term_remainder"])
        )

    def test_interaction_term_two_routes_agree(self, gap_sol, fields):
        psi, a, w = fields
        h = 0.125
        res = bv.trial_state_energy(gap_sol, psi, a, w, h)
        index = np.nonzero(psi.coeffs)[0]
        symbol = pair_interaction_symbol_form(
            gap_sol, h, 2 * math.pi * psi.modes[index]
        )
        weights = np.abs(psi.coeffs[index]) ** 2
        symbol_term = -h / (2 * math.pi) * float(np.dot(weights, symbol))
        assert res["term_interaction"] == pytest.approx(symbol_term, rel=1e-8)

    def test_temperature_offset_guard(self, gap_sol, fields):
        psi, a, w = fields
        with pytest.raises(ValueError, match="h\\^2 D"):
            bv.trial_state_energy(normalize(gap_sol, 70.0), psi, a, w, 0.125)

    def test_zero_psi_gives_zero(self, gap_sol, fields):
        _, a, w = fields
        res = bv.trial_state_energy(gap_sol, ZERO, a, w, 0.25, m_fibers=8)
        assert abs(res["f_bcs_diff"]) < 1e-12

    def test_explicit_offset_override(self, gap_sol, fields):
        psi, a, w = fields
        res = bv.trial_state_energy(
            normalize(gap_sol, 0.5), psi, a, w, 0.25, m_fibers=16
        )
        expected_beta = gap_sol.beta_c / (1.0 - 0.25**2 * 0.5)
        assert res["beta"] == pytest.approx(expected_beta, rel=1e-14)


# ---------------------------------------------------------------------------
# Real fibers
# ---------------------------------------------------------------------------


def _complex_coeff_matrix(monkeypatch):
    """Store every fiber block complex, as if no coefficient were real."""
    original = bv._coeff_matrix
    monkeypatch.setattr(bv, "_coeff_matrix",
                        lambda f, modes: original(f, modes).astype(complex))


class TestRealFibers:
    """The real GL minimizer (A = 0, W = 0.5 cos) gives real fibers."""

    def test_blocks_take_the_dtype_of_their_data(self, gap_sol, gl_min_state,
                                                 fields):
        probe, a_cos, w = fields
        basis = bv.FiberBasis(0.25, 8, 4)
        xi = basis.half_nodes[1]

        def kinds(psi, a):
            op = bv.build_fiber(basis, xi, psi, a, w, gap_sol.t, gap_sol.mu)
            return [b.dtype.kind for b in full_blocks(op)]

        assert kinds(gl_min_state.psi, ZERO) == ["f", "f", "f"]
        assert kinds(gl_min_state.psi, a_cos) == ["f", "f", "f"]
        assert kinds(probe, ZERO) == ["f", "c", "f"]
        assert kinds(gl_min_state.psi, TorusField.sine(0.2, 1)) == [
            "c", "f", "c"]

    def test_pair_block_matches_complex_route(self, gap_sol, gl_min_state,
                                              monkeypatch):
        # The windowed pass on these real fibers (2N = 282) and on the same
        # blocks stored complex (every window assembled from complex
        # coefficient tables).  Measured: traces within 3.8e-5 eps * mass,
        # pair blocks within 1.2e-13 relative (Frobenius).
        h = 0.03125
        beta = gap_sol.beta_c / (1.0 - h * h * gap_sol.D)
        basis = bv._resolve_basis(gap_sol, h, 16, None)
        eps = np.finfo(float).eps
        n = basis.size
        ops = [bv.build_fiber(basis, xi, gl_min_state.psi, ZERO,
                              TorusField.cosine(0.5, 1), gap_sol.t, gap_sol.mu)
               for xi in basis.half_nodes]
        real = [bv._fiber_pass(op, beta) for op in ops]
        assert all(np.isrealobj(b) for op in ops for b in full_blocks(op))
        _complex_coeff_matrix(monkeypatch)
        for op, fp in zip(ops, real):
            cplx = bv._fiber_pass(op, beta)
            assert all(np.iscomplexobj(rows) for _, _, rows in cplx.alpha)
            real_alpha = dense_alpha(fp.alpha, n)
            cplx_alpha = dense_alpha(cplx.alpha, n)
            assert np.isrealobj(real_alpha)
            assert abs(fp.trace - cplx.trace) <= eps * fp.mass, op.xi
            assert np.linalg.norm(real_alpha - cplx_alpha) <= 1e-11 * \
                np.linalg.norm(cplx_alpha), op.xi

    def test_energy_matches_complex_route(self, gap_sol, gl_min_state,
                                          monkeypatch):
        # scaled = (sum of terms) / h^3 magnifies the trace term's
        # roundoff.  Plain sums of Fermi weights carried ~eps * ||H|| per
        # large negative eigenvalue, and the routes differed by 3.2e-9 ..
        # 4.4e-8 relative at h = 1/32 over 16 GL minimizers.  The
        # windowed Daleckii-Krein sums carry no such term: measured 5.0e-13,
        # 2.5e-12 and 3.1e-12 relative at h = 1/8, 1/16 and 1/32 (x86-64,
        # OpenBLAS, one thread).
        w = TorusField.cosine(0.5, 1)
        h_list = (0.125, 0.0625, 0.03125)
        real = [bv.trial_state_energy(gap_sol, gl_min_state.psi, ZERO, w, h)
                for h in h_list]
        _complex_coeff_matrix(monkeypatch)
        for h, res in zip(h_list, real):
            ref = bv.trial_state_energy(gap_sol, gl_min_state.psi, ZERO, w, h)
            assert res["scaled"] == pytest.approx(ref["scaled"], rel=1e-7), h
            assert res["scaled"] == pytest.approx(ref["scaled"], rel=1e-9), h
            assert res["term_remainder"] == pytest.approx(
                ref["term_remainder"], rel=1e-9), h


# ---------------------------------------------------------------------------
# Particle-hole partner fibers
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def rich_fields():
    """Complex psi, a two-mode a != 0 and a two-mode w."""
    return (
        TorusField.from_modes({0: 0.6 + 0.2j, 1: 0.2 - 0.1j, -2: 0.1j},
                              n_max=2),
        TorusField.cosine(0.2, 1) + TorusField.sine(0.1, 2),
        TorusField.cosine(0.5, 1) + TorusField.sine(0.3, 2),
    )


def _all_nodes(basis, one):
    """Every node of the grid diagonalized on its own, no folding: each
    node's own contribution, on the partition of a fiber with a partner
    elsewhere."""
    return [one(xi, None)[0] for xi in basis.xi_nodes]


class TestPartnerFibers:
    def test_partner_spectrum_and_pair_block(self, gap_sol, rich_fields):
        psi, a, w = rich_fields
        basis = bv.FiberBasis(0.25, 8, 8)
        beta = gap_sol.beta_c
        for xi in basis.half_nodes[1:-1]:
            plus = bv.build_fiber(basis, xi, psi, a, w, gap_sol.t, gap_sol.mu)
            minus = bv.build_fiber(basis, -xi, psi, a, w, gap_sol.t,
                                   gap_sol.mu)
            lam_p, alpha_p = pair_block(fiber_matrix(plus), beta)
            lam_m, alpha_m = pair_block(fiber_matrix(minus), beta)
            spec_dev = np.abs(np.sort(-lam_p) - lam_m).max()
            assert spec_dev <= 1e-12 * np.abs(lam_p).max()
            # alpha(-xi) = J alpha(xi)^T J
            partner = alpha_p[::-1, ::-1].T
            _, _, blocks = bv._reflection(plus, beta,
                                          (0.0, 0.0, ((0, 0, alpha_p),)))
            np.testing.assert_array_equal(dense_alpha(blocks, basis.size),
                                          partner)
            assert np.abs(partner - alpha_m).max() \
                <= 1e-12 * np.abs(alpha_p).max()

    def test_node_counts(self, gap_sol, fields, monkeypatch):
        # the Bloch ladder builds each node at most once, and the nodes
        # it built are the half grid of the M it recorded
        psi, a, w = fields
        seen = []
        build = bv.build_fiber

        def counting(basis, xi, *args):
            seen.append(xi)
            return build(basis, xi, *args)

        monkeypatch.setattr(bv, "build_fiber", counting)
        used = {}
        for h, cap in ((0.25, 16), (0.25, 5), (0.0625, 16)):
            seen.clear()
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                m = bv.semiclassical_trace(gap_sol, psi, a, w, h,
                                           m_fibers=cap)["m_fibers"]
            assert len(seen) == len(set(seen)), (h, cap)
            half = bv.FiberBasis(h, 8, m).half_nodes
            np.testing.assert_array_equal(sorted(seen), half)
            used[h, cap] = m
        # an odd cap is a one-rung ladder; a fine h stops below the cap
        assert used[0.25, 5] == 5
        assert used[0.0625, 16] < 16

    def test_trace_matches_all_nodes(self, gap_sol, fields, monkeypatch):
        psi, a, w = fields
        folded = bv.semiclassical_trace(gap_sol, psi, a, w, 0.125)
        monkeypatch.setattr(bv, "_fold_fibers", _all_nodes)
        full = bv.semiclassical_trace(gap_sol, psi, a, w, 0.125)
        # per-fiber sums of 2N Fermi weights carry ~1e-14 roundoff
        assert folded["residual"] == pytest.approx(full["residual"],
                                                   abs=2e-13)

    def test_pair_distance_matches_all_nodes(self, gap_sol, fields,
                                             monkeypatch):
        psi, a, w = fields
        folded = bv.alpha_delta_distance(gap_sol, psi, a, w, 0.125)
        monkeypatch.setattr(bv, "_fold_fibers", _all_nodes)
        full = bv.alpha_delta_distance(gap_sol, psi, a, w, 0.125)
        for key in ("h1_distance", "l2_distance", "l2_leading"):
            assert folded[key] == pytest.approx(full[key], rel=4e-12), key

    def test_pair_partner_needs_column_weight(self, gap_sol, rich_fields):
        # the row-weighted sums at xi and -xi differ, so doubling the row
        # sum would not reproduce the partner's H1 term
        psi, a, w = rich_fields
        basis = bv.FiberBasis(0.0625, 40, 16)
        xi = basis.half_nodes[3]
        beta = gap_sol.beta_c

        def weighted_sq(x):
            op = bv.build_fiber(basis, x, psi, a, w, gap_sol.t, gap_sol.mu)
            _, alpha = pair_block(fiber_matrix(op), beta)
            return np.abs(alpha) ** 2, 1.0 + (basis.h * op.momenta) ** 2

        sq_plus, weight_plus = weighted_sq(xi)
        sq_minus, weight_minus = weighted_sq(-xi)
        row_plus = float(np.sum(weight_plus[:, None] * sq_plus))
        col_plus = float(np.sum(sq_plus * weight_plus[None, :]))
        row_minus = float(np.sum(weight_minus[:, None] * sq_minus))
        assert col_plus == pytest.approx(row_minus, rel=1e-11)
        assert abs(row_plus - row_minus) > 1e-8 * row_minus

    @pytest.mark.parametrize("case", ["gl_minimizer", "rich_fields"])
    def test_energy_matches_all_nodes(self, case, gap_sol, gl_min_state,
                                      rich_fields, monkeypatch):
        # the real, even GL minimizer makes alpha(xi) symmetric; the rich
        # fields do not, so they pin the transpose in J alpha^T J
        if case == "gl_minimizer":
            psi, a, w = gl_min_state.psi, ZERO, TorusField.cosine(0.5, 1)
        else:
            psi, a, w = rich_fields
        folded = bv.trial_state_energy(gap_sol, psi, a, w, 0.125)
        monkeypatch.setattr(bv, "_fold_fibers", _all_nodes)
        full = bv.trial_state_energy(gap_sol, psi, a, w, 0.125)
        # scaled = (sum of terms) / h^3 magnifies the trace term's
        # ~1e-14 roundoff; the band term carries none of it
        assert folded["scaled"] == pytest.approx(full["scaled"], rel=1e-8)
        assert folded["term_remainder"] == pytest.approx(
            full["term_remainder"], rel=1e-11)


# ---------------------------------------------------------------------------
# Nested Bloch quadrature
# ---------------------------------------------------------------------------


def _fixed_grid(basis, one, quadrature, above=0.0):
    """The fixed M-node pass in place of the ladder: every node of the cap
    grid folded at once, one ``quadrature`` over all of them."""
    m = basis.m_fibers
    q, _ = quadrature(bv._fold_fibers(basis, one), m)
    return q, {"m_fibers": m, "capped": False}


_PASS_KEYS = ("lhs", "e1_term", "e2_term", "residual", "h1_distance",
              "l2_distance", "l2_leading", "h", "beta", "n_max", "m_fibers")


class TestBlochLadder:
    def test_rungs_of_a_cap_of_twelve(self):
        # odd part 3: rungs M = 3, 6, 12, the first two from one batch;
        # each rung's contributions are those of its own full grid
        basis = bv.FiberBasis(0.25, 4, 12)
        built, rungs, flags = [], [], {}

        def one(xi, mirror):
            built.append(xi)
            flags[xi] = mirror
            return ((xi,), (-xi,)) if mirror is None else ((xi,),)

        def quadrature(parts, m):
            rungs.append(m)
            np.testing.assert_array_equal(
                sorted(p[0] for p in parts),
                bv.FiberBasis(0.25, 4, m).xi_nodes)
            # a negative floor never settles
            return {"M": m}, {"M": -1.0}

        with pytest.warns(UserWarning, match="reached the cap m_fibers=12"):
            q, record = bv._bloch_ladder(basis, one, quadrature)
        assert rungs == [3, 6, 12]
        assert q == {"M": 12}
        assert record == {"m_fibers": 12, "capped": True, "delta_M": 6}
        assert len(built) == len(set(built))
        np.testing.assert_array_equal(sorted(built), basis.half_nodes)
        # xi = 0 and xi = pi are their own partners, with the reflections
        # n -> -n and n -> -1 - n of their modes; every other node has
        # its partner -xi
        nodes = basis.half_nodes
        assert flags[nodes[0]] == 0
        assert flags[nodes[-1]] == 1
        assert all(flags[xi] is None for xi in nodes[1:-1])

    @pytest.mark.parametrize("above, rungs", [(3.0, [6, 12]), (11.5, [12])])
    def test_rungs_start_above_the_lower_bound(self, above, rungs):
        basis = bv.FiberBasis(0.25, 4, 12)
        seen = []

        def quadrature(parts, m):
            seen.append(m)
            return {"M": m}, {"M": -1.0}

        with pytest.warns(UserWarning, match="reached the cap"):
            _, record = bv._bloch_ladder(
                basis, lambda xi, mirror: ((xi,),) * (1 + (mirror is None)),
                quadrature, above=above)
        assert seen == rungs
        assert record["delta_M"] == (None if len(rungs) == 1 else 6)

    def test_zero_thresholds_run_to_the_cap(self, gap_sol, fields,
                                            monkeypatch):
        # with nothing allowed to move, the ladder climbs to the cap and
        # equals the fixed 16-node pass key for key
        psi, a, w = fields
        monkeypatch.setattr(bv, "_TRACE_FLOOR_UNIT", 0.0)
        monkeypatch.setattr(bv, "_PAIR_REL_TOL", 0.0)
        with pytest.warns(UserWarning, match="reached the cap"):
            ladder = bv.alpha_delta_distance(gap_sol, psi, a, w, 0.125)
        assert ladder["capped"] and ladder["m_fibers"] == 16
        monkeypatch.setattr(bv, "_bloch_ladder", _fixed_grid)
        fixed = bv.alpha_delta_distance(gap_sol, psi, a, w, 0.125)
        for key in _PASS_KEYS:
            assert ladder[key] == fixed[key], key

    @pytest.mark.parametrize("h", [0.125, 0.0625, 0.03125])
    def test_values_within_the_floor_of_the_full_grid(
            self, gap_sol, fields, shared_pass, monkeypatch, h):
        psi, a, w = fields
        res = shared_pass[h]
        assert not res["capped"] and res["m_fibers"] < 16
        assert res["delta_lhs"] <= res["lhs_floor"]
        monkeypatch.setattr(bv, "_bloch_ladder", _fixed_grid)
        full = bv.alpha_delta_distance(gap_sol, psi, a, w, h)
        assert abs(res["lhs"] - full["lhs"]) <= res["lhs_floor"]
        for key in ("h1_distance", "l2_distance", "l2_leading"):
            assert res[key] == pytest.approx(full[key], rel=1e-9), key

    def test_capped_point_is_recorded_and_warned(self, gap_sol, fields):
        # at h = 1/8 two fibers are not enough: lhs moves by about 3e-5
        # from M = 1 to M = 2
        psi, a, w = fields
        with pytest.warns(UserWarning, match="reached the cap m_fibers=2"):
            res = bv.alpha_delta_distance(gap_sol, psi, a, w, 0.125,
                                          m_fibers=2)
        assert res["capped"] is True and res["m_fibers"] == 2
        assert res["delta_lhs"] > res["lhs_floor"]

    def test_converged_point_is_silent(self, gap_sol, fields):
        psi, a, w = fields
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = bv.alpha_delta_distance(gap_sol, psi, a, w, 0.0625)
        assert res["capped"] is False
        assert res["m_fibers"] == 4
        assert set(bcsgl.LADDER_KEYS) <= set(res)
        window = res["window"]
        assert set(window) == {"core", "buffer", "leak"}

    @pytest.mark.parametrize("h", [0.125, 0.0625])
    def test_floor_covers_permuted_roundoff(self, gap_sol, fields,
                                            shared_pass, h):
        # The dense route (plain sums of Fermi weights) on every fiber
        # after one fixed symmetric permutation lies within the floor of
        # the windowed pass.  Measured over seven permutations: up to
        # 1.5e-13 at h = 1/8 (floor 3.3e-13) and 7.9e-14 at h = 1/16
        # (floor 1.7e-13), one BLAS thread.
        psi, a, w = fields
        res = shared_pass[h]
        beta = gap_sol.beta_c
        basis = bv.FiberBasis(h, res["n_max"], res["m_fibers"])
        perm = np.random.default_rng(4).permutation(2 * basis.size)
        values = []
        for k, xi in enumerate(basis.half_nodes):
            op = bv.build_fiber(basis, xi, psi, a, w, gap_sol.t, gap_sol.mu)
            lam, _ = np.linalg.eigh(fiber_matrix(op)[np.ix_(perm, perm)])
            tr, _ = fiber_trace(op, lam, beta)
            values += [tr] * (2 if 0 < k < basis.m_fibers / 2 else 1)
        permuted = h / beta * math.fsum(values) / basis.m_fibers
        assert abs(permuted - res["lhs"]) <= res["lhs_floor"]


_ENERGY_KEYS = ("f_bcs_diff", "scaled", "term_trace", "term_interaction",
                "term_remainder", "term_remainder_check", "h", "beta",
                "n_max", "m_fibers", "f_bcs_diff_floor")


@pytest.fixture(scope="module")
def energy_pass(gap_sol, gl_min_state):
    """``trial_state_energy`` of the real GL minimizer (A = 0, W = 0.5 cos)
    with its default cap of 16 fibers at h = 1/8 ... 1/64."""
    w = TorusField.cosine(0.5, 1)
    return {h: bv.trial_state_energy(gap_sol, gl_min_state.psi, ZERO, w, h)
            for h in (0.125, 0.0625, 0.03125, 0.015625)}


class TestEnergyLadder:
    """The trial-state energy takes its Bloch quadrature from the ladder."""

    def test_zero_threshold_runs_to_the_cap(self, gap_sol, gl_min_state,
                                            monkeypatch):
        # with nothing allowed to move, the ladder climbs to the cap and
        # equals the fixed 16-node fold key for key
        w = TorusField.cosine(0.5, 1)
        monkeypatch.setattr(bv, "_TRACE_FLOOR_UNIT", 0.0)
        with pytest.warns(UserWarning, match="reached the cap m_fibers=16"):
            ladder = bv.trial_state_energy(gap_sol, gl_min_state.psi, ZERO,
                                           w, 0.125)
        assert ladder["capped"] and ladder["m_fibers"] == 16
        monkeypatch.setattr(bv, "_bloch_ladder", _fixed_grid)
        fixed = bv.trial_state_energy(gap_sol, gl_min_state.psi, ZERO, w,
                                      0.125)
        for key in _ENERGY_KEYS:
            assert ladder[key] == fixed[key], key

    def test_first_rung_above_the_supercell_bound(self, gap_sol,
                                                  gl_min_state, monkeypatch):
        # the M-node grid is a supercell of M cells, and half of it must
        # hold the interaction range: M > 2 h u_max
        h = 0.125
        bound = 2.0 * h * gap_sol.spec.reach()
        folded = []
        fold = bv._fold_fibers

        def recording(basis, one):
            folded.append(basis.m_fibers)
            return fold(basis, one)

        monkeypatch.setattr(bv, "_fold_fibers", recording)
        res = bv.trial_state_energy(gap_sol, gl_min_state.psi, ZERO,
                                    TorusField.cosine(0.5, 1), h)
        first = min(folded)
        assert first / 2 <= bound < first == 2
        assert first < res["m_fibers"] <= 16 and not res["capped"]

    def test_cap_below_the_supercell_bound_raises(self, gap_sol, fields):
        psi, a, w = fields
        with pytest.raises(ValueError, match="grids.fiber_m"):
            bv.trial_state_energy(gap_sol, psi, a, w, 0.125, m_fibers=1)

    def test_capped_point_is_recorded_and_warned(self, gap_sol, gl_min_state):
        # at h = 1/8, scaled moves by about 7e-4 relative from M = 2 to 4
        with pytest.warns(UserWarning, match="reached the cap m_fibers=4"):
            res = bv.trial_state_energy(gap_sol, gl_min_state.psi, ZERO,
                                        TorusField.cosine(0.5, 1), 0.125,
                                        m_fibers=4)
        assert res["capped"] is True and res["m_fibers"] == 4
        assert res["delta_f_bcs_diff"] > res["f_bcs_diff_floor"]

    @pytest.mark.parametrize("h", [0.125, 0.0625, 0.03125, 0.015625])
    def test_values_within_the_floor_of_the_full_grid(
            self, gap_sol, gl_min_state, energy_pass, monkeypatch, h):
        # measured moves of scaled = f_bcs_diff / h^3: 0 .. 1.2e-11
        # against floors / h^3 of 6.8e-10 .. 8.4e-7 (h = 1/8 .. 1/64,
        # one BLAS thread)
        res = energy_pass[h]
        assert not res["capped"] and res["m_fibers"] < 16
        assert res["delta_f_bcs_diff"] <= res["f_bcs_diff_floor"]
        monkeypatch.setattr(bv, "_bloch_ladder", _fixed_grid)
        full = bv.trial_state_energy(gap_sol, gl_min_state.psi, ZERO,
                                     TorusField.cosine(0.5, 1), h)
        assert abs(res["f_bcs_diff"] - full["f_bcs_diff"]) \
            <= res["f_bcs_diff_floor"]

    @pytest.mark.parametrize("h", [0.03125, 0.015625])
    def test_floor_covers_permuted_roundoff(self, gap_sol, gl_min_state,
                                            energy_pass, monkeypatch, h):
        # Diagonalizing every window and free block after a fixed symmetric
        # permutation moves scaled by roundoff alone.  Measured over seven
        # permutations: up to 3.9e-12 at h = 1/32 (6e-5 of its floor of
        # 6.5e-8) and 1.8e-11 at h = 1/64 (2e-5 of 8.4e-7), one BLAS
        # thread.  The dense route's plain sums moved it by up to 0.26 of
        # the floor; the Daleckii-Krein sums carry no eps * ||H|| term.
        res = energy_pass[h]
        eigh = np.linalg.eigh

        def permuted(matrix):
            perm = np.random.default_rng(4).permutation(len(matrix))
            lam, vec = eigh(matrix[np.ix_(perm, perm)])
            return lam, vec[np.argsort(perm)]

        monkeypatch.setattr(np.linalg, "eigh", permuted)
        monkeypatch.setattr(bv, "_bloch_ladder", _fixed_grid)
        shifted = bv.trial_state_energy(
            gap_sol, gl_min_state.psi, ZERO, TorusField.cosine(0.5, 1), h,
            m_fibers=res["m_fibers"])
        assert shifted["scaled"] != res["scaled"]
        assert abs(shifted["scaled"] - res["scaled"]) \
            <= res["f_bcs_diff_floor"] / h**3


# ---------------------------------------------------------------------------
# Gibbs-state occupations and entropy
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def pair_of_fibers(gap_sol, fields):
    psi, a, w = fields
    basis = bv.FiberBasis(0.25, 8, 8)
    xi = basis.half_nodes[1]
    op_plus = bv.build_fiber(basis, xi, psi, a, w, gap_sol.t, gap_sol.mu)
    op_minus = bv.build_fiber(basis, -xi, psi, a, w, gap_sol.t, gap_sol.mu)
    return op_plus, op_minus


class TestOccupationsAndEntropy:
    def test_occupations_bounded(self, gap_sol, pair_of_fibers):
        occ = occupations(fiber_matrix(pair_of_fibers[0]), gap_sol.beta_c)
        assert occ.min() >= -1e-12
        assert occ.max() <= 1.0 + 1e-12

    def test_reflected_fiber_occupations_complement(
        self, gap_sol, pair_of_fibers
    ):
        op_plus, op_minus = pair_of_fibers
        beta = gap_sol.beta_c
        occ_plus = np.sort(occupations(fiber_matrix(op_plus), beta))
        occ_minus = np.sort(occupations(fiber_matrix(op_minus), beta))
        np.testing.assert_allclose(
            occ_minus, np.sort(1.0 - occ_plus), atol=1e-10
        )

    def test_entropy_symmetric_and_positive(self, gap_sol, pair_of_fibers):
        op_plus, op_minus = pair_of_fibers
        s_plus = entropy(fiber_matrix(op_plus), gap_sol.beta_c)
        s_minus = entropy(fiber_matrix(op_minus), gap_sol.beta_c)
        assert s_plus > 0.0
        assert s_plus == pytest.approx(s_minus, abs=1e-10)


# ---------------------------------------------------------------------------
# Field inner products
# ---------------------------------------------------------------------------


class TestFieldInnerProducts:
    def test_constant_field_values(self):
        psi = TorusField.constant(0.6 + 0.3j)
        w = TorusField.cosine(0.5, 1)
        ips = bv.field_inner_products(psi, ZERO, w)
        mag2 = abs(0.6 + 0.3j) ** 2
        assert ips["norm2_sq"] == pytest.approx(mag2, rel=1e-14)
        assert ips["norm4_4"] == pytest.approx(mag2**2, rel=1e-14)
        assert abs(ips["grad_plain_sq"]) < 1e-14
        assert abs(ips["grad_covariant_sq"]) < 1e-14
        assert abs(ips["w_coupling"]) < 1e-14

    def test_matches_dense_quadrature(self, fields):
        psi, a, w = fields
        ips = bv.field_inner_products(psi, a, w)
        x = np.arange(8192) / 8192
        psi_x = psi.evaluate(x)
        a_x = a.evaluate(x).real
        w_x = w.evaluate(x).real
        dpsi_x = psi.derivative().evaluate(x)
        cov = -1j * dpsi_x + 2.0 * a_x * psi_x
        assert ips["norm2_sq"] == pytest.approx(
            np.mean(np.abs(psi_x) ** 2), rel=1e-12
        )
        assert ips["grad_plain_sq"] == pytest.approx(
            np.mean(np.abs(dpsi_x) ** 2), rel=1e-12
        )
        assert ips["grad_covariant_sq"] == pytest.approx(
            np.mean(np.abs(cov) ** 2), rel=1e-12
        )
        assert ips["w_coupling"] == pytest.approx(
            np.mean(w_x * np.abs(psi_x) ** 2), rel=1e-12
        )
        assert ips["norm4_4"] == pytest.approx(
            np.mean(np.abs(psi_x) ** 4), rel=1e-12
        )


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------


class TestSweep:
    H_LIST = [0.125, 0.0625, 0.03125, 0.015625]

    def test_synthetic_cubic_order(self):
        report = bcsgl.h_sweep(lambda h: 2.5 * h**3, self.H_LIST)
        assert report["fitted_order"] == pytest.approx(3.0, abs=1e-6)

    def test_fit_order_matches_polyfit(self):
        # the closed-form slope reorders the arithmetic of the least-
        # squares fit, so NumPy's fit is its reference, within 1e-12
        rng = np.random.default_rng(3)
        for n in (2, 3, 4, 5, 8):
            h = 0.25 * 2.0 ** -np.arange(n)
            for order in (0.5, 2.3, 6.0):
                obs = 0.7 * h ** order * rng.uniform(0.5, 2.0, n)
                # the fit leaves out what sits at the roundoff floor
                keep = obs > 100.0 * np.finfo(float).eps
                expected = np.polyfit(np.log(h[keep]), np.log(obs[keep]),
                                      1)[0]
                assert bcsgl.fit_order(list(h), list(obs)) == pytest.approx(
                    expected, rel=0, abs=1e-12)

    def test_constant_observable_has_zero_order(self):
        report = bcsgl.h_sweep(lambda h: 0.7, self.H_LIST)
        assert abs(report["fitted_order"]) < 1e-9

    def test_roundoff_floor_excluded_from_fit(self):
        values = {0.125: 2.5 * 0.125**3, 0.0625: 2.5 * 0.0625**3,
                  0.03125: 1e-18}
        report = bcsgl.h_sweep(lambda h: values[h], list(values))
        assert report["fitted_order"] == pytest.approx(3.0, abs=1e-9)

    def test_failures_aggregate(self):
        def failing_below(cut):
            def observable(h):
                if h < cut:
                    raise RuntimeError("too small")
                return h**2
            return observable

        # three of four points survive: kept, with the failure recorded
        report = bcsgl.h_sweep(failing_below(0.02), self.H_LIST)
        assert len(report["h_values"]) == 3
        assert [h for h, _ in report["failures"]] == [0.015625]
        assert all("too small" in msg for _, msg in report["failures"])
        # two of four survive: aborted
        with pytest.raises(RuntimeError, match="too small"):
            bcsgl.h_sweep(failing_below(0.06), self.H_LIST)
        # a two-point list needs both points
        assert len(bcsgl.h_sweep(failing_below(0.02), self.H_LIST[:2])
                   ["h_values"]) == 2
        with pytest.raises(RuntimeError, match="kept 1 of 2"):
            bcsgl.h_sweep(failing_below(0.1), self.H_LIST[:2])

    def test_h_list_validation(self):
        with pytest.raises(ValueError, match="decreasing"):
            bcsgl.h_sweep(lambda h: h, [0.0625, 0.125])
        with pytest.raises(ValueError, match="lie in"):
            bcsgl.h_sweep(lambda h: h, [1.5, 0.125, 0.0625])

    def test_extras_reference_and_serialization(self):
        report = bcsgl.h_sweep(
            lambda h: (h**2, {"n_max": int(1 / h)}),
            self.H_LIST,
            reference=0.001,
            label="demo",
        )
        # the record is the "report" of a sweep artifact
        assert set(report) == {"h_values", "observed", "fitted_order",
                               "local_orders", "reference", "label",
                               "extras", "floor", "failures"}
        assert report["extras"][0]["n_max"] == 8
        assert report["reference"] == 0.001
        assert report["label"] == "demo"

    def test_local_orders_of_successive_gaps(self):
        # one slope per pair of kept points, of the gaps to the reference;
        # a pair with a gap at or below the roundoff floor has none
        values = {0.125: 1.0 + 2.5 * 0.125**3, 0.0625: 1.0 + 2.5 * 0.0625**2,
                  0.03125: 1.0}
        report = bcsgl.h_sweep(lambda h: values[h], list(values),
                               reference=1.0)
        assert len(report["local_orders"]) == 2
        assert report["local_orders"][0] == pytest.approx(
            math.log(2.5 * 0.125**3 / (2.5 * 0.0625**2)) / math.log(2.0),
            rel=1e-9)
        assert report["local_orders"][1] is None
        assert bcsgl.h_sweep(lambda h: h**2, [0.5])["local_orders"] == []
