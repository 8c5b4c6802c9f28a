"""Tests for the Bloch-fiber pairing operator and its h-sweeps.

Oracles: dense real-space supercell diagonalization, the closed-form
2x2 reduction for constant order parameter, and frozen regression
values for the composite observables.
"""

import math
import warnings

import numpy as np
import pytest
from scipy.linalg import block_diag
from scipy.special import xlogy

from bcsgl import bdg_verifier as bv
from bcsgl import specfun
from bcsgl.gap_solver import normalize
from bcsgl.gl_minimizer import TorusField
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
    return block_diag(op.k_block, op.m22_block)


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
        full = op.matrix
        assert np.abs(full - full.conj().T).max() <= 1e-12

    def test_matrix_is_the_block_assembly(self, gap_sol, fields):
        psi, a, w = fields
        basis = bv.FiberBasis(0.25, 8, 4)
        op = bv.build_fiber(basis, 0.7, psi, a, w, gap_sol.t, gap_sol.mu)
        np.testing.assert_array_equal(op.matrix, np.block([
            [op.k_block, op.delta_block],
            [op.delta_block.conj().T, op.m22_block]]))
        np.testing.assert_array_equal(op.t_values,
                                      gap_sol.t(basis.h * op.momenta))

    def test_non_hermitian_diagonal_block_raises(self, gap_sol, fields,
                                                 monkeypatch):
        # a complex w that gets past the reality guard makes the particle
        # and hole blocks non-Hermitian; the check on those blocks sees it
        psi, a, _ = fields
        monkeypatch.setattr(TorusField, "is_real", lambda self, tol=0: True)
        bad = TorusField.from_modes({1: 0.3j}, n_max=1)
        with pytest.raises(FloatingPointError, match="lost Hermiticity"):
            bv.build_fiber(bv.FiberBasis(0.25, 8, 4), 0.7, psi, a, bad,
                           gap_sol.t, gap_sol.mu)

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
            op_plus.m22_block,
            -np.conj(op_minus.k_block[::-1, ::-1]),
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
            op_plus.delta_block,
            op_minus.delta_block[::-1, ::-1].T,
            atol=1e-12,
        )

    def test_zero_pairing(self, gap_sol, fields):
        _, a, w = fields
        basis = bv.FiberBasis(0.25, 8, 4)
        op = bv.build_fiber(basis, 0.3, ZERO, a, w, gap_sol.t, gap_sol.mu)
        assert np.abs(op.delta_block).max() == 0.0

    def test_free_spectrum_matches_dense(self, gap_sol, fields):
        psi, a, w = fields
        basis = bv.FiberBasis(0.25, 8, 4)
        op = bv.build_fiber(basis, 1.1, psi, a, w, gap_sol.t, gap_sol.mu)
        dense = np.linalg.eigvalsh(free_matrix(op))
        np.testing.assert_allclose(op.free_spectrum(), dense, atol=1e-11)

    def test_decoupled_spectrum_symmetric_across_reflection(
        self, gap_sol, fields
    ):
        _, a, w = fields
        basis = bv.FiberBasis(0.25, 8, 4)
        xi = 0.9
        both = np.concatenate([
            bv.build_fiber(basis, xi, ZERO, a, w, gap_sol.t,
                           gap_sol.mu).free_spectrum(),
            bv.build_fiber(basis, -xi, ZERO, a, w, gap_sol.t,
                           gap_sol.mu).free_spectrum(),
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
    def test_workers_reduce_identically(self, gap_sol, fields):
        # at h = 1/4 every ladder converges by M = 16
        psi, a, w = fields
        for observable in (bv.semiclassical_trace, bv.alpha_delta_distance,
                           bv.trial_state_energy):
            serial = observable(gap_sol, psi, a, w, 0.25, m_fibers=16)
            threaded = observable(gap_sol, psi, a, w, 0.25, m_fibers=16,
                                  workers=4)
            assert serial == threaded, observable.__name__

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
            diff = np.abs(op.free_spectrum() - np.linalg.eigvalsh(dense))
            assert diff.max() <= bound, xi


# ---------------------------------------------------------------------------
# Translation-invariant closed-form oracle
# ---------------------------------------------------------------------------


class TestTranslationInvariantOracle:
    def test_lhs_matches_quadrature(self, gap_sol):
        # the ladder converges at M = 32 (at the default cap of 16 the
        # pair distance's change of 1.3e-11 is above its floor)
        c, h = 0.75, 0.25
        res = bv.semiclassical_trace(
            gap_sol, TorusField.constant(c), ZERO, ZERO, h, m_fibers=32
        )
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
            gap_sol, TorusField.constant(0.75), ZERO, ZERO, 0.25, m_fibers=32
        )
        assert res["lhs"] == pytest.approx(LHS_CONSTANT, rel=1e-9)

    def test_pair_block_closed_form(self, gap_sol):
        c, h = 0.75, 0.25
        basis = bv.FiberBasis(h, 16, 16)
        beta = gap_sol.beta_c
        op = bv.build_fiber(
            basis, basis.xi_nodes[3], TorusField.constant(c), ZERO, ZERO,
            gap_sol.t, gap_sol.mu,
        )
        lam, vec = np.linalg.eigh(op.matrix)
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
# Supercell oracle
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def supercell_instance(gap_sol, fields):
    psi, a, w = fields
    h, n_max, m_cells = 0.25, 8, 4
    basis = bv.FiberBasis(h, n_max, m_cells)
    h_pair, h_free = bv.supercell_hamiltonian(
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
        # quadrature.  Measured |difference| 6.2e-15 (one BLAS thread).
        psi, a, w = fields
        h, n_max = 0.125, 16
        beta = gap_sol.beta_c
        res = bv.semiclassical_trace(gap_sol, psi, a, w, h, n_max=n_max)
        m = res["m_fibers"]
        assert not res["capped"] and m < 16
        h_pair, h_free = bv.supercell_hamiltonian(
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
        # keeps |n| <= 8, the supercell 16.  Measured max |difference|
        # 1.2e-13 (at the window's edge, xi = pi; 1.3e-14 inside it)
        # against entries up to 0.15.
        basis, h_pair, _ = supercell_instance
        psi, a, w = fields
        beta = gap_sol.beta_c
        n_g = h_pair.shape[0] // 2
        _, alpha_grid = bv._pair_block(h_pair, beta)
        alpha_pw = np.fft.fft(np.fft.ifft(alpha_grid, axis=1), axis=0)
        m_cells = basis.m_fibers
        for k, xi in zip(range(1 - (m_cells + 1) // 2, m_cells // 2 + 1),
                         basis.xi_nodes):
            idx = (basis.modes * m_cells + k) % n_g
            op = bv.build_fiber(basis, xi, psi, a, w, gap_sol.t, gap_sol.mu)
            _, alpha = bv._pair_block(op.matrix, beta)
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
        for observable in (bv.semiclassical_trace, bv.alpha_delta_distance):
            with pytest.raises(TypeError, match="GapSolution"):
                observable(synth, psi, a, w, 0.25)

    @pytest.mark.parametrize("h", [0.125, 0.0625])
    def test_lhs_matches_eigvalsh_oracle(self, gap_sol, fields, shared_pass,
                                         h):
        # The oracle diagonalizes every fiber of the grid with eigvalsh;
        # the shared pass takes the eigenvalues of the pair block's eigh
        # and folds in the partners.  Measured |lhs - oracle|: 4.1e-14 at
        # h = 1/8 and 3.9e-16 at h = 1/16 with one BLAS thread, 3.5e-14
        # and 1.8e-14 with two.  The bound is 5e-13, three times the
        # largest eigh/eigvalsh shift seen on any sweep (1.65e-13 at
        # h = 1/8 on the built-in config's fields).
        psi, a, w = fields
        res = shared_pass[h]
        beta = gap_sol.beta_c
        basis = bv.FiberBasis(h, res["n_max"], 16)
        values = []
        for xi in basis.xi_nodes:
            op = bv.build_fiber(basis, xi, psi, a, w, gap_sol.t, gap_sol.mu)
            values.append(float(np.sum(
                specfun.fermi_f(beta * np.linalg.eigvalsh(op.matrix))
                - specfun.fermi_f(beta * op.free_spectrum()))))
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

    def test_workers_match_serial(self, gap_sol, fields):
        psi, a, w = fields
        serial = bv.semiclassical_trace(gap_sol, psi, a, w, 0.125, m_fibers=8)
        threaded = bv.semiclassical_trace(
            gap_sol, psi, a, w, 0.125, m_fibers=8, workers=4
        )
        assert serial["lhs"] == threaded["lhs"]


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
            return [b.dtype.kind
                    for b in (op.k_block, op.delta_block, op.m22_block)]

        assert kinds(gl_min_state.psi, ZERO) == ["f", "f", "f"]
        assert kinds(gl_min_state.psi, a_cos) == ["f", "f", "f"]
        assert kinds(probe, ZERO) == ["f", "c", "f"]
        assert kinds(gl_min_state.psi, TorusField.sine(0.2, 1)) == [
            "c", "f", "c"]

    def test_pair_block_matches_complex_route(self, gap_sol, gl_min_state):
        # Measured on these fibers (2N = 282): eigenvalues differ by at
        # most 0.018 of the backward-error bound 2 n eps ||H||_2, the
        # pair block by at most 5.4e-13 relative (Frobenius).
        h = 0.03125
        beta = gap_sol.beta_c / (1.0 - h * h * gap_sol.D)
        basis = bv._resolve_basis(gap_sol, h, 16, None)
        eps = np.finfo(float).eps
        for xi in basis.half_nodes:
            matrix = bv.build_fiber(basis, xi, gl_min_state.psi, ZERO,
                                    TorusField.cosine(0.5, 1), gap_sol.t,
                                    gap_sol.mu).matrix
            assert np.isrealobj(matrix)
            lam, alpha = bv._pair_block(matrix, beta)
            lam_c, alpha_c = bv._pair_block(matrix.astype(complex), beta)
            bound = 2 * matrix.shape[0] * eps * np.linalg.norm(matrix, 2)
            assert np.abs(lam - lam_c).max() <= bound, xi
            assert np.linalg.norm(alpha - alpha_c) <= 1e-11 * np.linalg.norm(
                alpha_c), xi

    def test_energy_matches_complex_route(self, gap_sol, gl_min_state,
                                          monkeypatch):
        # scaled = (sum of terms) / h^3 magnifies the trace term's
        # eigenvalue roundoff (~eps * ||H|| per large negative eigenvalue).
        # At h = 1/32 the two routes differ by 3.2e-9 .. 4.4e-8 relative
        # over 16 GL minimizers that agree to |grad| < 1e-12 (x86-64,
        # OpenBLAS); the difference is roundoff, not a property of psi.
        w = TorusField.cosine(0.5, 1)
        h_list = (0.125, 0.0625, 0.03125)
        real = [bv.trial_state_energy(gap_sol, gl_min_state.psi, ZERO, w, h)
                for h in h_list]
        _complex_coeff_matrix(monkeypatch)
        for h, res in zip(h_list, real):
            ref = bv.trial_state_energy(gap_sol, gl_min_state.psi, ZERO, w, h)
            assert res["scaled"] == pytest.approx(ref["scaled"], rel=1e-7), h
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


def _all_nodes(basis, one, workers):
    """Every node of the grid diagonalized on its own, no folding."""
    return [c for xi in basis.xi_nodes for c in one(xi, False)]


class TestPartnerFibers:
    def test_partner_spectrum_and_pair_block(self, gap_sol, rich_fields):
        psi, a, w = rich_fields
        basis = bv.FiberBasis(0.25, 8, 8)
        beta = gap_sol.beta_c
        for xi in basis.half_nodes[1:-1]:
            plus = bv.build_fiber(basis, xi, psi, a, w, gap_sol.t, gap_sol.mu)
            minus = bv.build_fiber(basis, -xi, psi, a, w, gap_sol.t,
                                   gap_sol.mu)
            lam_p, alpha_p = bv._pair_block(plus.matrix, beta)
            lam_m, alpha_m = bv._pair_block(minus.matrix, beta)
            spec_dev = np.abs(np.sort(-lam_p) - lam_m).max()
            assert spec_dev <= 1e-12 * np.abs(lam_p).max()
            # alpha(-xi) = J alpha(xi)^T J
            partner = alpha_p[::-1, ::-1].T
            np.testing.assert_array_equal(bv._partner_block(alpha_p), partner)
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
            _, alpha = bv._pair_block(op.matrix, beta)
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


def _fixed_grid(basis, one, workers, quadrature, above=0.0):
    """The fixed M-node pass in place of the ladder: every node of the cap
    grid folded at once, one ``quadrature`` over all of them."""
    m = basis.m_fibers
    q, _ = quadrature(bv._fold_fibers(basis, one, workers), m)
    return q, {"m_fibers": m, "capped": False}


_PASS_KEYS = ("lhs", "e1_term", "e2_term", "residual", "h1_distance",
              "l2_distance", "l2_leading", "h", "beta", "n_max", "m_fibers")


class TestBlochLadder:
    def test_rungs_of_a_cap_of_twelve(self):
        # odd part 3: rungs M = 3, 6, 12, the first two from one batch;
        # each rung's contributions are those of its own full grid
        basis = bv.FiberBasis(0.25, 4, 12)
        built, rungs = [], []

        def one(xi, partnered):
            built.append(xi)
            return ((xi,), (-xi,)) if partnered else ((xi,),)

        def quadrature(parts, m):
            rungs.append(m)
            np.testing.assert_array_equal(
                sorted(p[0] for p in parts),
                bv.FiberBasis(0.25, 4, m).xi_nodes)
            # a negative floor never settles
            return {"M": m}, {"M": -1.0}

        with pytest.warns(UserWarning, match="reached the cap m_fibers=12"):
            q, record = bv._bloch_ladder(basis, one, 1, quadrature)
        assert rungs == [3, 6, 12]
        assert q == {"M": 12}
        assert record == {"m_fibers": 12, "capped": True, "delta_M": 6}
        assert len(built) == len(set(built))
        np.testing.assert_array_equal(sorted(built), basis.half_nodes)

    @pytest.mark.parametrize("above, rungs", [(3.0, [6, 12]), (11.5, [12])])
    def test_rungs_start_above_the_lower_bound(self, above, rungs):
        basis = bv.FiberBasis(0.25, 4, 12)
        seen = []

        def quadrature(parts, m):
            seen.append(m)
            return {"M": m}, {"M": -1.0}

        with pytest.warns(UserWarning, match="reached the cap"):
            _, record = bv._bloch_ladder(
                basis, lambda xi, partnered: ((xi,),) * (1 + partnered), 1,
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
        assert set(bv.LADDER_KEYS) <= set(res)

    @pytest.mark.parametrize("h", [0.125, 0.0625])
    def test_floor_covers_permuted_roundoff(self, gap_sol, fields,
                                            shared_pass, h):
        # Diagonalizing every fiber after one fixed symmetric permutation
        # moves lhs by roundoff alone.  Measured over seven permutations:
        # up to 1.2e-13 at h = 1/8 (floor 3.3e-13) and 6.0e-14 at
        # h = 1/16 (floor 1.7e-13), one BLAS thread.
        psi, a, w = fields
        res = shared_pass[h]
        beta = gap_sol.beta_c
        basis = bv.FiberBasis(h, res["n_max"], res["m_fibers"])
        perm = np.random.default_rng(4).permutation(2 * basis.size)
        values = []
        for k, xi in enumerate(basis.half_nodes):
            op = bv.build_fiber(basis, xi, psi, a, w, gap_sol.t, gap_sol.mu)
            lam, _ = np.linalg.eigh(op.matrix[np.ix_(perm, perm)])
            tr, _ = bv._fiber_trace(op, lam, beta)
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

        def recording(basis, one, workers):
            folded.append(basis.m_fibers)
            return fold(basis, one, workers)

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
        # measured moves of scaled = f_bcs_diff / h^3: 6.4e-11 .. 4.5e-8
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
        # Diagonalizing every fiber after one fixed symmetric permutation
        # moves scaled by roundoff alone.  Measured over seven
        # permutations: up to 1.7e-8 at h = 1/32 (floor 6.5e-8) and
        # 1.8e-7 at h = 1/64 (floor 8.4e-7), one BLAS thread.
        res = energy_pass[h]
        perm = np.random.default_rng(4).permutation(
            2 * (2 * res["n_max"] + 1))
        back = np.argsort(perm)

        def permuted(matrix, beta):
            lam, vec = np.linalg.eigh(matrix[np.ix_(perm, perm)])
            vec = vec[back]
            n = matrix.shape[0] // 2
            rho = specfun.fermi_rho(beta * lam)
            return lam, (vec[:n] * rho) @ vec[n:].conj().T

        monkeypatch.setattr(bv, "_pair_block", permuted)
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
        occ = occupations(pair_of_fibers[0].matrix, gap_sol.beta_c)
        assert occ.min() >= -1e-12
        assert occ.max() <= 1.0 + 1e-12

    def test_reflected_fiber_occupations_complement(
        self, gap_sol, pair_of_fibers
    ):
        op_plus, op_minus = pair_of_fibers
        occ_plus = np.sort(occupations(op_plus.matrix, gap_sol.beta_c))
        occ_minus = np.sort(occupations(op_minus.matrix, gap_sol.beta_c))
        np.testing.assert_allclose(
            occ_minus, np.sort(1.0 - occ_plus), atol=1e-10
        )

    def test_entropy_symmetric_and_positive(self, gap_sol, pair_of_fibers):
        op_plus, op_minus = pair_of_fibers
        s_plus = entropy(op_plus.matrix, gap_sol.beta_c)
        s_minus = entropy(op_minus.matrix, gap_sol.beta_c)
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
        report = bv.h_sweep(lambda h: 2.5 * h**3, self.H_LIST)
        assert report["fitted_order"] == pytest.approx(3.0, abs=1e-6)

    def test_constant_observable_has_zero_order(self):
        report = bv.h_sweep(lambda h: 0.7, self.H_LIST)
        assert abs(report["fitted_order"]) < 1e-9

    def test_roundoff_floor_excluded_from_fit(self):
        values = {0.125: 2.5 * 0.125**3, 0.0625: 2.5 * 0.0625**3,
                  0.03125: 1e-18}
        report = bv.h_sweep(lambda h: values[h], list(values))
        assert report["fitted_order"] == pytest.approx(3.0, abs=1e-9)

    def test_failures_aggregate(self):
        def failing_below(cut):
            def observable(h):
                if h < cut:
                    raise RuntimeError("too small")
                return h**2
            return observable

        # three of four points survive: kept, with the failure recorded
        report = bv.h_sweep(failing_below(0.02), self.H_LIST)
        assert len(report["h_values"]) == 3
        assert [h for h, _ in report["failures"]] == [0.015625]
        assert all("too small" in msg for _, msg in report["failures"])
        # two of four survive: aborted
        with pytest.raises(RuntimeError, match="too small"):
            bv.h_sweep(failing_below(0.06), self.H_LIST)
        # a two-point list needs both points
        assert len(bv.h_sweep(failing_below(0.02), self.H_LIST[:2])
                   ["h_values"]) == 2
        with pytest.raises(RuntimeError, match="kept 1 of 2"):
            bv.h_sweep(failing_below(0.1), self.H_LIST[:2])

    def test_h_list_validation(self):
        with pytest.raises(ValueError, match="decreasing"):
            bv.h_sweep(lambda h: h, [0.0625, 0.125])
        with pytest.raises(ValueError, match="lie in"):
            bv.h_sweep(lambda h: h, [1.5, 0.125, 0.0625])

    def test_extras_reference_and_serialization(self):
        report = bv.h_sweep(
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
        report = bv.h_sweep(lambda h: values[h], list(values), reference=1.0)
        assert len(report["local_orders"]) == 2
        assert report["local_orders"][0] == pytest.approx(
            math.log(2.5 * 0.125**3 / (2.5 * 0.0625**2)) / math.log(2.0),
            rel=1e-9)
        assert report["local_orders"][1] is None
        assert bv.h_sweep(lambda h: h**2, [0.5])["local_orders"] == []
