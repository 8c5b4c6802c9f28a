"""Unit tests for the gap-equation solver."""

import collections
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, linalg, signal

from bcsgl import gap_solver as gs
from bcsgl import gl_coeffs as gc
from bcsgl import specfun as sf
import reference_checks as rc
from pair_symbol import vhat_d1

# Frozen regression values from the converged reference run
# (g=2, w=1, mu=1, d=1 on the default Q=12, n=512 grid).
REFERENCE_TC = 0.671627834204
REFERENCE_NORM_SCALE = 0.990882090348
REFERENCE_KAPPA_C = 0.816993306904

# T_c of the three potentials of the benchmark's GL scan (D = 1, default
# grids), the Newton root of the r x r lambda_min(T), bit for bit.
SCAN_TC = {
    ("gaussian", 2.0, 1.0, 1.0): 0.67162783421896,
    ("square", 2.0, 1.0, 1.0): 0.8348228845789717,
    ("gaussian", 3.0, 0.7, 0.5): 0.9118789657866195,
}


# T_c (as float.hex) of further wells and grids, the same root.
# Keys: (family, g, w, mu, grid), grid None for the default one.
ESTIMATE_TC = {
    ("gaussian", 2.0, 1.0, 1.0, None): "0x1.57df9a7e1b843p-1",
    ("square", 2.0, 1.0, 1.0, None): "0x1.ab6de7b670297p-1",
    ("gaussian", 3.0, 0.7, 0.5, None): "0x1.d2e1ccbfed7bap-1",
    ("gaussian", 0.4, 1.0, 1.0, None): "0x1.618bc622e825ap-8",
    ("gaussian", 8.0, 1.0, 1.0, None): "0x1.b2890b43f8df1p+1",
    ("gaussian", 2.0, 1.0, -0.5, None): "0x1.0bb31353833a2p-1",
    ("gaussian", 2.0, 1.0, 3.0, None): "0x1.6aa8e0a0c1e6fp-2",
    ("square", 3.0, 0.5, 0.5, None): "0x1.c80df9fe6c28bp-1",
    ("gaussian", 2.0, 1.0, 1.0, (24.0, 1024)): "0x1.57df9a7e1b841p-1",
}


@pytest.fixture(scope="module")
def scan_solutions():
    """Normalized (D = 1) solutions of the ``SCAN_TC`` potentials."""
    return {
        key: gs.normalize(gs.find_tc(getattr(gs.PotentialSpec, key[0])(*key[1:])), 1.0)
        for key in SCAN_TC
    }


class TestPotentialSpec:
    def test_gaussian_vhat_matches_quadrature(self):
        spec = gs.PotentialSpec.gaussian(2.0, 1.3, 0.5)
        for k in (0.0, 0.7, 3.1):
            oracle, _ = integrate.quad(
                lambda x: spec.v(x) * math.cos(k * x), -40, 40, epsabs=1e-13
            )
            oracle /= math.sqrt(2 * math.pi)
            assert spec.vhat(k) == pytest.approx(oracle, rel=1e-10)

    def test_gaussian_vhat_nonpositive(self, ref_spec):
        spec = ref_spec
        k = np.linspace(-30, 30, 301)
        assert np.all(spec.vhat(k) <= 0.0)

    def test_vhat_derivatives_match_finite_differences(self, ref_spec):
        spec = ref_spec
        h = 1e-6
        for k in (0.3, 1.9, 4.2):
            fd1 = (spec.vhat(k + h) - spec.vhat(k - h)) / (2 * h)
            assert vhat_d1(spec, k) == pytest.approx(fd1, rel=1e-8, abs=1e-12)
            fd2 = (vhat_d1(spec, k + h) - vhat_d1(spec, k - h)) / (2 * h)
            assert spec.vhat_d2(k) == pytest.approx(fd2, rel=1e-8, abs=1e-12)

    def test_square_well_vhat(self):
        spec = gs.PotentialSpec.square(1.5, 2.0, 0.0)
        assert spec.vhat(0.0) == pytest.approx(
            -1.5 * math.sqrt(2 / math.pi) * 2.0, rel=1e-14
        )
        k = 1.1
        assert spec.vhat(k) == pytest.approx(
            -1.5 * math.sqrt(2 / math.pi) * math.sin(2.0 * k) / k, rel=1e-12
        )

    def test_square_well_finite_difference_derivatives(self, scan_solutions):
        # the square well's V is a step, and its vhat_d2 is a central
        # difference; the pair symbol's second derivative built on it
        # agrees with differences of t itself, and the t'' check of
        # e2_constants stays silent
        sol = scan_solutions[("square", 2.0, 1.0, 1.0)]
        assert sol.spec.v([0.0, 1.0, 1.0 + 1e-9]).tolist() == [-2.0, -2.0,
                                                                0.0]
        # the first sample of its 8192-point grid on [0, 50 w] past w
        assert 1.0 < sol.spec.reach() < 1.0 + 50.0 / 8191
        p = np.linspace(0.0, sol.grid.nodes[-1], 9)[1:-1]
        step = 1e-3
        d2 = (-sol.t(p + 2 * step) + 16 * sol.t(p + step) - 30 * sol.t(p)
              + 16 * sol.t(p - step) - sol.t(p - 2 * step)) / (12 * step**2)
        assert np.abs(sol.t_second(p) - d2).max() <= 1e-6 * np.abs(d2).max()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            gc.e2_constants(sol, sol.beta_c)

    def test_validation(self):
        with pytest.raises(ValueError):
            gs.PotentialSpec.gaussian(-1.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            gs.PotentialSpec.gaussian(1.0, 0.0, 0.0)
        with pytest.raises(ValueError, match="'gaussian_well' or "):
            gs.PotentialSpec("weird_well", 1.0, 1.0, 0.0)

    def test_serialization_round_trip(self, ref_spec):
        spec = ref_spec
        again = gs.PotentialSpec.from_dict(spec.to_dict())
        assert again == spec


class TestMomentumGrid:
    def test_midpoint_nodes(self):
        grid = gs.MomentumGrid(10.0, 10)
        assert grid.dq == pytest.approx(1.0)
        assert grid.nodes[0] == pytest.approx(0.5)
        assert grid.nodes[-1] == pytest.approx(9.5)

    def test_default_for_reference(self, ref_spec, ref_grid):
        assert ref_grid.cutoff == pytest.approx(12.0)
        assert ref_grid.n_points == 512

    def test_validation(self):
        with pytest.raises(ValueError):
            gs.MomentumGrid(-1.0, 64)
        with pytest.raises(ValueError):
            gs.MomentumGrid(10.0, 4)

    def test_coverage_rejection(self, ref_spec):
        small = gs.MomentumGrid(4.0, 64)
        with pytest.raises(ValueError, match="coverage"):
            gs.build_gap_matrix(ref_spec, small, 0.1)


class TestBuildGapMatrix:
    def test_free_problem_is_diagonal_with_2t_bound(self):
        spec = gs.PotentialSpec.gaussian(0.0, 1.0, 1.0)
        grid = gs.MomentumGrid(12.0, 64)
        T = 0.37
        mat = gs.build_gap_matrix(spec, grid, T)
        off = mat - np.diag(np.diag(mat))
        assert np.abs(off).max() == 0.0
        assert np.diag(mat).min() >= 2.0 * T - 1e-14

    def test_symmetry_exact(self, ref_spec, ref_grid):
        mat = gs.build_gap_matrix(ref_spec, ref_grid, 0.3)
        assert np.abs(mat - mat.T).max() <= 1e-12

    @pytest.mark.parametrize("spec", [
        gs.PotentialSpec.gaussian(2.0, 1.0, 1.0),
        gs.PotentialSpec.square(2.0, 1.0, 1.0)])
    def test_interaction_matrix_symmetric_elementwise(self, spec):
        # a Toeplitz plus a Hankel matrix of one set of Vhat samples
        for grid in (gs.MomentumGrid.default_for(spec), gs.MomentumGrid(24.0, 1024)):
            mat = gs.build_gap_matrix(spec, grid, 0.3)
            assert np.array_equal(mat, mat.T)
            q = grid.nodes
            direct = (spec.vhat(q[:, None] - q[None, :])
                      + spec.vhat(q[:, None] + q[None, :])) * grid.dq / math.sqrt(
                          2.0 * math.pi)
            inter = gs._interaction_matrix(spec, grid)
            assert np.abs(inter - direct).max() <= 1e-15 * np.abs(direct).max()

    def test_reference_low_temperature_has_negative_eigenvalue(self, ref_spec):
        for n in (512, 1024):
            grid = gs.MomentumGrid(12.0, n)
            mat = gs.build_gap_matrix(ref_spec, grid, 0.01)
            lam = linalg.eigh(mat, subset_by_index=[0, 0], eigvals_only=True)[0]
            assert lam < 0.0


class TestFindTc:
    def test_reference_regression(self, gap_sol_raw):
        assert gap_sol_raw.T_c == pytest.approx(REFERENCE_TC, rel=1e-7)
        assert gap_sol_raw.kappa_c == pytest.approx(REFERENCE_KAPPA_C, rel=1e-7)

    def test_eigen_residual(self, gap_sol_raw):
        assert gap_sol_raw.eig_residual < 1e-8

    def test_sign_convention(self, gap_sol):
        assert gap_sol.alpha0_hat[0] >= 0.0

    def test_no_pairing_for_free_problem(self, ref_grid):
        spec = gs.PotentialSpec.gaussian(0.0, 1.0, 1.0)
        with pytest.raises(gs.NoPairingError, match="no pairing") as err:
            gs.find_tc(spec, ref_grid)
        assert err.value.lambda_min >= 0.0
        # V = 0 has rank 0, and the lowest eigenvalue is that of K_T alone
        interaction = gs._interaction_matrix(spec, ref_grid)
        assert gs._attraction_factor(interaction)[0].shape[1] == 0
        kt = sf.kt_symbol(ref_grid.nodes**2 - spec.mu, err.value.probe_temperature)
        assert err.value.lambda_min == pytest.approx(kt.min(), rel=1e-12)

    def test_bracket_failure_for_immense_depth(self):
        spec = gs.PotentialSpec.gaussian(40.0, 1.0, 1.0)
        grid = gs.MomentumGrid(12.0, 256)
        with pytest.raises(gs.BracketError):
            gs.find_tc(spec, grid)

    def test_deeper_well_raises_tc(self, gap_sol_raw):
        grid = gs.MomentumGrid(12.0, 256)
        deeper = gs.find_tc(gs.PotentialSpec.gaussian(3.0, 1.0, 1.0), grid)
        assert deeper.T_c > gap_sol_raw.T_c

    def test_lambda_min_increasing_in_temperature(self, ref_spec, ref_grid):
        lams = []
        for T in (0.05, 0.2, 0.67, 1.5, 4.0):
            mat = gs.build_gap_matrix(ref_spec, ref_grid, T)
            lams.append(linalg.eigh(mat, subset_by_index=[0, 0], eigvals_only=True)[0])
        assert np.all(np.diff(lams) > 0.0)

    def test_grid_stability(self, gap_sol_raw, gap_sol_fine, ref_spec, ref_grid):
        assert gap_sol_fine.T_c == pytest.approx(gap_sol_raw.T_c, rel=1e-4)
        wide = gs.find_tc(ref_spec, gs.MomentumGrid(2 * ref_grid.cutoff,
                                                    2 * ref_grid.n_points))
        assert wide.T_c == pytest.approx(gap_sol_raw.T_c, rel=1e-4)

    def test_pointwise_t_relation(self, gap_sol_raw):
        # t = 2 K_T(q^2 - mu) alpha0_hat at every node, at T = T_c
        sol = gap_sol_raw
        q = sol.grid.nodes
        pointwise = sol.t_samples - 2.0 * sf.kt_symbol(
            q * q - sol.mu, sol.T_c) * sol.alpha0_hat
        scale = np.abs(sol.t_samples).max()
        assert np.abs(pointwise).max() / scale < 1e-8

    def test_deep_tail_on_wide_grid(self, ref_spec):
        grid = gs.MomentumGrid(16.0, 768)
        t = gs.find_tc(ref_spec, grid).t_samples
        assert abs(t[-1]) / np.abs(t).max() < 1e-10

    def test_scan_potentials_bit_identical(self, scan_solutions):
        for key, sol in scan_solutions.items():
            assert sol.T_c == SCAN_TC[key], key

    @pytest.mark.parametrize("key", list(SCAN_TC))
    def test_lowest_eigenvalue_changes_sign_at_tc(self, key, scan_solutions):
        # the dense lambda_min of K_T + V has the sign of T - T_c down to a
        # relative distance of 1e-12 from T_c, where |lambda_min| (about
        # 1e-12) is still far above the eigensolve's roundoff
        sol = scan_solutions[key]
        for k in range(1, 13):
            for T in (sol.T_c * (1 - 10.0**-k), sol.T_c * (1 + 10.0**-k)):
                mat = gs.build_gap_matrix(sol.spec, sol.grid, T)
                lam = linalg.eigh(mat, subset_by_index=[0, 0], eigvals_only=True)[0]
                assert (lam < 0.0) == (T < sol.T_c), (k, T, lam)

    def test_slope_is_the_temperature_derivative_of_the_symbol(self):
        # d K_T / dT = 2 (w / sinh w)^2, w = x / 2T: against a central
        # difference of kt_symbol, with the value 2 at x = 0 and no
        # overflow far from the Fermi surface
        x = np.array([-3.0, -0.4, 0.0, 1e-9, 0.05, 0.7, 2.0, 9.0])
        T, step = 0.6, 1e-5
        fd = (sf.kt_symbol(x, T + step) - sf.kt_symbol(x, T - step)) / (2 * step)
        # (the difference loses about eps |x| / step to cancellation)
        assert np.allclose(gs._kt_slope(x, T), fd, rtol=1e-8, atol=1e-9)
        assert gs._kt_slope(np.array([0.0]), T)[0] == 2.0
        assert gs._kt_slope(np.array([-1e4, 1e4]), 1e-6).tolist() == [0.0, 0.0]

    def test_search_that_does_not_converge_raises(self, ref_spec, ref_grid,
                                                  monkeypatch):
        # a T_c that did not converge is never returned: three evaluations
        # (the two ends and one step) leave the bracket wide
        monkeypatch.setattr(gs, "_MAX_EVALUATIONS", 3)
        with pytest.raises(RuntimeError, match="did not converge in 3"):
            gs.find_tc(ref_spec, ref_grid)

    def test_no_dense_factorization(self, ref_spec, ref_grid, gap_sol_raw,
                                    monkeypatch):
        # every factorization is NumPy's, and in a normal solve every one
        # is r x r: each evaluation of lambda_min(T) in the search, and
        # the spectral gap; no Cholesky, no LU solve and no n x n
        # factorization
        calls = collections.Counter()
        sizes = collections.Counter()
        for name in ("eigh", "eigvalsh", "cholesky", "solve"):
            def counted(matrix, *args, _name=name, _call=getattr(np.linalg, name),
                        **kwargs):
                calls[_name] += 1
                sizes[matrix.shape] += 1
                return _call(matrix, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        sol = gs.find_tc(ref_spec, ref_grid)
        assert sol.T_c == gap_sol_raw.T_c
        search = sol.tc_search
        rank = search["attraction_rank"]
        assert 0 < rank <= 64
        assert set(sizes) == {(rank, rank)}
        assert calls["solve"] == calls["cholesky"] == 0
        assert search["dense_evals"] == 0
        assert 0.0 < search["factor_residual"] <= 1e-13
        # the two ends of [1e-6, 10] and five Newton steps
        assert search["lambda_evals"] == 7

    def test_t_samples_match_the_pair_symbol(self, gap_sol_raw):
        # the samples are V alpha0_hat through the interaction matrix; t()
        # sums the same kernel at arbitrary momenta
        sol = gap_sol_raw
        scale = np.abs(sol.t_samples).max()
        assert np.abs(sol.t(sol.grid.nodes) - sol.t_samples).max() <= 1e-14 * scale

    def test_t_even_and_real(self, gap_sol):
        p = np.linspace(0.0, 8.0, 41)
        assert np.allclose(gap_sol.t(-p), gap_sol.t(p), atol=1e-14)
        assert gap_sol.t_samples.dtype == np.float64


def dense_alpha0(sol, x):
    """``alpha0`` as one product of the whole (points x nodes) cosine table."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    weight = math.sqrt(2.0 / math.pi) * sol.grid.dq
    return weight * (np.cos(sol.grid.nodes[None, :] * x[:, None]) @ sol.alpha0_hat)


def dense_kernel_sum(sol, profile, p):
    """The pair symbol's kernel sum as one product of the whole
    (momenta x nodes) kernel table."""
    p = np.atleast_1d(np.asarray(p, dtype=float))
    q = sol.grid.nodes
    kernel = profile(p[:, None] - q[None, :]) + profile(p[:, None] + q[None, :])
    return -2.0 * (kernel @ sol.alpha0_hat) * sol.grid.dq / math.sqrt(2.0 * math.pi)


class TestRowBlockedTransforms:
    """``alpha0`` and the pair symbol go through the (points x nodes)
    table one row block at a time, with the bits of one product."""

    @pytest.mark.parametrize("solution", ["gap_sol", "gap_sol_fine"])
    def test_bit_identical_to_the_dense_formula(self, request, solution):
        # 128 rows per block on 512 nodes, 64 on 1024
        sol = request.getfixturevalue(solution)
        block = gs._BLOCK_ELEMENTS // sol.grid.n_points
        assert gs._row_blocks(4096, sol.grid.n_points)[0] == slice(0, block)
        for n in (1, block - 1, block, block + 1, 4096):
            x = np.linspace(0.0, 40.0, n)
            p = np.linspace(-3.0, 16.0, n)
            assert sol.alpha0(x).tobytes() == dense_alpha0(sol, x).tobytes()
            for method, profile in ((sol.t, sol.spec.vhat),
                                    (sol.t_second, sol.spec.vhat_d2)):
                assert method(p).tobytes() == dense_kernel_sum(sol, profile, p).tobytes()
        assert sol.t(16.0) == dense_kernel_sum(sol, sol.spec.vhat, 16.0)[0]

    def test_row_blocks_cover_the_rows_in_order(self):
        for n_rows in (0, 1, 2, 127, 128, 129, 130, 257, 4096):
            blocks = gs._row_blocks(n_rows, 512)
            assert [i for b in blocks for i in range(n_rows)[b]] == list(range(n_rows))
            assert all(b.start % 32 == 0 for b in blocks)
            assert all(b.stop - b.start >= 2 for b in blocks) or n_rows <= 1

    @pytest.mark.parametrize("solution", ["gap_sol", "gap_sol_fine"])
    def test_transforms_hold_one_block(self, request, solution):
        # 4096 points of alpha0 (the decay fit's grid) and 1015 momenta of
        # t and t'' (a fiber at h = 1/256) stay below 3 MiB;
        # measured 1.0 MiB and 2.0-2.5 MiB on 512 and 1024 nodes, against
        # 32 and 16-20 MiB (64 and 32-40 MiB) for the whole table
        sol = request.getfixturevalue(solution)
        for method, points in ((sol.alpha0, np.linspace(0.0, 40.0, 4096)),
                               (sol.t, np.linspace(0.0, 16.0, 1015)),
                               (sol.t_second, np.linspace(0.0, 16.0, 1015))):
            tracemalloc.start()
            try:
                method(points)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 3 * 2**20, (method.__name__, peak)


class TestBirmanSchwingerEstimate:
    """With ``-V = B B^T``, every evaluation of ``lambda_min(T)``, the
    spectral gap and the ground state come from ``r x r`` matrices such
    as ``B^T (K_T - x)^{-1} B``; ``T_c`` stays as pinned, and the rest
    matches a dense ``eigh`` of ``K_T + V``."""

    @staticmethod
    def solve(key, scan_solutions):
        family, g, w, mu, grid = key
        if grid is None and key[:4] in SCAN_TC:
            return scan_solutions[key[:4]]
        spec = getattr(gs.PotentialSpec, family)(g, w, mu)
        return gs.find_tc(spec, None if grid is None else gs.MomentumGrid(*grid))

    @pytest.mark.parametrize("key", list(ESTIMATE_TC))
    def test_tc_bit_identical_without_dense_tests(self, key, scan_solutions):
        sol = self.solve(key, scan_solutions)
        assert sol.T_c.hex() == ESTIMATE_TC[key]
        assert sol.tc_search["dense_evals"] == 0
        assert sol.tc_search["lambda_evals"] <= 12
        interaction = gs._interaction_matrix(sol.spec, sol.grid)
        factor, truncation = gs._attraction_factor(interaction)
        assert factor.shape[1] == sol.tc_search["attraction_rank"]
        assert truncation == sol.tc_search["factor_residual"]
        scale = np.abs(interaction).max()
        assert np.abs(-interaction - factor @ factor.T).max() <= 1e-14 * scale
        # s = tr E bounds the truncation residual E = -V - B B^T; each of
        # its n remaining diagonals is at most the factor's stop
        assert 0.0 < truncation <= (gs._FACTOR_TOLERANCE * scale
                                    * sol.grid.n_points)

    @pytest.mark.parametrize("key", list(ESTIMATE_TC))
    def test_ground_state_and_gap_match_dense_eigh(self, key, scan_solutions):
        # lambda_min, the spectral gap and the ground state come from r x r
        # matrices; the dense eigh of K_T + V at T_c is their oracle.  Its
        # backward error is a few eps max|K_T + V|, so eigenvalues agree to
        # that and the unit eigenvector to that over the gap (measured:
        # at most 0.06, 0.46 and 0.23 of eps max|K_T + V| respectively);
        # T_c is a root of the dense lambda_min to the same roundoff
        sol = self.solve(key, scan_solutions)
        mat = gs.build_gap_matrix(sol.spec, sol.grid, sol.T_c)
        values, vectors = np.linalg.eigh(mat)
        tol = 2.0 * np.finfo(float).eps * np.abs(mat).max()
        assert abs(values[0]) <= tol
        assert abs(sol.lambda_min - values[0]) <= tol
        gap = values[1] - values[0]
        assert abs(sol.spectral_gap - gap) <= 2.0 * tol
        oracle = vectors[:, 0] * np.sign(vectors[0, 0])
        unit = sol.alpha0_hat / np.linalg.norm(sol.alpha0_hat)
        assert np.abs(unit - oracle).max() <= tol / gap
        assert sol.eig_residual - abs(sol.lambda_min) <= tol

    def test_rank_one_factor_reruns_dense(self, monkeypatch):
        # the ground state of a poor factor fails the residual check, so
        # the search reruns on dense eighs of K_T + V and lands within a
        # few ulp of the normal T_c; lambda_min, the gap and the vector
        # are the dense eigh's, checked with the tolerances of
        # test_ground_state_and_gap_match_dense_eigh
        full = gs._attraction_factor

        def rank_one(interaction):
            factor = full(interaction)[0][:, :1]
            return factor, float(np.trace(-interaction) - np.sum(factor * factor))

        monkeypatch.setattr(gs, "_attraction_factor", rank_one)
        for key, T_c in SCAN_TC.items():
            sol = gs.find_tc(getattr(gs.PotentialSpec, key[0])(*key[1:]))
            assert abs(sol.T_c - T_c) <= 4 * math.ulp(T_c), key
            assert sol.tc_search["attraction_rank"] == 1, key
            assert sol.eig_residual < 1e-8, key
            assert sol.tc_search["dense_evals"] > 0, key
            mat = gs.build_gap_matrix(sol.spec, sol.grid, sol.T_c)
            values, vectors = np.linalg.eigh(mat)
            tol = 2.0 * np.finfo(float).eps * np.abs(mat).max()
            assert abs(sol.lambda_min - values[0]) <= tol, key
            gap = values[1] - values[0]
            assert abs(sol.spectral_gap - gap) <= 2.0 * tol, key
            oracle = vectors[:, 0] * np.sign(vectors[0, 0])
            unit = sol.alpha0_hat / np.linalg.norm(sol.alpha0_hat)
            assert np.abs(unit - oracle).max() <= tol / gap, key
            assert sol.eig_residual - abs(sol.lambda_min) <= tol, key


class TestEigenpair:
    """``_eigenpair`` on a synthetic ``diag(kt) - B B^T`` against a dense
    ``eigh``, called as ``find_tc`` calls it: ``k = 1`` from 0 above the
    Weyl bound, ``k = 2`` from the midpoint of the two smallest ``kt``
    above the first eigenvalue."""

    # (name, kt, rank of B, scale of B): the second eigenvalue lies below
    # every kt (no pole in its bracket), between the two smallest (one
    # pole), below a tie of the two smallest (the start is the bracket's
    # end), and at that tie (rank 1: B misses one direction of it)
    CASES = [
        ("no pole", np.linspace(0.5, 20.0, 40), 4, 3.0),
        ("one pole", np.linspace(0.5, 20.0, 40), 4, 0.8),
        ("tie", np.r_[0.5, 0.5, np.linspace(1.0, 20.0, 38)], 4, 1.5),
        ("tie, rank 1", np.r_[0.5, 0.5, np.linspace(1.0, 20.0, 38)], 1, 1.5),
    ]

    @pytest.mark.parametrize("name, kt, rank, scale", CASES,
                             ids=[case[0] for case in CASES])
    def test_matches_dense_eigh(self, name, kt, rank, scale):
        kt = np.random.default_rng(1).permutation(kt)
        factor = scale * np.random.default_rng(2).standard_normal(
            (len(kt), rank)) / math.sqrt(len(kt))
        mat = np.diag(kt) - factor @ factor.T
        values, vectors = np.linalg.eigh(mat)
        first, second = np.partition(kt, 1)[:2]
        assert (first < values[1]) == (name == "one pole")
        tol = 2.0 * np.finfo(float).eps * np.abs(mat).max()

        weyl = kt.min() - np.sum(factor * factor)
        lowest, unit = gs._eigenpair(factor, kt, 1, weyl, 0.0)
        assert abs(lowest - values[0]) <= tol
        oracle = vectors[:, 0] * np.sign(vectors[:, 0] @ unit)
        assert np.abs(unit - oracle).max() <= tol / (values[1] - values[0])

        value, unit = gs._eigenpair(factor, kt, 2, lowest, 0.5 * (first + second))
        assert abs(value - values[1]) <= tol
        if name == "tie, rank 1":
            # the eigenvalue sits on the pole, where no Newton step lands:
            # the bracket closes on it
            assert unit is None
            return
        oracle = vectors[:, 1] * np.sign(vectors[:, 1] @ unit)
        gap = min(values[1] - values[0], values[2] - values[1])
        assert np.abs(unit - oracle).max() <= tol / gap


class TestNormalize:
    def test_scale_regression(self, gap_sol):
        assert gap_sol.norm_scale == pytest.approx(REFERENCE_NORM_SCALE, rel=1e-7)

    def test_idempotent(self, gap_sol):
        again = gs.normalize(gap_sol, 1.0)
        assert again.norm_scale / gap_sol.norm_scale == pytest.approx(1.0, abs=1e-10)

    def test_d_linearity(self, gap_sol_raw):
        s1 = gs.normalize(gap_sol_raw, 1.0).norm_scale
        s2 = gs.normalize(gap_sol_raw, 2.0).norm_scale
        assert (s2 / s1) ** 2 == pytest.approx(2.0, rel=1e-12)

    def test_validation(self, gap_sol_raw):
        # the rule of the config's D leaf, in its words
        for D in (0.0, math.inf, math.nan):
            with pytest.raises(ValueError,
                               match="D must be a finite number > 0"):
                gs.normalize(gap_sol_raw, D)
        with pytest.raises(ValueError):
            gs.normalization_residual(gap_sol_raw)


class TestDecayReport:
    def test_profile_even(self, gap_sol):
        x = np.linspace(0.0, 20.0, 101)
        plus = gap_sol.alpha0(x)
        minus = gap_sol.alpha0(-x)
        assert np.abs(plus - minus).max() < 1e-10

    def test_truncation_floor_warns(self, gap_sol, scan_solutions):
        # the square well's pair symbol is not resolved at the default
        # cutoff, so its profile levels off and the fit finds that floor
        square = scan_solutions[("square", 2.0, 1.0, 1.0)]
        with pytest.warns(UserWarning, match="truncation floor") as record:
            rep = rc.decay_report(square)
        assert rep.fitted_decay_rate < rc.MIN_DECAY_RATIO * rep.kappa_c
        assert len(record) == 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = rc.decay_report(gap_sol)
        assert rep.fitted_decay_rate >= rc.MIN_DECAY_RATIO * rep.kappa_c

    def test_empty_window_warns(self, gap_sol):
        # no sample of this short profile lies in the fit window, so no
        # rate is fitted and the truncation-floor warning stays silent
        with warnings.catch_warnings(record=True) as captured:
            warnings.simplefilter("always")
            rep = rc.decay_report(gap_sol, x_max=1.0, n_x=64)
        assert [str(w.message) for w in captured] == [
            "empty decay-fit window; grid too coarse for the fit"]
        assert math.isnan(rep.fitted_decay_rate)
        assert rep.n_fit_points == 0
        assert all(math.isnan(end) for end in rep.fit_window)


def _find_peaks(x):
    return signal.find_peaks(x)[0]


class TestLocalMaxima:
    @pytest.mark.parametrize("n_x", [64, 4096, 8192])
    def test_matches_find_peaks_on_scan_profiles(self, scan_solutions, n_x):
        for sol in scan_solutions.values():
            # the real-space grid of ``decay_report``
            x_max = min(30.0 / sol.kappa_c, 0.85 * math.pi / sol.grid.dq)
            alpha = sol.alpha0(np.linspace(0.0, x_max, n_x))
            np.testing.assert_array_equal(
                rc._local_maxima(np.abs(alpha)), _find_peaks(np.abs(alpha))
            )

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(1, 4)),
                    min_size=1, max_size=30))
    def test_matches_find_peaks_with_plateaus(self, runs):
        # runs of equal samples from a few levels: plateaus of every
        # length, equal neighbours, and flat tops touching either end
        x = np.repeat([float(v) for v, _ in runs], [n for _, n in runs])
        np.testing.assert_array_equal(rc._local_maxima(x), _find_peaks(x))

    def test_decay_report_unchanged(self, gap_sol, monkeypatch):
        report = rc.decay_report(gap_sol)
        monkeypatch.setattr(rc, "_local_maxima", _find_peaks)
        assert report == rc.decay_report(gap_sol)
        assert report.n_fit_points >= 5


class TestSerialization:
    def test_round_trip(self, gap_sol):
        again = gs.GapSolution.from_dict(gap_sol.to_dict())
        assert again.T_c == gap_sol.T_c
        p = np.linspace(0, 6, 13)
        assert np.allclose(again.t(p), gap_sol.t(p), atol=1e-14)
        assert again.norm_scale == pytest.approx(gap_sol.norm_scale)
        assert again.D == gap_sol.D
