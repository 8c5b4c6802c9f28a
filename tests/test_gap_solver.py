"""Unit tests for the gap-equation solver."""

import collections
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, linalg, signal

from bcsgl import gap_solver as gs
from bcsgl import specfun as sf

# Frozen regression values from the converged reference run
# (g=2, w=1, mu=1, d=1 on the default Q=12, n=512 grid).
REFERENCE_TC = 0.671627834204
REFERENCE_NORM_SCALE = 0.990882090348
REFERENCE_KAPPA_C = 0.816993306904

# T_c of the three potentials of the benchmark's GL scan (D = 1, default
# grids), as the eigenvalue bisection found them; the Cholesky bisection
# takes the same decisions, so they must come back bit for bit.
SCAN_TC = {
    ("gaussian", 2.0, 1.0, 1.0): 0.6716278342041448,
    ("square", 2.0, 1.0, 1.0): 0.8348228845734245,
    ("gaussian", 3.0, 0.7, 0.5): 0.9118789657891966,
}


# T_c (as float.hex) of further wells and grids, as the LU-step Newton
# estimate and the Cholesky bisection found them; the Birman-Schwinger
# estimate must leave every decision, and so every bit, as it was.
# Keys: (family, g, w, mu, grid), grid None for the default one.
ESTIMATE_TC = {
    ("gaussian", 2.0, 1.0, 1.0, None): "0x1.57df9a7dfaf00p-1",
    ("square", 2.0, 1.0, 1.0, None): "0x1.ab6de7b663f6ap-1",
    ("gaussian", 3.0, 0.7, 0.5, None): "0x1.d2e1ccbff3266p-1",
    ("gaussian", 0.4, 1.0, 1.0, None): "0x1.618bc622fdfecp-8",
    ("gaussian", 8.0, 1.0, 1.0, None): "0x1.b2890b4404592p+1",
    ("gaussian", 2.0, 1.0, -0.5, None): "0x1.0bb3135377660p-1",
    ("gaussian", 2.0, 1.0, 3.0, None): "0x1.6aa8e0a0a2464p-2",
    ("square", 3.0, 0.5, 0.5, None): "0x1.c80df9fe9d7fap-1",
    ("gaussian", 2.0, 1.0, 1.0, (24.0, 1024)): "0x1.57df9a7dfaf00p-1",
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

    def test_gaussian_vhat_nonpositive(self):
        spec = gs.reference_well()
        k = np.linspace(-30, 30, 301)
        assert np.all(spec.vhat(k) <= 0.0)

    def test_vhat_derivatives_match_finite_differences(self):
        spec = gs.reference_well()
        h = 1e-6
        for k in (0.3, 1.9, 4.2):
            fd1 = (spec.vhat(k + h) - spec.vhat(k - h)) / (2 * h)
            assert spec.vhat_d1(k) == pytest.approx(fd1, rel=1e-8, abs=1e-12)
            fd2 = (spec.vhat_d1(k + h) - spec.vhat_d1(k - h)) / (2 * h)
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

    def test_validation(self):
        with pytest.raises(ValueError):
            gs.PotentialSpec.gaussian(-1.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            gs.PotentialSpec.gaussian(1.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            gs.PotentialSpec("weird_well", {}, 0.0)
        with pytest.raises(ValueError):
            gs.PotentialSpec.gaussian(1.0, 1.0, 0.0, dim=4)

    def test_serialization_round_trip(self):
        spec = gs.reference_well()
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

    @pytest.mark.parametrize("spec", [gs.reference_well(),
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


class TestLowestEigenpair:
    def test_identity_matrix(self):
        pair = gs.lowest_eigenpair(np.eye(5))
        assert pair.eigenvalue == pytest.approx(1.0)
        assert np.linalg.norm(pair.eigenvector) == pytest.approx(1.0)

    def test_free_problem_minimizing_node(self):
        spec = gs.PotentialSpec.gaussian(0.0, 1.0, 1.0)
        grid = gs.MomentumGrid(12.0, 64)
        T = 0.2
        mat = gs.build_gap_matrix(spec, grid, T)
        pair = gs.lowest_eigenpair(mat)
        kt = sf.kt_symbol(grid.nodes**2 - spec.mu, T)
        assert pair.eigenvalue == pytest.approx(kt.min(), rel=1e-12)
        assert np.argmax(np.abs(pair.eigenvector)) == np.argmin(kt)

    def test_sign_convention(self, gap_sol):
        assert gap_sol.alpha0_hat[0] >= 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            gs.lowest_eigenpair(np.ones((2, 3)))
        with pytest.raises(ValueError):
            gs.lowest_eigenpair(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_asymmetry_above_the_absolute_tolerance_rejected(self):
        # 5e-6 is far above 1e-12 of the largest entry, though within a
        # relative tolerance of 1e-5
        with pytest.raises(ValueError, match="symmetric"):
            gs.lowest_eigenpair(np.array([[2.0, 1.0 + 5e-6], [1.0, 3.0]]))
        pair = gs.lowest_eigenpair(np.array([[2.0, 1.0 + 1e-12], [1.0, 3.0]]))
        assert pair.eigenvalue == pytest.approx(2.5 - math.sqrt(1.25))


class TestFindTc:
    def test_reference_regression(self, gap_sol_raw):
        assert gap_sol_raw.T_c == pytest.approx(REFERENCE_TC, rel=1e-7)
        assert gap_sol_raw.kappa_c == pytest.approx(REFERENCE_KAPPA_C, rel=1e-7)

    def test_eigen_residual(self, gap_sol_raw):
        assert gap_sol_raw.eig_residual < 1e-8

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
    def test_sign_test_matches_lowest_eigenvalue(self, key):
        spec = getattr(gs.PotentialSpec, key[0])(*key[1:])
        grid = gs.MomentumGrid.default_for(spec)
        for k in range(1, 9):
            for T in (SCAN_TC[key] * (1 - 10.0**-k), SCAN_TC[key] * (1 + 10.0**-k)):
                mat = gs.build_gap_matrix(spec, grid, T)
                lam = linalg.eigh(mat, subset_by_index=[0, 0], eigvals_only=True)[0]
                assert gs._positive_definite(mat) == (lam >= 0.0), (k, T, lam)
                assert (lam < 0.0) == (T < SCAN_TC[key])

    def test_no_dense_factorization(self, ref_spec, ref_grid, gap_sol_raw,
                                    monkeypatch):
        # every factorization is NumPy's, and in a normal solve every one
        # is r x r: the Birman-Schwinger sign tests (one or two Cholesky
        # each), the Newton estimate, the ground state and the spectral
        # gap; no LU solve and no n x n factorization
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
        assert calls["solve"] == 0
        assert search["dense_tests"] == 0
        assert 0.0 < search["factor_residual"] <= 1e-13
        assert search["certificate_tests"] == 2
        tests = 4 + search["replay_tests"]
        assert tests <= calls["cholesky"] <= 2 * tests
        assert calls["eigh"] > search["newton_steps"]
        assert search["newton_steps"] <= 10
        assert search["bracket_rel_width"] <= 4.01e-13

    @pytest.mark.parametrize("sabotage", ["zero slope", "top", "probe", "off"])
    def test_poor_estimate_keeps_tc_bit_identical(self, sabotage, monkeypatch,
                                                  scan_solutions):
        # the Newton estimate only says where to test: a poor one (no slope,
        # the bracket's ends, ten final bracket widths off) leaves more
        # midpoints to test, and they decide as before; the ground state
        # does not depend on the estimate
        newton = gs._newton_estimate

        def poor(gap_matrix, kinetic, lo, hi):
            estimate, steps = newton(gap_matrix, kinetic, lo, hi)
            return {"top": hi, "probe": lo,
                    "off": estimate * (1.0 + 1e-9)}[sabotage], steps

        if sabotage == "zero slope":
            monkeypatch.setattr(gs, "_kt_slope", lambda x, T: 0.0 * x)
        else:
            monkeypatch.setattr(gs, "_newton_estimate", poor)
        for key, T_c in SCAN_TC.items():
            sol = gs.find_tc(getattr(gs.PotentialSpec, key[0])(*key[1:]))
            assert sol.T_c == T_c, key
            assert sol.tc_search["replay_tests"] > 0, key
            assert sol.eig_residual < 1e-8, key
            assert sol.eig_residual <= 1.5 * scan_solutions[key].eig_residual, key
            assert sol.tc_search["dense_tests"] == 0, key

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


class TestBirmanSchwingerEstimate:
    """The Newton estimate runs on the top eigenvalue of ``B^T K_T^{-1} B``
    with ``-V = B B^T``; it decides no sign, so ``T_c`` stays as pinned."""

    @staticmethod
    def solve(key, scan_solutions):
        family, g, w, mu, grid = key
        if grid is None and key[:4] in SCAN_TC:
            return scan_solutions[key[:4]]
        spec = getattr(gs.PotentialSpec, family)(g, w, mu)
        return gs.find_tc(spec, None if grid is None else gs.MomentumGrid(*grid))

    @pytest.mark.parametrize("key", list(ESTIMATE_TC))
    def test_tc_bit_identical_from_certificates_alone(self, key, scan_solutions):
        sol = self.solve(key, scan_solutions)
        assert sol.T_c.hex() == ESTIMATE_TC[key]
        assert sol.tc_search["certificate_tests"] == 2
        assert sol.tc_search["replay_tests"] == 0
        assert sol.tc_search["dense_tests"] == 0
        interaction = gs._interaction_matrix(sol.spec, sol.grid)
        factor, band = gs._attraction_factor(interaction)
        assert factor.shape[1] == sol.tc_search["attraction_rank"]
        assert band == sol.tc_search["factor_residual"]
        scale = np.abs(interaction).max()
        assert np.abs(-interaction - factor @ factor.T).max() <= 1e-14 * scale
        # s = tr E bounds the truncation residual E = -V - B B^T; each of
        # its n remaining diagonals is at most the factor's stop
        assert 0.0 < band <= gs._FACTOR_TOLERANCE * scale * sol.grid.n_points

    @pytest.mark.parametrize("key", list(ESTIMATE_TC))
    def test_ground_state_and_gap_match_dense_eigh(self, key, scan_solutions):
        # lambda_min, the spectral gap and the ground state come from r x r
        # matrices; the dense eigh of K_T + V at T_c is their oracle.  Its
        # backward error is a few eps max|K_T + V|, so eigenvalues agree to
        # that and the unit eigenvector to that over the gap (measured:
        # at most 0.06, 0.46 and 0.23 of eps max|K_T + V| respectively)
        sol = self.solve(key, scan_solutions)
        mat = gs.build_gap_matrix(sol.spec, sol.grid, sol.T_c)
        values, vectors = np.linalg.eigh(mat)
        tol = 2.0 * np.finfo(float).eps * np.abs(mat).max()
        assert abs(sol.lambda_min - values[0]) <= tol
        gap = values[1] - values[0]
        assert abs(sol.spectral_gap - gap) <= 2.0 * tol
        oracle = vectors[:, 0] * np.sign(vectors[0, 0])
        unit = sol.alpha0_hat / np.linalg.norm(sol.alpha0_hat)
        assert np.abs(unit - oracle).max() <= tol / gap
        assert sol.eig_residual - abs(sol.lambda_min) <= tol

    def test_rank_one_factor_keeps_tc_bit_identical(self, monkeypatch):
        # a factor cut to rank 1 puts the estimate far below T_c; the
        # bisection then tests the midpoints above it, and decides as before
        full = gs._attraction_factor

        def rank_one(interaction):
            factor = full(interaction)[0][:, :1]
            return factor, float(np.trace(-interaction) - np.sum(factor * factor))

        monkeypatch.setattr(gs, "_attraction_factor", rank_one)
        for key, T_c in SCAN_TC.items():
            sol = gs.find_tc(getattr(gs.PotentialSpec, key[0])(*key[1:]))
            assert sol.T_c == T_c, key
            assert sol.tc_search["attraction_rank"] == 1, key
            assert sol.tc_search["replay_tests"] > 0, key
            assert sol.eig_residual < 1e-8, key
            # the wide band leaves the decisions near T_c to n x n tests,
            # and the residual of the factor's ground state to inverse
            # iteration
            assert sol.tc_search["dense_tests"] > 2, key

    def test_inflated_band_keeps_tc_bit_identical(self, monkeypatch, scan_solutions):
        # a larger s is still a bound on the truncation residual: the sign
        # tests inside the wider band go to n x n Cholesky tests, which
        # decide as the r x r ones would
        full = gs._attraction_factor
        monkeypatch.setattr(gs, "_attraction_factor",
                            lambda interaction: (full(interaction)[0], 1e-9))
        for key, T_c in SCAN_TC.items():
            sol = gs.find_tc(getattr(gs.PotentialSpec, key[0])(*key[1:]))
            assert sol.T_c == T_c, key
            assert sol.tc_search["factor_residual"] == 1e-9
            assert sol.tc_search["dense_tests"] > 0, key
            assert sol.eig_residual == scan_solutions[key].eig_residual, key


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
        with pytest.raises(ValueError):
            gs.normalize(gap_sol_raw, 0.0)
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
            rep = gs.decay_report(square)
        assert rep.fitted_decay_rate < gs.MIN_DECAY_RATIO * rep.kappa_c
        assert len(record) == 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = gs.decay_report(gap_sol)
        assert rep.fitted_decay_rate >= gs.MIN_DECAY_RATIO * rep.kappa_c

    def test_empty_window_warns(self, gap_sol):
        # no sample of this short profile lies in the fit window, so no
        # rate is fitted and the truncation-floor warning stays silent
        with warnings.catch_warnings(record=True) as captured:
            warnings.simplefilter("always")
            rep = gs.decay_report(gap_sol, x_max=1.0, n_x=64)
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
                gs._local_maxima(np.abs(alpha)), _find_peaks(np.abs(alpha))
            )

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(1, 4)),
                    min_size=1, max_size=30))
    def test_matches_find_peaks_with_plateaus(self, runs):
        # runs of equal samples from a few levels: plateaus of every
        # length, equal neighbours, and flat tops touching either end
        x = np.repeat([float(v) for v, _ in runs], [n for _, n in runs])
        np.testing.assert_array_equal(gs._local_maxima(x), _find_peaks(x))

    def test_decay_report_unchanged(self, gap_sol, monkeypatch):
        report = gs.decay_report(gap_sol)
        monkeypatch.setattr(gs, "_local_maxima", _find_peaks)
        assert report == gs.decay_report(gap_sol)
        assert report.n_fit_points >= 5


class TestSerialization:
    def test_round_trip(self, gap_sol):
        again = gs.GapSolution.from_dict(gap_sol.to_dict())
        assert again.T_c == gap_sol.T_c
        p = np.linspace(0, 6, 13)
        assert np.allclose(again.t(p), gap_sol.t(p), atol=1e-14)
        assert again.norm_scale == pytest.approx(gap_sol.norm_scale)
        assert again.D == gap_sol.D
