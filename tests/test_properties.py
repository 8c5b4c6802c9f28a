"""Tests for the named checks of a run and of the reference well
(registry, witnesses, mutation)."""

import json
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import block_diag
from scipy.special import xlogy

import reference_checks as rc
from bcsgl import gap_solver as gs
from bcsgl import gl_minimizer as gm
from bcsgl import properties, specfun
from bcsgl.gl_coeffs import compute_coefficients
from bcsgl.gl_minimizer import TorusField


def registry_names():
    """(module, property) pairs of the suite, in execution order."""
    return [(module, name) for module, name, _ in properties._REGISTRY]


def check_names():
    """(module, property) pairs of the run's and the reference well's
    checks."""
    return registry_names() + [(module, name)
                               for module, name, _ in rc._REGISTRY]


#: Every named check, in registry order, with the keys of its witness.
WITNESS_KEYS = {
    ("gap_solver", "critical_eigenvalue_residual"):
        {"lambda_min_at_tc", "tol"},
    ("gap_solver", "normalization_balance"): {"relative_residual", "tol"},
    ("gl_coeffs", "critical_temperature_identities"):
        {"c_grad_vs_2b1", "c_quartic_vs_2b3", "c_w_vs_2b2", "tol"},
    ("gl_coeffs", "quartic_alternative_form"): {"relative_difference", "tol"},
    ("gl_minimizer", "gradient_matches_finite_difference"):
        {"analytic", "finite_difference", "relative_error", "tol"},
    ("gl_minimizer", "zero_state_energy_offset"):
        {"deviation_from_quartic_offset", "tol"},
}


@pytest.fixture(scope="module")
def run_objects(gap_sol, gl_coef, gl_min_state):
    """The reference run: its gap solution, coefficients and GL minimum
    in A = 0 and W = 0.5 cos(2 pi x), seed 0."""
    return properties.RunObjects(gap_sol, gl_coef, gl_min_state.psi,
                                 TorusField.zero(0),
                                 TorusField.cosine(0.5, 1), 0)


@pytest.fixture(scope="module")
def results(run_objects):
    return properties.run_suite(run_objects)


@pytest.fixture(scope="module")
def reference_results(gap_sol):
    return rc.run_checks(gap_sol, seed=0)


def failed(results):
    return {r.name: r for r in results if not r.passed}


class TestRegistry:
    def test_module_filter(self, gap_sol):
        results = rc.run_checks(gap_sol, modules=["specfun"])
        assert results
        assert all(r.module == "specfun" for r in results)
        expected = sum(m == "specfun" for m, _, _ in rc._REGISTRY)
        assert len(results) == expected


class TestSuite:
    @pytest.mark.parametrize(
        "module, name", check_names(),
        ids=[name for _, name in check_names()])
    def test_named_check_passes(self, results, reference_results, module,
                                name):
        result = {(r.module, r.name): r
                  for r in results + reference_results}[module, name]
        assert result.passed, f"{module}.{name}: {result.witness}"

    def test_witnesses_are_json_serializable(self, results):
        text = json.dumps([r.to_dict() for r in results])
        assert len(json.loads(text)) == len(results)

    def test_names_and_witness_keys_pinned(self, results):
        # `prop-tests` and `all` print these names and keys, in this
        # order; a rewritten check must keep all three
        assert [(r.module, r.name) for r in results] == list(WITNESS_KEYS)
        assert {(r.module, r.name): set(r.witness) for r in results} \
            == WITNESS_KEYS
        assert list(WITNESS_KEYS) == registry_names()

    def test_same_seed_reproduces_results(self, gap_sol):
        first = rc.run_checks(gap_sol, seed=3, modules=["specfun"])
        second = rc.run_checks(gap_sol, seed=3, modules=["specfun"])
        assert [r.to_dict() for r in first] == [r.to_dict() for r in second]

    def test_same_run_reproduces_results(self, run_objects, results):
        again = properties.run_suite(run_objects)
        assert [r.to_dict() for r in again] == [r.to_dict() for r in results]

    def test_eigenvalue_witness_is_the_runs(self, run_objects, results):
        # the dense oracle runs on the run's own grid at its own T_c
        sol = run_objects.sol
        matrix = gs.build_gap_matrix(sol.spec, sol.grid, sol.T_c)
        assert results[0].witness["lambda_min_at_tc"] == float(
            np.linalg.eigvalsh(matrix)[0])


class TestScipyEquivalence:
    def test_xlogx_matches_xlogy(self):
        p = np.concatenate([[0.0, 5e-324, 1e-300, 1.0],
                            np.random.default_rng(0).uniform(0.0, 1.0, 1000)])
        # np.log and the C library's log are each correctly rounded to
        # within one ulp, so the products may differ by 2 eps relative
        np.testing.assert_allclose(rc._xlogx(p), xlogy(p, p),
                                   rtol=2 * np.finfo(float).eps, atol=0)

    @pytest.mark.parametrize("dtypes", [(float, float), (float, complex),
                                        (complex, complex)])
    def test_block_diagonal_matches_block_diag(self, dtypes):
        rng = np.random.default_rng(1)
        k, m22 = (rng.normal(size=(n, n)).astype(dtype)
                  for n, dtype in zip((3, 4), dtypes))
        got = rc._block_diagonal(k, m22)
        ref = block_diag(k, m22)
        assert got.dtype == ref.dtype
        np.testing.assert_array_equal(got, ref)


class TestMutationSensitivity:
    def test_g1_sign_flip_fails_with_witness(self, gap_sol, monkeypatch):
        original = specfun.g1
        monkeypatch.setattr(specfun, "g1", lambda z: -original(z))
        results = rc.run_checks(gap_sol, modules=["specfun"])
        failures = failed(results)
        assert "divided_difference_closed_forms" in failures
        assert "g_chain_derivative_consistency" in failures
        witness = failures["divided_difference_closed_forms"].witness
        assert witness["quadruple_vs_g1_over_8"] > 1e-9
        assert witness["node"] is not None

    def test_profile_normalized_for_another_d_fails(self, gap_sol_raw,
                                                    run_objects):
        # a profile scaled for D = 1.001 but recorded as D = 1 breaks the
        # balance condition and B3's normalization identity; the
        # coefficients of that profile still satisfy the beta_c identities
        sol = replace(gs.normalize(gap_sol_raw, 1.001), D=1.0)
        bad = run_objects._replace(sol=sol, coef=compute_coefficients(sol))
        failures = failed(properties.run_suite(bad))
        assert set(failures) == {"normalization_balance",
                                 "quartic_alternative_form"}
        assert failures["normalization_balance"].witness[
            "relative_residual"] > 1e-8
        assert failures["quartic_alternative_form"].witness[
            "relative_difference"] > 1e-8

    def test_corrupted_quartic_coefficient_fails(self, run_objects):
        coef = replace(run_objects.coef, B3=run_objects.coef.B3 * (1 + 1e-6))
        failures = failed(properties.run_suite(run_objects._replace(
            coef=coef)))
        assert set(failures) == {"critical_temperature_identities",
                                 "quartic_alternative_form"}
        assert failures["critical_temperature_identities"].witness[
            "c_quartic_vs_2b3"] > 1e-10

    def test_wrong_gradient_fails_with_witness(self, run_objects,
                                               monkeypatch):
        original = gm.gl_gradient
        monkeypatch.setattr(gm, "gl_gradient",
                            lambda *args: original(*args) * 1.01)
        failures = failed(properties.run_suite(run_objects))
        assert set(failures) == {"gradient_matches_finite_difference"}
        witness = failures["gradient_matches_finite_difference"].witness
        assert witness["relative_error"] == pytest.approx(0.01, rel=1e-3)

    def test_exception_inside_check_is_a_failure(self, run_objects,
                                                 monkeypatch):
        def boom(*args, **kwargs):
            raise RuntimeError("matrix assembly interrupted")

        monkeypatch.setattr(gs, "build_gap_matrix", boom)
        failures = failed(properties.run_suite(run_objects))
        assert set(failures) == {"critical_eigenvalue_residual"}
        assert "matrix assembly interrupted" in failures[
            "critical_eigenvalue_residual"].witness["error"]
