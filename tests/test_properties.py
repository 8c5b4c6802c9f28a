"""Tests for the named invariant checks (registry, witnesses, mutation)."""

import json
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.linalg import block_diag
from scipy.special import xlogy

from bcsgl import properties, specfun


def registry_names():
    """(module, property) pairs of the suite, in execution order."""
    return [(module, name) for module, name, _ in properties._REGISTRY]


#: Every named check, in registry order, with the keys of its witness.
WITNESS_KEYS = {
    ("specfun", "divided_difference_permutation_symmetry"):
        {"max_permutation_deviation", "tol"},
    ("specfun", "divided_difference_closed_forms"):
        {"balanced_quadruple_vanishes", "node", "quadruple_vs_g1_over_8",
         "quintuple_vs_g1_over_16a", "rho_triple_antisymmetry", "tol",
         "triple_vs_minus_g0_over_4"},
    ("specfun", "g_chain_derivative_consistency"):
        {"g1_over_z_consistency", "g1_vs_minus_g0_prime",
         "g2_vs_g1_prime_plus_ratio", "tol"},
    ("specfun", "fermi_weight_reflection_identity"):
        {"max_identity_residual", "tol"},
    ("specfun", "entropy_inequality_grid"): {"min_margin", "tol"},
    ("gap_solver", "critical_eigenvalue_residual"):
        {"lambda_min_at_tc", "tol"},
    ("gap_solver", "normalization_balance"): {"relative_residual", "tol"},
    ("gap_solver", "real_space_decay_rate"):
        {"fitted_decay_rate", "kappa_c", "required_ratio"},
    ("gl_coeffs", "critical_temperature_identities"):
        {"c_grad_vs_2b1", "c_quartic_vs_2b3", "c_w_vs_2b2", "tol"},
    ("gl_coeffs", "small_momentum_route_agreement"):
        {"max_route_mismatch", "tol"},
    ("gl_coeffs", "quartic_alternative_form"): {"relative_difference", "tol"},
    ("gl_minimizer", "gradient_matches_finite_difference"):
        {"analytic", "finite_difference", "relative_error", "tol"},
    ("gl_minimizer", "gauge_invariance"): {"relative_energy_drift", "tol"},
    ("gl_minimizer", "zero_state_energy_offset"):
        {"deviation_from_quartic_offset", "tol"},
    ("bdg_verifier", "fiber_hermiticity"): {"max_hermiticity_drift", "tol"},
    ("bdg_verifier", "occupation_bounds"):
        {"max_occupation", "min_occupation", "tol"},
    ("bdg_verifier", "entropy_reflection_symmetry"):
        {"difference", "entropy_at_minus_xi", "entropy_at_xi", "tol"},
    ("bdg_verifier", "supercell_spectrum_agreement"):
        {"max_eigenvalue_distance", "tol", "window_size"},
    ("bdg_verifier", "diagonal_shift_invariance"):
        {"tol", "trace_difference_shift"},
    ("bdg_verifier", "zero_pairing_trace"): {"lhs_without_pairing", "tol"},
}


class TestRegistry:
    def test_module_filter(self):
        results = properties.run_suite(modules=["specfun"])
        assert results
        assert all(r.module == "specfun" for r in results)
        expected = sum(m == "specfun" for m, _ in registry_names())
        assert len(results) == expected


@pytest.fixture(scope="module")
def results():
    return properties.run_suite(seed=0)


class TestSuite:
    @pytest.mark.parametrize(
        "module, name", registry_names(),
        ids=[name for _, name in registry_names()])
    def test_named_check_passes(self, results, module, name):
        result = {(r.module, r.name): r for r in results}[module, name]
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

    def test_same_seed_reproduces_results(self):
        first = properties.run_suite(modules=["specfun"], seed=3)
        second = properties.run_suite(modules=["specfun"], seed=3)
        assert [r.to_dict() for r in first] == [r.to_dict() for r in second]


class TestScipyEquivalence:
    def test_xlogx_matches_xlogy(self):
        p = np.concatenate([[0.0, 5e-324, 1e-300, 1.0],
                            np.random.default_rng(0).uniform(0.0, 1.0, 1000)])
        # np.log and the C library's log are each correctly rounded to
        # within one ulp, so the products may differ by 2 eps relative
        np.testing.assert_allclose(properties._xlogx(p), xlogy(p, p),
                                   rtol=2 * np.finfo(float).eps, atol=0)

    @pytest.mark.parametrize("dtypes", [(float, float), (float, complex),
                                        (complex, complex)])
    def test_block_diagonal_matches_block_diag(self, dtypes):
        rng = np.random.default_rng(1)
        k, m22 = (rng.normal(size=(n, n)).astype(dtype)
                  for n, dtype in zip((3, 4), dtypes))
        got = properties._block_diagonal(SimpleNamespace(k_block=k,
                                                         m22_block=m22))
        ref = block_diag(k, m22)
        assert got.dtype == ref.dtype
        np.testing.assert_array_equal(got, ref)


class TestMutationSensitivity:
    def test_g1_sign_flip_fails_with_witness(self, monkeypatch):
        original = specfun.g1
        monkeypatch.setattr(specfun, "g1", lambda z: -original(z))
        results = properties.run_suite(modules=["specfun"])
        failed = {r.name: r for r in results if not r.passed}
        assert "divided_difference_closed_forms" in failed
        assert "g_chain_derivative_consistency" in failed
        witness = failed["divided_difference_closed_forms"].witness
        assert witness["quadruple_vs_g1_over_8"] > 1e-9
        assert witness["node"] is not None

    def test_exception_inside_check_is_a_failure(self, monkeypatch):
        def boom(*args, **kwargs):
            raise RuntimeError("table construction interrupted")

        monkeypatch.setattr(specfun, "divided_difference", boom)
        results = properties.run_suite(modules=["specfun"])
        failed = [r for r in results if not r.passed]
        assert failed
        assert any("table construction interrupted"
                   in r.witness.get("error", "") for r in failed)
