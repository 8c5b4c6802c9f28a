"""Shared fixtures: the reference gap solution is solved once per session."""

import pytest

from bcsgl import gap_solver as gs


@pytest.fixture(scope="session")
def ref_spec() -> gs.PotentialSpec:
    """The reference well: Gaussian, g = 2, w = 1, mu = 1."""
    return gs.PotentialSpec.gaussian(g=2.0, w=1.0, mu=1.0)


@pytest.fixture(scope="session")
def ref_grid(ref_spec) -> gs.MomentumGrid:
    return gs.MomentumGrid.default_for(ref_spec)


@pytest.fixture(scope="session")
def gap_sol_raw(ref_spec, ref_grid) -> gs.GapSolution:
    """Unnormalized reference solution on the default grid."""
    return gs.find_tc(ref_spec, ref_grid)


@pytest.fixture(scope="session")
def gap_sol(gap_sol_raw) -> gs.GapSolution:
    """Reference solution normalized with D = 1."""
    return gs.normalize(gap_sol_raw, 1.0)


@pytest.fixture(scope="session")
def gap_sol_fine(ref_spec, ref_grid) -> gs.GapSolution:
    """Same problem at doubled resolution."""
    fine = gs.MomentumGrid(ref_grid.cutoff, 2 * ref_grid.n_points)
    return gs.normalize(gs.find_tc(ref_spec, fine), 1.0)


@pytest.fixture(scope="session")
def gl_coef(gap_sol):
    """GL coefficients of the normalized reference solution."""
    from bcsgl.gl_coeffs import compute_coefficients

    return compute_coefficients(gap_sol)


@pytest.fixture(scope="session")
def gl_min_state(gl_coef):
    """GL minimizer for the cosine external potential, no vector field."""
    from bcsgl.gl_minimizer import TorusField, minimize

    return minimize(
        TorusField.zero(0), TorusField.cosine(0.5, 1), gl_coef, n_max=32
    )
