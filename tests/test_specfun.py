"""Unit tests for the stable special functions, the two-node divided
difference of the fiber traces and the confluent divided-difference
oracle of the tests (``divided_differences``)."""

import math
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest
from scipy import fft, integrate, special

from bcsgl import specfun as sf
import divided_differences as dd
from reference_checks import entropy_inequality_margin


def feynman_divided_difference(nodes) -> float:
    """Divided difference of ``fermi_f`` via the simplex integral (oracle).

    ``[a_1,...,a_N] = integral over the (N-1)-simplex of
    f^{(N-1)}(sum_i c_i a_i)``, by adaptive quadrature: slow, but
    independent of the recursive/Hermite path.
    """
    arr = np.asarray(nodes, dtype=float)
    n = len(arr)

    def integrand(*c: float) -> float:
        weights = np.append(np.asarray(c), 1.0 - sum(c))
        return dd.f_derivative(float(weights @ arr), n - 1)

    # Simplex { c_i >= 0, sum c_i <= 1 } in n-1 variables, inner-to-outer.
    def limit(*outer: float) -> tuple[float, float]:
        return 0.0, 1.0 - sum(outer)

    result, _err = integrate.nquad(
        integrand, [limit] * (n - 1), opts={"epsabs": 1e-12, "epsrel": 1e-10}
    )
    return float(result)


def identity_sample(n: int = 100, seed: int = 0) -> np.ndarray:
    """n pseudo-random points in [-8, 8] with |a| >= 1e-3."""
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-8.0, 8.0, 4 * n)
    return pts[np.abs(pts) >= 1e-3][:n]


class TestFermiWeights:
    def test_f_symmetry_point(self):
        assert sf.fermi_f(0.0) == pytest.approx(-math.log(2.0), abs=1e-15)

    def test_f_large_argument_asymptote(self):
        assert abs(sf.fermi_f(50.0)) < 1e-21

    def test_f_no_overflow_to_700(self):
        vals = sf.fermi_f(np.array([-700.0, -300.0, 300.0, 700.0]))
        assert np.all(np.isfinite(vals))
        assert vals[0] == pytest.approx(-700.0)

    def test_rho_basics(self):
        assert sf.fermi_rho(0.0) == pytest.approx(0.5, abs=1e-15)
        z = 2.3
        assert sf.fermi_rho(z) + sf.fermi_rho(-z) == pytest.approx(1.0, abs=1e-15)

    def test_rho_is_f_derivative(self):
        z, h = 1.1, 1e-6
        fd = (sf.fermi_f(z + h) - sf.fermi_f(z - h)) / (2 * h)
        assert abs(sf.fermi_rho(z) - fd) < 1e-8

    def test_analytic_derivatives_match_finite_differences(self):
        h = 1e-4
        for z in (-3.2, -0.4, 0.0, 1.7, 6.0):
            for k in range(1, 5):
                fd = (
                    dd.f_derivative(z + h, k - 1) - dd.f_derivative(z - h, k - 1)
                ) / (2 * h)
                assert dd.f_derivative(z, k) == pytest.approx(fd, abs=5e-7)

    def test_derivative_order_validation(self):
        with pytest.raises(ValueError):
            dd.f_derivative(0.0, dd.MAX_DERIVATIVE_ORDER + 1)
        with pytest.raises(ValueError):
            dd.rho_derivative(0.0, -1)


class TestScipyEquivalence:
    """The NumPy forms that keep SciPy off the import path, against SciPy."""

    #: 1.2M points across the range where e^z is finite, and the limits
    Z = np.concatenate([np.linspace(-745.0, 745.0, 1_200_001),
                        [-np.inf, -0.0, np.inf]])

    #: Both compute 1/(1 + e^z), with exponentials of different libraries
    #: that may round 1 + e^z one ulp apart; with the rounding of the
    #: quotient that moves rho by at most 2 eps relative, or by the
    #: smallest subnormal where rho underflows.  Measured: 1.93 eps.
    REL, ABS = 2.0 * np.finfo(float).eps, np.spacing(0.0)

    @staticmethod
    def quiet(func, *args):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return func(*args)

    def test_rho_matches_expit(self):
        ref = special.expit(-self.Z)
        for rho in (self.quiet(sf.fermi_rho, self.Z),
                    self.quiet(dd.rho_derivative, self.Z, 0)):
            assert np.all(np.abs(rho - ref) <= self.REL * ref + self.ABS)

    @pytest.mark.parametrize("z", [-np.inf, -745.0, -3.5, 0.0, 3.5, 745.0,
                                   np.inf])
    def test_zero_dimensional_input(self, z):
        ref = float(special.expit(-z))
        for rho in (self.quiet(sf.fermi_rho, np.asarray(z)),
                    self.quiet(dd.rho_derivative, np.float64(z), 0)):
            assert isinstance(rho, float)
            assert abs(rho - ref) <= self.REL * ref + self.ABS

    @pytest.mark.parametrize("order", range(1, 6))
    def test_derivatives_move_with_rho(self, order):
        # with P the order-th rho polynomial, rho moved by REL relative
        # moves P(rho) by at most REL sum_k k |c_k| rho^k
        poly = np.polynomial.polynomial
        coeffs = dd._RHO_POLYS[order]
        rho = special.expit(-self.Z)
        ref = poly.polyval(rho, coeffs)
        bound = self.REL * poly.polyval(
            rho, np.arange(len(coeffs)) * np.abs(coeffs)) + self.ABS
        got = self.quiet(dd.rho_derivative, self.Z, order)
        assert np.all(np.abs(got - ref) <= bound)

    def test_next_fast_len_matches_scipy(self):
        assert ([sf.next_fast_len(n) for n in range(1, 10_001)]
                == [fft.next_fast_len(n) for n in range(1, 10_001)])
        with pytest.raises(ValueError):
            sf.next_fast_len(0)


class TestGFamily:
    def test_values_at_zero(self):
        assert sf.g0(0.0) == pytest.approx(0.5, abs=1e-15)
        assert sf.g1(0.0) == pytest.approx(0.0, abs=1e-15)
        assert sf.g2(0.0) == pytest.approx(0.25, abs=1e-15)
        assert sf.g1_over_z(0.0) == pytest.approx(1.0 / 12.0, abs=1e-15)

    def test_closed_form_oracles(self):
        assert sf.g0(2.0) == pytest.approx(math.tanh(1.0) / 2.0, rel=1e-14)
        e2 = math.exp(2.0)
        g1_exact = (e2 * e2 - 4 * e2 - 1) / (4 * (1 + e2) ** 2)
        assert sf.g1(2.0) == pytest.approx(g1_exact, rel=1e-13)
        assert sf.g1_over_z(1.0) == pytest.approx(sf.g1(1.0), rel=1e-14)

    def test_evenness_and_oddness(self):
        z = np.array([0.3, 1.7, 4.0, 40.0, 400.0])
        assert np.allclose(sf.g0(-z), sf.g0(z), rtol=1e-14)
        assert np.allclose(sf.g1(-z), -sf.g1(z), rtol=1e-14)
        assert np.allclose(sf.g2(-z), sf.g2(z), rtol=1e-14)
        assert np.allclose(sf.g1_over_z(-z), sf.g1_over_z(z), rtol=1e-14)

    def test_g1_over_z_strictly_positive(self):
        z = np.concatenate([np.linspace(-500, 500, 2001), [1e-8, -1e-8]])
        assert np.all(sf.g1_over_z(z) > 0.0)

    def test_series_branch_matches_closed_form(self):
        # Just inside the series window the closed forms are still accurate
        # to ~1e-11 relative, so the branches must agree there.
        z = sf.SERIES_THRESHOLD * 0.999
        assert sf.g0(z) == pytest.approx(math.tanh(z / 2) / z, rel=1e-10)
        closed_g1 = (math.sinh(z) - z) / (z * z * (1 + math.cosh(z)))
        assert sf.g1(z) == pytest.approx(closed_g1, rel=1e-8)
        closed_g2 = math.sinh(z / 2) / (2 * z * math.cosh(z / 2) ** 3)
        assert sf.g2(z) == pytest.approx(closed_g2, rel=1e-10)
        assert sf.g1_over_z(z) == pytest.approx(closed_g1 / z, rel=1e-8)

    def test_g1_is_minus_g0_prime(self):
        z = np.linspace(-10.0, 10.0, 2001)
        z = z[np.abs(z) >= 0.05]
        h = 1e-5
        fd = (sf.g0(z + h) - sf.g0(z - h)) / (2 * h)
        rel = np.abs(sf.g1(z) + fd) / np.abs(sf.g1(z))
        assert np.max(rel) < 1e-6

    def test_g2_is_g1_prime_plus_2_g1_over_z(self):
        z = np.linspace(-10.0, 10.0, 2001)
        z = z[np.abs(z) >= 0.05]
        h = 1e-5
        fd = (sf.g1(z + h) - sf.g1(z - h)) / (2 * h)
        rel = np.abs(sf.g2(z) - (fd + 2.0 * sf.g1(z) / z)) / np.abs(sf.g2(z))
        assert np.max(rel) < 1e-6


class TestKtSymbol:
    def test_removable_singularity(self):
        assert sf.kt_symbol(0.0, 1.0) == pytest.approx(2.0, abs=1e-14)

    def test_small_temperature_asymptote(self):
        assert sf.kt_symbol(10.0, 1e-3) == pytest.approx(10.0, rel=1e-12)

    def test_monotone_in_temperature(self):
        assert sf.kt_symbol(1.0, 2.0) > sf.kt_symbol(1.0, 1.0)

    def test_lower_bound_2t(self):
        x = np.linspace(-50.0, 50.0, 1001)
        for T in (0.05, 0.7, 3.0):
            assert np.all(sf.kt_symbol(x, T) >= 2.0 * T - 1e-14)

    def test_rejects_bad_temperature(self):
        with pytest.raises(ValueError):
            sf.kt_symbol(1.0, 0.0)
        with pytest.raises(ValueError):
            sf.kt_symbol(1.0, -2.0)


def _branches(series, closed, asymptote=None):
    """The function with the given branches, filled by ``np.piecewise``."""
    def evaluate(z):
        z = np.asarray(z, dtype=float)
        small = np.abs(z) <= sf.SERIES_THRESHOLD
        if asymptote is None:
            return np.piecewise(z, [small], [series, closed])
        large = np.abs(z) > sf._LARGE_Z
        return np.piecewise(z, [small, large], [series, asymptote, closed])
    return evaluate


class TestPiecewiseBranches:
    """Each g-function and K_T is its series, closed form and asymptote,
    each evaluated only on its own arguments."""

    REFERENCE = {
        "g0": _branches(
            lambda z: 0.5 - (z * z) / 24.0 + (z * z) * (z * z) / 240.0
            - 17.0 * (z * z) * (z * z) * (z * z) / 40320.0,
            lambda z: np.tanh(0.5 * z) / z),
        "g1": _branches(
            lambda z: z / 12.0 - z * (z * z) / 60.0
            + 17.0 * z * (z * z) * (z * z) / 6720.0,
            lambda z: (np.sinh(z) - z) / (z * z * (1.0 + np.cosh(z))),
            lambda z: np.tanh(z) / (z * z)),
        "g2": _branches(
            lambda z: 0.25 - (z * z) / 12.0 + 17.0 * (z * z) * (z * z) / 960.0,
            lambda z: np.sinh(0.5 * z)
            / (2.0 * z * np.cosh(0.5 * z) * np.cosh(0.5 * z)
               * np.cosh(0.5 * z)),
            lambda z: 2.0 * np.exp(-np.abs(z)) / np.abs(z)),
        "g1_over_z": _branches(
            lambda z: 1.0 / 12.0 - (z * z) / 60.0
            + 17.0 * (z * z) * (z * z) / 6720.0,
            lambda z: (np.sinh(z) - z) / (z * z * z * (1.0 + np.cosh(z))),
            lambda z: np.tanh(np.abs(z))
            / (np.abs(z) * np.abs(z) * np.abs(z))),
    }

    #: The branch edges, their neighbouring floats and 2e5 samples spread
    #: over eight decades of |z|
    EDGES = np.array([0.0, 1e-300, 1e-2, 300.0, 710.0])
    EDGES = np.concatenate([EDGES, np.nextafter(EDGES, np.inf),
                            np.nextafter(EDGES, -np.inf)])
    EDGES = np.concatenate([EDGES, -EDGES])
    Z = np.concatenate([
        EDGES, np.random.default_rng(0).uniform(-1.0, 1.0, 200_000)
        * 10.0 ** np.linspace(-5.0, 3.0, 200_000)])

    @pytest.mark.parametrize("name", sorted(REFERENCE))
    def test_equal_to_branches(self, name):
        func, ref = getattr(sf, name), self.REFERENCE[name]
        with np.errstate(over="ignore"):
            got, want = func(self.Z), ref(self.Z)
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))
            for z in self.EDGES:
                value = func(z)
                assert isinstance(value, float)
                assert value == float(ref(z))

    @pytest.mark.parametrize("T", [0.3, 1.0, 2.7])
    def test_kt_symbol_equal_to_branches(self, T):
        ref = _branches(
            lambda w: 1.0 + (w * w) / 3.0 - (w * w) * (w * w) / 45.0
            + 2.0 * (w * w) * (w * w) * (w * w) / 945.0,
            lambda w: w / np.tanh(w), np.abs)
        assert np.array_equal(sf.kt_symbol(self.Z, T),
                              2.0 * T * ref(self.Z / (2.0 * T)))
        for x in self.EDGES:
            value = sf.kt_symbol(x, T)
            assert isinstance(value, float)
            assert value == 2.0 * T * float(ref(x / (2.0 * T)))


class TestDividedDifference:
    def test_base_cases(self):
        assert dd.divided_difference("f", [1.5]) == pytest.approx(sf.fermi_f(1.5))
        assert dd.divided_difference("f", [0.0, 0.0]) == pytest.approx(0.5, abs=1e-15)

    def test_confluent_quintuple_example(self):
        val = dd.divided_difference("f", [2, 2, 2, -2, -2])
        assert val == pytest.approx(sf.g1(2.0) / 32.0, abs=1e-12)
        assert val == pytest.approx(0.00267, abs=5e-6)

    def test_identity_suite(self):
        points = identity_sample()
        assert len(points) == 100
        for a in points:
            lhs = dd.divided_difference("f", [a, a, a, -a, -a])
            assert abs(lhs - sf.g1(a) / (16.0 * a)) < 1e-9
            lhs = dd.divided_difference("f", [a, a, a, -a])
            assert abs(lhs - sf.g1(a) / 8.0) < 1e-9
            lhs = dd.divided_difference("rho", [a, a, -a])
            rhs = dd.divided_difference("rho", [a, -a, -a])
            assert abs(lhs + rhs) < 1e-9

    def test_auxiliary_identities(self):
        # [a,a,-a]_f = -g0(a)/4 and [a,a,-a,-a]_f = 0: both are consumed by
        # the coefficient quadratures, so pin them here as well.
        for a in identity_sample(25, seed=3):
            assert dd.divided_difference("f", [a, a, -a]) == pytest.approx(
                -sf.g0(a) / 4.0, abs=1e-10
            )
            assert abs(dd.divided_difference("f", [a, a, -a, -a])) < 1e-10

    def test_permutation_symmetry_exact(self):
        rng = np.random.default_rng(7)
        nodes = list(rng.uniform(-5, 5, 5))
        ref = dd.divided_difference("f", nodes)
        for _ in range(10):
            rng.shuffle(nodes)
            assert dd.divided_difference("f", nodes) == ref

    def test_matches_feynman_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            nodes = list(rng.uniform(-4, 4, 3))
            rec = dd.divided_difference("f", nodes)
            ora = feynman_divided_difference(nodes)
            assert abs(rec - ora) < 1e-6

    def test_mixed_cluster_matches_oracle(self):
        nodes = [1.2000000004, 1.2, -3.0]
        rec = dd.divided_difference("f", nodes)
        ora = feynman_divided_difference(nodes)
        assert abs(rec - ora) < 1e-8

    def test_sampled_decay(self):
        for a in (-2.0, 0.5, 3.0):
            scaled = [
                abs(dd.divided_difference("f", [a, a, M])) * (1.0 + M)
                for M in (10.0, 1e2, 1e3, 1e4)
            ]
            assert all(s <= 1.5 * scaled[0] for s in scaled)

    @pytest.mark.parametrize("plus, minus",
                             [(2, 1), (3, 1), (2, 2), (3, 2), (4, 1)])
    def test_batch_equals_scalar_on_reference_grid(self, gap_sol, plus,
                                                   minus):
        # the node patterns of the small-momentum constants, one set per
        # momentum node of the reference gap grid
        a = gap_sol.beta_c * (gap_sol.grid.nodes ** 2 - gap_sol.mu)
        nodes = np.stack([a] * plus + [-a] * minus, axis=1)
        batched = dd.divided_difference("f", nodes)
        assert batched.shape == (len(a),)
        scalar = [dd.divided_difference("f", row) for row in nodes]
        assert batched.tolist() == scalar

    def test_batch_mixing_every_route_equals_scalar(self):
        # rows on the Taylor, Hermite and cluster-snapping routes, with
        # exact repeats, in one batch of each node count
        rng = np.random.default_rng(3)
        for n in range(1, dd.MAX_NODES + 1):
            spread = np.repeat([1e-12, 1e-3, 0.05, 1.0, 30.0], 8)[:, None]
            nodes = rng.normal(size=(40, 1)) * 5 \
                + rng.normal(size=(40, n)) * spread
            nodes[::3, -1] = nodes[::3, 0]
            for func in ("f", "rho"):
                batched = dd.divided_difference(func, nodes)
                assert batched.tolist() == [dd.divided_difference(func, row)
                                            for row in nodes]

    def test_node_validation(self):
        with pytest.raises(ValueError):
            dd.divided_difference("f", [])
        with pytest.raises(ValueError):
            dd.divided_difference("f", np.zeros((3, dd.MAX_NODES + 1)))
        with pytest.raises(ValueError):
            dd.divided_difference("f", np.zeros((2, 2, 2)))
        with pytest.raises(ValueError):
            dd.divided_difference("f", [0.0] * (dd.MAX_NODES + 1))
        with pytest.raises(ValueError):
            dd.divided_difference("f", [np.inf])
        with pytest.raises(ValueError):
            dd.divided_difference("tanh", [1.0])


def _decimal_fermi_divided_difference(x: float, y: float) -> Decimal:
    """``f[x, y]`` of ``f(z) = -ln(1 + e^{-z})`` in 50-digit decimals."""
    def f(z):
        return -(1 + (-z).exp()).ln()

    with localcontext() as ctx:
        ctx.prec = 50
        dx, dy = Decimal(x), Decimal(y)
        if dx == dy:
            return 1 / (1 + dx.exp())
        return (f(dx) - f(dy)) / (dx - dy)


def _two_node_sample(seed: int = 5) -> list:
    """Node pairs with |d| < 1, |d| >= 1 and d = 0, d = x - y, and
    |x|, |y| up to 700."""
    rng = np.random.default_rng(seed)
    pairs = [(a, b) for a in (-700.0, -699.5, -1.0, 0.0, 0.5, 700.0)
             for b in (-700.0, -699.0, 0.0, 1.0, 699.5, 700.0)]
    for x in rng.uniform(-700.0, 700.0, 60):
        for d in (0.0, 1.0, -1.0,
                  rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-12.0, 0.0),
                  rng.choice([-1.0, 1.0]) * rng.uniform(1.0, 1400.0)):
            if abs(x - d) <= 700.0:
                pairs.append((float(x), float(x - d)))
    return pairs


class TestTwoNodeDividedDifference:
    def test_matches_decimal_oracle(self):
        # measured: at most 1.0 eps from the 50-digit value, 305 pairs
        pairs = _two_node_sample()
        x, y = (np.array(v) for v in zip(*pairs))
        got = sf.divided_difference(x, y)
        eps = np.finfo(float).eps
        for value, a, b in zip(got, x, y):
            exact = _decimal_fermi_divided_difference(a, b)
            assert abs(Decimal(float(value)) - exact) <= 4 * eps, (a, b)
        near = np.abs(x - y) < 1.0
        assert near.sum() > 50 and (~near).sum() > 50 and (x == y).sum() > 50

    def test_symmetric_and_equal_nodes(self):
        x, y = (np.array(v) for v in zip(*_two_node_sample()))
        forward = sf.divided_difference(x, y)
        np.testing.assert_array_equal(forward,
                                      sf.divided_difference(y, x))
        np.testing.assert_array_equal(sf.divided_difference(x, x),
                                      sf.fermi_rho(x))
        # f' = rho lies in (0, 1), up to the few eps of the evaluation
        assert np.all((forward >= 0.0)
                      & (forward <= 1.0 + 4 * np.finfo(float).eps))

    def test_broadcast_and_scalar(self):
        x = np.linspace(-5.0, 5.0, 7)
        y = np.linspace(-3.0, 9.0, 4)
        table = sf.divided_difference(x[:, None], y[None, :])
        assert table.shape == (7, 4)
        assert table[2, 3] == sf.divided_difference(x[2], y[3])
        assert isinstance(sf.divided_difference(0.3, 2.0), float)
        assert sf.divided_difference(0.3, 2.0) == pytest.approx(
            dd.divided_difference("f", [0.3, 2.0]), rel=1e-14)


class TestEntropyMargin:
    def test_diagonal_vanishes(self):
        assert entropy_inequality_margin(0.3, 0.3) == pytest.approx(0.0, abs=1e-14)
        assert entropy_inequality_margin(0.5, 0.5) == pytest.approx(0.0, abs=1e-14)

    def test_regression_value(self):
        assert entropy_inequality_margin(0.3, 0.6) == pytest.approx(
            1.2759873813822376e-4, abs=1e-12
        )

    def test_limit_branch_continuity(self):
        lo = entropy_inequality_margin(0.3, 0.5 - 1e-4)
        hi = entropy_inequality_margin(0.3, 0.5 + 1e-4)
        mid = entropy_inequality_margin(0.3, 0.5)
        assert lo == pytest.approx(mid, rel=1e-3)
        assert hi == pytest.approx(mid, rel=1e-3)

    def test_nonnegative_on_grid(self):
        grid = np.linspace(0.005, 0.995, 200)
        margin = entropy_inequality_margin(grid[:, None], grid[None, :])
        assert margin.min() >= -1e-12

    def test_domain_validation(self):
        for bad in ((0.0, 0.5), (0.5, 1.0), (-0.1, 0.5), (0.5, 1.2)):
            with pytest.raises(ValueError):
                entropy_inequality_margin(*bad)
