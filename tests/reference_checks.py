"""Named checks of the building blocks on the reference well, and the
test-side oracles they share with the unit tests.

``bcsgl.properties`` checks identities of one run.  The checks here are
about the library instead: the confluent divided differences
(``divided_differences``, the tests' oracle), the Fermi weights, the
relative-entropy inequality, the decay of the reference profile, the
small-momentum constants, the GL energy's gauge invariance and the
fibers and their supercell.  Each runs on the reference configuration
(Gaussian well g=2, w=1, mu=1, normalized with D=1) with seeded
randomness, against a fixed tolerance, and reports its witness values as
a :class:`bcsgl.properties.PropertyResult`; ``test_properties.py`` runs
each by name.  The registry is data, so a test can run the checks of
chosen modules.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.fft import next_fast_len

from bcsgl import bdg_verifier as bv
from bcsgl import gap_solver as gs
from bcsgl import gl_coeffs as gc
from bcsgl import gl_minimizer as gm
from bcsgl import specfun
from bcsgl.properties import PropertyResult
from divided_differences import divided_difference
from pair_blocks import fiber_matrix, full_blocks
from pair_symbol import t_prime

# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------


def entropy_inequality_margin(x, y):
    """Margin of the scalar relative-entropy inequality (>= 0 up to
    roundoff) for ``x, y`` in ``(0, 1)``, broadcast against each other.

    Returns ``LHS - RHS`` of::

        x ln(x/y) + (1-x) ln((1-x)/(1-y))
            >=  [ln((1-y)/y) / (1-2y)] (x-y)^2
              + (4/3) (x(1-x) - y(1-y))^2

    The prefactor equals ``2 artanh(w)/w`` with ``w = 1 - 2y`` and is
    evaluated by its series ``2 + 2w^2/3 + 2w^4/5`` for ``|w| < 1e-4``, so
    ``y = 1/2`` takes the limit value 2 exactly.
    """
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if np.any((x <= 0.0) | (x >= 1.0)) or np.any((y <= 0.0) | (y >= 1.0)):
        raise ValueError("x and y must lie strictly inside (0, 1)")
    lhs = x * np.log(x / y) + (1.0 - x) * np.log((1.0 - x) / (1.0 - y))
    w = 1.0 - 2.0 * y
    w2 = w * w
    with np.errstate(divide="ignore", invalid="ignore"):
        factor = np.where(np.abs(w) < 1e-4,
                          2.0 + 2.0 * w2 / 3.0 + 2.0 * w2 * w2 / 5.0,
                          2.0 * np.arctanh(w) / w)
    rhs = factor * (x - y) ** 2 + (4.0 / 3.0) * (
        x * (1.0 - x) - y * (1.0 - y)
    ) ** 2
    return lhs - rhs


#: :func:`decay_report` warns when its fitted rate falls below this
#: fraction of ``kappa_c``: the fit then sits on a truncation floor of
#: the profile, not on its decay.
MIN_DECAY_RATIO = 0.9


@dataclass
class DecayReport:
    """Exponential decay fit of the real-space profile."""

    fitted_decay_rate: float
    kappa_c: float
    n_fit_points: int
    fit_window: tuple[float, float]


def _local_maxima(x: np.ndarray) -> np.ndarray:
    """Indices of the local maxima of a 1-D array.

    A maximum is a sample, or a flat run of equal samples, higher than its
    neighbours on both sides; a flat run counts once, at its middle sample
    (the left one of two), and runs touching either end never count.  This
    is the index set of ``scipy.signal.find_peaks(x)[0]``.
    """
    starts = np.flatnonzero(np.concatenate(([True], x[1:] != x[:-1])))
    ends = np.append(starts[1:] - 1, len(x) - 1)
    run = x[starts]
    top = np.flatnonzero((run[1:-1] > run[:-2]) & (run[1:-1] > run[2:])) + 1
    return (starts[top] + ends[top]) // 2


def decay_report(sol, x_max=None, n_x=4096) -> DecayReport:
    """Real-space decay rate of the ground state.

    Fits ``ln |alpha0|`` at its local maxima (envelope peaks) over the
    window where ``|alpha0|`` lies in ``[1e-10, 1e-3] * max`` (at every
    sample there when fewer than five peaks do), on ``n_x`` points up to
    ``x_max``, by default where the decay reaches about 1e-12, below the
    aliasing limit ``pi / dq``.  The fitted rate should approach
    ``kappa_c`` from below, and a ``UserWarning`` flags a rate below
    ``MIN_DECAY_RATIO * kappa_c``.  With no sample in the window it warns
    and reports a NaN rate and window and no fit points.
    """
    kappa = sol.kappa_c
    if x_max is None:
        x_max = min(30.0 / kappa, 0.85 * math.pi / sol.grid.dq)
    x = np.linspace(0.0, x_max, n_x)
    abs_alpha = np.abs(sol.alpha0(x))
    peak = abs_alpha.max()
    window = (abs_alpha >= 1e-10 * peak) & (abs_alpha <= 1e-3 * peak)
    peaks = _local_maxima(abs_alpha)
    fit = peaks[window[peaks]]
    if fit.size < 5:
        fit = np.flatnonzero(window)
    if fit.size == 0:
        warnings.warn("empty decay-fit window; grid too coarse for the fit")
        rate, fit_window = math.nan, (math.nan, math.nan)
    else:
        rate = -float(np.polyfit(x[fit], np.log(abs_alpha[fit]), 1)[0])
        fit_window = (float(x[fit[0]]), float(x[fit[-1]]))
        if rate < MIN_DECAY_RATIO * kappa:
            warnings.warn(
                f"fitted decay rate {rate:.4g} is below {MIN_DECAY_RATIO} "
                f"kappa_c = {MIN_DECAY_RATIO * kappa:.4g}: the fit window "
                "sits on a truncation floor of the profile; refine the "
                "momentum grid")
    return DecayReport(rate, kappa, int(fit.size), fit_window)


_TWO_PI = 2.0 * math.pi


@dataclass
class SmallPConstants:
    """``F(0,0,0)``, ``G(0)``, ``(p . grad)^2 G(0)`` and ``L(0,0)``.

    Each value is computed twice: ``*_dd`` by confluent divided-difference
    quadrature of the defining momentum integrals, ``*_closed`` by the
    equivalent g-function forms.  The pairs agree to quadrature accuracy.
    """

    f000_dd: float
    f000_closed: float
    g0_dd: float
    g0_closed: float
    hess_g0_dd: float
    hess_g0_closed: float
    l00_dd: float
    l00_closed: float

    def max_relative_mismatch(self) -> float:
        pairs = [
            (self.f000_dd, self.f000_closed),
            (self.g0_dd, self.g0_closed),
            (self.hess_g0_dd, self.hess_g0_closed),
            (self.l00_dd, self.l00_closed),
        ]
        return max(abs(a - b) / max(abs(b), 1e-300) for a, b in pairs)


def semiclassical_smallp_constants(source, beta: float) -> SmallPConstants:
    """Small-momentum trace-expansion constants by two routes (dim 1), an
    oracle of ``E1`` and the ``E2`` blocks.

    Divided-difference route (nodes ``a = beta (q^2 - mu)``):

    * ``F(0,0,0) = beta^4 integral t^4 [a,a,a,-a,-a]_f dq / 2 pi``
    * ``G(0) = beta^2 integral t^2 [a,a,-a]_f dq / 2 pi``
    * ``G''(0) = beta^2 integral { (t'^2/2 + t t'') [a,a,-a]
      + 8 beta q t t' [a,a,a,-a]
      + t^2 (4 beta [a,a,a,-a] + 24 beta^2 q^2 [a,a,a,a,-a]) } dq / 2 pi``
      (analytic momentum derivatives of the defining integrand, using the
      confluent-node derivative rule)
    * ``L(0,0) = beta^3 integral t^2 (2 [a,a,a,-a] + [a,a,-a,-a]) dq / 2 pi``

    Closed g-function route, as multiples of the trace-expansion
    constants at the same ``beta``: ``F = (beta/2) c_quartic``,
    ``G(0) = (beta/2) E1``, ``G''(0) = beta (c_grad_t + c_grad_psi)``
    (the integration-by-parts form), ``L(0,0) = (beta/2) c_W``.
    """
    blocks = gc.e2_constants(source, beta)
    e1 = gc.e1_constant(source, beta)
    grid = source.grid
    q = grid.nodes
    a = beta * (q * q - source.mu)
    t = source.t_samples
    t2 = t * t
    t_first = t_prime(source, q)
    t_second = source.t_second(q)

    def dd(plus, minus):
        # [a,..,a,-a,..,-a]_f at every grid node, one node set per row
        return divided_difference(
            "f", np.stack([a] * plus + [-a] * minus, axis=1))

    dd3, dd4, dd4b, dd5, dd5h = dd(2, 1), dd(3, 1), dd(2, 2), dd(3, 2), dd(4, 1)

    return SmallPConstants(
        f000_dd=beta**4 * grid.integrate(t2 * t2 * dd5) / _TWO_PI,
        f000_closed=(beta / 2.0) * blocks.c_quartic,
        g0_dd=beta**2 * grid.integrate(t2 * dd3) / _TWO_PI,
        g0_closed=(beta / 2.0) * e1,
        hess_g0_dd=beta**2 * grid.integrate(
            (0.5 * t_first**2 + t * t_second) * dd3
            + 8.0 * beta * q * t * t_first * dd4
            + t2 * (4.0 * beta * dd4 + 24.0 * beta**2 * q * q * dd5h)
        ) / _TWO_PI,
        hess_g0_closed=beta * (blocks.c_grad_t + blocks.c_grad_psi),
        l00_dd=beta**3 * grid.integrate(t2 * (2.0 * dd4 + dd4b)) / _TWO_PI,
        l00_closed=(beta / 2.0) * blocks.c_W,
    )


def gauge_transform(psi, a, chi):
    """The pair-charge-2 gauge map ``psi -> psi e^{-2 i chi}``, ``a -> a +
    chi'`` for a real gauge function ``chi``.

    ``e^{-2 i chi}`` is not band-limited; the transformed ``psi`` keeps
    ``psi.n_max + chi.n_max + 16`` modes, which captures the
    exponentially decaying tail far below the energy-invariance
    tolerance for smooth ``chi``.
    """
    if not chi.is_real(tol=1e-10):
        raise ValueError("gauge function chi must be real-valued")
    new_n_max = psi.n_max + chi.n_max + 16
    m = next_fast_len(2 * new_n_max + 2)
    transformed = psi.values_on_grid(m) * np.exp(-2j * chi.values_on_grid(m))
    coeffs = (np.fft.fft(transformed) / m)[
        np.arange(-new_n_max, new_n_max + 1) % m]
    out = gm.TorusField(coeffs, new_n_max)
    return out, a + chi.derivative()


def supercell_hamiltonian(h, m_cells, n_grid_per_cell, psi, a, w, t, mu):
    """Dense real-space discretization on ``m_cells`` unit cells.

    Multiplication operators are diagonal on the collocation grid; the
    momentum operator and ``t(-i h d/dx)`` act through the discrete
    Fourier transform (grid momenta ``2 pi j / m_cells``), so the
    construction is spectrally exact up to the grid's momentum cutoff.
    Returns the pairing Hamiltonian and its ``Delta = 0`` counterpart,
    Hermitian ``2 N_g x 2 N_g`` matrices with ``N_g = m_cells *
    n_grid_per_cell``; their spectra oracle the fiber path.
    """
    n_g = m_cells * n_grid_per_cell
    x = np.arange(n_g) * (m_cells / n_g)
    kappa = 2.0 * math.pi * np.fft.fftfreq(n_g, d=m_cells / n_g)

    fwd = np.fft.fft(np.eye(n_g), axis=0)
    inv = np.fft.ifft(np.eye(n_g), axis=0)
    momentum = (inv * (h * kappa)) @ fwd          # -i h d/dx
    t_op = (inv * t(h * kappa)) @ fwd             # t(-i h d/dx)

    a_diag = np.diag(a.evaluate(x))
    w_diag = np.diag(w.evaluate(x))
    psi_diag = np.diag(psi.evaluate(x))

    k_block = (
        momentum @ momentum
        + h * (momentum @ a_diag + a_diag @ momentum)
        + h * h * (a_diag @ a_diag)
        - mu * np.eye(n_g)
        + h * h * w_diag
    )
    delta = -(h / 2.0) * (psi_diag @ t_op + t_op @ psi_diag)
    h_delta = np.block([
        [k_block, delta],
        [delta.conj().T, -k_block.conj()],
    ])
    zero = np.zeros_like(delta)
    h_free = np.block([[k_block, zero], [zero, -k_block.conj()]])
    return 0.5 * (h_delta + h_delta.conj().T), 0.5 * (h_free + h_free.conj().T)


def _xlogx(p: np.ndarray) -> np.ndarray:
    """``p log p``, with its limit 0 at ``p = 0``."""
    return p * np.log(np.where(p > 0.0, p, 1.0))


def _block_diagonal(k: np.ndarray, m22: np.ndarray) -> np.ndarray:
    """A fiber without its pairing blocks: ``diag(K, M22)``."""
    n = len(k)
    out = np.zeros((n + len(m22),) * 2, np.result_type(k, m22))
    out[:n, :n], out[n:, n:] = k, m22
    return out


# ---------------------------------------------------------------------------
# Individual checks: each returns (passed, witness)
# ---------------------------------------------------------------------------


class _Context:
    """The reference solution, a seeded generator and the small fibers."""

    def __init__(self, sol, seed: int):
        self.sol = sol
        self.seed = seed
        self.rng = np.random.default_rng(seed)

    @staticmethod
    def small_fiber():
        basis = bv.FiberBasis(0.25, 8, 4)
        psi = gm.TorusField.from_modes({0: 0.75, 1: 0.2 + 0.1j}, n_max=2)
        a = gm.TorusField.cosine(0.2, 1)
        w = gm.TorusField.cosine(0.5, 1)
        return basis, psi, a, w

    def small_fibers(self, nodes=None) -> list:
        """The small fiber family's operators at ``nodes`` (default: the
        whole Bloch grid)."""
        basis, psi, a, w = self.small_fiber()
        nodes = basis.xi_nodes if nodes is None else nodes
        return [bv.build_fiber(basis, xi, psi, a, w, self.sol.t, self.sol.mu)
                for xi in nodes]


def _occupations(matrix: np.ndarray, beta: float) -> np.ndarray:
    """Eigenvalues of the Gibbs state ``(1 + e^{beta H})^{-1}``."""
    return specfun.fermi_rho(beta * np.linalg.eigvalsh(matrix))


def _dd_permutation_symmetry(ctx: _Context):
    nodes = ctx.rng.uniform(-4.0, 4.0, size=5)
    base = divided_difference("f", nodes)
    worst = 0.0
    for _ in range(4):
        perm = ctx.rng.permutation(nodes)
        worst = max(worst, abs(divided_difference("f", perm) - base))
    return worst <= 1e-9, {"max_permutation_deviation": float(worst),
                           "tol": 1e-9}


def _dd_closed_form_identities(ctx: _Context):
    # the closed forms couple the divided-difference tables to the
    # g-functions, so a sign error in either side surfaces here
    worst, at_node = 0.0, None
    deviations = {}
    for a in np.linspace(0.2, 6.0, 8):
        local = {
            "quintuple_vs_g1_over_16a": abs(
                divided_difference("f", [a, a, a, -a, -a])
                - specfun.g1(a) / (16.0 * a)),
            "quadruple_vs_g1_over_8": abs(
                divided_difference("f", [a, a, a, -a])
                - specfun.g1(a) / 8.0),
            "rho_triple_antisymmetry": abs(
                divided_difference("rho", [a, a, -a])
                + divided_difference("rho", [a, -a, -a])),
            "triple_vs_minus_g0_over_4": abs(
                divided_difference("f", [a, a, -a])
                + specfun.g0(a) / 4.0),
            "balanced_quadruple_vanishes": abs(
                divided_difference("f", [a, a, -a, -a])),
        }
        peak = max(local.values())
        if peak > worst:
            worst, at_node = peak, float(a)
            deviations = {k: float(v) for k, v in local.items()}
    return worst <= 1e-9, {"node": at_node, **deviations, "tol": 1e-9}


def _g_chain_consistency(ctx: _Context):
    z = np.linspace(-10.0, 10.0, 401)
    z = z[np.abs(z) > 0.05]
    step = 1e-3
    d_g0 = (specfun.g0(z - 2 * step) - 8 * specfun.g0(z - step)
            + 8 * specfun.g0(z + step) - specfun.g0(z + 2 * step)) / (12 * step)
    err_g1 = float(np.max(np.abs(specfun.g1(z) + d_g0)
                          / np.abs(specfun.g1(z))))
    d_g1 = (specfun.g1(z - 2 * step) - 8 * specfun.g1(z - step)
            + 8 * specfun.g1(z + step) - specfun.g1(z + 2 * step)) / (12 * step)
    err_g2 = float(np.max(
        np.abs(specfun.g2(z) - (d_g1 + 2.0 * specfun.g1(z) / z))
        / np.abs(specfun.g2(z))))
    err_ratio = float(np.max(np.abs(
        specfun.g1_over_z(z) - specfun.g1(z) / z)))
    worst = max(err_g1, err_g2, err_ratio)
    return worst <= 1e-6, {
        "g1_vs_minus_g0_prime": err_g1,
        "g2_vs_g1_prime_plus_ratio": err_g2,
        "g1_over_z_consistency": err_ratio,
        "tol": 1e-6,
    }


def _fermi_weight_identity(ctx: _Context):
    z = np.linspace(-30.0, 30.0, 601)
    worst = float(np.max(np.abs(
        specfun.fermi_f(z) - specfun.fermi_f(-z) - z
    )))
    return worst <= 1e-12, {"max_identity_residual": worst, "tol": 1e-12}


def _klein_inequality_grid(ctx: _Context):
    eps = 1e-4
    x = np.linspace(eps, 1.0 - eps, 200)
    y = np.linspace(eps, 1.0 - eps, 200)
    margin = entropy_inequality_margin(x[:, None], y[None, :])
    worst = float(np.min(margin))
    return worst >= -1e-12, {"min_margin": worst, "tol": -1e-12}


def _real_space_decay(ctx: _Context):
    report = decay_report(ctx.sol)
    ok = report.fitted_decay_rate >= MIN_DECAY_RATIO * report.kappa_c
    return ok, {
        "fitted_decay_rate": float(report.fitted_decay_rate),
        "kappa_c": float(report.kappa_c),
        "required_ratio": MIN_DECAY_RATIO,
    }


def _small_momentum_routes(ctx: _Context):
    consts = semiclassical_smallp_constants(ctx.sol, ctx.sol.beta_c)
    worst = consts.max_relative_mismatch()
    return worst <= 1e-7, {"max_route_mismatch": float(worst), "tol": 1e-7}


def _gl_gauge_invariance(ctx: _Context):
    rng = np.random.default_rng(ctx.seed + 29)
    psi = gm.TorusField(
        0.5 * (rng.standard_normal(5) + 1j * rng.standard_normal(5)), 2)
    a = gm.TorusField.cosine(0.3, 1)
    w = gm.TorusField.cosine(0.5, 1)
    chi = gm.TorusField.sine(0.2, 1)
    coef = gc.compute_coefficients(ctx.sol)
    before = gm.gl_energy(psi, a, w, coef)
    psi_g, a_g = gauge_transform(psi, a, chi)
    after = gm.gl_energy(psi_g, a_g, w, coef)
    drift = abs(after - before) / max(abs(before), 1e-300)
    return drift <= 1e-10, {
        "relative_energy_drift": float(drift), "tol": 1e-10
    }


def _fiber_hermiticity(ctx: _Context):
    worst = 0.0
    for op in ctx.small_fibers():
        full = fiber_matrix(op)
        worst = max(worst, float(np.abs(full - full.conj().T).max()))
    return worst <= 1e-12, {"max_hermiticity_drift": worst, "tol": 1e-12}


def _occupation_bounds(ctx: _Context):
    occ = np.concatenate([_occupations(fiber_matrix(op), ctx.sol.beta_c)
                          for op in ctx.small_fibers()])
    low, high = float(occ.min()), float(occ.max())
    ok = low >= -1e-12 and high <= 1.0 + 1e-12
    return ok, {"min_occupation": low, "max_occupation": high, "tol": 1e-12}


def _entropy_reflection(ctx: _Context):
    xi = ctx.small_fiber()[0].half_nodes[1]
    entropies = []
    for op in ctx.small_fibers([xi, -xi]):
        occ = _occupations(fiber_matrix(op), ctx.sol.beta_c)
        entropies.append(
            float(-np.sum(_xlogx(occ) + _xlogx(1.0 - occ))))
    s_plus, s_minus = entropies
    dev = abs(s_plus - s_minus)
    return dev <= 1e-10, {
        "entropy_at_xi": float(s_plus),
        "entropy_at_minus_xi": float(s_minus),
        "difference": float(dev),
        "tol": 1e-10,
    }


def _supercell_agreement(ctx: _Context):
    basis, psi, a, w = ctx.small_fiber()
    sol = ctx.sol
    union = np.sort(np.concatenate([np.linalg.eigvalsh(fiber_matrix(op))
                                    for op in ctx.small_fibers()]))
    h_pair, _ = supercell_hamiltonian(
        basis.h, basis.m_fibers, 2 * (basis.n_max + 8) + 1,
        psi, a, w, sol.t, sol.mu,
    )
    sup = np.linalg.eigvalsh(h_pair)
    threshold = (basis.h * 2 * math.pi * (basis.n_max - 3)) ** 2 \
        - abs(sol.mu) - 1.0
    window = union[np.abs(union) <= threshold]
    worst = float(max(np.min(np.abs(sup - lam)) for lam in window))
    return worst <= 1e-8 and len(window) > 50, {
        "max_eigenvalue_distance": worst,
        "window_size": int(len(window)),
        "tol": 1e-8,
    }


def _diagonal_shift_invariance(ctx: _Context):
    # tr H_Delta - tr H_0 summed eigenvalue by eigenvalue, with and without
    # a common diagonal shift of both operators
    ops = ctx.small_fibers()
    shift = 0.37 * np.eye(2 * ctx.small_fiber()[0].size)

    def trace_difference(offset):
        return math.fsum(
            float(np.sum(np.linalg.eigvalsh(fiber_matrix(op) + offset)
                         - np.linalg.eigvalsh(
                             _block_diagonal(*full_blocks(op)[::2])
                             + offset)))
            for op in ops) / len(ops)

    dev = abs(trace_difference(0.0) - trace_difference(shift))
    return dev <= 1e-11, {"trace_difference_shift": float(dev), "tol": 1e-11}


def _zero_pairing_trace(ctx: _Context):
    sol = ctx.sol
    res = bv.semiclassical_trace(
        sol, gm.TorusField.zero(0), gm.TorusField.cosine(0.2, 1),
        gm.TorusField.cosine(0.5, 1), 0.25, m_fibers=4,
    )
    dev = abs(res["lhs"])
    return dev <= 1e-12, {"lhs_without_pairing": float(dev), "tol": 1e-12}


_REGISTRY: list[tuple[str, str, Callable]] = [
    ("specfun", "divided_difference_permutation_symmetry",
     _dd_permutation_symmetry),
    ("specfun", "divided_difference_closed_forms",
     _dd_closed_form_identities),
    ("specfun", "g_chain_derivative_consistency", _g_chain_consistency),
    ("specfun", "fermi_weight_reflection_identity", _fermi_weight_identity),
    ("specfun", "entropy_inequality_grid", _klein_inequality_grid),
    ("gap_solver", "real_space_decay_rate", _real_space_decay),
    ("gl_coeffs", "small_momentum_route_agreement", _small_momentum_routes),
    ("gl_minimizer", "gauge_invariance", _gl_gauge_invariance),
    ("bdg_verifier", "fiber_hermiticity", _fiber_hermiticity),
    ("bdg_verifier", "occupation_bounds", _occupation_bounds),
    ("bdg_verifier", "entropy_reflection_symmetry", _entropy_reflection),
    ("bdg_verifier", "supercell_spectrum_agreement", _supercell_agreement),
    ("bdg_verifier", "diagonal_shift_invariance",
     _diagonal_shift_invariance),
    ("bdg_verifier", "zero_pairing_trace", _zero_pairing_trace),
]


def run_checks(sol, seed: int = 0, modules: list[str] | None = None
               ) -> list[PropertyResult]:
    """Run the checks of ``modules`` (default: all) on the normalized
    reference solution ``sol``, in registry order; an exception inside a
    check is itself a failure, with the error string as witness."""
    ctx = _Context(sol, seed)
    results = []
    for module, name, check in _REGISTRY:
        if modules is not None and module not in modules:
            continue
        try:
            passed, witness = check(ctx)
        except Exception as exc:  # noqa: BLE001 -- reported as failure
            passed, witness = False, {"error": repr(exc)}
        results.append(PropertyResult(module, name, bool(passed), witness))
    return results
