"""Bogoliubov operators in Bloch fibers and semiclassical h-sweeps.

The pairing Hamiltonian with periodic external fields commutes with
unit-cell translations, so it block-diagonalizes over Bloch momenta
``xi``.  Each fiber is a finite matrix over plane-wave momenta
``kappa_n = 2 pi n + xi``; building it, tracing spectral functions per
unit volume, extracting the pair block of the Gibbs state, and summing
over a grid of ``xi`` values gives every observable in this module:

* the trace per unit volume of ``f(beta H_Delta) - f(beta H_0)``,
  compared with its quadratic/quartic expansion in ``h``,
* the operator-H1 distance between the pair block ``alpha_Delta`` and
  its explicit leading form,
* the three-term free-energy difference of the trial Gibbs state,
  whose ``h^{4-d}`` coefficient approaches the GL energy.

The Bloch grid is symmetric about 0, ``xi_k = 2 pi k / M`` for
``k = -ceil(M/2)+1 .. floor(M/2)``, i.e. ``M`` uniform nodes in
``(-pi, pi]``.  On the mode window ``|n| <= n_max`` the fibers at ``xi``
and ``-xi`` are particle-hole partners: swapping particle and hole,
reflecting the modes (``n -> -n``, matrix ``J``) and conjugating maps
``H(xi)`` to ``-H(-xi)``.  So the spectrum at ``-xi`` is the mirrored
spectrum at ``xi`` and the pair block there is ``J alpha(xi)^T J``;
every observable diagonalizes only ``xi = 0``, the positive nodes and
(for even ``M``) ``xi = pi`` -- ``floor(M/2) + 1`` fibers -- and folds in
each partner's contribution without another eigensolve.  ``xi = pi``
has no partner on the grid: its reflection ``-pi`` shifts the mode
window by one.

Everything is exact-spectral: the kinetic term, the field couplings
(finite Fourier series), and the pair symbol ``t`` (evaluated through
its smooth extension) introduce no grid discretization error, so the
only truncation knobs are the fiber mode cutoff, the number of fibers,
and the quadratures for the interaction terms.  A dense real-space
supercell discretization of the same operator serves as the module's
master oracle in the tests.

Each fiber is built once and diagonalized once per observable call, by
one ``eigh`` whose eigenvalues give the trace term and whose
eigenvectors give the pair block: :func:`alpha_delta_distance` returns
the trace expansion and the pair-block distance from one pass (and
:func:`semiclassical_trace` is its trace-key view), and
:func:`trial_state_energy` takes its trace term and its band from the
same eigensolve.  Each fiber block is stored real when its data are
(see :func:`build_fiber`).  With ``A = 0`` and an even ``W`` the GL
minimizer is real, so the trial-state energy diagonalizes real
symmetric fibers with LAPACK's real symmetric eigensolvers, about five
times faster than the complex ones; the trace and pair sweeps probe a
complex ``psi``.

The Bloch average is the trapezoid rule for a smooth ``2 pi``-periodic
function of ``xi``, so its error falls exponentially in ``M``.  Both
passes, :func:`alpha_delta_distance` and :func:`trial_state_energy`,
therefore take it from one ladder (:func:`_bloch_ladder`) that doubles
the grid, ``M = c0, 2 c0, 4 c0, ...`` up to the cap ``m_fibers`` (``c0``
the cap's odd part): the ``M``-node grid is the even-index subset of the
``2M``-node grid, float for float, so each rung diagonalizes only its
new nodes.  It stops at the first ``M`` whose change ``|Q_M - Q_{M/2}|``
is within the floor of every observable: a summation bound on the Fermi
weights for ``lhs`` and ``f_bcs_diff``, a relative ``1e-9`` for the
pair-block norms.  A point that reaches the cap unconverged is recorded
and warned about.
"""

from __future__ import annotations

import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from . import specfun
from .gap_solver import GapSolution
from .gl_coeffs import e1_constant, e2_constants
from .gl_minimizer import (TorusField, _coeff_matrix, _covariant_square,
                           _field_square)

__all__ = [
    "FiberBasis",
    "FiberOperator",
    "build_fiber",
    "supercell_hamiltonian",
    "field_inner_products",
    "default_mode_cutoff",
    "semiclassical_trace",
    "alpha_delta_distance",
    "LADDER_KEYS",
    "trial_state_energy",
    "h_sweep",
]

_SQRT_TWO_PI = math.sqrt(2.0 * math.pi)
_ROUNDOFF_FLOOR = 100.0 * np.finfo(float).eps
#: Roundoff unit of the fiber-trace floors that stop the Bloch ladder.
_TRACE_FLOOR_UNIT = float(np.finfo(float).eps)
#: Relative change at which the ladder's pair-block norms have settled;
#: their roundoff changes are below ``4e-11`` relative.
_PAIR_REL_TOL = 1e-9
#: The pair-block norms of :func:`alpha_delta_distance`.
_PAIR_NORMS = ("h1_distance", "l2_distance", "l2_leading")
#: Bloch-ladder record of each :func:`alpha_delta_distance` result.
LADDER_KEYS = ("m_fibers", "capped", "lhs_floor", "delta_lhs",
               *(f"delta_{k}" for k in _PAIR_NORMS))


# ---------------------------------------------------------------------------
# Pair-symbol plumbing
# ---------------------------------------------------------------------------


def _as_symbol(source):
    """``(t callable, mu, beta_c)`` of a gap solution."""
    if not isinstance(source, GapSolution):
        raise TypeError(f"expected a GapSolution, got {type(source).__name__}")
    if source.spec.dim != 1:
        raise NotImplementedError("fiber assembly is implemented for dim 1")
    return source.t, source.mu, source.beta_c


def _symbol_support(sol: GapSolution) -> float:
    """Momentum beyond which ``|t|`` falls below ``1e-8 * max |t|``."""
    # The support routinely sits at the solver's own cutoff (the grid is
    # chosen that way); the guard modes added on top make the
    # borderline-decay warning moot here.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return sol.momentum_support()


def default_mode_cutoff(h: float, q_support: float) -> int:
    """Fiber mode cutoff resolving the support of ``t(h .)`` plus 8 guard
    modes."""
    return int(math.ceil(q_support / (2.0 * math.pi * h))) + 8


# ---------------------------------------------------------------------------
# Fiber assembly
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FiberBasis:
    """Plane-wave basis of one Bloch fiber family.

    Attributes
    ----------
    h : float
        Semiclassical parameter in (0, 1).
    n_max : int
        Retained modes ``|n| <= n_max``; fiber momenta are
        ``2 pi n + xi``.
    m_fibers : int
        Number of uniform Bloch momenta in ``(-pi, pi]``: ``xi_k = 2 pi
        k / M`` for ``k = -ceil(M/2)+1 .. floor(M/2)``.  The grid is
        symmetric about 0 (``xi = pi`` aside, for even ``M``), so each
        node ``0 < xi < pi`` has its particle-hole partner ``-xi`` on the
        grid and the observables diagonalize only the last
        ``floor(M/2) + 1`` nodes (:attr:`half_nodes`).  The grids nest:
        the ``M``-node grid is the even-``k`` subset of the ``2M``-node
        grid with the same floats (``2 pi 2k / 2M`` rounds like ``2 pi k /
        M``), which the quadrature ladder (:func:`_bloch_ladder`) relies
        on; there ``m_fibers`` is the ladder's cap.
    """

    h: float
    n_max: int
    m_fibers: int

    def __post_init__(self):
        if not 0.0 < self.h < 1.0:
            raise ValueError("h must lie in (0, 1)")
        if self.n_max < 1 or self.m_fibers < 1:
            raise ValueError("n_max and m_fibers must be positive")

    @property
    def modes(self) -> np.ndarray:
        return np.arange(-self.n_max, self.n_max + 1)

    @property
    def size(self) -> int:
        return 2 * self.n_max + 1

    @property
    def xi_nodes(self) -> np.ndarray:
        m = self.m_fibers
        return 2.0 * math.pi * np.arange(1 - (m + 1) // 2, m // 2 + 1) / m

    @property
    def half_nodes(self) -> np.ndarray:
        """The nodes ``0 <= xi <= pi`` (same floats as in :attr:`xi_nodes`)."""
        return self.xi_nodes[(self.m_fibers - 1) // 2:]

    def momenta(self, xi: float) -> np.ndarray:
        return 2.0 * math.pi * self.modes + xi

    def check_coverage(self, q_support: float) -> None:
        reach = self.h * 2.0 * math.pi * self.n_max
        if reach < q_support:
            raise ValueError(
                f"fiber momenta reach {reach:.2f} but the pair symbol "
                f"extends to {q_support:.2f}; increase n_max"
            )


@dataclass
class FiberOperator:
    """One assembled fiber of the pairing Hamiltonian.

    ``matrix`` is the Hermitian ``2N x 2N`` fiber, assembled once;
    ``k_block`` its particle block, ``delta_block`` the pairing block,
    ``m22_block`` the hole block (equal to the negated conjugate of the
    particle block of the reflected fiber), each in the dtype of its own
    data.  ``t_values`` holds the pair symbol ``t(h kappa_n)`` at the
    fiber momenta.
    """

    momenta: np.ndarray
    t_values: np.ndarray
    k_block: np.ndarray
    delta_block: np.ndarray
    m22_block: np.ndarray
    matrix: np.ndarray

    def free_spectrum(self) -> np.ndarray:
        """Sorted spectrum of the decoupled fiber (block-diagonal)."""
        return np.sort(np.concatenate([
            np.linalg.eigvalsh(self.k_block),
            np.linalg.eigvalsh(self.m22_block),
        ]))


def build_fiber(basis: FiberBasis, xi: float, psi: TorusField,
                a: TorusField, w: TorusField, t: Callable, mu: float
                ) -> FiberOperator:
    """Assemble the fiber matrix at Bloch momentum ``xi``.

    Particle block: ``(-i h d/dx + h a)^2 - mu + h^2 w`` expanded in the
    plane-wave basis (kinetic diagonal ``h^2 kappa^2 - mu``, field
    couplings through their Fourier coefficients, ``a^2`` by exact
    convolution).  Pairing block:
    ``-(h/2) psihat(n - n') (t(h kappa_n) + t(h kappa_{n'}))``.
    Hole block: the continuum expansion of
    ``-(i h d/dx + h a)^2 + mu - h^2 w`` (same kinetic and cross terms,
    opposite ``a^2`` and ``w`` signs).

    The particle and hole blocks are real arrays when every coefficient
    of ``a`` and ``w`` is exactly real, the pairing block when every
    coefficient of ``psi`` is, so a stored block is never rounded.

    Returns
    -------
    FiberOperator
    """
    if not (a.is_real() and w.is_real()):
        raise ValueError("external fields a and w must be real-valued")
    h = basis.h
    modes = basis.modes
    kappa = basis.momenta(xi)
    kinetic = h * h * kappa * kappa - mu
    cross = h * h * (kappa[:, None] + kappa[None, :]) * _coeff_matrix(a, modes)
    a2_mat = h * h * _coeff_matrix(_field_square(a), modes)
    w_mat = h * h * _coeff_matrix(w, modes)

    k_block = np.diag(kinetic) + cross + a2_mat + w_mat
    m22 = -np.diag(kinetic) + cross - a2_mat - w_mat

    tk = np.asarray(t(h * kappa), dtype=float)
    delta = -(h / 2.0) * _coeff_matrix(psi, modes) * (tk[:, None] + tk[None, :])

    n = basis.size
    full = np.empty((2 * n, 2 * n), dtype=np.result_type(k_block, delta, m22))
    full[:n, :n], full[:n, n:] = k_block, delta
    full[n:, :n], full[n:, n:] = delta.conj().T, m22
    # the off-diagonal blocks are adjoints by construction, so the
    # diagonal blocks carry all of the matrix's drift
    drift = max(np.abs(b - b.conj().T).max() for b in (k_block, m22))
    scale = max(1.0, *(np.abs(b).max() for b in (k_block, delta, m22)))
    if drift > 1e-12 * scale:
        raise FloatingPointError(
            f"fiber at xi={xi:.6f} lost Hermiticity by {drift:.3e}"
        )
    return FiberOperator(kappa, tk, k_block, delta, m22, full)


# ---------------------------------------------------------------------------
# Maps over the Bloch grid
# ---------------------------------------------------------------------------


def _fold_fibers(basis: FiberBasis, one: Callable, workers: int) -> list:
    """Per-fiber contributions over the whole Bloch grid.

    ``one(xi, partnered)`` runs on the half grid ``0 <= xi <= pi``, on
    ``workers`` threads, and returns a tuple: the contribution of fiber
    ``xi`` and, when ``partnered`` (``0 < xi < pi``), that of its
    particle-hole partner ``-xi``, derived from fiber ``xi`` without
    another eigensolve.  The result lists one contribution per node of
    ``basis.xi_nodes``.  A failing eigensolver is reported with the
    fiber's ``xi``.
    """

    def run(k, xi):
        try:
            return one(xi, 0 < k < basis.m_fibers / 2)
        except np.linalg.LinAlgError as exc:
            raise RuntimeError(
                f"eigensolver failed on the fiber at xi={xi:.6f}"
            ) from exc

    half = basis.half_nodes
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(run, range(len(half)), half))
    else:
        parts = list(map(run, range(len(half)), half))
    return [c for part in parts for c in part]


def _bloch_ladder(basis: FiberBasis, one: Callable, workers: int,
                  quadrature: Callable, above: float = 0.0
                  ) -> tuple[dict, dict]:
    """The Bloch quadrature of every sweep: nested doubling of the grid up
    to the cap ``basis.m_fibers``.

    ``M`` runs over ``c0, 2 c0, 4 c0, ...`` with ``c0`` the odd part of
    the cap, from the first ``M > above``; the first batch folds the
    ``2 M`` grid, which holds the ``M`` grid, so it gives two rungs at
    once.  Every node is folded once (:func:`_fold_fibers` with ``one``),
    and ``quadrature(parts, M)`` turns the contributions of the
    ``M``-node grid into its values ``Q_M`` (bit-identical to a fixed
    ``M``-node pass) and the floor of each value the ladder compares.
    The ladder stops at the first ``M`` where every compared value moved
    by at most its floor against ``Q_{M/2}``, or at the cap.  A point
    that reaches the cap unconverged, or whose ladder has one rung, emits
    a ``UserWarning``.

    Returns
    -------
    (dict, dict)
        ``Q_M`` and the ladder's record: ``m_fibers`` (the ``M`` used),
        ``capped`` (cap reached unconverged) and ``delta_<key>``, the
        last change of each compared value (``None`` for a one-rung
        ladder).
    """
    done = {}

    def once(xi, partnered):
        if xi not in done:
            done[xi] = one(xi, partnered)
        return done[xi]

    cap = basis.m_fibers
    m = cap // (cap & -cap)
    while m <= above and 2 * m <= cap:
        m *= 2
    if 2 * m <= cap:
        _fold_fibers(replace(basis, m_fibers=2 * m), once, workers)
    coarse = None
    while True:
        fine, floors = quadrature(
            _fold_fibers(replace(basis, m_fibers=m), once, workers), m)
        deltas = {k: None if coarse is None else abs(fine[k] - coarse[k])
                  for k in floors}
        converged = coarse is not None and all(
            deltas[k] <= floors[k] for k in floors)
        if converged or m == cap:
            break
        coarse, m = fine, 2 * m
    if not converged:
        warnings.warn(
            f"Bloch quadrature at h={basis.h!r} reached the cap m_fibers="
            f"{cap} unconverged: " + (", ".join(
                f"delta_{k}={deltas[k]:.3e} (floor {floors[k]:.3e})"
                for k in floors) if coarse is not None
                else "one rung, no estimate"), UserWarning)
    return fine, {"m_fibers": m, "capped": not converged,
                  **{f"delta_{k}": v for k, v in deltas.items()}}


# ---------------------------------------------------------------------------
# Supercell oracle
# ---------------------------------------------------------------------------


def supercell_hamiltonian(h: float, m_cells: int, n_grid_per_cell: int,
                          psi: TorusField, a: TorusField, w: TorusField,
                          t: Callable, mu: float
                          ) -> tuple[np.ndarray, np.ndarray]:
    """Dense real-space discretization on ``m_cells`` unit cells.

    Multiplication operators are diagonal on the collocation grid; the
    momentum operator and ``t(-i h d/dx)`` act through the discrete
    Fourier transform (grid momenta ``2 pi j / m_cells``), so the
    construction is spectrally exact up to the grid's momentum cutoff.
    Returns the pairing Hamiltonian and its ``Delta = 0`` counterpart;
    their spectra oracle the fiber path.

    Returns
    -------
    (ndarray, ndarray)
        Hermitian ``2 N_g x 2 N_g`` matrices, ``N_g = m_cells *
        n_grid_per_cell``.
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


# ---------------------------------------------------------------------------
# Field inner products (macroscopic side)
# ---------------------------------------------------------------------------


def field_inner_products(psi: TorusField, a: TorusField, w: TorusField
                         ) -> dict:
    """Spectral inner products entering the expansion coefficients.

    Returns ``norm2_sq`` = ||psi||_2^2, ``grad_plain_sq`` = ||psi'||_2^2,
    ``grad_covariant_sq`` = ||(-i d/dx + 2a) psi||_2^2, ``w_coupling`` =
    <psi| w |psi>, ``norm4_4`` = ||psi||_4^4, all on the unit torus.  The
    first four are forms of psi's coefficients with the operator matrices
    of the GL energy, and ``norm4_4`` is a mean over a collocation grid
    of at least ``4 N + 1`` points, so every value is exact.
    """
    c, n = psi.coeffs, psi.n_max

    def form(matrix):
        return float(np.vdot(c, matrix @ c).real)

    psi_g = psi.values_on_grid(specfun.next_fast_len(4 * n + 1))
    return {
        "norm2_sq": float(np.vdot(c, c).real),
        "grad_plain_sq": form(_covariant_square(TorusField.zero(0), n)),
        "grad_covariant_sq": form(_covariant_square(a, n)),
        "w_coupling": form(_coeff_matrix(w, psi.modes)),
        "norm4_4": float(np.mean(np.abs(psi_g) ** 4)),
    }


# ---------------------------------------------------------------------------
# Semiclassical observables
# ---------------------------------------------------------------------------


def _fiber_trace(op: FiberOperator, lam: np.ndarray, beta: float
                 ) -> tuple[float, float]:
    """``sum_j f(beta lam_j) - f(beta lam0_j)`` over one fiber, with ``lam``
    the spectrum of ``op`` and ``lam0`` that of its decoupled blocks, and
    the mass ``sum_j |f(beta lam_j)| + |f(beta lam0_j)|`` that bounds its
    summation roundoff (in units of ``eps``)."""
    f = specfun.fermi_f(beta * lam)
    f0 = specfun.fermi_f(beta * op.free_spectrum())
    return (float(np.sum(f - f0)),
            float(np.sum(np.abs(f)) + np.sum(np.abs(f0))))


def _resolve_basis(source, h, m_fibers, n_max) -> FiberBasis:
    support = _symbol_support(source)
    if n_max is None:
        n_max = default_mode_cutoff(h, support)
    basis = FiberBasis(h, n_max, m_fibers)
    basis.check_coverage(support)
    return basis


def _pair_block(matrix: np.ndarray, beta: float
                ) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues of ``matrix`` and the upper-right block of
    ``(1 + e^{beta H})^{-1}``, formed without the rest of the state."""
    lam, vec = np.linalg.eigh(matrix)
    rho = specfun.fermi_rho(beta * lam)
    n = matrix.shape[0] // 2
    return lam, (vec[:n] * rho) @ vec[n:].conj().T


def _partner_block(alpha: np.ndarray) -> np.ndarray:
    """Pair block at ``-xi`` from the one at ``xi``: ``J alpha^T J``."""
    return alpha[::-1, ::-1].T


def alpha_delta_distance(source: GapSolution, psi: TorusField, a: TorusField,
                         w: TorusField, h: float, *, m_fibers: int = 16,
                         n_max: int | None = None, workers: int = 1) -> dict:
    """Trace expansion and pair-block distance from one pass over the fibers.

    Each fiber is built once and diagonalized once (:func:`_pair_block`);
    its eigenvalues give the trace and its eigenvectors the pair block.

    Trace: ``lhs = (h^d / beta) Tr_puv [f(beta H_Delta) - f(beta H_0)]``
    (both diagonal entries), ``e1_term = h^2 E1``, ``e2_term = h^4 E2``
    with the coefficient blocks from :mod:`bcsgl.gl_coeffs` contracted
    against the spectral inner products of the fields, and ``residual =
    lhs - e1_term - e2_term``.  ``spec H(-xi) = -spec H(xi)`` and
    ``tr H_Delta = tr H_0``, so with ``f(-z) = f(z) - z`` the partner
    fiber ``-xi`` contributes the value of fiber ``xi`` again.

    Pair block: the leading operator is ``(h/2)(psi phi(-ih d/dx) +
    phi(-ih d/dx) psi)`` with ``phi(p) = (beta/2) g0(beta (p^2 - mu))
    t(p)``.  The operator-H1 norm weights row momenta by ``1 + h^2
    kappa^2``.  The partner fiber ``-xi`` has ``alpha - lead`` equal to
    ``J (alpha - lead)^T J`` at ``xi``, so its row-weighted sum is the
    column-weighted sum at ``xi``; its L2 sums equal those at ``xi``.

    Bloch quadrature: :func:`_bloch_ladder`, capped at ``m_fibers``.  It
    stops once ``lhs`` moved by at most ``lhs_floor = (h/beta) eps (1/M)
    sum_fibers sum_j (|f(beta lam_j)| + |f(beta lam0_j)|)``, the summation
    bound of the fiber traces, and each pair-block norm by at most
    ``1e-9`` of itself.

    ``beta`` is the source's critical inverse temperature.

    Parameters
    ----------
    source : GapSolution
    psi, a, w : TorusField
    h : float
    m_fibers : int
        Cap of the Bloch ladder.
    n_max : int
        Mode cutoff (auto-scaled coverage by default).

    Returns
    -------
    dict
        ``lhs``, ``e1_term``, ``e2_term``, ``residual``, ``h1_distance``,
        ``l2_distance``, ``l2_leading``, the run parameters, and the
        ladder's record (:data:`LADDER_KEYS`): ``m_fibers`` (the ``M``
        used), ``capped`` (cap reached unconverged), ``lhs_floor`` and the
        last change ``delta_<key>`` of each observable (``None`` when the
        cap is odd, a one-rung ladder).
    """
    t, mu, beta = _as_symbol(source)
    basis = _resolve_basis(source, h, m_fibers, n_max)
    modes = basis.modes

    def one(xi, partnered):
        op = build_fiber(basis, xi, psi, a, w, t, mu)
        lam, alpha = _pair_block(op.matrix, beta)
        tr, mass = _fiber_trace(op, lam, beta)
        kappa = op.momenta
        phi = (beta / 2.0) * specfun.g0(beta * (h * h * kappa * kappa - mu)) \
            * op.t_values
        lead = (h / 2.0) * _coeff_matrix(psi, modes) * (phi[:, None] + phi[None, :])
        diff_sq = np.abs(alpha - lead) ** 2
        h1_weight = 1.0 + (h * kappa) ** 2
        l2 = float(np.sum(diff_sq))
        lead_sq = float(np.sum(np.abs(lead) ** 2))
        own = (tr, mass, float(np.sum(h1_weight[:, None] * diff_sq)), l2,
               lead_sq)
        if not partnered:
            return (own,)
        partner = (tr, mass, float(np.sum(diff_sq * h1_weight[None, :])), l2,
                   lead_sq)
        return own, partner

    def quadrature(parts, m):
        tr, mass, h1_sq, l2_sq, lead_sq = (
            math.fsum(p[i] for p in parts) / m for i in range(5))
        q = {
            "lhs": (h / beta) * tr,
            "lhs_floor": (h / beta) * _TRACE_FLOOR_UNIT * mass,
            "h1_distance": math.sqrt(h1_sq),
            "l2_distance": math.sqrt(l2_sq),
            "l2_leading": math.sqrt(lead_sq),
        }
        return q, {"lhs": q["lhs_floor"],
                   **{k: _PAIR_REL_TOL * q[k] for k in _PAIR_NORMS}}

    q, ladder = _bloch_ladder(basis, one, workers, quadrature)

    ips = field_inner_products(psi, a, w)
    e1 = e1_constant(source, beta) * ips["norm2_sq"]
    blocks = e2_constants(source, beta)
    e2 = (
        blocks.c_grad_t * ips["grad_plain_sq"]
        + blocks.c_grad_psi * ips["grad_covariant_sq"]
        + blocks.c_W * ips["w_coupling"]
        + blocks.c_quartic * ips["norm4_4"]
    )
    e1_term = h * h * e1
    e2_term = h**4 * e2
    return {
        "lhs": q["lhs"],
        "e1_term": e1_term,
        "e2_term": e2_term,
        "residual": q["lhs"] - e1_term - e2_term,
        "h1_distance": q["h1_distance"],
        "l2_distance": q["l2_distance"],
        "l2_leading": q["l2_leading"],
        "h": h,
        "beta": beta,
        "n_max": basis.n_max,
        "lhs_floor": q["lhs_floor"],
        **ladder,
    }


_TRACE_KEYS = ("lhs", "e1_term", "e2_term", "residual", "h", "beta", "n_max",
               "m_fibers", "capped", "lhs_floor", "delta_lhs")


def semiclassical_trace(source: GapSolution, psi: TorusField, a: TorusField,
                        w: TorusField, h: float, *, m_fibers: int = 16,
                        n_max: int | None = None, workers: int = 1) -> dict:
    """Trace of ``f(beta H_Delta) - f(beta H_0)`` vs its h-expansion: the
    trace keys of :func:`alpha_delta_distance`, which computes them.

    Returns
    -------
    dict
        ``lhs``, ``e1_term``, ``e2_term``, ``residual`` and the run
        parameters.
    """
    res = alpha_delta_distance(source, psi, a, w, h, m_fibers=m_fibers,
                               n_max=n_max, workers=workers)
    return {k: res[k] for k in _TRACE_KEYS}


# ---------------------------------------------------------------------------
# Trial-state free energy (upper-bound route)
# ---------------------------------------------------------------------------


def _pair_interaction_quadrature(sol: GapSolution, h: float,
                                 p_modes: np.ndarray) -> np.ndarray:
    """``integral V(x) alpha0(x)^2 cos^2(h p x / 2) dx`` per mode."""
    u, density = sol.interaction_density
    out = np.empty(len(p_modes))
    for i, p in enumerate(p_modes):
        integrand = density * np.cos(0.5 * h * p * u) ** 2
        out[i] = 2.0 * np.trapezoid(integrand, u)
    return out


def trial_state_energy(sol: GapSolution, psi: TorusField, a: TorusField,
                       w: TorusField, h: float, *, m_fibers: int = 16,
                       n_max: int | None = None, workers: int = 1) -> dict:
    """Free-energy difference of the pairing trial state at
    ``beta = beta_c / (1 - h^2 D)``.

    Three exact terms:

    (i)   ``(1/2 beta) Tr_puv [f(beta H_Delta) - f(beta H_0)]`` over
          both diagonal entries,
    (ii)  ``-h^{2-d} (2 pi)^{-d} sum_p |psihat(p)|^2 integral
          V(x) alpha0(x)^2 cos^2(h p x/2) dx`` (real-space quadrature),
    (iii) ``integral V((x-y)/h) |lead(x,y) - alpha_Delta(x,y)|^2``
          with ``lead = (1/(2 sqrt(2 pi))) (psi(x)+psi(y))
          alpha0((x-y)/h)``, on an ``(x, u = (y-x)/h)`` band where the
          kernel is smooth.

    The partner fiber ``-xi`` contributes the trace term of fiber
    ``xi`` again and the band of ``J alpha^T J`` at ``-xi``.

    ``scaled = (sum of terms) / h^{4-d}`` approaches the GL energy
    minus its quartic offset as ``h`` decreases.

    Bloch quadrature: :func:`_bloch_ladder`, capped at ``m_fibers``, from
    the first ``M > 2 h u_max`` (``u_max`` the reach of ``V``): the
    ``M``-node grid is a supercell of ``M`` cells, half of which must hold
    the interaction range.  It stops once ``f_bcs_diff`` moved by at most
    ``f_bcs_diff_floor``, the summation bound of term (i), ``eps (1/M)
    sum_fibers sum_j (|f(beta lam_j)| + |f(beta lam0_j)|) / (2 beta)``.

    Parameters
    ----------
    sol : GapSolution
        Normalized (``D`` set); supplies ``t``, ``alpha0``, ``V``,
        ``beta_c`` and ``D``.
    psi, a, w : TorusField
    h : float
        Requires ``h^2 D < 1``.
    m_fibers : int
        Cap of the Bloch ladder; ``2 h u_max < m_fibers`` is required.

    Returns
    -------
    dict
        ``f_bcs_diff``, ``scaled``, the three terms, the half-resolution
        re-evaluation of term (iii) (``term_remainder_check``), the run
        parameters, and the ladder's record: ``m_fibers`` (the ``M``
        used), ``capped`` (cap reached unconverged), ``f_bcs_diff_floor``
        and ``delta_f_bcs_diff``, the last change of ``f_bcs_diff``
        (``None`` for a one-rung ladder).
        Quadrature sizes are four points per fastest oscillation
        (``u``) and four points per field mode (``x``).
    """
    if sol.D is None:
        raise ValueError("gap solution must be normalized (D set)")
    if h * h * sol.D >= 1.0:
        raise ValueError("h^2 D must be below 1 to set the temperature")
    beta = sol.beta_c / (1.0 - h * h * sol.D)
    basis = _resolve_basis(sol, h, m_fibers, n_max)
    modes = basis.modes

    u_max = sol.spec.reach()
    if h * u_max >= 0.5 * m_fibers:
        raise ValueError(
            "interaction range exceeds half the supercell; increase "
            "m_fibers (config key grids.fiber_m)"
        )

    # (x, u) band for the remainder term, sized from the mode content:
    # u resolves the microscopic oscillation of the pair kernel (four
    # points per fastest period, an odd count so every second node keeps
    # both ends), x the macroscopic fields.
    u_points = max(
        2 * math.ceil(2.0 * u_max * _symbol_support(sol) / math.pi) + 1, 129
    )
    x_points = max(64, 4 * max(psi.n_max, a.n_max, w.n_max) + 1)
    x_nodes = (np.arange(x_points) + 0.5) / x_points
    u_nodes = np.linspace(-u_max, u_max, u_points)
    u_weights = np.full(u_points, u_nodes[1] - u_nodes[0])
    u_weights[[0, -1]] *= 0.5
    coarse_w = np.full((u_points + 1) // 2, 2.0 * (u_nodes[1] - u_nodes[0]))
    coarse_w[[0, -1]] *= 0.5
    e1x = np.exp(2j * math.pi * np.outer(x_nodes, modes))

    def band_of(alpha, xi):
        # alpha_Delta(x, x + h u) = sum_{n n'} alpha[n, n']
        #   e^{2 pi i (n - n') x} e^{-i (2 pi n' + xi) h u}
        phases_u = np.exp(
            -1j * np.outer(2.0 * math.pi * modes + xi, h * u_nodes)
        )
        return ((e1x @ alpha) * e1x.conj()) @ phases_u

    def one(xi, partnered):
        op = build_fiber(basis, xi, psi, a, w, sol.t, sol.mu)
        lam, alpha = _pair_block(op.matrix, beta)
        tr, mass = _fiber_trace(op, lam, beta)
        own = (tr, mass, band_of(alpha, xi))
        if not partnered:
            return (own,)
        return own, (tr, mass, band_of(_partner_block(alpha), -xi))

    psi_mode_index = np.nonzero(psi.coeffs)[0]
    p_values = 2.0 * math.pi * psi.modes[psi_mode_index]
    weights = np.abs(psi.coeffs[psi_mode_index]) ** 2
    iv = _pair_interaction_quadrature(sol, h, p_values)
    term_ii = -h / (2.0 * math.pi) * float(np.dot(weights, iv))

    alpha0_u = sol.alpha0(u_nodes)
    psi_x = psi.evaluate(x_nodes)
    psi_xu = psi.evaluate(
        (x_nodes[:, None] + h * u_nodes[None, :]).ravel()
    ).reshape(x_points, u_points)
    lead = (psi_x[:, None] + psi_xu) * alpha0_u[None, :] / (2.0 * _SQRT_TWO_PI)
    v_u = sol.spec.v(np.abs(u_nodes))

    def quadrature(parts, m):
        tr, mass = (math.fsum(p[i] for p in parts) / m for i in range(2))
        band = sum(p[2] for p in parts) / m
        density = v_u[None, :] * np.abs(lead - band) ** 2
        term_i = tr / (2.0 * beta)
        term_iii = h * float(np.mean(density @ u_weights))
        q = {
            "f_bcs_diff": term_i + term_ii + term_iii,
            "f_bcs_diff_floor": _TRACE_FLOOR_UNIT * mass / (2.0 * beta),
            "term_trace": term_i,
            "term_remainder": term_iii,
            # built-in refinement check: every second (x, u) node
            "term_remainder_check":
                h * float(np.mean(density[::2, ::2] @ coarse_w)),
        }
        return q, {"f_bcs_diff": q["f_bcs_diff_floor"]}

    q, ladder = _bloch_ladder(basis, one, workers, quadrature,
                              above=2.0 * h * u_max)
    term_iii, term_iii_coarse = q["term_remainder"], q["term_remainder_check"]
    if abs(term_iii - term_iii_coarse) > max(1e-12, 0.1 * abs(term_iii)):
        warnings.warn(
            "remainder-term quadrature not converged: "
            f"{term_iii:.3e} vs {term_iii_coarse:.3e} at half resolution"
        )

    return {**q, "scaled": q["f_bcs_diff"] / h**3,
            "term_interaction": term_ii, "h": h, "beta": beta,
            "n_max": basis.n_max, **ladder}


# ---------------------------------------------------------------------------
# h-sweeps
# ---------------------------------------------------------------------------


def fit_order(h_values: Sequence[float], observed: Sequence[float]) -> float:
    """Log-log slope over the points above the roundoff floor
    ``_ROUNDOFF_FLOOR`` (100x unit roundoff), so sub-roundoff values
    never pollute the fit."""
    h_arr = np.asarray(h_values, dtype=float)
    obs = np.abs(np.asarray(observed, dtype=float))
    keep = obs > _ROUNDOFF_FLOOR
    if keep.sum() < 2:
        return float("nan")
    slope = np.polyfit(np.log(h_arr[keep]), np.log(obs[keep]), 1)[0]
    return float(slope)


def h_sweep(observable: Callable, h_list: Sequence[float], *,
            reference: float | None = None, label: str = "") -> dict:
    """Evaluate an observable along a decreasing h-list and fit its order.

    ``observable(h)`` returns a float or a ``(float, dict)`` pair whose
    dict is carried along as per-point extras.  Per-h failures are
    collected; the sweep aborts only when fewer than three values survive
    (all of them, for a list of fewer than three).

    Returns the sweep record, the ``"report"`` of a sweep artifact:
    ``h_values`` and ``observed`` of the kept points, their ``extras``,
    ``failures`` (``[h, repr(exc)]`` per dropped point), ``reference``,
    ``label``, the roundoff ``floor`` of the fit and ``fitted_order``,
    the :func:`fit_order` of ``observed - reference`` (of ``observed``
    without a reference).
    """
    h_list = list(h_list)
    if any(not 0.0 < h < 1.0 for h in h_list):
        raise ValueError("h values must lie in (0, 1)")
    if any(b >= a for a, b in zip(h_list, h_list[1:])):
        raise ValueError("h_list must be strictly decreasing")

    h_ok, values, extras, failures = [], [], [], []
    for h in h_list:
        try:
            result = observable(h)
        except Exception as exc:   # noqa: BLE001 -- aggregated below
            failures.append([h, repr(exc)])
            continue
        if isinstance(result, tuple):
            value, extra = result
        else:
            value, extra = result, {}
        h_ok.append(h)
        values.append(float(value))
        extras.append(extra)
    if len(h_ok) < min(3, len(h_list)):
        raise RuntimeError(
            f"sweep '{label}' kept {len(h_ok)} of {len(h_list)} points; "
            f"failures: {failures}"
        )
    gaps = values if reference is None else [v - reference for v in values]
    return {"h_values": h_ok, "observed": values,
            "fitted_order": fit_order(h_ok, gaps), "reference": reference,
            "label": label, "extras": extras, "floor": _ROUNDOFF_FLOOR,
            "failures": failures}
