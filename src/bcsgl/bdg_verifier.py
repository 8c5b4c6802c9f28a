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
spectrum at ``xi`` and the pair block there is ``J alpha(xi)^T J``
(:func:`_reflection`); every observable diagonalizes only ``xi = 0``,
the positive nodes and (for even ``M``) ``xi = pi`` -- ``floor(M/2) +
1`` fibers -- and folds in each partner's contribution without another
eigensolve.  The fibers ``xi = 0`` and ``xi = pi`` are their own
partners, ``xi = pi`` through the reflection ``n -> -1 - n`` (``kappa_n
-> -kappa_n``), which leaves mode ``n_max`` without a mirror.  The map
holds window by window, so on a partition symmetric under the reflection
their pass solves one window of each mirror pair and derives the other
(:func:`_fiber_pass`).

Everything is exact-spectral: the kinetic term, the field couplings
(finite Fourier series), and the pair symbol ``t`` (evaluated through
its smooth extension) introduce no grid discretization error, so the
only truncation knobs are the fiber mode cutoff, the number of fibers,
and the quadratures for the interaction terms.  A dense real-space
supercell discretization of the same operator serves as the module's
master oracle in the tests.

Each fiber is built once per observable call and goes through one
windowed spectral pass (:func:`_fiber_pass`) that gives both the trace
term and the pair block: :func:`alpha_delta_distance` returns the trace
expansion and the pair-block distance from one pass (and
:func:`semiclassical_trace` is its trace-key view), and
:func:`trial_state_energy` takes its trace term and its band from the
same pass.  A fiber's couplings and its Gibbs state fall off fast in
mode distance, so the pass cuts the modes into cores of about
``_WINDOW_CORE`` modes, pads each with buffer modes, and diagonalizes
each window's particle-hole matrix and its two free blocks with dense
``eigh`` calls.  A core's trace difference is the Daleckii-Krein sum of
its window (:func:`_window`), exact for the window and free of the
kinetic scale ``||H||`` that limits plain sums of Fermi weights.  The
buffer starts at ``_WINDOW_BUFFER`` modes and doubles while the
partition's leak exceeds ``_WINDOW_LEAK_BOUND``, up to one window on the
whole fiber, which is the dense solve (:func:`_window_spans`).  The leak
is the larger of the pair block's weight on the outermost buffer columns
and ``beta`` times the couplings a core has beyond its buffer (a field
mode farther than the buffer), both relative to ``max |alpha|``; a
doubling whose coupling part is already over the bound is skipped.
Every point records its ``window`` (core, buffer and worst leak).  The
couplings the windows drop are below that bound; for the GL state of the
built-in config they are its Fourier coefficients ``|psi_n| <= 1e-20``
at ``|n| >= 9``, far below every floor.

No ``N x N`` array is built on the way.  A fiber (:class:`FiberOperator`)
keeps its momenta, the pair symbol there and the fields, and assembles the
blocks of each window from the fields' Fourier coefficients
(:meth:`FiberOperator.blocks`); the pair block is kept as each window's
core rows, and the pair-block norms (:func:`_pair_sums`) and the
trial-state band (:func:`_pair_band`) are summed one row block at a time.
Each block is stored real when its data are (see :func:`build_fiber`).  With ``A = 0`` and an even ``W`` the
GL minimizer is real, so the trial-state energy diagonalizes real
symmetric windows with LAPACK's real symmetric eigensolvers, several
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
is within the floor of every observable: ``eps`` times the mass of the
Fermi weights for ``lhs`` and ``f_bcs_diff``, a relative ``1e-9`` for the
pair-block norms.  A point that reaches the cap unconverged is recorded
and warned about.

Every observable folds its fibers serially, in node order, on the
calling thread (:func:`_fold_fibers`).  A command runs its h points in
parallel, one point per thread, so a point's fibers never leave its
thread and its value does not depend on how many points run at once.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

import numpy as np

from . import PAIR_NORMS, specfun
from .gap_solver import GapSolution
from .gl_coeffs import e1_constant, e2_constants
from .gl_minimizer import (TorusField, _coeff_matrix, _covariant_square,
                           _field_square)

__all__ = [
    "FiberBasis",
    "FiberOperator",
    "build_fiber",
    "field_inner_products",
    "default_mode_cutoff",
    "semiclassical_trace",
    "alpha_delta_distance",
    "trial_state_energy",
]

_SQRT_TWO_PI = math.sqrt(2.0 * math.pi)
#: Roundoff unit of the fiber-trace floors that stop the Bloch ladder.
_TRACE_FLOOR_UNIT = float(np.finfo(float).eps)
#: Relative change at which the ladder's pair-block norms have settled;
#: their roundoff changes are below ``4e-11`` relative.
_PAIR_REL_TOL = 1e-9
#: Modes per core of the windowed fiber pass (:func:`_fiber_pass`).
_WINDOW_CORE = 32
#: Buffer modes on each side of a core in a fiber's first partition.
_WINDOW_BUFFER = 8
#: Largest window leak a fiber pass keeps (:func:`_fiber_pass`).
_WINDOW_LEAK_BOUND = 1e-12
#: Modes per product of the trial-state band (:func:`_pair_band`).
_BAND_MODES = 64


# ---------------------------------------------------------------------------
# Pair-symbol plumbing
# ---------------------------------------------------------------------------


def _check_source(source) -> None:
    """The type guard that each fiber observable passes first: they take
    the pair symbol, ``mu`` and ``beta_c`` from a gap solution."""
    if not isinstance(source, GapSolution):
        raise TypeError(f"expected a GapSolution, got {type(source).__name__}")


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
        ``floor(M/2) + 1`` nodes (:attr:`half_nodes`).  ``xi = 0`` and
        ``xi = pi`` are their own partners, window by window, and their
        passes solve about half of their windows (:func:`_fiber_pass`).
        The grids nest:
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
    """One fiber of the pairing Hamiltonian, kept as the data of its blocks.

    ``momenta`` are the fiber momenta ``kappa_n``, ``t_values`` the pair
    symbol ``t(h kappa_n)`` at them, ``psi``, ``a`` and ``w`` the fields
    and ``h`` and ``mu`` the scale and the chemical potential.
    :meth:`blocks` assembles the particle, pairing and hole blocks of any
    mode range from them (see :func:`build_fiber`).  The fiber pass
    (:func:`_fiber_pass`) asks only for its windows, so a sweep builds no
    ``N x N`` array.  ``coupling[d]`` bounds the blocks' entries between
    modes ``d`` apart, from the fields' Fourier coefficients; the fiber
    pass weighs the couplings its windows drop with it.
    """

    momenta: np.ndarray
    t_values: np.ndarray
    psi: TorusField
    a: TorusField
    w: TorusField
    h: float
    mu: float

    @functools.cached_property
    def a2(self) -> TorusField:
        """The field ``a^2``, by exact convolution."""
        return _field_square(self.a)

    @functools.cached_property
    def coupling(self) -> np.ndarray:
        """``coupling[d]``, ``d = 0 .. N - 1``: the larger of the bounds
        ``h^2 (2 max|kappa| |a_d| + |(a^2)_d| + |w_d|)`` on the particle
        and hole entries and ``h max t |psi_d|`` on the pairing entries
        ``d`` modes apart."""
        h, n = self.h, len(self.momenta)
        reach = 2.0 * np.abs(self.momenta).max()
        return np.maximum(
            h * h * (reach * _mode_profile(self.a, n)
                     + _mode_profile(self.a2, n) + _mode_profile(self.w, n)),
            h * np.abs(self.t_values).max() * _mode_profile(self.psi, n))

    @property
    def xi(self) -> float:
        """The Bloch momentum: the momentum of mode 0, the middle one."""
        return float(self.momenta[len(self.momenta) // 2])

    def blocks(self, lo: int, hi: int) -> tuple:
        """``(K, Delta, M22)`` on the modes ``lo:hi``, each in the dtype of
        its data; bit for bit the ``lo:hi`` slice of the full blocks.

        Raises ``FloatingPointError`` when ``K`` or ``M22`` drifts from
        Hermitian by more than ``1e-12`` of the largest entry (at least 1).
        """
        h, kappa = self.h, self.momenta[lo:hi]
        # the tables depend on mode differences alone
        modes = np.arange(lo, hi)
        kinetic = h * h * kappa * kappa - self.mu
        cross = h * h * (kappa[:, None] + kappa[None, :]) \
            * _coeff_matrix(self.a, modes)
        a2_mat = h * h * _coeff_matrix(self.a2, modes)
        w_mat = h * h * _coeff_matrix(self.w, modes)
        k_block = np.diag(kinetic) + cross + a2_mat + w_mat
        m22 = -np.diag(kinetic) + cross - a2_mat - w_mat
        tk = self.t_values[lo:hi]
        delta = -(h / 2.0) * _coeff_matrix(self.psi, modes) \
            * (tk[:, None] + tk[None, :])

        # the off-diagonal blocks are adjoints by construction, so the
        # diagonal blocks carry all of the fiber's drift
        drift = max(np.abs(b - b.conj().T).max() for b in (k_block, m22))
        scale = max(1.0, *(np.abs(b).max() for b in (k_block, delta, m22)))
        if drift > 1e-12 * scale:
            raise FloatingPointError(
                f"fiber at xi={self.xi:.6f} lost Hermiticity by {drift:.3e}"
            )
        return k_block, delta, m22


def _bdg_matrix(k_block: np.ndarray, delta: np.ndarray,
                m22: np.ndarray) -> np.ndarray:
    """``[[K, Delta], [Delta^*, M22]]`` in the dtype of its blocks."""
    n = len(k_block)
    full = np.empty((2 * n, 2 * n), dtype=np.result_type(k_block, delta, m22))
    full[:n, :n], full[:n, n:] = k_block, delta
    full[n:, :n], full[n:, n:] = delta.conj().T, m22
    return full


def build_fiber(basis: FiberBasis, xi: float, psi: TorusField,
                a: TorusField, w: TorusField, t: Callable, mu: float
                ) -> FiberOperator:
    """The fiber at Bloch momentum ``xi``: its momenta, the pair symbol at
    them and the fields, from which :meth:`FiberOperator.blocks` assembles
    the blocks of any mode range.

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
    kappa = basis.momenta(xi)
    tk = np.asarray(t(basis.h * kappa), dtype=float)
    return FiberOperator(kappa, tk, psi, a, w, basis.h, mu)


def _mode_profile(f: TorusField, n: int) -> np.ndarray:
    """``max(|f_d|, |f_-d|)`` for the mode distances ``d = 0 .. n - 1``."""
    c = np.abs(f.coeffs)
    keep = min(f.n_max, n - 1) + 1
    profile = np.zeros(n)
    profile[:keep] = np.maximum(c[f.n_max:f.n_max + keep],
                                c[f.n_max::-1][:keep])
    return profile


# ---------------------------------------------------------------------------
# Maps over the Bloch grid
# ---------------------------------------------------------------------------


def _fold_fibers(basis: FiberBasis, one: Callable) -> list:
    """Per-fiber contributions over the whole Bloch grid.

    ``one(xi, mirror)`` runs on the half grid ``0 <= xi <= pi`` and
    returns a tuple: the contribution of fiber ``xi`` and, when ``mirror``
    is ``None`` (``0 < xi < pi``), that of its particle-hole partner
    ``-xi``, derived from fiber ``xi`` without another eigensolve
    (:func:`_reflection`).  The fibers ``xi = 0`` and ``xi = pi`` are
    their own partners: ``mirror`` is the shift ``s`` of the reflection
    ``n -> -n - s`` that maps their modes onto themselves, 0 for the first
    node and 1 for the node ``k = M/2`` (told apart by index, not by
    comparing ``xi`` with ``pi``; :func:`_fiber_pass`).  The result lists
    one contribution per node of ``basis.xi_nodes``.  The fibers run in
    node order on the calling thread, the thread of their h point.  A
    failing eigensolver is reported with the fiber's ``xi``.
    """
    m = basis.m_fibers

    def run(k, xi):
        mirror = 0 if k == 0 else 1 if 2 * k == m else None
        try:
            return one(xi, mirror)
        except np.linalg.LinAlgError as exc:
            raise RuntimeError(
                f"eigensolver failed on the fiber at xi={xi:.6f}"
            ) from exc

    return [c for k, xi in enumerate(basis.half_nodes) for c in run(k, xi)]


def _bloch_ladder(basis: FiberBasis, one: Callable, quadrature: Callable,
                  above: float = 0.0) -> tuple[dict, dict]:
    """The Bloch quadrature of every sweep: nested doubling of the grid up
    to the cap ``basis.m_fibers``.

    ``M`` runs over ``c0, 2 c0, 4 c0, ...`` with ``c0`` the odd part of
    the cap, from the first ``M > above``.  Every node is folded once
    (:func:`_fold_fibers` with ``one``), and ``quadrature(parts, M)``
    turns the contributions of the ``M``-node grid into its values
    ``Q_M`` (bit-identical to a fixed ``M``-node pass) and the floor of
    each value the ladder compares.
    The ladder stops at the first ``M`` where every compared value moved
    by at most its floor against ``Q_{M/2}``, or at the cap.  A point
    that reaches the cap unconverged, or whose ladder has one rung, emits
    a ``UserWarning``.

    The trace floors of the sweeps are ``eps`` times the mass of their
    Fermi weights, the summation bound of plain eigenvalue sums.  The
    windowed Daleckii-Krein sums (:func:`_window`) are exact far below
    it, but the stop keeps it as a stated tolerance: a floor at their own
    error would make the ladder climb toward its cap.

    Returns
    -------
    (dict, dict)
        ``Q_M`` and the ladder's record: ``m_fibers`` (the ``M`` used),
        ``capped`` (cap reached unconverged) and ``delta_<key>``, the
        last change of each compared value (``None`` for a one-rung
        ladder).
    """
    done = {}

    def once(xi, mirror):
        if xi not in done:
            done[xi] = one(xi, mirror)
        return done[xi]

    cap = basis.m_fibers
    m = cap // (cap & -cap)
    while m <= above and 2 * m <= cap:
        m *= 2
    coarse = None
    while True:
        fine, floors = quadrature(
            _fold_fibers(replace(basis, m_fibers=m), once), m)
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


def _resolve_basis(source, h, m_fibers, n_max) -> FiberBasis:
    support = source.momentum_support()
    if n_max is None:
        n_max = default_mode_cutoff(h, support)
    basis = FiberBasis(h, n_max, m_fibers)
    basis.check_coverage(support)
    return basis


class _FiberPass(NamedTuple):
    """What one fiber gives every observable (:func:`_fiber_pass`)."""

    #: ``sum_j f(beta lam_j) - f(beta lam0_j)`` over the fiber.
    trace: float
    #: ``sum_j |f(beta lam_j)| + |f(beta lam0_j)|``, the summation mass.
    mass: float
    #: The pair block, the upper-right block of ``(1 + e^{beta H})^{-1}``,
    #: as ``(row, col, rows)`` blocks: ``alpha[row:row + len(rows),
    #: col:col + rows.shape[1]] = rows``, one per window (its core rows),
    #: and 0 elsewhere.
    alpha: tuple
    #: ``(core, buffer, leak)`` of the window partition used.
    window: tuple


def _window_spans(n: int, buffer: int, mirror: int | None = None) -> list:
    """``(lo, hi, a, b)`` per window of an ``n``-mode fiber: modes
    ``lo:hi``, the core ``a:b`` padded by ``buffer`` modes on each side.
    The ``ceil(n / _WINDOW_CORE)`` cores split the modes evenly; a fiber
    of more than one core that reflects onto itself (``mirror``) gets
    cores symmetric under its reflection (:func:`_mirror_edges`) instead.
    When one window covers the fiber, or the windows' eigensolves would
    cost more than the whole fiber's (``sum w^3 >= n^3``), the one window
    on the whole fiber is the partition."""
    cores = -(-n // _WINDOW_CORE)
    if mirror is None or cores == 1:
        edges = [k * n // cores for k in range(cores + 1)]
    else:
        edges = _mirror_edges(n, cores, mirror)
    spans = [(max(0, a - buffer), min(n, b + buffer), a, b)
             for a, b in zip(edges, edges[1:])]
    if sum((hi - lo) ** 3 for lo, hi, _, _ in spans) >= n ** 3:
        return [(0, n, 0, n)]
    return spans


def _mirror_edges(n: int, cores: int, shift: int) -> list:
    """Core edges of an ``n``-mode fiber whose reflection ``i -> n - 1 -
    shift - i`` maps its modes onto themselves (``xi = 0``: ``shift`` 0;
    ``xi = pi``: ``shift`` 1, where mode ``n - 1`` has no mirror).

    The reflection maps ``[-shift, n)`` onto itself.  That range is cut
    into the fewest cores, at least ``cores``, whose sizes differ by at
    most one, lie symmetric under the reflection and are no larger than
    the ``ceil(n / cores)`` of the generic split; an odd range takes an
    odd count, so that its middle mode is the middle of a core.  The
    virtual mode ``-1`` then leaves the first core, so at ``xi = pi`` the
    first and last cores are not mirrors.
    """
    span = n + shift
    largest = -(-n // cores)
    while span % 2 > cores % 2 or -(-span // cores) > largest:
        cores += 1
    half = [(2 * k * span + cores) // (2 * cores)
            for k in range(cores // 2 + 1)]
    edges = half + [span - e for e in reversed(half[:(cores + 1) // 2])]
    return [max(0, e - shift) for e in edges]


def _window_mirrors(spans: list, n: int, mirror: int | None) -> list:
    """Per window of ``spans``, the index of the window that the fiber's
    reflection ``i -> n - 1 - mirror - i`` maps it onto, or ``None``."""
    if mirror is None:
        return [None] * len(spans)
    end = n - mirror
    index = {span: j for j, span in enumerate(spans)}
    return [index.get((end - hi, end - lo, end - b, end - a))
            for lo, hi, a, b in spans]


def _window(op: FiberOperator, beta: float, lo: int, hi: int, a: int,
            b: int, columns: bool = False) -> tuple:
    """Trace, mass, pair-block rows and (when ``columns``) pair-block
    columns of the core ``a:b`` of the window on the modes ``lo:hi``.

    With ``H_w = H0_w + Gamma`` (``Gamma`` the window's pairing blocks),
    eigenpairs ``(lam, U)`` of ``H_w`` and ``(mu, V)`` of its two free
    blocks, ``U^* (f(beta H_w) - f(beta H0_w)) V = F o (U^* Gamma V)`` with
    ``F_jk = beta f[beta lam_j, beta mu_k]`` (Daleckii-Krein), so the core
    diagonal sums to ``sum_jk F_jk G_jk O_jk``, ``G = U^* Gamma V`` and
    ``O = U_c^T conj(V_c)`` over the core rows.  No term carries the
    kinetic scale ``||H||``.  The mass is the core diagonal of
    ``|f(beta H_w)| + |f(beta H0_w)|``.  The columns (``None`` unless
    asked for) are the window's pair block on the core columns, from
    which :func:`_fiber_pass` derives the rows of the mirror window.
    """
    k, delta, m22 = op.blocks(lo, hi)
    w, core = hi - lo, slice(a - lo, b - lo)
    lam, u = np.linalg.eigh(_bdg_matrix(k, delta, m22))
    up, uh = u[:w], u[w:]
    z = beta * lam
    # F o Re(G o O), one free block's columns at a time, so that the
    # window's scratch is a few w x 2w arrays: the particle block couples
    # to the hole rows of U through Delta^*, the hole block to the
    # particle rows through Delta
    terms = np.empty((2 * w, 2 * w))
    z0, in_core0 = [], []

    def free_block(cols, block, gamma, u_gamma, u_core):
        mu, v = np.linalg.eigh(block)
        z0.append(beta * mu)
        f_dd = specfun.divided_difference(z[:, None], z0[-1][None, :])
        g = u_gamma.conj().T @ (gamma @ v)
        g *= u_core[core].T @ v[core].conj()
        np.multiply(f_dd, g.real, out=terms[:, cols])
        in_core0.append(np.sum(np.abs(v[core]) ** 2, axis=0))

    free_block(slice(0, w), k, delta.conj().T, uh, up)
    free_block(slice(w, 2 * w), m22, delta, up, uh)
    trace = beta * float(np.sum(terms))
    in_core = np.sum(np.abs(up[core]) ** 2 + np.abs(uh[core]) ** 2, axis=0)
    mass = -float(np.dot(specfun.fermi_f(z), in_core)
                  + np.dot(specfun.fermi_f(np.concatenate(z0)),
                           np.concatenate(in_core0)))
    rho = specfun.fermi_rho(z)
    rows = (up[core] * rho) @ uh.conj().T
    cols = (up * rho) @ uh[core].conj().T if columns else None
    return trace, mass, rows, cols


def _reflection(op: FiberOperator, beta: float, part: tuple, shift: int = 0,
                core: slice = slice(None)) -> tuple:
    """``(trace, mass, blocks)`` of the particle-hole mirror of ``part``,
    the ``(trace, mass, blocks)`` of the core modes ``core`` of ``op``,
    under the reflection ``i -> N - 1 - shift - i`` of its ``N`` modes
    (``J``): the partner fiber ``-xi`` of a whole fiber pass (``shift``
    0), or the mirror of a window of a fiber that is its own partner
    (:func:`_fiber_pass`).

    The mirror of ``H`` is ``-H`` up to ``J``, the particle-hole swap and
    conjugation, and ``f(-z) = f(z) - z``.  So the trace difference is the
    same (``H`` and ``H_0`` have the same diagonal), and the mass, the
    core diagonal of ``|f(beta H)| + |f(beta H_0)|`` with ``f < 0``, grows
    by ``2 beta sum_core (K_ii + M22_ii) = 8 beta h^2 a_0 sum_core
    kappa_i``: only the cross term of the constant Fourier mode ``a_0`` of
    ``a`` stays on that diagonal, so with ``a_0 = 0`` the mass is the
    same.  The pair blocks are ``J b^T J`` of each block ``b`` (the blocks
    as in :class:`_FiberPass`).
    """
    trace, mass, blocks = part
    end = len(op.momenta) - shift
    a0 = float(op.a.coeffs[op.a.n_max].real)
    mass += 8.0 * beta * op.h * op.h * a0 * math.fsum(op.momenta[core])
    return trace, mass, tuple(
        (end - col - rows.shape[1], end - row - len(rows), rows[::-1, ::-1].T)
        for row, col, rows in blocks)


def _fiber_pass(op: FiberOperator, beta: float,
                mirror: int | None = None) -> _FiberPass:
    """Trace difference, its mass and the pair block of one fiber from
    windowed eigensolves (:func:`_window`).

    The windows start with ``_WINDOW_BUFFER`` buffer modes.  Their leak,
    relative to ``max |alpha|``, is the larger of two measures:
    ``max |alpha|`` on the outermost buffer columns of each window (those
    that cut the fiber), and ``beta`` times ``2 sum_{d > buffer}
    coupling[d]``, a norm bound of the couplings that the core rows have
    beyond their window: dropping them moves the Gibbs state by about
    that much times the Fermi function's slope, at most ``1/4``.  While the
    leak exceeds ``_WINDOW_LEAK_BOUND``, the buffer doubles, up to one
    window on the whole fiber, which is the dense solve; so a field mode
    farther than the buffer never goes unseen.  The coupling part falls
    only as the buffer grows, so after a pass over the bound the next
    buffer is the smallest doubling whose coupling part is within it: the
    partitions in between would fail on it before their eigensolves.

    A fiber that is its own particle-hole partner (``xi = 0`` and ``xi =
    pi``, :func:`_fold_fibers`) has ``mirror``, the shift of the
    reflection ``n -> -n - mirror`` of its modes, under which ``H`` maps
    to ``-H`` window by window.  Its partition is symmetric under that
    reflection (:func:`_window_spans`), and of each pair of mirror windows
    only the first is solved: the second has its trace, its mass and the
    core rows ``J cols^T J`` from the trace, the mass and the core columns
    ``cols`` of the first, as a partner fiber has (:func:`_reflection`).
    A window that is its own mirror, and the two end windows at ``xi =
    pi``, are solved directly.

    Each window assembles its own blocks (:meth:`FiberOperator.blocks`),
    and the pair block is kept as the core rows of each window (0 beyond
    it), so no ``N x N`` array is built short of the one-window fallback.
    """
    n = len(op.momenta)

    def far(buffer):
        return 2.0 * beta * float(op.coupling[buffer + 1:].sum())

    buffer = _WINDOW_BUFFER
    while True:
        spans = _window_spans(n, buffer, mirror)
        traces, masses, alpha, edge, solved = [], [], [], 0.0, {}
        for i, ((lo, hi, a, b), twin) in enumerate(
                zip(spans, _window_mirrors(spans, n, mirror))):
            if twin is not None and twin < i:
                trace, mass, ((_, _, rows),) = solved.pop(twin)
            else:
                trace, mass, rows, cols = _window(
                    op, beta, lo, hi, a, b, twin is not None and twin > i)
                if cols is not None:
                    solved[i] = _reflection(
                        op, beta, (trace, mass, ((lo, a, cols),)), mirror,
                        slice(a, b))
            traces.append(trace)
            masses.append(mass)
            alpha.append((a, lo, rows))
            cut = [j for j, inner in ((0, lo > 0), (-1, hi < n)) if inner]
            if cut:
                edge = max(edge, float(np.abs(rows[:, cut]).max()))
        if len(spans) > 1:
            edge = max(edge, far(buffer))
        scale = max(float(np.abs(block).max()) for _, _, block in alpha)
        leak = edge / scale if scale > 0.0 else 0.0
        if leak <= _WINDOW_LEAK_BOUND or len(spans) == 1:
            break
        buffer *= 2
        while far(buffer) / scale > _WINDOW_LEAK_BOUND:
            buffer *= 2
    window = (max(b - a for _, _, a, b in spans),
              0 if len(spans) == 1 else buffer, leak)
    return _FiberPass(math.fsum(traces), math.fsum(masses), tuple(alpha),
                      window)


def _window_record(windows) -> dict:
    """The ``window`` record of a point from the ``(core, buffer, leak)``
    of its fibers: the largest core and buffer and the worst leak."""
    cores, buffers, leaks = zip(*windows)
    return {"core": max(cores), "buffer": max(buffers), "leak": max(leaks)}


def _pair_sums(op: FiberOperator, alpha: tuple, beta: float) -> tuple:
    """The pair-block sums of one fiber: the row-weighted and the
    column-weighted ``sum (1 + h^2 kappa^2) |alpha - lead|^2``, the plain
    ``sum |alpha - lead|^2`` and ``sum |lead|^2``, with ``lead = (h/2)
    psihat(n - n') (phi_n + phi_n')`` (:func:`alpha_delta_distance`).

    ``alpha`` is the pass's blocks (:class:`_FiberPass`).  The sums run
    one core row block at a time, in ``O(core N)`` memory: ``lead`` has
    entries beyond a window's columns wherever ``psi`` has modes, where
    ``alpha`` is 0.
    """
    h, kappa = op.h, op.momenta
    phi = (beta / 2.0) * specfun.g0(beta * (h * h * kappa * kappa - op.mu)) \
        * op.t_values
    h1_weight = 1.0 + (h * kappa) ** 2
    modes = np.arange(len(kappa))
    sums = []
    for row, col, rows in alpha:
        end = row + len(rows)
        lead = (h / 2.0) * _coeff_matrix(op.psi, modes[row:end], modes) \
            * (phi[row:end, None] + phi[None, :])
        lead_sq = np.sum(np.abs(lead) ** 2)
        diff = lead.astype(np.result_type(lead, rows), copy=False)
        diff[:, col:col + rows.shape[1]] -= rows
        diff_sq = np.abs(diff) ** 2
        sums.append((np.sum(h1_weight[row:end, None] * diff_sq),
                     np.sum(diff_sq * h1_weight[None, :]),
                     np.sum(diff_sq), lead_sq))
    return tuple(math.fsum(float(s[i]) for s in sums) for i in range(4))


def _pair_band(alpha: tuple, e1x: np.ndarray,
               phases_u: np.ndarray) -> np.ndarray:
    """``((e1x @ alpha) * conj(e1x)) @ phases_u``, with ``e1x @ alpha``
    accumulated block by block (the blocks as in :class:`_FiberPass`) and
    the last product summed over ``_BAND_MODES`` modes at a time.

    OpenBLAS (0.3.31) cuts a complex matrix product's sum over more than
    128 terms in two at a point that depends on the BLAS thread count, so
    one product over all ``N`` modes has bits that depend on it; a
    product over 64 modes is one pass at any thread count, and the passes
    are added in mode order.
    """
    e1x_alpha = np.zeros(e1x.shape, complex)
    for row, col, rows in alpha:
        e1x_alpha[:, col:col + rows.shape[1]] += \
            e1x[:, row:row + len(rows)] @ rows
    e1x_alpha *= e1x.conj()
    return sum(e1x_alpha[:, n:n + _BAND_MODES] @ phases_u[n:n + _BAND_MODES]
               for n in range(0, len(phases_u), _BAND_MODES))


def _expansion_constants(source: GapSolution, beta: float) -> tuple:
    """``E1`` per ``||psi||_2^2`` and the ``E2`` blocks of ``source`` at
    ``beta`` (:func:`gl_coeffs.e1_constant`, :func:`gl_coeffs.e2_constants`).

    Every h point of a sweep contracts the same constants, so they are
    computed once per solution and ``beta`` and kept in the solution's
    instance dictionary, which lives as long as it does; no dataclass
    field holds them, so neither ``replace`` nor ``to_dict`` carries them.
    """
    memo = vars(source).setdefault("_expansion_constants", {})
    if beta not in memo:
        memo[beta] = e1_constant(source, beta), e2_constants(source, beta)
    return memo[beta]


def alpha_delta_distance(source: GapSolution, psi: TorusField, a: TorusField,
                         w: TorusField, h: float, *, m_fibers: int = 16,
                         n_max: int | None = None) -> dict:
    """Trace expansion and pair-block distance from one pass over the fibers.

    Each fiber is built once and goes through one windowed spectral pass
    (:func:`_fiber_pass`), which gives its trace difference, the mass of
    its Fermi weights and its pair block.

    Trace: ``lhs = (h^d / beta) Tr_puv [f(beta H_Delta) - f(beta H_0)]``
    (both diagonal entries), ``e1_term = h^2 E1``, ``e2_term = h^4 E2``
    with the coefficient blocks from :mod:`bcsgl.gl_coeffs` contracted
    against the spectral inner products of the fields, and ``residual =
    lhs - e1_term - e2_term``.  ``spec H(-xi) = -spec H(xi)`` and
    ``tr H_Delta = tr H_0``, so with ``f(-z) = f(z) - z`` the partner
    fiber ``-xi`` contributes the value of fiber ``xi`` again, and its
    mass follows from that of fiber ``xi`` (:func:`_reflection`).

    Pair block: the leading operator is ``(h/2)(psi phi(-ih d/dx) +
    phi(-ih d/dx) psi)`` with ``phi(p) = (beta/2) g0(beta (p^2 - mu))
    t(p)``.  The operator-H1 norm weights row momenta by ``1 + h^2
    kappa^2``.  The partner fiber ``-xi`` has ``alpha - lead`` equal to
    ``J (alpha - lead)^T J`` at ``xi``, so its row-weighted sum is the
    column-weighted sum at ``xi``; its L2 sums equal those at ``xi``.

    Bloch quadrature: :func:`_bloch_ladder`, capped at ``m_fibers``.  It
    stops once ``lhs`` moved by at most ``lhs_floor = (h/beta) eps (1/M)
    sum_fibers sum_j (|f(beta lam_j)| + |f(beta lam0_j)|)``, the summation
    bound of plain sums of the fibers' Fermi weights (kept as the stop's
    tolerance; the windowed sums are exact far below it), and each
    pair-block norm by at most ``1e-9`` of itself.

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
        ``lhs``, ``e1_term``, ``e2_term``, ``residual``,
        ``residual_over_floor`` (``|residual| / lhs_floor``, how far the
        residual sits above the roundoff of ``lhs``), ``h1_distance``,
        ``l2_distance``, ``l2_leading``, the run parameters, and the
        ladder's record (:data:`bcsgl.LADDER_KEYS`): ``m_fibers`` (the ``M``
        used), ``capped`` (cap reached unconverged), ``lhs_floor`` and the
        last change ``delta_<key>`` of each observable (``None`` when the
        cap is odd, a one-rung ladder); and ``window``, the fibers' window
        partition: the largest ``core`` and ``buffer`` in modes and the
        worst ``leak`` (:func:`_fiber_pass`).
    """
    return _trace_and_pair(source, psi, a, w, h, m_fibers, n_max,
                           ("lhs", *PAIR_NORMS))


def _trace_and_pair(source: GapSolution, psi: TorusField, a: TorusField,
                    w: TorusField, h: float, m_fibers: int,
                    n_max: int | None, compared: tuple) -> dict:
    """The pass of :func:`alpha_delta_distance`, whose Bloch ladder
    compares the values named in ``compared`` (``"lhs"`` and those of
    :data:`PAIR_NORMS`) and records their ``delta_<key>``."""
    _check_source(source)
    t, mu, beta = source.t, source.mu, source.beta_c
    basis = _resolve_basis(source, h, m_fibers, n_max)

    def one(xi, mirror):
        op = build_fiber(basis, xi, psi, a, w, t, mu)
        tr, mass, alpha, window = _fiber_pass(op, beta, mirror)
        h1_row, h1_col, l2, lead_sq = _pair_sums(op, alpha, beta)
        own = (tr, mass, h1_row, l2, lead_sq, window)
        if mirror is not None:
            return (own,)
        tr, mass, _ = _reflection(op, beta, (tr, mass, alpha))
        return own, (tr, mass, h1_col, l2, lead_sq, window)

    def quadrature(parts, m):
        tr, mass, h1_sq, l2_sq, lead_sq = (
            math.fsum(p[i] for p in parts) / m for i in range(5))
        q = {
            "lhs": (h / beta) * tr,
            "lhs_floor": (h / beta) * _TRACE_FLOOR_UNIT * mass,
            "h1_distance": math.sqrt(h1_sq),
            "l2_distance": math.sqrt(l2_sq),
            "l2_leading": math.sqrt(lead_sq),
            "window": _window_record(p[5] for p in parts),
        }
        floors = {"lhs": q["lhs_floor"],
                  **{k: _PAIR_REL_TOL * q[k] for k in PAIR_NORMS}}
        return q, {k: floors[k] for k in compared}

    q, ladder = _bloch_ladder(basis, one, quadrature)

    ips = field_inner_products(psi, a, w)
    e1_per_norm, blocks = _expansion_constants(source, beta)
    e1 = e1_per_norm * ips["norm2_sq"]
    e2 = (
        blocks.c_grad_t * ips["grad_plain_sq"]
        + blocks.c_grad_psi * ips["grad_covariant_sq"]
        + blocks.c_W * ips["w_coupling"]
        + blocks.c_quartic * ips["norm4_4"]
    )
    e1_term = h * h * e1
    e2_term = h**4 * e2
    residual = q["lhs"] - e1_term - e2_term
    return {
        "lhs": q["lhs"],
        "e1_term": e1_term,
        "e2_term": e2_term,
        "residual": residual,
        # a zero floor (no roundoff allowed) has every residual above it
        "residual_over_floor": (abs(residual) / q["lhs_floor"]
                                if q["lhs_floor"] else math.inf),
        "h1_distance": q["h1_distance"],
        "l2_distance": q["l2_distance"],
        "l2_leading": q["l2_leading"],
        "h": h,
        "beta": beta,
        "n_max": basis.n_max,
        "lhs_floor": q["lhs_floor"],
        **ladder,
        "window": q["window"],
    }


_TRACE_KEYS = ("lhs", "e1_term", "e2_term", "residual", "h", "beta", "n_max",
               "m_fibers", "capped", "lhs_floor", "delta_lhs", "window")


def semiclassical_trace(source: GapSolution, psi: TorusField, a: TorusField,
                        w: TorusField, h: float, *, m_fibers: int = 16,
                        n_max: int | None = None) -> dict:
    """Trace of ``f(beta H_Delta) - f(beta H_0)`` vs its h-expansion: the
    trace keys of the pass of :func:`alpha_delta_distance`, whose Bloch
    ladder (:func:`_bloch_ladder`) here waits for ``lhs`` alone.

    Returns
    -------
    dict
        ``lhs``, ``e1_term``, ``e2_term``, ``residual`` and the run
        parameters.
    """
    res = _trace_and_pair(source, psi, a, w, h, m_fibers, n_max, ("lhs",))
    return {k: res[k] for k in _TRACE_KEYS}


# ---------------------------------------------------------------------------
# Trial-state free energy (upper-bound route)
# ---------------------------------------------------------------------------


def _pair_interaction_quadrature(sol: GapSolution, h: float,
                                 p_modes: np.ndarray) -> np.ndarray:
    """``integral V(x) alpha0(x)^2 cos^2(h p x / 2) dx`` per mode."""
    u, density = sol.interaction_density
    return 2.0 * np.trapezoid(
        density * np.cos((0.5 * h * p_modes)[:, None] * u) ** 2, u, axis=1)


def trial_state_energy(sol: GapSolution, psi: TorusField, a: TorusField,
                       w: TorusField, h: float, *, m_fibers: int = 16,
                       n_max: int | None = None) -> dict:
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

    Each fiber goes through one windowed spectral pass
    (:func:`_fiber_pass`): term (i) is its Daleckii-Krein trace
    difference and term (iii) its pair block.  The partner fiber ``-xi``
    contributes the trace term of fiber ``xi`` again, the mass that
    follows from fiber ``xi``'s and the band of ``J alpha^T J`` at ``-xi``
    (:func:`_reflection`).

    ``scaled = (sum of terms) / h^{4-d}`` approaches the GL energy
    minus its quartic offset as ``h`` decreases.

    Bloch quadrature: :func:`_bloch_ladder`, capped at ``m_fibers``, from
    the first ``M > 2 h u_max`` (``u_max`` the reach of ``V``): the
    ``M``-node grid is a supercell of ``M`` cells, half of which must hold
    the interaction range.  It stops once ``f_bcs_diff`` moved by at most
    ``f_bcs_diff_floor``, the summation bound of plain sums for term (i),
    ``eps (1/M) sum_fibers sum_j (|f(beta lam_j)| + |f(beta lam0_j)|) /
    (2 beta)``, kept as the stop's tolerance.

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
        (``None`` for a one-rung ladder); and ``window``, the fibers'
        window partition (as in :func:`alpha_delta_distance`).
        Quadrature sizes are four points per fastest oscillation
        (``u``) and four points per field mode (``x``).
    """
    _check_source(sol)
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
        2 * math.ceil(2.0 * u_max * sol.momentum_support() / math.pi) + 1, 129
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
        return _pair_band(alpha, e1x, phases_u)

    def one(xi, mirror):
        op = build_fiber(basis, xi, psi, a, w, sol.t, sol.mu)
        tr, mass, alpha, window = _fiber_pass(op, beta, mirror)
        own = (tr, mass, band_of(alpha, xi), window)
        if mirror is not None:
            return (own,)
        tr, mass, partner = _reflection(op, beta, (tr, mass, alpha))
        return own, (tr, mass, band_of(partner, -xi), window)

    psi_mode_index = np.nonzero(psi.coeffs)[0]
    p_values = 2.0 * math.pi * psi.modes[psi_mode_index]
    weights = np.abs(psi.coeffs[psi_mode_index]) ** 2
    iv = _pair_interaction_quadrature(sol, h, p_values)
    term_ii = -h / (2.0 * math.pi) * float(np.dot(weights, iv))

    alpha0_u = sol.alpha0(u_nodes)
    # psi(x + h u) = sum_n c_n e^{2 pi i n x} e^{2 pi i n h u}: the x table
    # of psi(x) times a u table, not one phase per (x, u) node
    psi_x_table = np.exp(2j * math.pi * np.outer(x_nodes, psi.modes))
    psi_x = psi_x_table @ psi.coeffs
    psi_xu = (psi_x_table * psi.coeffs) @ np.exp(
        2j * math.pi * np.outer(psi.modes, h * u_nodes))
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
            "window": _window_record(p[3] for p in parts),
        }
        return q, {"f_bcs_diff": q["f_bcs_diff_floor"]}

    q, ladder = _bloch_ladder(basis, one, quadrature, above=2.0 * h * u_max)
    term_iii, term_iii_coarse = q["term_remainder"], q["term_remainder_check"]
    if abs(term_iii - term_iii_coarse) > max(1e-12, 0.1 * abs(term_iii)):
        warnings.warn(
            "remainder-term quadrature not converged: "
            f"{term_iii:.3e} vs {term_iii_coarse:.3e} at half resolution"
        )

    return {**q, "scaled": q["f_bcs_diff"] / h**3,
            "term_interaction": term_ii, "h": h, "beta": beta,
            "n_max": basis.n_max, **ladder}
