"""Critical temperature and gap profile of the linear BCS pairing problem.

The translation-invariant pairing operator ``K_T + V`` acts on reflection
symmetric functions; its lowest eigenvalue is strictly increasing in the
temperature ``T``, so the critical temperature is the unique ``T_c`` with
``lambda_min(T_c) = 0`` (or 0 if no pairing occurs at any temperature).
This module discretizes the problem in the even momentum sector on a
uniform half-line grid, locates ``T_c`` (see :func:`find_tc`) as the
Newton root of ``lambda_min(T)``, and packages the ground state
``alpha0`` together with the induced pair symbol

    t(p) = -2 (2 pi)^{-1/2} integral [Vhat(p - q) + Vhat(p + q)] alpha0_hat(q) dq

which is evaluated *through the eigen-equation* at arbitrary momenta, so
``t`` is globally smooth with closed-form derivatives and exactly
consistent with the grid samples.  A normalization step rescales the
profile so the quartic/quadratic balance condition holds for a prescribed
temperature-offset coefficient ``D``.

Every factorization is NumPy's LAPACK, and a normal solve factors no
matrix larger than ``r x r``: with ``-V = B B^T`` (``B`` of rank ``r``
about 30), the eigenvalues of ``K_T - B B^T`` below ``x`` are counted by
the ``r x r`` Birman-Schwinger matrix ``B^T (K_T - x)^{-1} B`` (Hainzl,
Hamza, Seiringer, Solovej, Commun. Math. Phys. 281 (2008) 349).  One
eigensolver built on such counts (:func:`_eigenpair`) gives every
``lambda_min(T)`` of the search, with its ground state, and the spectral
gap at ``T_c``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Mapping

import numpy as np

from . import (POTENTIAL_RULES, d_error, default_gap_grid,
               gap_grid_coverage_error, gap_grid_error, specfun)

__all__ = [
    "NoPairingError",
    "BracketError",
    "PotentialSpec",
    "MomentumGrid",
    "GapSolution",
    "build_gap_matrix",
    "find_tc",
    "normalize",
]

#: Temperature at which :func:`find_tc` probes for pairing, and the
#: number of evaluations of ``lambda_min(T)`` after which it raises.
_PROBE_TEMPERATURE = 1e-6
_MAX_EVALUATIONS = 100

#: The factor ``B`` of ``-V = B B^T`` behind the search stops at the
#: first pivot at or below this fraction of the largest diagonal of
#: ``-V``.  At 1e-16 the updated diagonals never fall below the stop and
#: the factor runs to full rank.
_FACTOR_TOLERANCE = 1e-15

#: :func:`_eigenpair` stops at a step below ``_EIGEN_TOLERANCE`` of its
#: bracket's scale; a residual ``|(K_T + V) v - lambda v|`` of the unit
#: ground state above ``_GROUND_STATE_RESIDUAL`` hands the solve to a
#: dense ``eigh``.
_EIGEN_TOLERANCE = 1e-15
_GROUND_STATE_RESIDUAL = 1e-12

#: Element budget of one block of the transforms (:meth:`GapSolution.t`,
#: :meth:`GapSolution.alpha0`): they form their (points x nodes) table
#: about this many elements at a time (:func:`_row_blocks`).
_BLOCK_ELEMENTS = 1 << 16


class NoPairingError(RuntimeError):
    """The lowest eigenvalue is nonnegative at the probe temperature: T_c = 0."""

    def __init__(self, lambda_min: float, probe_temperature: float):
        self.lambda_min = lambda_min
        self.probe_temperature = probe_temperature
        super().__init__(
            f"no pairing: lambda_min = {lambda_min:.3e} >= 0 at probe "
            f"temperature {probe_temperature:.3e}; T_c = 0"
        )


class BracketError(RuntimeError):
    """``lambda_min`` is negative at the top of the search's bracket."""


def _sech_squared(z):
    """``sech^2(z)`` without overflow for any real ``z``."""
    e = np.exp(-np.abs(np.asarray(z, dtype=float)))
    return (2.0 * e / (1.0 + e * e)) ** 2


@dataclass(frozen=True)
class PotentialSpec:
    """Local reflection-symmetric interaction potential plus chemical potential.

    Attributes
    ----------
    family : str
        ``"gaussian_well"`` or ``"square_well"``.
    g : float
        Depth, >= 0; 0 encodes the free V = 0 problem.
    w : float
        Width, > 0: the range below which ``V`` is non-negligible.
    mu : float
        Chemical potential.
    """

    family: str
    g: float
    w: float
    mu: float

    def __post_init__(self):
        for name, rule in POTENTIAL_RULES.items():
            error = rule(getattr(self, name))
            if error:
                raise ValueError(error)

    # -- constructors -------------------------------------------------------

    @classmethod
    def gaussian(cls, g: float, w: float, mu: float) -> "PotentialSpec":
        """Gaussian well ``V(x) = -g exp(-x^2 / w^2)``."""
        return cls("gaussian_well", float(g), float(w), float(mu))

    @classmethod
    def square(cls, g: float, w: float, mu: float) -> "PotentialSpec":
        """Square well ``V(x) = -g`` for ``|x| <= w``, else 0."""
        return cls("square_well", float(g), float(w), float(mu))

    # -- evaluation ---------------------------------------------------------

    def v(self, x):
        """Real-space potential ``V(x)`` (attractive wells are negative)."""
        x = np.asarray(x, dtype=float)
        if self.family == "gaussian_well":
            return -self.g * np.exp(-(x * x) / self.w**2)
        return np.where(np.abs(x) <= self.w, -self.g, 0.0)

    def vhat(self, k):
        """Fourier transform ``(2 pi)^{-1/2} integral V(x) e^{-ikx} dx``."""
        k = np.asarray(k, dtype=float)
        if self.family == "gaussian_well":
            pref = -self.g * (self.w / math.sqrt(2.0))
            return pref * np.exp(-(k * k) * self.w**2 / 4.0)
        return -self.g * math.sqrt(2.0 / math.pi) * self.w * np.sinc(
            self.w * k / math.pi
        )

    def vhat_d2(self, k):
        """Second derivative of ``vhat`` (square well: central difference)."""
        k = np.asarray(k, dtype=float)
        if self.family == "gaussian_well":
            w2 = self.w**2 / 2.0
            return (-w2 + (k * w2) ** 2) * self.vhat(k)
        h = 1e-4
        return (self.vhat(k + h) - 2.0 * self.vhat(k) + self.vhat(k - h)) / h**2

    def reach(self) -> float:
        """Radius beyond which ``|V|`` drops below ``1e-12 * max |V|``."""
        x = np.linspace(0.0, 50.0 * self.w, 8192)
        mags = np.abs(self.v(x))
        above = np.nonzero(mags >= 1e-12 * mags.max())[0]
        if not above.size:
            raise ValueError("potential is identically negligible")
        return float(x[min(int(above[-1]) + 1, len(x) - 1)])

    def to_dict(self) -> dict:
        return {
            "family": self.family,
            "parameters": {"g": self.g, "w": self.w},
            "mu": self.mu,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "PotentialSpec":
        return cls(data["family"], mu=float(data["mu"]),
                   **{k: float(v) for k, v in data["parameters"].items()})


@dataclass(frozen=True)
class MomentumGrid:
    """Uniform midpoint grid ``q_j = (j + 1/2) dq`` on ``[0, cutoff]``.

    The even extension of the nodes tiles the whole line uniformly, so
    quadrature of smooth, rapidly decaying even integrands is
    superalgebraically accurate; ``dq = cutoff / n_points``.
    """

    cutoff: float
    n_points: int

    def __post_init__(self):
        error = gap_grid_error(self.cutoff, self.n_points)
        if error:
            raise ValueError(error)

    @property
    def dq(self) -> float:
        return self.cutoff / self.n_points

    @cached_property
    def nodes(self) -> np.ndarray:
        return (np.arange(self.n_points) + 0.5) * self.dq

    def integrate(self, values) -> float:
        """Full-line integral of an even integrand from its samples at
        the nodes: twice the half-line midpoint sum."""
        return 2.0 * float(np.sum(values) * self.dq)

    @classmethod
    def default_for(cls, spec: PotentialSpec) -> "MomentumGrid":
        """Desk-scale default resolving the Fermi surface and the well."""
        return cls(*default_gap_grid(spec.mu, spec.w))

    def to_dict(self) -> dict:
        return {"cutoff": self.cutoff, "n_points": self.n_points}

    @classmethod
    def from_dict(cls, data: Mapping) -> "MomentumGrid":
        return cls(float(data["cutoff"]), int(data["n_points"]))


def _validate(spec: PotentialSpec, grid: MomentumGrid) -> None:
    error = gap_grid_coverage_error(grid.cutoff, spec.mu, spec.w)
    if error is not None:
        raise ValueError(error)


def _interaction_matrix(spec: PotentialSpec, grid: MomentumGrid) -> np.ndarray:
    """Even-sector interaction kernel ``(2 pi)^{-1/2} (Vhat(q-q') + Vhat(q+q')) dq``.

    On the midpoint grid ``q_i - q_j = (i - j) dq`` and ``q_i + q_j =
    (i + j + 1) dq``, so the kernel is a Toeplitz plus a Hankel matrix of
    the ``2n`` samples ``Vhat(m dq)``, and exactly symmetric.
    """
    n = grid.n_points
    samples = spec.vhat(np.arange(2 * n) * grid.dq)
    window = np.lib.stride_tricks.sliding_window_view
    toeplitz = window(np.concatenate((samples[n - 1:0:-1], samples[:n])), n)[::-1]
    hankel = window(samples[1:], n)
    return (toeplitz + hankel) * grid.dq / math.sqrt(2.0 * math.pi)


def build_gap_matrix(spec: PotentialSpec, grid: MomentumGrid, T: float) -> np.ndarray:
    """Discretized ``K_T + V`` on the even momentum sector (dim 1).

    Parameters
    ----------
    spec : PotentialSpec
    grid : MomentumGrid
        Must cover ``sqrt(2 mu) + 5/w``.
    T : float
        Temperature, > 0.

    Returns
    -------
    ndarray
        Symmetric ``(n, n)`` matrix: diagonal ``kt_symbol(q^2 - mu, T)``
        plus the quadrature-weighted even-sector kernel of ``V``.
    """
    _validate(spec, grid)
    q = grid.nodes
    mat = _interaction_matrix(spec, grid)
    mat[np.diag_indices_from(mat)] += specfun.kt_symbol(q * q - spec.mu, T)
    return mat


def _anchored(vec: np.ndarray) -> np.ndarray:
    """``vec`` or ``-vec``, whichever has a nonnegative first entry (the
    entry of largest magnitude decides when the first is 0)."""
    anchor = vec[np.argmax(np.abs(vec))] if vec[0] == 0.0 else vec[0]
    return -vec if anchor < 0 else vec


def _row_blocks(n_rows: int, n_cols: int) -> list[slice]:
    """Consecutive row slices covering ``range(n_rows)`` of an ``n_rows x
    n_cols`` table: ``_BLOCK_ELEMENTS // n_cols`` rows each, rounded down
    to a multiple of 32 and at least 32.

    Each block's product with a vector has the bits of the same rows of
    one product over the whole table: a block starts at a multiple of 32
    rows, so every row keeps its place in the BLAS kernel's row
    unrolling, and a last single row joins the block before it, since
    NumPy takes a one-row product as a dot.  Up to 8192 columns a block
    also stays below the size at which OpenBLAS splits a matrix-vector
    product across threads (460800 elements in OpenBLAS 0.3.31), so no
    product over a block depends on the BLAS thread count.
    """
    step = max(32, _BLOCK_ELEMENTS // n_cols // 32 * 32)
    starts = list(range(0, n_rows, step))
    if len(starts) > 1 and n_rows - starts[-1] == 1:
        starts.pop()
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [n_rows])]


@dataclass
class GapSolution:
    """Solved gap problem: ``T_c``, ground state, pair symbol, diagnostics.

    The pair symbol ``t`` and its derivatives are evaluated through the
    eigen-equation (a smooth sum of shifted ``Vhat`` profiles weighted by
    the ground state), so values at arbitrary momenta agree with the
    stored grid samples, the same sum at the nodes, to roundoff.
    """

    spec: PotentialSpec
    grid: MomentumGrid
    T_c: float
    alpha0_hat: np.ndarray
    lambda_min: float
    eig_residual: float
    spectral_gap: float
    #: ``t`` at the grid nodes.
    t_samples: np.ndarray = field(repr=False)
    norm_scale: float | None = None
    D: float | None = None
    #: The work of the ``T_c`` search (:func:`find_tc`).
    tc_search: dict | None = None

    def __post_init__(self):
        if not self.T_c > 0:
            raise ValueError("GapSolution requires T_c > 0")

    # -- scalars ------------------------------------------------------------

    @property
    def beta_c(self) -> float:
        return 1.0 / self.T_c

    @property
    def mu(self) -> float:
        return self.spec.mu

    @property
    def kappa_c(self) -> float:
        """Decay-rate bound ``Im sqrt(mu + i pi T_c)``."""
        return complex(np.sqrt(complex(self.mu, math.pi * self.T_c))).imag

    # -- pair symbol --------------------------------------------------------

    def _transform(self, table, points) -> np.ndarray:
        """``table(points[:, None], nodes[None, :]) @ alpha0_hat``, one row
        block of ``points`` at a time (:func:`_row_blocks`), so no call
        holds more than one block of the (points x nodes) table; the
        values have the bits of one product over all points."""
        points = np.atleast_1d(np.asarray(points, dtype=float))
        q = self.grid.nodes[None, :]
        out = np.empty(len(points))
        for rows in _row_blocks(len(points), self.grid.n_points):
            out[rows] = table(points[rows, None], q) @ self.alpha0_hat
        return out

    def _kernel_sum(self, profile, p):
        """``-2 (2 pi)^{-1/2} sum_q (profile(p - q) + profile(p + q))
        alpha0_hat(q) dq`` over the grid nodes ``q``, in row blocks of
        ``p`` (:meth:`_transform`): ``build_fiber`` evaluates ``t`` at
        every fiber momentum."""
        out = self._transform(
            lambda p_col, q: profile(p_col - q) + profile(p_col + q), p)
        out = -2.0 * out * self.grid.dq / math.sqrt(2.0 * math.pi)
        return out if np.ndim(p) else float(out[0])

    def t(self, p):
        """Pair symbol ``t(p)``, smooth in ``p``, even, real-valued."""
        return self._kernel_sum(self.spec.vhat, p)

    def t_second(self, p):
        """Second derivative ``t''(p)``."""
        return self._kernel_sum(self.spec.vhat_d2, p)

    def momentum_support(self) -> float:
        """Smallest grid momentum beyond which ``|t| < 1e-8 * max|t|``, or
        the grid's cutoff.

        The support routinely sits at the cutoff (the grid is chosen
        that way), and the fibers add guard modes on top of it
        (:func:`bcsgl.bdg_verifier.default_mode_cutoff`), so reaching the
        cutoff is not a warning; it also touches no warnings state, so
        the h points of a sweep may call it on several threads at once.
        """
        t_abs = np.abs(self.t_samples)
        above = np.nonzero(t_abs >= 1e-8 * t_abs.max())[0]
        edge = int(above[-1]) if above.size else 0
        return float(self.grid.nodes[min(edge + 1, self.grid.n_points - 1)])

    # -- real space ---------------------------------------------------------

    def alpha0(self, x) -> np.ndarray:
        """``alpha0(x)`` by the even-sector inverse transform
        ``(2/pi)^{1/2} sum_q cos(q x) alpha0_hat(q) dq``, in row blocks of
        ``x`` (:meth:`_transform`), so many points hold one block of
        cosines at a time."""
        weight = math.sqrt(2.0 / math.pi) * self.grid.dq
        return weight * self._transform(lambda x_col, q: np.cos(q * x_col), x)

    @cached_property
    def interaction_density(self) -> tuple[np.ndarray, np.ndarray]:
        """Nodes ``u``, 2048 on ``[0, spec.reach()]``, and ``V(u) alpha0(u)^2``.

        The integrand of the pair-interaction term of the trial-state
        energy apart from its ``h``-dependent factor, so every ``h`` of a
        sweep shares it; :meth:`alpha0` takes the 2048 nodes one row
        block at a time.
        """
        u = np.linspace(0.0, self.spec.reach(), 2048)
        return u, self.spec.v(u) * self.alpha0(u) ** 2

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "spec": self.spec.to_dict(),
            "grid": self.grid.to_dict(),
            "T_c": self.T_c,
            "beta_c": self.beta_c,
            "kappa_c": self.kappa_c,
            "alpha0_hat": self.alpha0_hat.tolist(),
            "t_samples": self.t_samples.tolist(),
            "lambda_min": self.lambda_min,
            "eig_residual": self.eig_residual,
            "spectral_gap": self.spectral_gap,
            "norm_scale": self.norm_scale,
            "D": self.D,
            "tc_search": self.tc_search,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "GapSolution":
        return cls(
            spec=PotentialSpec.from_dict(data["spec"]),
            grid=MomentumGrid.from_dict(data["grid"]),
            T_c=float(data["T_c"]),
            alpha0_hat=np.asarray(data["alpha0_hat"], dtype=float),
            lambda_min=float(data["lambda_min"]),
            eig_residual=float(data["eig_residual"]),
            spectral_gap=float(data["spectral_gap"]),
            norm_scale=data.get("norm_scale"),
            D=data.get("D"),
            tc_search=data.get("tc_search"),
            t_samples=np.asarray(data["t_samples"], dtype=float),
        )


def _attraction_factor(interaction: np.ndarray) -> tuple[np.ndarray, float]:
    """``B`` (``n x r``) with ``-V = B B^T + E``, ``V`` the ``interaction``
    matrix, and ``s = tr E``.

    Diagonally pivoted Cholesky of ``-V``, which is positive semidefinite
    for a well (``V <= 0`` pointwise), stopping once every remaining
    diagonal is at most ``_FACTOR_TOLERANCE`` of the largest diagonal of
    ``-V``; ``r`` is the numerical rank, about 30 for the built-in wells.
    The truncation residual ``E`` is the Schur complement of the pivots,
    positive semidefinite, so ``0 <= E <= s``; ``s``, the sum of the
    remaining diagonals (negative roundoff counted as 0), is about 1e-15.
    """
    residual = -np.diag(interaction)
    stop = _FACTOR_TOLERANCE * residual.max()
    columns = np.empty_like(interaction)  # row k holds column k of B
    rank = 0
    while rank < len(residual):
        pivot = int(np.argmax(residual))
        if not residual[pivot] > stop:
            break
        column = -interaction[pivot] - columns[:rank, pivot] @ columns[:rank]
        column /= math.sqrt(residual[pivot])
        columns[rank] = column
        residual -= column * column
        rank += 1
    return columns[:rank].T, float(np.maximum(residual, 0.0).sum())


def _kt_slope(x: np.ndarray, T: float) -> np.ndarray:
    """``d K_T(x) / dT = 2 (w / sinh w)^2`` with ``w = x / 2T``, without
    overflow for any real ``x`` (the removable value 2 at ``x = 0``)."""
    w = np.abs(x) / (2.0 * T)
    ratio = np.divide(2.0 * w * np.exp(-w), -np.expm1(-2.0 * w),
                      out=np.ones_like(w), where=w > 0.0)
    return 2.0 * ratio * ratio


def _eigenpair(factor: np.ndarray, kt: np.ndarray, k: int, lo: float,
               x: float) -> tuple[float, np.ndarray | None]:
    """The ``k``-th smallest eigenvalue of ``K - B B^T``, ``K = diag(kt)``,
    in ``[lo, kt_(k)]`` (``kt_(k)`` the ``k``-th smallest ``kt``), and its
    unit eigenvector, searched from ``x`` (from the bracket's midpoint
    when ``x`` lies outside).

    By Haynsworth's inertia additivity, ``p = #{kt < x}`` plus the number
    of eigenvalues of ``B^T (K - x)^{-1} B`` above 1 counts the
    eigenvalues below ``x``, which narrows the bracket.  The ``(k -
    p)``-th largest of those increases to 1 at the root, so the next
    ``x`` is a Newton step on it, slope ``|y|^2`` for ``y = (K - x)^{-1}
    B u``, ``u`` its eigenvector; the bracket's midpoint replaces a step
    that leaves it, or is missing (``k - p`` above the rank ``r``).  The
    search returns ``x`` past the first step below ``_EIGEN_TOLERANCE``
    of the initial bracket's scale, and ``y / |y|``; or, once the bracket
    is that narrow, its midpoint and the last such vector (None if no
    step was taken).
    """
    hi = float(np.partition(kt, k - 1)[k - 1])
    tolerance = _EIGEN_TOLERANCE * max(abs(lo), abs(hi))
    if not lo < x < hi:
        x = 0.5 * (lo + hi)
    unit = None
    while hi - lo > tolerance:
        inverse = 1.0 / (kt - x)
        values, vectors = np.linalg.eigh((factor * inverse[:, None]).T @ factor)
        poles = int(np.count_nonzero(inverse < 0.0))
        if poles + int(np.count_nonzero(values > 1.0)) >= k:
            hi = x
        else:
            lo = x
        crossing = poles - k
        if -crossing <= len(values):
            y = inverse * (factor @ vectors[:, crossing])
            norm2 = float(y @ y)
            unit = y / math.sqrt(norm2)
            step = (float(values[crossing]) - 1.0) / norm2
            if abs(step) <= tolerance:
                return x - step, unit
            if lo < x - step < hi:
                x -= step
                continue
        x = 0.5 * (lo + hi)
    return 0.5 * (lo + hi), unit


def find_tc(
    spec: PotentialSpec,
    grid: MomentumGrid | None = None,
) -> GapSolution:
    """Locate ``T_c`` and return the (unnormalized) solution.

    ``T_c`` is the root of ``lambda_min(T)``, the lowest eigenvalue of
    ``K_T + V``, which increases strictly with ``T``.  With ``-V = B B^T
    + E``, ``0 <= E <= s`` (:func:`_attraction_factor`), one evaluation
    is :func:`_eigenpair` on ``K_T - B B^T`` from 0 (``r x r`` eigensolves
    only) and gives the unit ground state ``v`` too.  After the two ends
    of the bracket ``[1e-6, 10 max(|mu|, 1)]``, each step is Newton's on
    ``T``, with the Hellmann-Feynman slope ``<v, (dK_T/dT) v>``
    (:func:`_kt_slope`), or the midpoint of the bracket, which each
    evaluation narrows, where the step would leave it or has no slope.
    The search stops on a step or a bracket below ``max(4 eps T,
    resolution / slope)``, ``resolution`` the tolerance of
    :func:`_eigenpair` at ``T``, and its last evaluation gives ``T_c``,
    ``lambda_min`` and the ground state; it raises ``RuntimeError`` after
    ``_MAX_EVALUATIONS``.

    A ground-state residual ``|(K_T + V) v - lambda_min v|`` above
    ``_GROUND_STATE_RESIDUAL`` (a poor factor) reruns the search on dense
    ``eigh``s of ``K_T + V``.  Only then does ``lambda_min >= 0`` at
    ``T = 1e-6`` raise :class:`NoPairingError` (``T_c = 0``), and
    ``lambda_min < 0`` at the top :class:`BracketError`.  The spectral gap
    is :func:`_eigenpair`'s second eigenvalue, or the dense ``eigh``'s.

    ``tc_search`` records ``attraction_rank`` (``r``), ``lambda_evals``
    and ``dense_evals`` (the ``r x r`` and the ``n x n`` evaluations, the
    latter 0 in a normal solve) and ``factor_residual`` (``s``).  The
    pair symbol's grid samples are ``-2 V alpha0_hat``.

    Parameters
    ----------
    spec : PotentialSpec
    grid : MomentumGrid, optional
        Defaults to ``MomentumGrid.default_for(spec)``.

    Returns
    -------
    GapSolution
    """
    if grid is None:
        grid = MomentumGrid.default_for(spec)
    _validate(spec, grid)
    q = grid.nodes
    kinetic = q * q - spec.mu
    interaction = _interaction_matrix(spec, grid)
    factor, truncation = _attraction_factor(interaction)
    mass = float(np.sum(factor * factor))
    work = {"lambda_evals": 0, "dense_evals": 0}
    probe, top = _PROBE_TEMPERATURE, 10.0 * max(abs(spec.mu), 1.0)

    def search(dense: bool):
        """``(T, K_T, lambda_min, vector, dense eigenvalues or None)``
        of the converged evaluation, or of a bracket end with no root."""
        lo, hi, T = probe, top, probe
        for count in range(_MAX_EVALUATIONS):
            kt = specfun.kt_symbol(kinetic, T)
            values = None
            if dense:
                work["dense_evals"] += 1
                matrix = interaction + np.diag(kt)
                values, vectors = np.linalg.eigh(matrix)
                # the Rayleigh quotient is accurate to about eps, the
                # eigenvalue only to eps max|K_T + V|
                vector = vectors[:, 0]
                value = float(vector @ (matrix @ vector))
            else:
                work["lambda_evals"] += 1
                value, vector = _eigenpair(factor, kt, 1, kt.min() - mass, 0.0)
            lo, hi = (T, hi) if value < 0.0 else (lo, T)
            if hi == probe or lo == top:
                return T, kt, value, vector, values
            if count == 0:
                T = top
                continue
            tolerance = 4.0 * np.finfo(float).eps * T
            T_next = 0.5 * (lo + hi)
            rate = (0.0 if vector is None
                    else float(vector @ (_kt_slope(kinetic, T) * vector)))
            if rate > 0.0:
                resolution = _EIGEN_TOLERANCE * max(abs(kt.min() - mass),
                                                    kt.min())
                tolerance = max(tolerance, resolution / rate)
                step = value / rate
                if abs(step) <= tolerance:
                    return T, kt, value, vector, values
                if lo < T - step < hi:
                    T_next = T - step
            if hi - lo <= tolerance:
                return T, kt, value, vector, values
            T = T_next
        raise RuntimeError(
            f"T_c search did not converge in {_MAX_EVALUATIONS} evaluations "
            f"of lambda_min; bracket [{lo!r}, {hi!r}]")

    for dense in (False, True):
        T_c, kt, lambda_min, vec, values = search(dense)
        if vec is not None:
            vec = _anchored(vec)
            pulled = interaction @ vec
            eig_norm = float(np.linalg.norm(pulled + (kt - lambda_min) * vec))
            if eig_norm <= _GROUND_STATE_RESIDUAL:
                break
    if T_c == probe and lambda_min >= 0.0:
        raise NoPairingError(lambda_min, probe)
    if T_c == top and lambda_min < 0.0:
        raise BracketError(
            f"lambda_min({top:.3f}) = {lambda_min:.3e} < 0; no sign change up "
            "to the upper temperature bracket")
    if values is None:
        first, second = np.partition(kt, 1)[:2]
        values = (lambda_min, _eigenpair(factor, kt, 2, lambda_min,
                                         0.5 * (first + second))[0])
    spectral_gap = float(values[1] - values[0])
    # ||(K + V) alpha0|| / ||alpha0|| at solver resolution: the eigenvalue
    # itself is within the search's tolerance of zero.
    eig_residual = abs(lambda_min) + eig_norm

    scale = 1.0 / math.sqrt(grid.dq)
    return GapSolution(
        spec=spec,
        grid=grid,
        T_c=T_c,
        alpha0_hat=scale * vec,
        lambda_min=lambda_min,
        eig_residual=eig_residual,
        spectral_gap=spectral_gap,
        tc_search={"attraction_rank": factor.shape[1], **work,
                   "factor_residual": truncation},
        t_samples=-2.0 * scale * pulled,
    )


def _normalization_integrals(sol: GapSolution) -> tuple[float, float]:
    """Quadratures entering the balance condition, on the solver grid.

    Returns the full-line integrals ``(I2, I4)`` with
    ``I2 = integral t^2 sech^2(beta_c (q^2 - mu)/2) dq`` and
    ``I4 = integral t^4 g1(beta_c (q^2 - mu)) / (q^2 - mu) dq``; the second
    integrand is evaluated as ``beta_c * g1_over_z`` so the Fermi surface
    (q^2 = mu) is regular.
    """
    grid = sol.grid
    q = grid.nodes
    e = q * q - sol.mu
    t2 = sol.t_samples**2
    i2 = grid.integrate(t2 * _sech_squared(0.5 * sol.beta_c * e))
    i4 = grid.integrate(t2 * t2 * sol.beta_c * specfun.g1_over_z(sol.beta_c * e))
    return i2, i4


def normalization_residual(sol: GapSolution) -> float:
    """Relative residual of the quartic/quadratic balance condition."""
    if sol.D is None:
        raise ValueError("solution has not been normalized")
    i2, i4 = _normalization_integrals(sol)
    target = (sol.D / sol.beta_c) * i2
    return abs(i4 - target) / abs(target)


def normalize(sol: GapSolution, D: float) -> GapSolution:
    """Rescale the profile so the balance condition holds for coefficient ``D``.

    The condition fixes the scale ``s`` through
    ``s^4 I4 = (D / beta_c) s^2 I2``, i.e. ``s^2 = (D / beta_c) I2 / I4``
    with the integrals of the *current* profile; both ``alpha0`` and ``t``
    are multiplied by ``s``.  Applying it twice is idempotent.

    Parameters
    ----------
    sol : GapSolution
    D : float
        Temperature-offset coefficient, a finite number > 0.

    Returns
    -------
    GapSolution
        A new solution with ``norm_scale`` and ``D`` recorded.
    """
    error = d_error(D)
    if error:
        raise ValueError(f"D {error}, got {D}")
    i2, i4 = _normalization_integrals(sol)
    if not i4 > 0:
        raise ValueError("quartic integral must be positive")
    s = math.sqrt((D / sol.beta_c) * i2 / i4)
    return replace(
        sol,
        alpha0_hat=s * sol.alpha0_hat,
        t_samples=s * sol.t_samples,
        norm_scale=s if sol.norm_scale is None else s * sol.norm_scale,
        D=float(D),
    )
