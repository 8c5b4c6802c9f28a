"""Critical temperature and gap profile of the linear BCS pairing problem.

The translation-invariant pairing operator ``K_T + V`` acts on reflection
symmetric functions; its lowest eigenvalue is strictly increasing in the
temperature ``T``, so the critical temperature is the unique ``T_c`` with
``lambda_min(T_c) = 0`` (or 0 if no pairing occurs at any temperature).
This module discretizes the problem in the even momentum sector on a
uniform half-line grid, locates ``T_c`` (see :func:`find_tc`) by
bisection on the positive definiteness of ``K_T + V`` (``T < T_c``
exactly when it is not positive definite), and packages the ground
state ``alpha0`` together with the induced pair symbol

    t(p) = -2 (2 pi)^{-1/2} integral [Vhat(p - q) + Vhat(p + q)] alpha0_hat(q) dq

which is evaluated *through the eigen-equation* at arbitrary momenta, so
``t`` is globally smooth with closed-form derivatives and exactly
consistent with the grid samples.  A normalization step rescales the
profile so the quartic/quadratic balance condition holds for a prescribed
temperature-offset coefficient ``D``.

Only ``dim = 1`` is wired to the solver; the potential types carry the
general dimension for completeness.

Every factorization is NumPy's LAPACK, and a normal solve factors no
matrix larger than ``r x r``: with ``-V = B B^T`` (``B`` of rank ``r``
about 30), ``K_T + V`` is positive definite exactly when the top
eigenvalue of the ``r x r`` Birman-Schwinger matrix ``B^T K_T^{-1} B`` is
below 1 (Hainzl, Hamza, Seiringer, Solovej, Commun. Math. Phys. 281
(2008) 349).  :func:`find_tc` takes its sign tests, its Newton estimate
of ``T_c``, the ground state and the spectral gap from such matrices.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Mapping

import numpy as np

from . import specfun

__all__ = [
    "NoPairingError",
    "BracketError",
    "PotentialSpec",
    "MomentumGrid",
    "GapSolution",
    "DecayReport",
    "reference_well",
    "build_gap_matrix",
    "lowest_eigenpair",
    "find_tc",
    "normalize",
    "decay_report",
]

#: Temperature at which :func:`find_tc` probes for pairing, and the
#: relative width of its final bracket.
_PROBE_TEMPERATURE = 1e-6
_REL_TOLERANCE = 1e-10

#: Newton estimate of ``T_c``: at most this many steps, stopping once a
#: step in ``log T`` is below the tolerance; the sign tests that certify
#: the bracket sit this relative distance on either side of the estimate.
_NEWTON_STEPS = 30
_NEWTON_TOLERANCE = 1e-10
_CERTIFICATE_OFFSET = 2e-13

#: The factor ``B`` of ``-V = B B^T`` behind the Newton estimate stops at
#: the first pivot at or below this fraction of the largest diagonal of
#: ``-V``.  At 1e-16 the updated diagonals never fall below the stop and
#: the factor runs to full rank.
_FACTOR_TOLERANCE = 1e-15

#: The ground state at ``T_c`` (:func:`_ground_state`): Newton's method
#: stops once a step is below this fraction of ``min K_T``, and the
#: vector goes to a dense inverse-iteration step when the residual
#: ``|(K_T + V) v - lambda v|`` of the unit vector exceeds
#: ``_GROUND_STATE_RESIDUAL``.  The search for the second eigenvalue
#: (:func:`_second_eigenvalue`) stops at relative width ``_GAP_TOLERANCE``.
_GROUND_STATE_TOLERANCE = 1e-15
_GROUND_STATE_RESIDUAL = 1e-12
_GAP_TOLERANCE = 1e-13

#: :func:`decay_report` warns when its fitted rate falls below this
#: fraction of ``kappa_c``: the fit then sits on a truncation floor of
#: the profile, not on its decay.
MIN_DECAY_RATIO = 0.9


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
    """The bisection bracket could not be established."""


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
    parameters : mapping
        ``g`` (depth, >= 0; 0 encodes the free V = 0 problem) and ``w``
        (width, > 0).
    mu : float
        Chemical potential.
    dim : int
        Spatial dimension in {1, 2, 3}; the solver itself runs in 1.
    """

    family: str
    parameters: Mapping[str, object]
    mu: float
    dim: int = 1

    def __post_init__(self):
        if self.family not in ("gaussian_well", "square_well"):
            raise ValueError(f"unknown potential family {self.family!r}")
        if self.dim not in (1, 2, 3):
            raise ValueError(f"dim must be 1, 2 or 3, got {self.dim}")
        g = float(self.parameters["g"])
        w = float(self.parameters["w"])
        if g < 0:
            raise ValueError(f"well depth g must be >= 0, got {g}")
        if not w > 0:
            raise ValueError(f"well width w must be positive, got {w}")

    # -- constructors -------------------------------------------------------

    @classmethod
    def gaussian(cls, g: float, w: float, mu: float, dim: int = 1) -> "PotentialSpec":
        """Gaussian well ``V(x) = -g exp(-x^2 / w^2)``."""
        return cls("gaussian_well", {"g": float(g), "w": float(w)}, float(mu), dim)

    @classmethod
    def square(cls, g: float, w: float, mu: float, dim: int = 1) -> "PotentialSpec":
        """Square well ``V(x) = -g`` for ``|x| <= w``, else 0 (dim 1 only)."""
        if dim != 1:
            raise ValueError("square_well is implemented for dim = 1")
        return cls("square_well", {"g": float(g), "w": float(w)}, float(mu), dim)

    # -- evaluation ---------------------------------------------------------

    @property
    def g(self) -> float:
        return float(self.parameters["g"])

    @property
    def w(self) -> float:
        return float(self.parameters["w"])

    def v(self, x):
        """Real-space potential ``V(x)`` (attractive wells are negative)."""
        x = np.asarray(x, dtype=float)
        if self.family == "gaussian_well":
            return -self.g * np.exp(-(x * x) / self.w**2)
        return np.where(np.abs(x) <= self.w, -self.g, 0.0)

    def vhat(self, k):
        """Fourier transform ``(2 pi)^{-d/2} integral V(x) e^{-ikx} dx``."""
        k = np.asarray(k, dtype=float)
        if self.family == "gaussian_well":
            pref = -self.g * (self.w / math.sqrt(2.0)) ** self.dim
            return pref * np.exp(-(k * k) * self.w**2 / 4.0)
        return -self.g * math.sqrt(2.0 / math.pi) * self.w * np.sinc(
            self.w * k / math.pi
        )

    def vhat_d1(self, k):
        """First derivative of ``vhat`` (square well: central difference)."""
        k = np.asarray(k, dtype=float)
        if self.family == "gaussian_well":
            return -(k * self.w**2 / 2.0) * self.vhat(k)
        h = 1e-5
        return (self.vhat(k + h) - self.vhat(k - h)) / (2.0 * h)

    def vhat_d2(self, k):
        """Second derivative of ``vhat`` (square well: central difference)."""
        k = np.asarray(k, dtype=float)
        if self.family == "gaussian_well":
            w2 = self.w**2 / 2.0
            return (-w2 + (k * w2) ** 2) * self.vhat(k)
        h = 1e-4
        return (self.vhat(k + h) - 2.0 * self.vhat(k) + self.vhat(k - h)) / h**2

    def interaction_range(self) -> float:
        """Length scale below which ``V`` is non-negligible: the width ``w``."""
        return self.w

    def reach(self) -> float:
        """Radius beyond which ``|V|`` drops below ``1e-12 * max |V|``."""
        x = np.linspace(0.0, 50.0 * self.interaction_range(), 8192)
        mags = np.abs(self.v(x))
        above = np.nonzero(mags >= 1e-12 * mags.max())[0]
        if not above.size:
            raise ValueError("potential is identically negligible")
        return float(x[min(int(above[-1]) + 1, len(x) - 1)])

    def to_dict(self) -> dict:
        return {
            "family": self.family,
            "parameters": {k: float(v) for k, v in self.parameters.items()},
            "mu": self.mu,
            "dim": self.dim,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "PotentialSpec":
        return cls(
            data["family"], dict(data["parameters"]), float(data["mu"]),
            int(data.get("dim", 1)),
        )


def reference_well() -> PotentialSpec:
    """The reference configuration used throughout the examples and tests."""
    return PotentialSpec.gaussian(g=2.0, w=1.0, mu=1.0, dim=1)


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
        if not self.cutoff > 0:
            raise ValueError("cutoff must be positive")
        if self.n_points < 8:
            raise ValueError("n_points must be at least 8")

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
        w = spec.interaction_range()
        cutoff = max(6.0 * math.sqrt(1.0 + abs(spec.mu)), 12.0 / w)
        return cls(cutoff, 512)

    def to_dict(self) -> dict:
        return {"cutoff": self.cutoff, "n_points": self.n_points}

    @classmethod
    def from_dict(cls, data: Mapping) -> "MomentumGrid":
        return cls(float(data["cutoff"]), int(data["n_points"]))


def _validate_coverage(spec: PotentialSpec, grid: MomentumGrid) -> None:
    minimum = math.sqrt(max(2.0 * spec.mu, 0.0)) + 5.0 / spec.interaction_range()
    if grid.cutoff < minimum:
        raise ValueError(
            f"momentum cutoff {grid.cutoff:.3f} below kinematic coverage "
            f"threshold {minimum:.3f} (sqrt(2 mu) + 5/w)"
        )


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
    if spec.dim != 1:
        raise NotImplementedError("the discretized solver runs in dim = 1")
    _validate_coverage(spec, grid)
    q = grid.nodes
    mat = _interaction_matrix(spec, grid)
    mat[np.diag_indices_from(mat)] += specfun.kt_symbol(q * q - spec.mu, T)
    return mat


@dataclass
class EigenPair:
    """Lowest eigenvalue/vector of a symmetric matrix plus the spectral gap."""

    eigenvalue: float
    eigenvector: np.ndarray
    spectral_gap: float


def _anchored(vec: np.ndarray) -> np.ndarray:
    """``vec`` or ``-vec``, whichever has a nonnegative first entry (the
    entry of largest magnitude decides when the first is 0)."""
    anchor = vec[np.argmax(np.abs(vec))] if vec[0] == 0.0 else vec[0]
    return -vec if anchor < 0 else vec


def lowest_eigenpair(matrix: np.ndarray,
                     start: np.ndarray | None = None) -> EigenPair:
    """Smallest eigenvalue and unit ground state of a symmetric matrix.

    The eigenvector sign is fixed so its entry at the smallest momentum
    node (the first component) is nonnegative.

    Parameters
    ----------
    matrix : ndarray
        Real symmetric matrix: no entry of ``matrix - matrix.T`` may
        exceed ``1e-12 max(1, max |matrix|)`` in magnitude.
    start : ndarray, optional
        A vector close to the ground state.  The eigenvector is then one
        inverse-iteration step ``matrix^{-1} start``, which is accurate
        when the lowest eigenvalue lies much closer to zero than the
        second (as at ``T_c``), and ``eigvalsh`` gives the eigenvalues;
        without it ``eigh`` gives both.

    Returns
    -------
    EigenPair
        ``eigenvalue``, unit ``eigenvector``, and the gap to the second
        eigenvalue.
    """
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError("matrix must be square")
    tolerance = 1e-12 * max(1.0, float(np.abs(matrix).max()))
    if not float(np.abs(matrix - matrix.T).max()) <= tolerance:
        raise ValueError("matrix must be symmetric")
    if start is None:
        vals, vecs = np.linalg.eigh(matrix)
        vec = vecs[:, 0]
    else:
        vals = np.linalg.eigvalsh(matrix)
        vec = np.linalg.solve(matrix, start)
        vec /= np.linalg.norm(vec)
    vec = _anchored(vec)
    gap = float(vals[1] - vals[0]) if len(vals) > 1 else math.inf
    return EigenPair(float(vals[0]), vec, gap)


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

    def _kernel_sum(self, profile, p):
        """``-2 (2 pi)^{-1/2} sum_q (profile(p - q) + profile(p + q))
        alpha0_hat(q) dq`` over the grid nodes ``q``."""
        p_arr = np.atleast_1d(np.asarray(p, dtype=float))
        q = self.grid.nodes
        kernel = profile(p_arr[:, None] - q[None, :]) + profile(
            p_arr[:, None] + q[None, :]
        )
        out = -2.0 * (kernel @ self.alpha0_hat) * self.grid.dq / math.sqrt(
            2.0 * math.pi
        )
        return out if np.ndim(p) else float(out[0])

    def t(self, p):
        """Pair symbol ``t(p)``, smooth in ``p``, even, real-valued."""
        return self._kernel_sum(self.spec.vhat, p)

    def t_prime(self, p):
        """First derivative ``t'(p)``."""
        return self._kernel_sum(self.spec.vhat_d1, p)

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
        """``alpha0(x)`` by the even-sector inverse transform."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        weight = math.sqrt(2.0 / math.pi) * self.grid.dq
        return weight * (np.cos(self.grid.nodes[None, :] * x[:, None])
                         @ self.alpha0_hat)

    @cached_property
    def interaction_density(self) -> tuple[np.ndarray, np.ndarray]:
        """Nodes ``u``, 2048 on ``[0, spec.reach()]``, and ``V(u) alpha0(u)^2``.

        The integrand of the pair-interaction term of the trial-state
        energy apart from its ``h``-dependent factor, so every ``h`` of a
        sweep shares it.
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


def _positive_definite(matrix: np.ndarray) -> bool:
    """Whether the real symmetric ``matrix`` is positive definite.

    Decided by a Cholesky factorization (``np.linalg.cholesky``, LAPACK
    ``potrf`` on the lower triangle), which fails as soon as a
    nonpositive pivot appears.
    """
    try:
        np.linalg.cholesky(matrix)
    except np.linalg.LinAlgError:
        return False
    return True


def _kt_slope(x, T: float):
    """``d K_T(x) / dT = 2 w^2 / sinh^2 w`` with ``w = x / 2T`` (2 at w = 0)."""
    w = np.abs(np.asarray(x, dtype=float)) / (2.0 * T)
    with np.errstate(invalid="ignore"):
        ratio = np.where(w > 0.0, 2.0 * w * np.exp(-w) / -np.expm1(-2.0 * w),
                         1.0)
    return 2.0 * ratio * ratio


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


def _birman_schwinger(factor: np.ndarray, inverse: np.ndarray) -> np.ndarray:
    """``B^T diag(inverse) B`` (``r x r``) for a positive ``inverse``,
    exactly symmetric."""
    scaled = factor * np.sqrt(inverse)[:, None]
    return scaled.T @ scaled


def _newton_estimate(factor: np.ndarray, kinetic: np.ndarray, lo: float,
                     hi: float) -> tuple[float, int]:
    """Estimate of ``T_c`` in ``[lo, hi]`` and the number of Newton steps.

    With ``-V = B B^T`` (``factor``, ``n x r``), ``K_T + V`` is positive
    definite exactly when the top eigenvalue ``mu`` of the Birman-Schwinger
    matrix ``B^T K_T^{-1} B`` is below 1.  Newton's method on ``mu = 1`` in
    ``log T``, from ``hi``: each step takes one ``r x r`` ``eigh`` for
    ``mu`` and its unit eigenvector ``u``, and the Hellmann-Feynman slope
    ``d mu / dT = -(y * y).(d K_T / dT)`` with ``y = K_T^{-1} B u``.  A step
    that would leave the interval between the highest ``log T`` with
    ``mu > 1`` and the lowest with ``mu <= 1`` seen so far bisects that
    interval instead.  The iteration stops after a step below
    ``_NEWTON_TOLERANCE`` or after ``_NEWTON_STEPS`` steps.

    The estimate decides no sign: a poor one, or a poor factor, only
    leaves :func:`find_tc` more sign tests to make.
    """
    lo, hi = math.log(lo), math.log(hi)
    t = hi
    for steps in range(1, _NEWTON_STEPS + 1):
        T = math.exp(t)
        inverse = 1.0 / specfun.kt_symbol(kinetic, T)
        values, vectors = np.linalg.eigh(_birman_schwinger(factor, inverse))
        mu = float(values[-1])
        y = inverse * (factor @ vectors[:, -1])
        slope = T * float((y * y) @ _kt_slope(kinetic, T))
        step = (mu - 1.0) / slope if slope > 0.0 else math.inf
        if abs(step) <= _NEWTON_TOLERANCE:
            t += step
            break
        if mu > 1.0:
            lo = t
        else:
            hi = t
        t = t + step if lo < t + step < hi else 0.5 * (lo + hi)
    return math.exp(t), steps


def _ground_state(factor: np.ndarray, kt: np.ndarray) -> tuple[float, np.ndarray]:
    """Lowest eigenvalue and unit eigenvector of ``K - B B^T``, ``K =
    diag(kt)``, when that eigenvalue lies below ``min kt`` (as near 0 at
    ``T_c``, where ``kt >= 2 T_c``).

    For ``lam < min kt``, ``lam`` is an eigenvalue exactly when the top
    eigenvalue ``mu(lam)`` of ``B^T (K - lam)^{-1} B`` is 1.  ``mu`` is
    increasing and convex in ``lam``, with slope ``|y|^2`` for ``y = (K -
    lam)^{-1} B u``, ``u`` the top eigenvector; so Newton's method from
    ``lam = 0`` converges monotonically after at most one step past the
    root, each step one ``r x r`` ``eigh``.  A step at or above ``min kt``
    (no root below it) halves the distance to ``min kt`` instead.  The
    eigenvector is ``y / |y|``.
    """
    ceiling = float(kt.min())
    lam = 0.0
    for _ in range(_NEWTON_STEPS):
        inverse = 1.0 / (kt - lam)
        values, vectors = np.linalg.eigh(_birman_schwinger(factor, inverse))
        y = inverse * (factor @ vectors[:, -1])
        norm2 = float(y @ y)
        step = (float(values[-1]) - 1.0) / norm2
        lam = min(lam - step, 0.5 * (lam + ceiling))
        if abs(step) <= _GROUND_STATE_TOLERANCE * ceiling:
            break
    return lam, y / math.sqrt(norm2)


def _second_eigenvalue(factor: np.ndarray, kt: np.ndarray, lowest: float) -> float:
    """Second eigenvalue of ``K - B B^T``, ``K = diag(kt)``, above its
    lowest eigenvalue ``lowest``.

    It lies between ``lowest`` and the second smallest ``kt`` (Weyl), and
    that bracket narrows by inertia counts: by Haynsworth's inertia
    additivity, for ``x`` off the spectrum of ``K`` the number of
    eigenvalues below ``x`` is ``p = #{kt < x}`` (0 or 1 here) plus the
    number of eigenvalues of ``B^T (K - x)^{-1} B`` above 1, one ``r x r``
    ``eigh``.  Every eigenvalue of that matrix increases with ``x``, and
    the ``(2 - p)``-th largest reaches 1 at the second eigenvalue, so the
    next ``x`` is a Newton step on it (slope ``|y|^2`` as in
    :func:`_ground_state`), or the midpoint of the bracket when the step
    leaves it or the matrix has fewer than ``2 - p`` eigenvalues.  The
    first ``x`` is the midpoint of the two smallest ``kt``, between which
    the second eigenvalue usually lies.  The iteration stops after a step
    below ``_GAP_TOLERANCE`` of ``|x|`` or at that relative bracket width.
    """
    first, second = np.partition(kt, 1)[:2]
    lo, hi = lowest, float(second)
    x = 0.5 * (first + hi) if first < hi else 0.5 * (lo + hi)
    while hi - lo > _GAP_TOLERANCE * abs(hi):
        inverse = 1.0 / (kt - x)
        values, vectors = np.linalg.eigh((factor * inverse[:, None]).T @ factor)
        poles = int(np.count_nonzero(inverse < 0.0))
        if poles + int(np.count_nonzero(values > 1.0)) >= 2:
            hi = x
        else:
            lo = x
        crossing = poles - 2
        if -crossing <= len(values):
            y = inverse * (factor @ vectors[:, crossing])
            step = (float(values[crossing]) - 1.0) / float(y @ y)
            if abs(step) <= _GAP_TOLERANCE * abs(x):
                return x - step
            if lo < x - step < hi:
                x -= step
                continue
        x = 0.5 * (lo + hi)
    return 0.5 * (lo + hi)


def find_tc(
    spec: PotentialSpec,
    grid: MomentumGrid | None = None,
) -> GapSolution:
    """Locate ``T_c`` and return the (unnormalized) solution.

    ``lambda_min(T)`` is strictly increasing, so ``T < T_c`` exactly when
    ``K_T + V`` is not positive definite.  ``T_c`` is the midpoint of the
    bracket that bisection of ``[1e-6, 10 max(|mu|, 1)]`` leaves at a
    relative width of 1e-10, each step deciding one such sign test.

    ``-V = B B^T + E`` with ``0 <= E <= s`` (:func:`_attraction_factor`),
    so ``K_T - B B^T - s <= K_T + V <= K_T - B B^T``.  A sign test
    therefore first factors ``r x r`` Birman-Schwinger matrices: "paired"
    when ``I - B^T K_T^{-1} B`` fails a Cholesky factorization, "not
    paired" when ``I - B^T (K_T - s)^{-1} B`` passes one.  Only inside
    that band does the ``n x n`` Cholesky of ``K_T + V``
    (:func:`_positive_definite`) decide, so the decisions never depend on
    the factor, only their cost does.

    Sign tests at ``T* (1 -+ 2e-13)`` around a Newton estimate ``T*``
    (:func:`_newton_estimate`) certify a bracket ``[a, b]``, ``a`` paired
    and ``b`` not.  The bisection then takes a midpoint at or below ``a``
    as paired and one at or above ``b`` as not, and tests only those
    inside ``(a, b)``, each narrowing the bracket.  The decisions, and so
    ``T_c``, are those of testing every midpoint; a poor estimate only
    leaves more midpoints to test.

    Pairing is probed at ``T = 1e-6``; ``K_T + V`` positive definite
    there raises :class:`NoPairingError` (T_c = 0), and not positive
    definite at the top of the bracket :class:`BracketError`; both
    report the lowest eigenvalue there, from a dense ``eigvalsh``.

    At ``T_c`` the ground state and ``lambda_min`` are those of ``K_T -
    B B^T`` (:func:`_ground_state`), checked by the residual of ``K_T +
    V`` on the vector, one ``n x n`` product; the spectral gap is that of
    ``K_T - B B^T`` from inertia counts (:func:`_second_eigenvalue`).  A
    residual above ``_GROUND_STATE_RESIDUAL`` (a poor factor) hands the
    vector to one inverse-iteration step on ``K_T + V``
    (:func:`lowest_eigenpair`), which then gives all three.

    The solution's ``tc_search`` records the work: ``attraction_rank``,
    the rank ``r`` of ``B``; ``newton_steps`` (an ``r x r``
    Birman-Schwinger eigensolve each); ``certificate_tests`` and
    ``replay_tests`` (the sign tests at the estimate and inside the
    bracket; two more test the ends of the initial bracket);
    ``bracket_rel_width``, ``(b - a) / T_c`` of the certified bracket;
    ``dense_tests``, the ``n x n`` factorizations taken, one per sign
    test inside the band and two (``eigvalsh`` and an LU solve) for the
    inverse-iteration step, 0 in a normal solve; and ``factor_residual``,
    ``s``.  The grid samples of the pair symbol are ``-2 V alpha0_hat``,
    the interaction matrix applied to the ground state.

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
    _validate_coverage(spec, grid)
    q = grid.nodes
    kinetic = q * q - spec.mu
    interaction = _interaction_matrix(spec, grid)
    factor, band = _attraction_factor(interaction)
    identity = np.eye(factor.shape[1])
    dense_tests = 0

    def gap_matrix(T: float) -> np.ndarray:
        mat = interaction.copy()
        mat[np.diag_indices_from(mat)] += specfun.kt_symbol(kinetic, T)
        return mat

    def paired(T: float) -> bool:
        """``lambda_min(T) < 0``: ``K_T + V`` is not positive definite."""
        nonlocal dense_tests
        kt = specfun.kt_symbol(kinetic, T)
        if not _positive_definite(identity - _birman_schwinger(factor, 1.0 / kt)):
            return True
        if kt.min() > band and _positive_definite(
                identity - _birman_schwinger(factor, 1.0 / (kt - band))):
            return False
        dense_tests += 1
        return not _positive_definite(gap_matrix(T))

    def lam(T: float) -> float:
        return float(np.linalg.eigvalsh(gap_matrix(T))[0])

    probe = _PROBE_TEMPERATURE
    if not paired(probe):
        raise NoPairingError(lam(probe), probe)

    lo, hi = probe, 10.0 * max(abs(spec.mu), 1.0)
    if paired(hi):
        raise BracketError(
            f"lambda_min({hi:.3f}) = {lam(hi):.3e} <= 0; no sign change up "
            "to the upper temperature bracket"
        )

    estimate, steps = _newton_estimate(factor, kinetic, lo, hi)
    # a is known paired and b not; every sign test narrows [a, b]
    a, b = lo, hi
    tests = {"certificate_tests": 0, "replay_tests": 0}

    def narrow(T: float, kind: str) -> None:
        nonlocal a, b
        tests[kind] += 1
        if paired(T):
            a = T
        else:
            b = T

    for T in (estimate * (1.0 - _CERTIFICATE_OFFSET),
              estimate * (1.0 + _CERTIFICATE_OFFSET)):
        if a < T < b:
            narrow(T, "certificate_tests")
    certified_width = b - a

    while (hi - lo) > _REL_TOLERANCE * lo:
        mid = 0.5 * (lo + hi)
        if a < mid < b:
            narrow(mid, "replay_tests")
        if mid <= a:
            lo = mid
        else:
            hi = mid

    T_c = 0.5 * (lo + hi)
    kt = specfun.kt_symbol(kinetic, T_c)

    def residual(value: float, vector: np.ndarray) -> tuple[float, np.ndarray]:
        """``|(K_T + V) vector - value vector|`` and ``V vector``."""
        pulled = interaction @ vector
        return float(np.linalg.norm(pulled + (kt - value) * vector)), pulled

    lambda_min, vec = _ground_state(factor, kt)
    vec = _anchored(vec)
    eig_norm, pulled = residual(lambda_min, vec)
    if eig_norm <= _GROUND_STATE_RESIDUAL:
        spectral_gap = _second_eigenvalue(factor, kt, lambda_min) - lambda_min
    else:
        dense_tests += 2
        pair = lowest_eigenpair(gap_matrix(T_c), start=vec)
        lambda_min, vec, spectral_gap = (pair.eigenvalue, pair.eigenvector,
                                         pair.spectral_gap)
        eig_norm, pulled = residual(lambda_min, vec)
    # ||(K + V) alpha0|| / ||alpha0|| at solver resolution: the eigenvalue
    # itself is within the bracket tolerance of zero.
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
        tc_search={"attraction_rank": factor.shape[1], "newton_steps": steps,
                   **tests, "bracket_rel_width": certified_width / T_c,
                   "dense_tests": dense_tests, "factor_residual": band},
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
        Temperature-offset coefficient, > 0.

    Returns
    -------
    GapSolution
        A new solution with ``norm_scale`` and ``D`` recorded.
    """
    if not D > 0:
        raise ValueError(f"D must be positive, got {D}")
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


def decay_report(
    sol: GapSolution, x_max: float | None = None, n_x: int = 4096
) -> DecayReport:
    """Real-space decay rate of the ground state.

    Fits ``ln |alpha0|`` at its local maxima (envelope peaks) over the
    window where ``|alpha0|`` lies in ``[1e-10, 1e-3] * max``; the fitted
    rate should approach ``kappa_c`` from below, and a ``UserWarning``
    flags a rate below ``MIN_DECAY_RATIO * kappa_c``.  With no sample in
    the window it warns and reports a NaN rate and window and no fit
    points.

    Parameters
    ----------
    sol : GapSolution
    x_max : float, optional
        Extent of the real-space grid; default covers decay to ~1e-12
        while staying below the aliasing limit ``pi / dq``.
    n_x : int
        Number of grid points.

    Returns
    -------
    DecayReport
    """
    kappa = sol.kappa_c
    alias_limit = math.pi / sol.grid.dq
    if x_max is None:
        x_max = min(30.0 / kappa, 0.85 * alias_limit)
    x = np.linspace(0.0, x_max, n_x)
    abs_alpha = np.abs(sol.alpha0(x))
    peak = abs_alpha.max()
    lo_threshold, hi_threshold = 1e-10 * peak, 1e-3 * peak
    peaks = _local_maxima(abs_alpha)
    in_window = peaks[
        (abs_alpha[peaks] >= lo_threshold) & (abs_alpha[peaks] <= hi_threshold)
    ]
    if in_window.size >= 5:
        fit_x, fit_y = x[in_window], np.log(abs_alpha[in_window])
    else:
        mask = (abs_alpha >= lo_threshold) & (abs_alpha <= hi_threshold)
        fit_x, fit_y = x[mask], np.log(abs_alpha[mask])
    if fit_x.size == 0:
        warnings.warn("empty decay-fit window; grid too coarse for the fit")
        rate, fit_window = math.nan, (math.nan, math.nan)
    else:
        rate = -float(np.polyfit(fit_x, fit_y, 1)[0])
        fit_window = (float(fit_x[0]), float(fit_x[-1]))
        if rate < MIN_DECAY_RATIO * kappa:
            warnings.warn(
                f"fitted decay rate {rate:.4g} is below {MIN_DECAY_RATIO} "
                f"kappa_c = {MIN_DECAY_RATIO * kappa:.4g}: the fit window "
                "sits on a truncation floor of the profile; refine the "
                "momentum grid")

    return DecayReport(
        fitted_decay_rate=rate,
        kappa_c=kappa,
        n_fit_points=int(len(fit_x)),
        fit_window=fit_window,
    )
