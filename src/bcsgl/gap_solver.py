"""Critical temperature and gap profile of the linear BCS pairing problem.

The translation-invariant pairing operator ``K_T + V`` acts on reflection
symmetric functions; its lowest eigenvalue is strictly increasing in the
temperature ``T``, so the critical temperature is the unique ``T_c`` with
``lambda_min(T_c) = 0`` (or 0 if no pairing occurs at any temperature).
This module discretizes the problem in the even momentum sector on a
uniform half-line grid, locates ``T_c`` by bisection on the positive
definiteness of ``K_T + V`` (``T < T_c`` exactly when it is not positive
definite), decided by a Cholesky factorization, and packages the ground
state ``alpha0`` together with the induced pair symbol

    t(p) = -2 (2 pi)^{-1/2} integral [Vhat(p - q) + Vhat(p + q)] alpha0_hat(q) dq

which is evaluated *through the eigen-equation* at arbitrary momenta, so
``t`` is globally smooth with closed-form derivatives and exactly
consistent with the grid samples.  A normalization step rescales the
profile so the quartic/quadratic balance condition holds for a prescribed
temperature-offset coefficient ``D``.

Only ``dim = 1`` is wired to the solver; the potential types carry the
general dimension for completeness.

The Cholesky test and the ground state use SciPy's LAPACK, imported
inside the functions that call it, so importing this module loads no
SciPy.  NumPy's routines would be slower here: ``np.linalg.cholesky``
does not stop at the first nonpositive pivot, and ``np.linalg.eigh``
computes every eigenpair where one or two are needed.
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
    """Even-sector interaction kernel ``(2 pi)^{-1/2} (Vhat(q-q') + Vhat(q+q')) dq``."""
    q = grid.nodes
    diff = q[:, None] - q[None, :]
    total = q[:, None] + q[None, :]
    return (spec.vhat(diff) + spec.vhat(total)) * grid.dq / math.sqrt(2.0 * math.pi)


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


def lowest_eigenpair(matrix: np.ndarray) -> EigenPair:
    """Smallest eigenvalue and unit ground state of a symmetric matrix.

    The eigenvector sign is fixed so its entry at the smallest momentum
    node (the first component) is nonnegative.

    Parameters
    ----------
    matrix : ndarray
        Real symmetric matrix.

    Returns
    -------
    EigenPair
        ``eigenvalue``, unit ``eigenvector``, and the gap to the second
        eigenvalue.
    """
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError("matrix must be square")
    if not np.allclose(matrix, matrix.T, atol=1e-12 * max(1.0, np.abs(matrix).max())):
        raise ValueError("matrix must be symmetric")
    from scipy import linalg

    upper = min(1, matrix.shape[0] - 1)
    vals, vecs = linalg.eigh(matrix, subset_by_index=[0, upper])
    vec = vecs[:, 0]
    anchor = vec[np.argmax(np.abs(vec))] if vec[0] == 0.0 else vec[0]
    if anchor < 0:
        vec = -vec
    gap = float(vals[1] - vals[0]) if upper == 1 else math.inf
    return EigenPair(float(vals[0]), vec, gap)


@dataclass
class GapSolution:
    """Solved gap problem: ``T_c``, ground state, pair symbol, diagnostics.

    The pair symbol ``t`` and its derivatives are evaluated through the
    eigen-equation (a smooth sum of shifted ``Vhat`` profiles weighted by
    the ground state), so values at arbitrary momenta are consistent with
    the stored grid samples to the eigen-residual.
    """

    spec: PotentialSpec
    grid: MomentumGrid
    T_c: float
    alpha0_hat: np.ndarray
    lambda_min: float
    eig_residual: float
    spectral_gap: float
    norm_scale: float | None = None
    D: float | None = None
    t_samples: np.ndarray = field(default=None, repr=False)  # type: ignore[assignment]

    def __post_init__(self):
        if not self.T_c > 0:
            raise ValueError("GapSolution requires T_c > 0")
        if self.t_samples is None:
            self.t_samples = self.t(self.grid.nodes)

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
        """Smallest grid momentum beyond which ``|t| < 1e-8 * max|t|``."""
        t_abs = np.abs(self.t_samples)
        above = np.nonzero(t_abs >= 1e-8 * t_abs.max())[0]
        edge = int(above[-1]) if above.size else 0
        if edge == self.grid.n_points - 1:
            warnings.warn("pair symbol not decayed below tolerance at the cutoff")
        return float(self.grid.nodes[min(edge + 1, self.grid.n_points - 1)])

    # -- real space ---------------------------------------------------------

    def alpha0(self, x) -> np.ndarray:
        """``alpha0(x)`` by the even-sector inverse transform."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        weight = math.sqrt(2.0 / math.pi) * self.grid.dq
        return weight * (np.cos(self.grid.nodes[None, :] * x[:, None])
                         @ self.alpha0_hat)

    def real_space(self, x) -> tuple[np.ndarray, np.ndarray]:
        """``alpha0(x)`` and ``alpha0'(x)`` by the even-sector inverse transform."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        q = self.grid.nodes
        weight = math.sqrt(2.0 / math.pi) * self.grid.dq
        alpha_prime = -weight * (np.sin(q[None, :] * x[:, None])
                                 @ (q * self.alpha0_hat))
        return self.alpha0(x), alpha_prime

    @cached_property
    def interaction_density(self) -> tuple[np.ndarray, np.ndarray]:
        """Nodes ``u``, 2048 on ``[0, spec.reach()]``, and ``V(u) alpha0(u)^2``.

        The integrand of the pair-interaction term of the trial-state
        energy apart from its ``h``-dependent factor, so every ``h`` of a
        sweep shares it.
        """
        u = np.linspace(0.0, self.spec.reach(), 2048)
        return u, self.spec.v(u) * self.alpha0(u) ** 2

    # -- validation and serialization ---------------------------------------

    def validate(self) -> dict:
        """Recheck the solution invariants; returns the residuals."""
        q = self.grid.nodes
        pointwise = self.t_samples - 2.0 * specfun.kt_symbol(
            q * q - self.mu, self.T_c
        ) * self.alpha0_hat
        scale = np.abs(self.t_samples).max()
        report = {
            "eig_residual": self.eig_residual,
            "t_pointwise_residual": float(np.abs(pointwise).max() / scale),
            "t_cutoff_ratio": float(np.abs(self.t_samples[-1]) / scale),
        }
        if self.norm_scale is not None:
            report["normalization_residual"] = normalization_residual(self)
        return report

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
            t_samples=np.asarray(data["t_samples"], dtype=float),
        )


def _positive_definite(matrix: np.ndarray) -> bool:
    """Whether the real symmetric ``matrix`` is positive definite.

    Decided by a Cholesky factorization (LAPACK ``potrf``), which fails,
    often after a few columns, as soon as a nonpositive pivot appears.
    Reads the lower triangle, as ``linalg.eigh`` does, and may overwrite it.
    """
    from scipy import linalg

    # The transpose of a C-ordered array is Fortran-ordered, so potrf works
    # in place; its upper triangle is the lower triangle of ``matrix``.
    _, info = linalg.lapack.dpotrf(matrix.T, lower=0, clean=0, overwrite_a=1)
    return info == 0


def find_tc(
    spec: PotentialSpec,
    grid: MomentumGrid | None = None,
) -> GapSolution:
    """Locate ``T_c`` by bisection and return the (unnormalized) solution.

    ``lambda_min(T)`` is strictly increasing, so ``T < T_c`` exactly when
    ``K_T + V`` is not positive definite.  Each bisection step asks only
    that question, answered by a Cholesky factorization; eigenvalues are
    computed only for the ground state at the converged temperature and
    for the value reported by :class:`NoPairingError` or
    :class:`BracketError`.  The returned solution carries that ground
    state and the induced pair symbol.

    Pairing is probed at ``T = 1e-6``; ``K_T + V`` positive definite
    there raises :class:`NoPairingError` (T_c = 0).  Bisection stops at a
    relative bracket width of 1e-10.

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
    diag = np.diag_indices_from(interaction)

    def gap_matrix(T: float) -> np.ndarray:
        mat = interaction.copy()
        mat[diag] += specfun.kt_symbol(kinetic, T)
        return mat

    def paired(T: float) -> bool:
        """``lambda_min(T) < 0``: ``K_T + V`` is not positive definite."""
        return not _positive_definite(gap_matrix(T))

    def lam(T: float) -> float:
        from scipy import linalg

        vals = linalg.eigh(gap_matrix(T), subset_by_index=[0, 0],
                           eigvals_only=True)
        return float(vals[0])

    probe = _PROBE_TEMPERATURE
    if not paired(probe):
        raise NoPairingError(lam(probe), probe)

    lo, hi = probe, 10.0 * max(abs(spec.mu), 1.0)
    if paired(hi):
        raise BracketError(
            f"lambda_min({hi:.3f}) = {lam(hi):.3e} <= 0; no sign change up "
            "to the upper temperature bracket"
        )

    while (hi - lo) > _REL_TOLERANCE * lo:
        mid = 0.5 * (lo + hi)
        if paired(mid):
            lo = mid
        else:
            hi = mid

    T_c = 0.5 * (lo + hi)
    mat = gap_matrix(T_c)
    pair = lowest_eigenpair(mat)
    residual = float(
        np.linalg.norm(mat @ pair.eigenvector - pair.eigenvalue * pair.eigenvector)
    )
    # ||(K + V) alpha0|| / ||alpha0|| at solver resolution: the eigenvalue
    # itself is within the bracket tolerance of zero.
    eig_residual = abs(pair.eigenvalue) + residual

    return GapSolution(
        spec=spec,
        grid=grid,
        T_c=T_c,
        alpha0_hat=pair.eigenvector / math.sqrt(grid.dq),
        lambda_min=pair.eigenvalue,
        eig_residual=eig_residual,
        spectral_gap=pair.spectral_gap,
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
    """Exponential decay fit and weighted moments of the real-space profile."""

    fitted_decay_rate: float
    kappa_c: float
    moment_table: dict
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
    """Real-space decay rate and weighted moments of the ground state.

    Fits ``ln |alpha0|`` at its local maxima (envelope peaks) over the
    window where ``|alpha0|`` lies in ``[1e-10, 1e-3] * max``; the fitted
    rate should approach ``kappa_c`` from below, and a ``UserWarning``
    flags a rate below ``MIN_DECAY_RATIO * kappa_c``.  With no sample in
    the window it warns and reports a NaN rate and window and no fit
    points.  Also reports the moments ``integral (1 + x^2) |alpha0|^2 dx``
    and the same with ``alpha0'``.

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
    alpha, alpha_prime = sol.real_space(x)

    abs_alpha = np.abs(alpha)
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

    dx = x[1] - x[0]
    weight = 1.0 + x * x
    # Even profile: integrals over the line are twice the half-line values;
    # trapezoid with the x = 0 endpoint halved.
    trap = np.ones_like(x)
    trap[0] = trap[-1] = 0.5
    m_l2 = 2.0 * float(np.sum(trap * weight * alpha * alpha) * dx)
    m_h1 = 2.0 * float(np.sum(trap * weight * alpha_prime * alpha_prime) * dx)

    return DecayReport(
        fitted_decay_rate=rate,
        kappa_c=kappa,
        moment_table={
            "weighted_l2": m_l2,
            "weighted_grad_l2": m_h1,
            "total": m_l2 + m_h1,
        },
        n_fit_points=int(len(fit_x)),
        fit_window=fit_window,
    )
