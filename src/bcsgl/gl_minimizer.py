"""Ginzburg-Landau energy on the unit torus: evaluation and minimization.

Fields are truncated Fourier series (`TorusField`).  The energy

    E(psi) = integral [ conj(D psi) B1 (D psi) + B2 W |psi|^2
                        + B3 (1 - |psi|^2)^2 ] dx,

with covariant derivative ``D = -i d/dx + 2 A`` (pair charge 2), has a
quadratic part ``psihat^H Q psihat``, with ``Q`` the Hermitian matrix of
``B1 D^2 + B2 W`` on psi's plane-wave modes (built once per descent),
and a quartic term averaged over a grid that depends on psi alone: with
``N = psi.n_max`` the quartic term carries frequencies up to ``4 N``, so
``4 N + 1`` points integrate it exactly.  Neither part has any
quadrature or dealiasing error.

One evaluator per descent, built once from the fields, returns the
energy, its Wirtinger gradient and the exact Hessian from the same grid
samples: the Hessian is ``Q`` plus two convolution matrices of the grid
coefficients of ``|psi|^2`` and ``psi^2``.  The unknowns are few (the
real and imaginary parts of ``2 N + 1`` coefficients), so minimization
runs a dense trust-region Newton descent from several starting fields
and keeps the lowest local minimum.  An interior Newton step comes from
a Cholesky test and one solve, with the global-phase zero mode of
complex descents lifted by a rank-one term; one eigendecomposition runs
only when the Hessian is indefinite or the step leaves the trust region.
The constant fields ``psi = 1`` and ``psi = 0`` (always a critical
point, with energy exactly ``B3``) bound the reported energy from above
by construction.

When ``A = 0`` and ``W`` is even (every coefficient of ``a`` exactly 0,
every coefficient of ``w`` exactly real) the energy is invariant under
``psi(x) -> conj psi(-x)``, whose fixed points are the fields with real
Fourier coefficients, so a critical point among those is a critical
point of the full functional.  The minimizer lies there up to one global
phase: the energy does not increase under ``psi -> |psi|`` and is
strictly convex in ``|psi|^2`` (Lieb-Loss, *Analysis*, Thms 6.17 and
7.8).  The descent then runs on the real coefficients alone, and the
returned ``psi`` has imaginary parts exactly 0.0.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .gl_coeffs import GLCoefficients
from .specfun import next_fast_len

__all__ = [
    "TorusField",
    "GLState",
    "gl_energy",
    "gl_gradient",
    "minimize",
    "directional_derivative",
]

#: l2 gradient-norm target of a descent, which converges below a tenth
#: of it (:func:`_descend`), and the step cap of each descent.
_GTOL = 1e-9
_MAX_STEPS = 100
#: Machine epsilon: a gradient below ``_EPS * |Q psi|``, one of the
#: terms it is the sum of, is zero to working precision.
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class TorusField:
    """Truncated Fourier series ``f(x) = sum_n coeffs[n] e^{2 pi i n x}``.

    Attributes
    ----------
    coeffs : ndarray
        Complex amplitudes ordered ``n = -n_max .. n_max``.
    n_max : int
        Largest retained mode index.
    """

    coeffs: np.ndarray
    n_max: int

    def __post_init__(self):
        coeffs = np.asarray(self.coeffs, dtype=complex)
        if coeffs.shape != (2 * self.n_max + 1,):
            raise ValueError(
                f"expected {2 * self.n_max + 1} coefficients for n_max="
                f"{self.n_max}, got shape {coeffs.shape}"
            )
        object.__setattr__(self, "coeffs", coeffs)

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, n_max: int) -> "TorusField":
        return cls(np.zeros(2 * n_max + 1, dtype=complex), n_max)

    @classmethod
    def constant(cls, value: complex, n_max: int = 0) -> "TorusField":
        f = cls.zero(n_max)
        f.coeffs[n_max] = value
        return f

    @classmethod
    def cosine(cls, amplitude: float, frequency: int = 1) -> "TorusField":
        """``amplitude * cos(2 pi frequency x)`` as a real field."""
        return cls.from_modes({frequency: amplitude / 2.0,
                               -frequency: amplitude / 2.0})

    @classmethod
    def sine(cls, amplitude: float, frequency: int = 1) -> "TorusField":
        """``amplitude * sin(2 pi frequency x)`` as a real field."""
        return cls.from_modes({frequency: amplitude / 2.0j,
                               -frequency: -amplitude / 2.0j})

    @classmethod
    def from_modes(cls, modes: Mapping[int, complex],
                   n_max: int | None = None) -> "TorusField":
        """Build from a sparse ``{mode index: amplitude}`` mapping."""
        if n_max is None:
            n_max = max((abs(int(n)) for n in modes), default=0)
        f = cls.zero(n_max)
        for n, value in modes.items():
            n = int(n)
            if abs(n) > n_max:
                raise ValueError(f"mode {n} exceeds n_max={n_max}")
            f.coeffs[n_max + n] = value
        return f

    # -- accessors --------------------------------------------------------

    @property
    def modes(self) -> np.ndarray:
        """Mode indices ``-n_max .. n_max`` aligned with ``coeffs``."""
        return np.arange(-self.n_max, self.n_max + 1)

    def coeff(self, n: int) -> complex:
        if abs(n) > self.n_max:
            return 0.0 + 0.0j
        return complex(self.coeffs[self.n_max + n])

    def is_real(self, tol: float = 1e-12) -> bool:
        """Whether the coefficients are conjugate-symmetric."""
        return bool(
            np.allclose(self.coeffs, np.conj(self.coeffs[::-1]),
                        rtol=0.0, atol=tol)
        )

    # -- calculus and evaluation ------------------------------------------

    def derivative(self) -> "TorusField":
        return TorusField(2j * math.pi * self.modes * self.coeffs, self.n_max)

    def evaluate(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        phases = np.exp(2j * math.pi * np.multiply.outer(x, self.modes))
        return phases @ self.coeffs

    def values_on_grid(self, m: int) -> np.ndarray:
        """Samples at ``x_j = j/m`` via zero-padded inverse FFT."""
        if m < 2 * self.n_max + 1:
            raise ValueError(
                f"grid of {m} points cannot hold modes up to {self.n_max}"
            )
        packed = np.zeros(m, dtype=complex)
        packed[self.modes % m] = self.coeffs
        return np.fft.ifft(packed) * m

    def with_n_max(self, n_max: int) -> "TorusField":
        """Pad (or truncate) the series to a different ``n_max``."""
        f = TorusField.zero(n_max)
        keep = min(n_max, self.n_max)
        f.coeffs[n_max - keep: n_max + keep + 1] = self.coeffs[
            self.n_max - keep: self.n_max + keep + 1
        ]
        return f

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other: "TorusField") -> "TorusField":
        n_max = max(self.n_max, other.n_max)
        a, b = self.with_n_max(n_max), other.with_n_max(n_max)
        return TorusField(a.coeffs + b.coeffs, n_max)

    def __sub__(self, other: "TorusField") -> "TorusField":
        n_max = max(self.n_max, other.n_max)
        a, b = self.with_n_max(n_max), other.with_n_max(n_max)
        return TorusField(a.coeffs - b.coeffs, n_max)

    def __mul__(self, scalar: complex) -> "TorusField":
        return TorusField(self.coeffs * scalar, self.n_max)

    __rmul__ = __mul__

    # -- serialization ----------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "n_max": self.n_max,
            "coeffs": {
                str(n): [float(c.real), float(c.imag)]
                for n, c in zip(self.modes, self.coeffs)
                if c != 0
            },
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "TorusField":
        modes = {
            int(n): complex(v[0], v[1]) for n, v in data["coeffs"].items()
        }
        return cls.from_modes(modes, n_max=int(data["n_max"]))


# ---------------------------------------------------------------------------
# Operator matrices on plane-wave modes
# ---------------------------------------------------------------------------


def _coeff_matrix(f: TorusField, modes: np.ndarray,
                  cols: np.ndarray | None = None) -> np.ndarray:
    """Matrix of multiplication by ``f`` on the plane waves ``modes``:
    ``C[i, j] = f.coeff(modes[i] - cols[j])`` on ascending ``modes`` and
    ``cols`` (default: ``modes``), stored real when every coefficient of
    ``f`` is exactly real."""
    cols = modes if cols is None else cols
    coeffs = f.coeffs if f.coeffs.imag.any() else f.coeffs.real
    span = int(max(modes[-1] - cols[0], cols[-1] - modes[0]))
    lookup = np.zeros(2 * span + 1, dtype=coeffs.dtype)
    keep = min(span, f.n_max)
    lookup[span - keep: span + keep + 1] = coeffs[f.n_max - keep:
                                                  f.n_max + keep + 1]
    nu = modes[:, None] - cols[None, :]
    return lookup[nu + span]


def _field_square(a: TorusField) -> TorusField:
    return TorusField(np.convolve(a.coeffs, a.coeffs), 2 * a.n_max)


def _covariant_square(a: TorusField, n_max: int) -> np.ndarray:
    """Matrix of ``D^2 = p^2 + 2 (p a + a p) + 4 a^2``, ``D = -i d/dx +
    2 a``, on the modes ``-n_max .. n_max`` (``p`` is diagonal ``2 pi n``).
    ``a^2`` is squared before it is restricted, so for real ``a`` the form
    ``c^H M c`` is exactly ``||D f||^2`` of the field with coefficients
    ``c``."""
    modes = np.arange(-n_max, n_max + 1)
    k = 2.0 * math.pi * modes
    return (
        np.diag(k * k)
        + 2.0 * (k[:, None] + k[None, :]) * _coeff_matrix(a, modes)
        + 4.0 * _coeff_matrix(_field_square(a), modes)
    )


def _quadratic_part(a: TorusField, w: TorusField, coef: GLCoefficients,
                    n_max: int) -> np.ndarray:
    """Matrix ``Q`` of ``B1 D^2 + B2 W`` on the modes ``-n_max .. n_max``."""
    return (coef.b1_scalar * _covariant_square(a, n_max)
            + coef.B2 * _coeff_matrix(w, np.arange(-n_max, n_max + 1)))


# ---------------------------------------------------------------------------
# Energy, gradient and Hessian
# ---------------------------------------------------------------------------


def _pack(coeffs: np.ndarray) -> np.ndarray:
    return np.concatenate([coeffs.real, coeffs.imag])


def _unpack(z: np.ndarray) -> np.ndarray:
    half = len(z) // 2
    return z[:half] + 1j * z[half:]


class _Evaluator:
    """Energy, gradient and Hessian of one descent, in its unknowns.

    Built once per ``(a, w, coef, n_max)``: ``Q`` (:func:`_quadratic_part`
    on the modes ``-N .. N``), the collocation grid of ``m`` points
    (default: the smallest fast size ``>= 4 N + 1``), the FFT slots of
    psi's modes on that grid, and the Toeplitz gather index that reads a
    multiplier's matrix ``C[i, j] = f_{n_i - n_j}`` off the multiplier's
    FFT.  The unknowns are the real coefficients when ``A = 0`` and ``W``
    is even (module docstring), the packed ``[Re, Im]`` ones otherwise.
    """

    def __init__(self, a: TorusField, w: TorusField, coef: GLCoefficients,
                 n_max: int, m: int | None = None):
        modes = np.arange(-n_max, n_max + 1)
        self.coef = coef
        self.quad = _quadratic_part(a, w, coef, n_max)
        self.real = not a.coeffs.any() and not w.coeffs.imag.any()
        self.m = m or next_fast_len(4 * n_max + 1)
        self.slots = modes % self.m
        self.gather = (modes[:, None] - modes[None, :]) % self.m

    def coeffs(self, z: np.ndarray) -> np.ndarray:
        return z.astype(complex) if self.real else _unpack(z)

    def unknowns(self, coeffs: np.ndarray) -> np.ndarray:
        return coeffs.real if self.real else _pack(coeffs)

    def phase(self, z: np.ndarray) -> np.ndarray | None:
        """The global-phase direction ``i psi`` in packed unknowns; None
        for real ones, which have no continuous phase."""
        if self.real:
            return None
        half = len(z) // 2
        return np.concatenate([-z[half:], z[:half]])

    def energy(self, coeffs: np.ndarray):
        """Energy and Wirtinger gradient at the field with ``coeffs``.

        Returns ``(energy, grad, psi_g, q_psi)``: ``grad`` holds the
        coefficients of ``Q psi - 2 B3 (1-|psi|^2) psi``, ``psi_g`` the
        samples of ``psi`` on the grid, from which :meth:`hessian`
        assembles the Hessian, and ``q_psi`` those of ``Q psi``.
        """
        q_psi = self.quad @ coeffs
        packed = np.zeros(self.m, dtype=complex)
        packed[self.slots] = coeffs
        psi_g = np.fft.ifft(packed) * self.m
        abs2 = np.abs(psi_g) ** 2
        # B3 multiplies the *mean* of the quartic term, not the grid values,
        # so a mean that is exact (e.g. at psi = 0) contributes without
        # reduction roundoff
        energy = np.vdot(coeffs, q_psi) + self.coef.B3 * np.mean(
            (1.0 - abs2) ** 2)
        scale = max(1.0, abs(energy))
        if abs(energy.imag) > 1e-12 * scale:
            raise FloatingPointError(
                f"energy has imaginary residue {energy.imag:.3e}; "
                "are the external fields real?"
            )
        quartic = np.fft.fft(-2.0 * self.coef.B3 * (1.0 - abs2) * psi_g)
        grad = q_psi + (quartic / self.m)[self.slots]
        return float(energy.real), grad, psi_g, q_psi

    def hessian(self, psi_g: np.ndarray):
        """Exact Hessian ``(lin, conj)`` at the field with grid samples
        ``psi_g``: ``lin @ eta + conj @ conj(eta)`` holds the coefficients
        of ``Q eta + 2 B3 ((2 |psi|^2 - 1) eta + psi^2 conj(eta))``, whose
        multipliers (frequencies up to ``2 N``) the grid resolves.
        """
        def multiplier(values):
            return 2.0 * self.coef.B3 * (np.fft.fft(values) / self.m)[
                self.gather]

        # conj(eta) has coefficient conj(eta_{-n}) at mode n, hence the
        # reversed columns
        return (self.quad + multiplier(2.0 * np.abs(psi_g) ** 2 - 1.0),
                multiplier(psi_g ** 2)[:, ::-1])

    def __call__(self, z: np.ndarray):
        """Energy, gradient and Hessian in the unknowns, the l2 norm of
        the full Wirtinger gradient, and its roundoff floor."""
        energy, grad, psi_g, q_psi = self.energy(self.coeffs(z))
        lin, conj = self.hessian(psi_g)
        if self.real:
            jac, hess = 2.0 * grad.real, 2.0 * (lin + conj).real
        else:
            n = len(grad)
            plus, minus = 2.0 * (lin + conj), 2.0 * (lin - conj)
            jac, hess = 2.0 * _pack(grad), np.empty((2 * n, 2 * n))
            hess[:n, :n], hess[:n, n:] = plus.real, -minus.imag
            hess[n:, :n], hess[n:, n:] = plus.imag, minus.real
        return (energy, jac, hess, float(np.linalg.norm(grad)),
                _EPS * float(np.linalg.norm(q_psi)))


def gl_energy(psi: TorusField, a: TorusField, w: TorusField,
              coef: GLCoefficients) -> float:
    """GL energy of ``psi`` in the real-valued external fields ``a``
    (vector potential component) and ``w`` (electric potential).

    The quadratic part is a matrix form on ``psi``'s modes and the
    quartic term a mean over a collocation grid of at least ``4 N + 1``
    points, so every term is integrated exactly; the imaginary residue
    is checked against 1e-12 before being discarded.
    """
    return _Evaluator(a, w, coef, psi.n_max).energy(psi.coeffs)[0]


def gl_gradient(psi: TorusField, a: TorusField, w: TorusField,
                coef: GLCoefficients) -> TorusField:
    """Wirtinger gradient ``dE/d conj(psi)`` as a Fourier series.

    The gradient field is ``B1 D(D psi) + B2 W psi - 2 B3 (1-|psi|^2) psi``
    with ``D = -i d/dx + 2 a`` (self-adjoint for real ``a``); its
    coefficients are returned on ``psi``'s modes.  The directional
    derivative of the energy along ``eta`` is
    ``2 Re <eta, grad>`` (see :func:`directional_derivative`).
    """
    grad = _Evaluator(a, w, coef, psi.n_max).energy(psi.coeffs)[1]
    return TorusField(grad, psi.n_max)


def directional_derivative(grad: TorusField, eta: TorusField) -> float:
    """First-order energy change per unit step along ``eta``."""
    n_max = max(grad.n_max, eta.n_max)
    g = grad.with_n_max(n_max).coeffs
    e = eta.with_n_max(n_max).coeffs
    return 2.0 * float(np.real(np.vdot(e, g)))


# ---------------------------------------------------------------------------
# Minimization
# ---------------------------------------------------------------------------


@dataclass
class GLState:
    """A critical point of the GL energy.

    Attributes
    ----------
    psi : TorusField
    energy : float
    gradient_norm : float
        l2 norm of the Wirtinger gradient coefficients.
    converged : bool
    history : list of dict
        One record per starting field: label, final energy, gradient
        norm, iteration count.
    """

    psi: TorusField
    energy: float
    gradient_norm: float
    converged: bool = True
    history: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "psi": self.psi.to_dict(),
            "energy": self.energy,
            "gradient_norm": self.gradient_norm,
            "converged": self.converged,
            "history": self.history,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "GLState":
        return cls(
            psi=TorusField.from_dict(data["psi"]),
            energy=float(data["energy"]),
            gradient_norm=float(data["gradient_norm"]),
            converged=bool(data.get("converged", True)),
            history=list(data.get("history", [])),
        )


def _trust_step(hess: np.ndarray, jac: np.ndarray, radius: float,
                phase: np.ndarray | None = None) -> np.ndarray:
    """Minimizer of ``jac.p + p.hess.p / 2`` over ``|p| <= radius``.

    The interior Newton step comes from one Cholesky test and one solve
    (Moré and Sorensen, SIAM J. Sci. Stat. Comput. 4 (1983) 553; Nocedal
    and Wright, *Numerical Optimization*, 2nd ed., Alg. 4.3).  ``phase``
    is the global-phase direction ``v = i psi`` of packed unknowns: the
    energy does not change along it, so ``jac`` is orthogonal to it and,
    at a critical point, ``hess v = 0``.  ``sigma v v^T``, with ``sigma
    |v|^2`` the largest diagonal entry of ``hess``, lifts that zero mode
    out of the solve.  When the shifted matrix factors and its Newton
    step fits in the radius, that step is returned.

    Otherwise one ``eigh`` of ``hess`` gives ``p = -(hess + s)^+ jac``
    for the least shift ``s >= max(0, -lambda_min)`` that fits.
    Eigenvalues within roundoff of ``-s`` are left out: at ``s = 0`` the
    zero modes, such as the global phase; on an indefinite ``hess`` the
    lowest, whose eigenvector makes up the length, signed to descend, in
    the hard case.
    """
    shifted = hess
    if phase is not None and (norm2 := phase @ phase) > 0.0:
        shifted = hess + (np.diag(hess).max() / norm2) * np.outer(phase,
                                                                  phase)
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        pass
    else:
        step = np.linalg.solve(shifted, -jac)
        if np.linalg.norm(step) <= radius:
            return step
    lam, vecs = np.linalg.eigh(hess)
    c = vecs.T @ jac
    tol = 1e-12 * np.abs(lam).max()

    def weights(shift):
        keep = lam + shift > tol
        return np.where(keep, c, 0.0) / np.where(keep, lam + shift, 1.0)

    low = max(0.0, -lam[0])
    y = weights(low)
    norm = np.linalg.norm(y)
    if norm > radius:
        # |p(s)| decreases in s and is below radius at s = low + |jac|/radius
        high = low + np.linalg.norm(c) / radius
        for _ in range(60):
            mid = 0.5 * (low + high)
            if np.linalg.norm(weights(mid)) > radius:
                low = mid
            else:
                high = mid
        y = weights(high)
    elif lam[0] < -tol:
        y[0] = math.copysign(math.sqrt(radius ** 2 - norm ** 2), c[0])
    return -vecs @ y


def _descend(start: TorusField, label: str, a, w, coef):
    """Trust-region Newton descent on the exact Hessian from one start.

    One :class:`_Evaluator` serves the whole descent; the reported
    gradient norm is that of the full gradient.  Each step is
    :func:`_trust_step`'s, with the global phase deflated on packed
    unknowns.  A step is accepted when the energy falls by a quarter of
    the model's prediction or, at roundoff, stays within a 1e-13
    relative slack while the gradient falls.  The descent ends once the
    gradient is below ``_GTOL / 10`` and either a step no longer halves
    it or it is below its roundoff floor ``_EPS * |Q psi|``, and is
    converged only then, not when it stops on ``_MAX_STEPS``.  The floor
    ends a descent whose state is exactly symmetric: a Cholesky solve
    keeps it so, and its gradient can halve down to underflow.
    """
    evaluate = _Evaluator(a, w, coef, start.n_max)
    z = evaluate.unknowns(start.coeffs)
    energy, jac, hess, grad_norm, floor = evaluate(z)
    energies = [energy]
    slack = 1e-13 * max(1.0, abs(energy))
    radius, halved, iterations = 1.0, True, 0
    while (not (converged := grad_norm < 0.1 * _GTOL
                and (not halved or grad_norm <= floor))
           and iterations < _MAX_STEPS):
        iterations += 1
        step = _trust_step(hess, jac, radius, evaluate.phase(z))
        length = np.linalg.norm(step)
        trial = evaluate(z + step)
        predicted = -(jac @ step + 0.5 * step @ hess @ step)
        rho = (energy - trial[0]) / predicted if predicted > 0 else -math.inf
        halved = trial[3] <= 0.5 * grad_norm
        if rho < 0.25 and not (trial[0] <= energy + slack
                               and trial[3] < grad_norm):
            radius, halved = 0.25 * length, False
            continue
        if rho > 0.75 and length >= 0.99 * radius:
            radius *= 2.0
        z = z + step
        energy, jac, hess, grad_norm, floor = trial
        energies.append(energy)
    record = {"start": label, "energy": energy, "gradient_norm": grad_norm,
              "iterations": iterations,
              "monotone": bool(np.all(np.diff(energies) <= slack))}
    return GLState(TorusField(evaluate.coeffs(z), start.n_max), energy,
                   grad_norm, converged=converged, history=[record])


def _default_starts(n_max: int, seed: int) -> list[tuple[str, TorusField]]:
    rng = np.random.default_rng(seed)
    starts = [
        ("constant-1", TorusField.constant(1.0, n_max)),
        ("constant-0.5", TorusField.constant(0.5, n_max)),
    ]
    envelope = np.exp(-np.abs(np.arange(-n_max, n_max + 1)) / 3.0)
    for k in range(2):
        coeffs = 0.3 * envelope * (
            rng.standard_normal(2 * n_max + 1)
            + 1j * rng.standard_normal(2 * n_max + 1)
        )
        coeffs[n_max] += 0.8
        starts.append((f"random-{k}", TorusField(coeffs, n_max)))
    return starts


def minimize(a: TorusField, w: TorusField, coef: GLCoefficients,
             n_max: int = 32, seed: int = 0, workers: int = 1) -> GLState:
    """Minimize the GL energy over ``psi``; keep the best local minimum.

    Runs one trust-region Newton descent on the exact Hessian from each
    of ``psi = 1``, ``psi = 0.5`` and two random smooth fields, each to
    the gradient's roundoff floor, and reduces by lowest energy.
    ``psi = 0`` is always a critical point with energy exactly ``B3``;
    if no descent beats it, the zero state is returned, so the reported
    energy never exceeds ``min(B3, E(psi = 1))``.  That zero state is
    converged only if some descent converged.  A returned state that is
    not converged warns (``UserWarning``), naming the starts whose
    descents stopped on ``_MAX_STEPS``.

    Parameters
    ----------
    a, w : TorusField
        External fields (real-valued).
    coef : GLCoefficients
    n_max : int
        Mode cutoff for the minimization space.
    seed : int
        Seed for the random starting fields.
    workers : int
        Ignored; the descents always run one after another.  Accepted so
        that existing callers keep working.

    Returns
    -------
    GLState
    """
    states = [_descend(start, label, a, w, coef)
              for label, start in _default_starts(n_max, seed)]
    stopped = [s.history[0]["start"] for s in states if not s.converged]
    history = [rec for state in states for rec in state.history]
    best = min(states, key=lambda s: s.energy)
    if coef.B3 < best.energy:
        best = GLState(
            psi=TorusField.constant(0.0, n_max), energy=coef.B3,
            gradient_norm=0.0, converged=len(stopped) < len(states),
        )
    best.history = history
    if not best.converged:
        warnings.warn(
            "GL minimum not converged: the descents from "
            f"{', '.join(stopped)} stopped at {_MAX_STEPS} steps", UserWarning)
    return best
