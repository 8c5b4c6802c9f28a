"""Ginzburg-Landau coefficients and trace-expansion constants by quadrature.

Given the normalized pair symbol ``t`` from the gap solver, this module
evaluates, on the solver's momentum grid,

* the macroscopic GL coefficients ``B1`` (gradient block), ``B2``
  (external-potential coupling) and ``B3`` (quartic coefficient),
* the quadratic/quartic trace-expansion constants ``E1`` and the four
  coefficient blocks of ``E2``,
* the small-momentum constants ``F(0,0,0)``, ``G(0)``, the Hessian of
  ``G`` at 0 and ``L(0,0)`` -- each both by confluent divided-difference
  quadrature and by its closed g-function form, so the two independent
  routes can be compared.

Every integrand containing the removable factor ``g1(beta (q^2 - mu)) /
(q^2 - mu)`` is evaluated through ``g1_over_z``; nothing divides by
``q^2 - mu``.  Integrals run over the full line and are assembled as
twice the half-line midpoint quadrature (all integrands are even).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from . import specfun
from .gap_solver import GapSolution

__all__ = [
    "GLCoefficients",
    "E2Constants",
    "SmallPConstants",
    "compute_coefficients",
    "b3_alternative_form",
    "e1_constant",
    "e2_constants",
    "semiclassical_smallp_constants",
]

_TWO_PI = 2.0 * math.pi


@dataclass
class _Samples:
    """Normal form consumed by the quadratures."""

    mu: float
    q: np.ndarray
    dq: float
    t: np.ndarray

    source: object = None

    def t_second(self) -> np.ndarray:
        return self.source.t_second(self.q)

    def t_at(self, p) -> np.ndarray:
        return self.source.t(p)


def _extract(source) -> _Samples:
    """Samples of the pair symbol of ``source`` on its momentum grid.

    ``source`` is a :class:`GapSolution` or any object with the same
    ``mu``, ``grid`` (``nodes``, ``dq``), ``t_samples`` and ``t``,
    ``t_prime``, ``t_second`` members.
    """
    try:
        return _Samples(source.mu, source.grid.nodes, source.grid.dq,
                        source.t_samples, source)
    except AttributeError:
        raise TypeError(
            f"expected a GapSolution, got {type(source).__name__}"
        ) from None


def _integrate(samples: _Samples, values: np.ndarray) -> float:
    """Full-line integral of an even integrand from half-line samples."""
    return 2.0 * float(np.sum(values) * samples.dq)


# ---------------------------------------------------------------------------
# GL coefficients
# ---------------------------------------------------------------------------


@dataclass
class GLCoefficients:
    """Macroscopic GL coefficients for pair charge 2.

    ``B1`` is the (d x d) gradient-coefficient matrix (1 x 1 at desk
    scale), ``B2`` couples ``W |psi|^2``, ``B3 > 0`` multiplies the
    quartic ``(1 - |psi|^2)^2``.
    """

    B1: np.ndarray
    B2: float
    B3: float
    D: float
    beta_c: float

    def __post_init__(self):
        self.B1 = np.atleast_2d(np.asarray(self.B1, dtype=float))
        if not np.allclose(self.B1, self.B1.T, rtol=1e-12, atol=1e-15):
            raise ValueError("B1 must be symmetric")
        if np.linalg.eigvalsh(self.B1).min() <= 0.0:
            raise ValueError("B1 must be positive definite")
        if not self.B3 > 0.0:
            raise ValueError("B3 must be positive")

    @property
    def b1_scalar(self) -> float:
        return float(self.B1[0, 0])

    def to_dict(self) -> dict:
        return {
            "B1": self.B1.tolist(),
            "B2": self.B2,
            "B3": self.B3,
            "D": self.D,
            "beta_c": self.beta_c,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "GLCoefficients":
        return cls(
            np.asarray(data["B1"], dtype=float),
            float(data["B2"]),
            float(data["B3"]),
            float(data["D"]),
            float(data["beta_c"]),
        )


def compute_coefficients(sol: GapSolution) -> GLCoefficients:
    """GL coefficients from a normalized gap solution (dim 1).

    ``B1 = (beta_c^2/16) integral t^2 (g1 + 2 beta_c q^2 g2) dq / 2 pi``,
    ``B2 = (beta_c^2/4) integral t^2 g1 dq / 2 pi``,
    ``B3 = (beta_c^3/16) integral t^4 g1_over_z dq / 2 pi``,
    all g-arguments ``beta_c (q^2 - mu)``.

    Parameters
    ----------
    sol : GapSolution
        Must have been normalized (``D`` set); ``B3 / |B2|`` scales
        linearly with ``D``.

    Returns
    -------
    GLCoefficients
    """
    if sol.D is None:
        raise ValueError("gap solution must be normalized before computing B's")
    s = _extract(sol)
    beta_c = sol.beta_c
    a = beta_c * (s.q * s.q - s.mu)
    t2 = s.t * s.t
    g1 = specfun.g1(a)

    b1 = (beta_c**2 / 16.0) * _integrate(
        s, t2 * (g1 + 2.0 * beta_c * s.q * s.q * specfun.g2(a))
    ) / _TWO_PI
    b2 = (beta_c**2 / 4.0) * _integrate(s, t2 * g1) / _TWO_PI
    b3 = (beta_c**3 / 16.0) * _integrate(s, t2 * t2 * specfun.g1_over_z(a)) / _TWO_PI
    return GLCoefficients(
        B1=np.array([[b1]]), B2=b2, B3=b3, D=sol.D, beta_c=beta_c
    )


def b3_alternative_form(sol: GapSolution) -> float:
    """``B3`` via the normalization identity: ``(beta_c D / 16) I2 / 2 pi``
    with ``I2 = integral t^2 sech^2(beta_c (q^2 - mu) / 2) dq``.

    Equals :func:`compute_coefficients`'s ``B3`` exactly when the solution
    satisfies the balance condition.
    """
    if sol.D is None:
        raise ValueError("gap solution must be normalized")
    s = _extract(sol)
    a = sol.beta_c * (s.q * s.q - s.mu)
    e = np.exp(-np.abs(0.5 * a))
    sech2 = (2.0 * e / (1.0 + e * e)) ** 2
    i2 = _integrate(s, s.t * s.t * sech2)
    return (sol.beta_c * sol.D / 16.0) * i2 / _TWO_PI


# ---------------------------------------------------------------------------
# Trace-expansion constants
# ---------------------------------------------------------------------------


def e1_constant(source, beta: float) -> float:
    """Coefficient of ``||psi||_2^2`` in the quadratic trace term.

    ``E1 / ||psi||_2^2 = -(beta/2) integral t^2 g0(beta (q^2-mu)) dq / 2 pi``.

    Parameters
    ----------
    source : GapSolution
    beta : float
        Inverse temperature, > 0.

    Returns
    -------
    float
    """
    if not beta > 0:
        raise ValueError("beta must be positive")
    s = _extract(source)
    a = beta * (s.q * s.q - s.mu)
    return -(beta / 2.0) * _integrate(s, s.t * s.t * specfun.g0(a)) / _TWO_PI


@dataclass
class E2Constants:
    """The four coefficient blocks of the quartic trace term.

    ``E2(psi, A, W) = c_grad_t <d psi|d psi>
                    + c_grad_psi <(d + 2iA) psi|(d + 2iA) psi>
                    + c_W <psi|W|psi> + c_quartic ||psi||_4^4``
    (matrix contractions over the derivative indices in d > 1).
    """

    c_grad_t: np.ndarray
    c_grad_psi: np.ndarray
    c_W: float
    c_quartic: float
    beta: float

    def to_dict(self) -> dict:
        return {
            "c_grad_t": np.atleast_2d(self.c_grad_t).tolist(),
            "c_grad_psi": np.atleast_2d(self.c_grad_psi).tolist(),
            "c_W": self.c_W,
            "c_quartic": self.c_quartic,
            "beta": self.beta,
        }


def e2_constants(source, beta: float) -> E2Constants:
    """Coefficient blocks of the quartic trace term (dim 1).

    ``c_grad_t = -(beta/8) integral t t'' g0 dq / 2 pi`` (plain-gradient
    block), ``c_grad_psi = (beta^2/8) integral t^2 (g1 + 2 beta q^2 g2)
    dq / 2 pi`` (covariant block), ``c_W = (beta^2/2) integral t^2 g1 dq
    / 2 pi``, ``c_quartic = (beta^3/8) integral t^4 g1_over_z dq / 2 pi``;
    all g-arguments ``beta (q^2 - mu)``.

    The analytic second derivative of ``t`` is cross-checked against a
    4th-order central finite difference; disagreement beyond 1e-5
    relative triggers a warning.

    Parameters
    ----------
    source : GapSolution
    beta : float

    Returns
    -------
    E2Constants
    """
    if not beta > 0:
        raise ValueError("beta must be positive")
    s = _extract(source)
    a = beta * (s.q * s.q - s.mu)
    t2 = s.t * s.t
    g1 = specfun.g1(a)
    t_second = s.t_second()
    _check_t_second(s, t_second)

    c_grad_t = -(beta / 8.0) * _integrate(s, s.t * t_second * specfun.g0(a)) / _TWO_PI
    c_grad_psi = (beta**2 / 8.0) * _integrate(
        s, t2 * (g1 + 2.0 * beta * s.q * s.q * specfun.g2(a))
    ) / _TWO_PI
    c_w = (beta**2 / 2.0) * _integrate(s, t2 * g1) / _TWO_PI
    c_quartic = (beta**3 / 8.0) * _integrate(
        s, t2 * t2 * specfun.g1_over_z(a)
    ) / _TWO_PI
    return E2Constants(
        c_grad_t=np.array([[c_grad_t]]),
        c_grad_psi=np.array([[c_grad_psi]]),
        c_W=c_w,
        c_quartic=c_quartic,
        beta=beta,
    )


def _check_t_second(s: _Samples, t_second: np.ndarray) -> None:
    """Warn when the analytic t'' disagrees with a 4th-order difference."""
    probe = np.linspace(0.3 * s.q[-1], 0.7 * s.q[-1], 7)
    step = s.dq
    stencil = (
        -s.t_at(probe + 2 * step)
        + 16.0 * s.t_at(probe + step)
        - 30.0 * s.t_at(probe)
        + 16.0 * s.t_at(probe - step)
        - s.t_at(probe - 2 * step)
    ) / (12.0 * step * step)
    analytic = s.source.t_second(probe)
    scale = np.abs(analytic).max()
    if scale > 0 and np.abs(stencil - analytic).max() > 1e-5 * scale:
        warnings.warn(
            "analytic second derivative of t disagrees with the finite-"
            "difference cross-check beyond 1e-5 relative"
        )


# ---------------------------------------------------------------------------
# Small-momentum constants: two independent evaluation routes
# ---------------------------------------------------------------------------


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
    hess_g0_dd: np.ndarray
    hess_g0_closed: np.ndarray
    l00_dd: float
    l00_closed: float
    beta: float

    def max_relative_mismatch(self) -> float:
        pairs = [
            (self.f000_dd, self.f000_closed),
            (self.g0_dd, self.g0_closed),
            (float(np.ravel(self.hess_g0_dd)[0]), float(np.ravel(self.hess_g0_closed)[0])),
            (self.l00_dd, self.l00_closed),
        ]
        return max(abs(a - b) / max(abs(b), 1e-300) for a, b in pairs)


def semiclassical_smallp_constants(source, beta: float) -> SmallPConstants:
    """Small-momentum trace-expansion constants by two routes (dim 1).

    Divided-difference route (nodes ``a = beta (q^2 - mu)``):

    * ``F(0,0,0) = beta^4 integral t^4 [a,a,a,-a,-a]_f dq / 2 pi``
    * ``G(0) = beta^2 integral t^2 [a,a,-a]_f dq / 2 pi``
    * ``G''(0) = beta^2 integral { (t'^2/2 + t t'') [a,a,-a]
      + 8 beta q t t' [a,a,a,-a]
      + t^2 (4 beta [a,a,a,-a] + 24 beta^2 q^2 [a,a,a,a,-a]) } dq / 2 pi``
      (analytic momentum derivatives of the defining integrand, using the
      confluent-node derivative rule)
    * ``L(0,0) = beta^3 integral t^2 (2 [a,a,a,-a] + [a,a,-a,-a]) dq / 2 pi``

    Closed g-function route: ``F = (beta^4/16) integral t^4 g1_over_z``;
    ``G(0) = -(beta^2/4) integral t^2 g0``; ``G''(0)`` by the three-term
    integration-by-parts form; ``L(0,0) = (beta^3/4) integral t^2 g1``.

    Parameters
    ----------
    source : GapSolution
    beta : float

    Returns
    -------
    SmallPConstants
    """
    if not beta > 0:
        raise ValueError("beta must be positive")
    s = _extract(source)
    a = beta * (s.q * s.q - s.mu)
    t = s.t
    t2 = t * t
    t_prime = s.source.t_prime(s.q)
    t_second = s.t_second()

    dd3 = np.array([specfun.divided_difference("f", [x, x, -x]) for x in a])
    dd4 = np.array([specfun.divided_difference("f", [x, x, x, -x]) for x in a])
    dd4b = np.array([specfun.divided_difference("f", [x, x, -x, -x]) for x in a])
    dd5 = np.array([specfun.divided_difference("f", [x, x, x, -x, -x]) for x in a])
    dd5h = np.array([specfun.divided_difference("f", [x, x, x, x, -x]) for x in a])

    f000_dd = beta**4 * _integrate(s, t2 * t2 * dd5) / _TWO_PI
    g0_dd = beta**2 * _integrate(s, t2 * dd3) / _TWO_PI
    hess_dd = beta**2 * _integrate(
        s,
        (0.5 * t_prime**2 + t * t_second) * dd3
        + 8.0 * beta * s.q * t * t_prime * dd4
        + t2 * (4.0 * beta * dd4 + 24.0 * beta**2 * s.q * s.q * dd5h),
    ) / _TWO_PI
    l00_dd = beta**3 * _integrate(s, t2 * (2.0 * dd4 + dd4b)) / _TWO_PI

    g0a = specfun.g0(a)
    g1a = specfun.g1(a)
    g2a = specfun.g2(a)
    f000_closed = (beta**4 / 16.0) * _integrate(s, t2 * t2 * specfun.g1_over_z(a)) / _TWO_PI
    g0_closed = -(beta**2 / 4.0) * _integrate(s, t2 * g0a) / _TWO_PI
    hess_closed = (
        -(beta**2 / 8.0) * _integrate(s, t * t_second * g0a)
        + (beta**4 / 4.0) * _integrate(s, s.q * s.q * t2 * g2a)
        + (beta**3 / 8.0) * _integrate(s, t2 * g1a)
    ) / _TWO_PI
    l00_closed = (beta**3 / 4.0) * _integrate(s, t2 * g1a) / _TWO_PI

    return SmallPConstants(
        f000_dd=f000_dd,
        f000_closed=f000_closed,
        g0_dd=g0_dd,
        g0_closed=g0_closed,
        hess_g0_dd=np.array([[hess_dd]]),
        hess_g0_closed=np.array([[hess_closed]]),
        l00_dd=l00_dd,
        l00_closed=l00_closed,
        beta=beta,
    )
