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

``B1``-``B3``, ``E1`` and three of the four ``E2`` blocks are fixed
prefactors times one table of four moments at a given ``beta``
(:func:`_moments`): the integrals of ``t^2 g0``, ``t^2 g1``, ``t^2 (g1 +
2 beta q^2 g2)`` and ``t^4 g1_over_z``, all g-arguments ``beta (q^2 -
mu)``.  Only the plain-gradient block of ``E2`` also needs ``t''``, and
the closed small-momentum forms are fixed multiples of ``E1`` and the
``E2`` blocks.  At ``beta = beta_c`` the ``E2`` blocks are exactly twice
the GL coefficients, and every block is a scalar (dim 1).

The removable factor ``g1(beta (q^2 - mu)) / (q^2 - mu)`` is evaluated
through ``g1_over_z``; nothing divides by ``q^2 - mu``.  Every integral
runs over the full line by :meth:`MomentumGrid.integrate`, the midpoint
rule shared with the gap solver (all integrands are even).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Mapping, NamedTuple

import numpy as np

from . import specfun
from .gap_solver import GapSolution, _normalization_integrals

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


class _Moments(NamedTuple):
    """Full-line integrals of the pair symbol against the g-functions."""

    t2_g0: float
    t2_g1: float
    t2_gradient: float  # t^2 (g1 + 2 beta q^2 g2)
    t4_g1_over_z: float


def _moments(source, beta: float) -> _Moments:
    """The moment table of ``source``'s pair symbol at inverse temperature
    ``beta``, on its momentum grid.

    ``source`` is a :class:`GapSolution` or any object with the same
    ``mu``, ``grid`` and ``t_samples`` members.
    """
    if not beta > 0:
        raise ValueError("beta must be positive")
    try:
        grid, t, mu = source.grid, source.t_samples, source.mu
    except AttributeError:
        raise TypeError(
            f"expected a GapSolution, got {type(source).__name__}"
        ) from None
    q = grid.nodes
    a = beta * (q * q - mu)
    t2 = t * t
    g1 = specfun.g1(a)
    return _Moments(
        grid.integrate(t2 * specfun.g0(a)),
        grid.integrate(t2 * g1),
        grid.integrate(t2 * (g1 + 2.0 * beta * q * q * specfun.g2(a))),
        grid.integrate(t2 * t2 * specfun.g1_over_z(a)),
    )


# ---------------------------------------------------------------------------
# GL coefficients
# ---------------------------------------------------------------------------


@dataclass
class GLCoefficients:
    """Macroscopic GL coefficients for pair charge 2.

    ``B1`` multiplies the gradient term, ``B2`` couples ``W |psi|^2``,
    ``B3 > 0`` multiplies the quartic ``(1 - |psi|^2)^2``.  ``B1`` is the
    paper's (d x d) gradient matrix at d = 1 and stays a 1 x 1 array:
    ``coeffs.json`` stores it as ``[[B1]]`` and its readers index
    ``B1[0][0]``; :attr:`b1_scalar` is the number.
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
    beta_c = sol.beta_c
    m = _moments(sol, beta_c)
    return GLCoefficients(
        B1=np.array([[(beta_c**2 / 16.0) * m.t2_gradient / _TWO_PI]]),
        B2=(beta_c**2 / 4.0) * m.t2_g1 / _TWO_PI,
        B3=(beta_c**3 / 16.0) * m.t4_g1_over_z / _TWO_PI,
        D=sol.D,
        beta_c=beta_c,
    )


def b3_alternative_form(sol: GapSolution) -> float:
    """``B3`` via the normalization identity: ``(beta_c D / 16) I2 / 2 pi``
    with the gap solver's ``I2 = integral t^2 sech^2(beta_c (q^2 - mu) / 2)
    dq``.

    Equals :func:`compute_coefficients`'s ``B3`` exactly when the solution
    satisfies the balance condition.
    """
    if sol.D is None:
        raise ValueError("gap solution must be normalized")
    i2, _ = _normalization_integrals(sol)
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
    return -(beta / 2.0) * _moments(source, beta).t2_g0 / _TWO_PI


@dataclass
class E2Constants:
    """The four coefficient blocks of the quartic trace term (dim 1).

    ``E2(psi, A, W) = c_grad_t <d psi|d psi>
                    + c_grad_psi <(d + 2iA) psi|(d + 2iA) psi>
                    + c_W <psi|W|psi> + c_quartic ||psi||_4^4``.
    """

    c_grad_t: float
    c_grad_psi: float
    c_W: float
    c_quartic: float
    beta: float


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
    m = _moments(source, beta)
    q = source.grid.nodes
    g0 = specfun.g0(beta * (q * q - source.mu))
    t_t_second = source.grid.integrate(source.t_samples * source.t_second(q) * g0)
    _check_t_second(source)
    return E2Constants(
        c_grad_t=-(beta / 8.0) * t_t_second / _TWO_PI,
        c_grad_psi=(beta**2 / 8.0) * m.t2_gradient / _TWO_PI,
        c_W=(beta**2 / 2.0) * m.t2_g1 / _TWO_PI,
        c_quartic=(beta**3 / 8.0) * m.t4_g1_over_z / _TWO_PI,
        beta=beta,
    )


def _check_t_second(source) -> None:
    """Warn when the analytic t'' disagrees with a 4th-order difference."""
    q_max, step = source.grid.nodes[-1], source.grid.dq
    probe = np.linspace(0.3 * q_max, 0.7 * q_max, 7)
    stencil = (
        -source.t(probe + 2 * step)
        + 16.0 * source.t(probe + step)
        - 30.0 * source.t(probe)
        + 16.0 * source.t(probe - step)
        - source.t(probe - 2 * step)
    ) / (12.0 * step * step)
    analytic = source.t_second(probe)
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
    hess_g0_dd: float
    hess_g0_closed: float
    l00_dd: float
    l00_closed: float
    beta: float

    def max_relative_mismatch(self) -> float:
        pairs = [
            (self.f000_dd, self.f000_closed),
            (self.g0_dd, self.g0_closed),
            (self.hess_g0_dd, self.hess_g0_closed),
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

    Closed g-function route, as multiples of the trace-expansion
    constants at the same ``beta``: ``F = (beta/2) c_quartic``,
    ``G(0) = (beta/2) E1``, ``G''(0) = beta (c_grad_t + c_grad_psi)``
    (the integration-by-parts form), ``L(0,0) = (beta/2) c_W``.

    Parameters
    ----------
    source : GapSolution
    beta : float

    Returns
    -------
    SmallPConstants
    """
    blocks = e2_constants(source, beta)
    e1 = e1_constant(source, beta)
    grid = source.grid
    q = grid.nodes
    a = beta * (q * q - source.mu)
    t = source.t_samples
    t2 = t * t
    t_prime = source.t_prime(q)
    t_second = source.t_second(q)

    def dd(plus, minus):
        # [a,..,a,-a,..,-a]_f at every grid node, one node set per row
        return specfun.divided_difference(
            "f", np.stack([a] * plus + [-a] * minus, axis=1))

    dd3, dd4, dd4b, dd5, dd5h = dd(2, 1), dd(3, 1), dd(2, 2), dd(3, 2), dd(4, 1)

    return SmallPConstants(
        f000_dd=beta**4 * grid.integrate(t2 * t2 * dd5) / _TWO_PI,
        f000_closed=(beta / 2.0) * blocks.c_quartic,
        g0_dd=beta**2 * grid.integrate(t2 * dd3) / _TWO_PI,
        g0_closed=(beta / 2.0) * e1,
        hess_g0_dd=beta**2 * grid.integrate(
            (0.5 * t_prime**2 + t * t_second) * dd3
            + 8.0 * beta * q * t * t_prime * dd4
            + t2 * (4.0 * beta * dd4 + 24.0 * beta**2 * q * q * dd5h)
        ) / _TWO_PI,
        hess_g0_closed=beta * (blocks.c_grad_t + blocks.c_grad_psi),
        l00_dd=beta**3 * grid.integrate(t2 * (2.0 * dd4 + dd4b)) / _TWO_PI,
        l00_closed=(beta / 2.0) * blocks.c_W,
        beta=beta,
    )
