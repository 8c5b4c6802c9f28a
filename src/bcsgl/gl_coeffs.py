"""Ginzburg-Landau coefficients and trace-expansion constants by quadrature.

Given the normalized pair symbol ``t`` from the gap solver, this module
evaluates, on the solver's momentum grid,

* the macroscopic GL coefficients ``B1`` (gradient block), ``B2``
  (external-potential coupling) and ``B3`` (quartic coefficient),
* the quadratic/quartic trace-expansion constants ``E1`` and the four
  coefficient blocks of ``E2``.

``B1``-``B3``, ``E1`` and three of the four ``E2`` blocks are fixed
prefactors times one table of four moments at a given ``beta``
(:func:`_moments`): the integrals of ``t^2 g0``, ``t^2 g1``, ``t^2 (g1 +
2 beta q^2 g2)`` and ``t^4 g1_over_z``, all g-arguments ``beta (q^2 -
mu)``.  Only the plain-gradient block of ``E2`` also needs ``t''``.  At
``beta = beta_c`` the ``E2`` blocks are exactly twice
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
    "compute_coefficients",
    "b3_alternative_form",
    "e1_constant",
    "e2_constants",
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
