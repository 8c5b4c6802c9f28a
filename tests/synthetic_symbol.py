"""Analytic stand-in for a gap solution's pair symbol, for the tests.

The coefficient quadratures of ``bcsgl.gl_coeffs`` read ``mu``, ``grid``,
``t_samples`` and ``t``/``t_prime``/``t_second`` from their source; this
class supplies them for a Gaussian profile with a known second
derivative, so the trace-expansion machinery can be checked without the
gap solver.
"""

from dataclasses import dataclass

import numpy as np

from bcsgl.gap_solver import MomentumGrid


@dataclass(frozen=True)
class SyntheticPairSymbol:
    """``t(q) = amplitude * exp(-q^2 / width^2)``.

    Attributes
    ----------
    mu : float
        Chemical potential entering ``q^2 - mu``.
    amplitude, width : float
        Profile parameters.
    cutoff, n_points : float, int
        Half-line midpoint quadrature grid, as in the gap solver.
    """

    mu: float
    amplitude: float = 1.0
    width: float = 1.0
    cutoff: float = 12.0
    n_points: int = 512

    @property
    def grid(self) -> MomentumGrid:
        return MomentumGrid(self.cutoff, self.n_points)

    @property
    def t_samples(self) -> np.ndarray:
        return self.t(self.grid.nodes)

    def t(self, q):
        q = np.asarray(q, dtype=float)
        return self.amplitude * np.exp(-(q * q) / self.width**2)

    def t_prime(self, q):
        q = np.asarray(q, dtype=float)
        return -2.0 * q / self.width**2 * self.t(q)

    def t_second(self, q):
        q = np.asarray(q, dtype=float)
        u = 2.0 / self.width**2
        return (u * u * q * q - u) * self.t(q)
