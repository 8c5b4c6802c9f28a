"""The pair symbol's first derivative, for the tests.

The pipeline evaluates ``t`` and ``t''`` only.  The small-momentum
constants of ``test_gl_coeffs.py`` also need ``t'``: the same kernel sum
as ``t``, over the first derivative of ``Vhat``.
"""

import functools

import numpy as np

from bcsgl.gap_solver import GapSolution


def vhat_d1(spec, k):
    """First derivative of ``spec.vhat`` (square well: central difference)."""
    k = np.asarray(k, dtype=float)
    if spec.family == "gaussian_well":
        return -(k * spec.w**2 / 2.0) * spec.vhat(k)
    h = 1e-5
    return (spec.vhat(k + h) - spec.vhat(k - h)) / (2.0 * h)


def t_prime(source, p):
    """``t'(p)`` of a gap solution, or of a stand-in that has its own."""
    if isinstance(source, GapSolution):
        return source._kernel_sum(functools.partial(vhat_d1, source.spec), p)
    return source.t_prime(p)
