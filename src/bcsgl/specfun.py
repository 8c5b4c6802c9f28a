"""Stable special functions of the Fermi weight and the gap operator.

Everything downstream of the gap equation is assembled from a handful of
scalar functions of the dimensionless energy ``z = beta * (p^2 - mu)``:

* ``fermi_f``    -- free-energy weight ``f(z) = -ln(1 + e^{-z})``,
* ``fermi_rho``  -- occupation ``rho(z) = 1/(1 + e^z) = f'(z)``,
* ``g0, g1, g2`` -- the hyperbolic family entering the quadratic and
  quartic coefficients of the Ginzburg-Landau expansion,
* ``kt_symbol``  -- the symbol ``x / tanh(x / 2T)`` of the linearized gap
  operator,
* ``divided_difference`` -- the two-node ``f[x, y]``, elementwise over
  arrays, for the Daleckii-Krein trace differences of the fibers.

The GL and trace-expansion constants also have confluent forms
``[a_1, ..., a_N]`` of ``f``; the library evaluates them through the
g-family, and the tests keep the divided-difference route as an
independent oracle.

The g-family and ``kt_symbol`` switch to Taylor series below
``SERIES_THRESHOLD = 1e-2`` so removable singularities are exact, and to
asymptotic forms at large argument so nothing overflows for ``|z|`` up
to several hundred.

``next_fast_len`` picks the FFT grid sizes of the torus fields.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

__all__ = [
    "SERIES_THRESHOLD",
    "fermi_f",
    "fermi_rho",
    "g0",
    "g1",
    "g2",
    "g1_over_z",
    "kt_symbol",
    "divided_difference",
    "next_fast_len",
]

#: Switch to Taylor series for |z| at or below this value (documented contract).
SERIES_THRESHOLD = 1e-2

#: Switch to overflow-free asymptotic forms above this |z|.
_LARGE_Z = 300.0


def _as_float_array(z) -> tuple[np.ndarray, bool]:
    """Return ``z`` as a float array plus a flag marking scalar input."""
    arr = np.asarray(z, dtype=float)
    return arr, arr.ndim == 0


def _maybe_scalar(out: np.ndarray, scalar: bool):
    return float(out) if scalar else out


def _occupation(arr: np.ndarray) -> np.ndarray:
    """``1/(1 + e^z)``: the logistic function of ``-z`` in one branch.

    ``e^z`` overflows to ``inf`` above ``z`` = 709.78, where the quotient
    is 0 as it should be, so the overflow flag is ignored.  Within 2 eps
    relative of ``scipy.special.expit(-z)``, which evaluates the same
    form with another library's ``exp``: the denominators may round one
    ulp apart.
    """
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(arr))


def fermi_f(z):
    """Fermi free-energy weight ``f(z) = -ln(1 + e^{-z})``.

    Evaluated as ``-logaddexp(0, -z)``, which is overflow-free for ``|z|``
    up to the float64 range and reduces to ``z - ln(1 + e^z)`` for
    ``z << 0`` automatically.

    Parameters
    ----------
    z : array_like
        Dimensionless energy argument(s).

    Returns
    -------
    float or ndarray
        ``f(z)``, negative everywhere, with ``f(0) = -ln 2``.
    """
    arr, scalar = _as_float_array(z)
    return _maybe_scalar(-np.logaddexp(0.0, -arr), scalar)


def fermi_rho(z):
    """Fermi occupation ``rho(z) = 1/(1 + e^z)``, the derivative of ``fermi_f``.

    Parameters
    ----------
    z : array_like
        Dimensionless energy argument(s).

    Returns
    -------
    float or ndarray
        ``rho(z)`` in ``(0, 1)``, evaluated via the logistic function of
        ``-z`` so large ``|z|`` neither overflows nor loses precision.
    """
    arr, scalar = _as_float_array(z)
    return _maybe_scalar(_occupation(arr), scalar)


def _piecewise(z, series: Callable, closed: Callable,
               asymptote: Callable | None = None):
    """Evaluate a function of ``z`` from its three branches.

    ``series`` covers ``|z| <= SERIES_THRESHOLD``, ``asymptote`` covers
    ``|z| > _LARGE_Z`` and ``closed`` the rest (everything above the
    series branch when ``asymptote`` is None).  Each branch sees only its
    own entries of ``z``, so no branch is evaluated where it over- or
    underflows.
    """
    arr, scalar = _as_float_array(z)
    out = np.empty_like(arr)
    absz = np.abs(arr)
    small = absz <= SERIES_THRESHOLD
    out[small] = series(arr[small])
    mid = ~small
    if asymptote is not None:
        large = absz > _LARGE_Z
        mid &= ~large
        out[large] = asymptote(arr[large])
    out[mid] = closed(arr[mid])
    return _maybe_scalar(out, scalar)


def g0(z):
    """``g0(z) = tanh(z/2) / z`` with the removable singularity ``g0(0) = 1/2``.

    Series branch (|z| <= ``SERIES_THRESHOLD``):
    ``1/2 - z^2/24 + z^4/240 - 17 z^6/40320``.

    Parameters
    ----------
    z : array_like

    Returns
    -------
    float or ndarray
        ``g0(z) > 0``, even in ``z``.
    """
    def series(z):
        z2 = z * z
        return (0.5 - z2 / 24.0 + z2 * z2 / 240.0
                - 17.0 * z2 * z2 * z2 / 40320.0)

    return _piecewise(z, series, lambda z: np.tanh(0.5 * z) / z)


def g1(z):
    """``g1(z) = (sinh z - z) / (z^2 (1 + cosh z))``, odd, with ``g1(0) = 0``.

    Equal to ``-g0'(z)``.  Series branch:
    ``z/12 - z^3/60 + 17 z^5/6720``; for ``|z| > 300`` the ``-z`` in the
    numerator is negligible and ``tanh(z)/z^2`` is used to avoid overflow.

    Parameters
    ----------
    z : array_like

    Returns
    -------
    float or ndarray
    """
    def series(z):
        z2 = z * z
        return z / 12.0 - z * z2 / 60.0 + 17.0 * z * z2 * z2 / 6720.0

    return _piecewise(
        z, series,
        lambda z: (np.sinh(z) - z) / (z * z * (1.0 + np.cosh(z))),
        lambda z: np.tanh(z) / (z * z))


def g2(z):
    """``g2(z) = sinh(z/2) / (2 z cosh^3(z/2))``, even, with ``g2(0) = 1/4``.

    Equal to ``g1'(z) + 2 g1(z)/z``.  Series branch:
    ``1/4 - z^2/12 + 17 z^4/960``; for ``|z| > 300`` the exponentially
    small closed form ``2 e^{-|z|} / |z|`` is used to avoid overflow.

    Parameters
    ----------
    z : array_like

    Returns
    -------
    float or ndarray
    """
    def series(z):
        z2 = z * z
        return 0.25 - z2 / 12.0 + 17.0 * z2 * z2 / 960.0

    def closed(z):
        ch = np.cosh(0.5 * z)
        return np.sinh(0.5 * z) / (2.0 * z * ch * ch * ch)

    def asymptote(z):
        absz = np.abs(z)
        return 2.0 * np.exp(-absz) / absz

    return _piecewise(z, series, closed, asymptote)


def g1_over_z(z):
    """``g1(z)/z``, even and strictly positive, with value ``1/12`` at ``z = 0``.

    Series branch: ``1/12 - z^2/60 + 17 z^4/6720``.

    Parameters
    ----------
    z : array_like

    Returns
    -------
    float or ndarray
    """
    def series(z):
        z2 = z * z
        return 1.0 / 12.0 - z2 / 60.0 + 17.0 * z2 * z2 / 6720.0

    def asymptote(z):
        absz = np.abs(z)
        return np.tanh(absz) / (absz * absz * absz)

    return _piecewise(
        z, series,
        lambda z: (np.sinh(z) - z) / (z * z * z * (1.0 + np.cosh(z))),
        asymptote)


def kt_symbol(x, T: float):
    """Symbol ``K_T(x) = x / tanh(x / 2T)`` of the linearized gap operator.

    Monotone increasing in ``T`` with ``K_T >= 2T`` everywhere and the
    removable singularity ``K_T(0) = 2T``.

    Parameters
    ----------
    x : array_like
        Kinetic energy measured from the chemical potential, ``p^2 - mu``.
    T : float
        Temperature, strictly positive.

    Returns
    -------
    float or ndarray
    """
    if not T > 0:
        raise ValueError(f"temperature must be positive, got {T}")

    def series(w):
        w2 = w * w
        # w / tanh(w) = 1 + w^2/3 - w^4/45 + 2 w^6/945
        return 1.0 + w2 / 3.0 - w2 * w2 / 45.0 + 2.0 * w2 * w2 * w2 / 945.0

    w = np.asarray(x, dtype=float) / (2.0 * T)
    return 2.0 * T * _piecewise(w, series, lambda w: w / np.tanh(w), np.abs)


def divided_difference(x, y):
    """Two-node divided difference ``f[x, y] = (f(x) - f(y)) / (x - y)`` of
    ``fermi_f``, elementwise over broadcast ``x`` and ``y``.

    With ``x <= y`` (the arguments are ordered first, so the value is
    exactly symmetric) and ``d = x - y``, ``f(x) - f(y) = ln(1 + rho(x)
    (e^d - 1))``, taken as ``log1p(rho(x) expm1(d)) / d`` for ``|d| < 1``
    and, for ``|d| >= 1``, as ``logaddexp(f(x), ln rho(x) + d) / d``,
    whose terms are logarithms of the two positive parts, so nothing
    cancels or overflows; ``f[x, x] = rho(x)``.  The absolute error is a
    few ``eps`` for ``|x|, |y|`` up to 700: ``f[x, y]`` lies in ``(0, 1)``,
    and no branch subtracts two values of ``f``.

    Parameters
    ----------
    x, y : array_like
        Dimensionless energies; broadcast against each other.

    Returns
    -------
    float or ndarray
        ``f[x, y]`` in ``(0, 1)``.
    """
    xa, xs = _as_float_array(x)
    ya, ys = _as_float_array(y)
    # in place where it can be: the window pass holds few full-size arrays
    lo = np.atleast_1d(np.minimum(xa, ya))
    d = np.atleast_1d(np.maximum(xa, ya))
    np.subtract(lo, d, out=d)
    out = _occupation(lo)
    near = (d > -1.0) & (d != 0.0)
    far = d <= -1.0
    dn, lf, df = d[near], lo[far], d[far]
    del lo, d
    part = out[near]
    part *= np.expm1(dn)
    out[near] = np.divide(np.log1p(part, out=part), dn, out=part)
    del dn, part
    part = np.logaddexp(0.0, -lf)
    np.negative(part, out=part)
    rest = np.logaddexp(0.0, lf)
    np.subtract(df, rest, out=rest)
    out[far] = np.divide(np.logaddexp(part, rest, out=part), df, out=part)
    return float(out[0]) if xs and ys else out


def next_fast_len(n: int) -> int:
    """Smallest ``m >= n`` whose prime factors are all at most 11.

    NumPy's pocketfft transforms such lengths fastest; the result equals
    ``scipy.fft.next_fast_len(n)`` for complex transforms.

    Parameters
    ----------
    n : int
        Requested length, at least 1.

    Returns
    -------
    int
    """
    if n < 1:
        raise ValueError(f"length must be at least 1, got {n}")
    m = int(n)
    while True:
        rest = m
        for p in (2, 3, 5, 7, 11):
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return m
        m += 1
