"""Stable special functions and confluent divided differences.

Everything downstream of the gap equation is assembled from a handful of
scalar functions of the dimensionless energy ``z = beta * (p^2 - mu)``:

* ``fermi_f``    -- free-energy weight ``f(z) = -ln(1 + e^{-z})``,
* ``fermi_rho``  -- occupation ``rho(z) = 1/(1 + e^z) = f'(z)``,
* ``g0, g1, g2`` -- the hyperbolic family entering the quadratic and
  quartic coefficients of the Ginzburg-Landau expansion,
* ``kt_symbol``  -- the symbol ``x / tanh(x / 2T)`` of the linearized gap
  operator,
* ``divided_difference`` -- confluent divided differences ``[a_1,...,a_N]``
  of ``f`` or ``rho``, the building blocks of semiclassical trace
  expansions,
* ``fermi_f_divided_difference`` -- the two-node ``f[x, y]``, elementwise
  over arrays, for the Daleckii-Krein trace differences of the fibers.

All functions switch to Taylor series below ``SERIES_THRESHOLD = 1e-2`` so
removable singularities are exact, and to asymptotic forms at large
argument so nothing overflows for ``|z|`` up to several hundred.

``next_fast_len`` picks the FFT grid sizes of the torus fields.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

__all__ = [
    "SERIES_THRESHOLD",
    "CLUSTER_TOLERANCE",
    "MAX_NODES",
    "fermi_f",
    "fermi_rho",
    "f_derivative",
    "rho_derivative",
    "g0",
    "g1",
    "g2",
    "g1_over_z",
    "kt_symbol",
    "divided_difference",
    "fermi_f_divided_difference",
    "next_fast_len",
]

#: Switch to Taylor series for |z| at or below this value (documented contract).
SERIES_THRESHOLD = 1e-2

#: Nodes closer than this absolute distance are merged into a confluent cluster.
CLUSTER_TOLERANCE = 1e-9

#: Maximum number of divided-difference nodes supported.
MAX_NODES = 8

#: Highest closed-form derivative order kept in the rho-polynomial table.
MAX_DERIVATIVE_ORDER = 20

#: Switch to overflow-free asymptotic forms above this |z|.
_LARGE_Z = 300.0

#: Node sets whose total spread is at most this are evaluated by the
#: division-free Taylor path instead of the Hermite recursion, because the
#: recursion amplifies roundoff like eps / spread^(N-1).
_TAYLOR_SPREAD = 0.1

#: Number of Taylor correction orders kept beyond the leading derivative term.
_TAYLOR_EXTRA_ORDERS = 12


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


def _rho_polynomials(max_order: int) -> list[np.ndarray]:
    """Coefficients (ascending powers of rho) of ``rho^(m)`` as polynomials in rho.

    Uses ``rho' = rho^2 - rho``: if ``rho^(m) = P_m(rho)`` then
    ``P_{m+1} = P_m' * (x^2 - x)``.
    """
    polys = [np.array([0.0, 1.0])]  # P_0(x) = x
    for _ in range(max_order):
        deriv = np.polynomial.polynomial.polyder(polys[-1])
        polys.append(np.polynomial.polynomial.polymul(deriv, np.array([0.0, -1.0, 1.0])))
    return polys


_RHO_POLYS = _rho_polynomials(MAX_DERIVATIVE_ORDER - 1)


def rho_derivative(z, order: int):
    """``order``-th derivative of ``fermi_rho`` in closed form.

    Every derivative of ``rho`` is a polynomial in ``rho`` itself (from
    ``rho' = rho^2 - rho``), so the evaluation inherits the stability of
    the logistic function: it decays to 0 at both infinities without
    cancellation blow-up.

    Parameters
    ----------
    z : array_like
        Argument(s).
    order : int
        Derivative order, ``0 <= order <= 20``.

    Returns
    -------
    float or ndarray
    """
    if not 0 <= order <= MAX_DERIVATIVE_ORDER - 1:
        raise ValueError(
            f"order must be in [0, {MAX_DERIVATIVE_ORDER - 1}], got {order}"
        )
    arr, scalar = _as_float_array(z)
    rho = _occupation(arr)
    out = np.polynomial.polynomial.polyval(rho, _RHO_POLYS[order])
    return _maybe_scalar(out, scalar)


def f_derivative(z, order: int):
    """``order``-th derivative of ``fermi_f`` in closed form.

    ``f' = rho`` and all higher derivatives are polynomials in ``rho``;
    ``order = 0`` returns ``fermi_f`` itself.

    Parameters
    ----------
    z : array_like
        Argument(s).
    order : int
        Derivative order, ``0 <= order <= 20``.

    Returns
    -------
    float or ndarray
    """
    if not 0 <= order <= MAX_DERIVATIVE_ORDER:
        raise ValueError(f"order must be in [0, {MAX_DERIVATIVE_ORDER}], got {order}")
    if order == 0:
        return fermi_f(z)
    return rho_derivative(z, order - 1)


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


# ---------------------------------------------------------------------------
# Confluent divided differences
# ---------------------------------------------------------------------------

_FUNC_TABLE: dict[str, tuple[Callable, Callable]] = {
    "f": (fermi_f, f_derivative),
    "rho": (fermi_rho, rho_derivative),
}


def _resolve_func(func: str) -> tuple[Callable, Callable]:
    if func not in _FUNC_TABLE:
        raise ValueError(f"func must be one of {sorted(_FUNC_TABLE)}, got {func!r}")
    return _FUNC_TABLE[func]


def _validated_nodes(nodes) -> np.ndarray:
    arr = np.asarray(list(nodes), dtype=float)
    if arr.ndim not in (1, 2) or arr.size < 1:
        raise ValueError("nodes must be a non-empty sequence or an (m, N) "
                         "array of node sets")
    if arr.shape[-1] > MAX_NODES:
        raise ValueError(
            f"at most {MAX_NODES} nodes supported, got {arr.shape[-1]}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("nodes must be finite")
    return arr


def _snap_clusters(sorted_nodes: np.ndarray) -> np.ndarray:
    """Replace near-coincident nodes of each sorted row by their cluster
    mean.

    Consecutive nodes closer than ``CLUSTER_TOLERANCE`` are merged, so the
    Hermite table sees exactly equal floats inside a cluster and
    well-separated values across clusters.
    """
    m, n = sorted_nodes.shape
    boundary = np.diff(sorted_nodes, axis=1) > CLUSTER_TOLERANCE
    if boundary.all():
        return sorted_nodes
    label = np.zeros((m, n), dtype=int)
    label[:, 1:] = np.cumsum(boundary, axis=1)
    rows = np.arange(m)[:, None]
    sums, counts = np.zeros((m, n)), np.zeros((m, n))
    np.add.at(sums, (rows, label), sorted_nodes)
    np.add.at(counts, (rows, label), 1.0)
    return sums[rows, label] / counts[rows, label]


def _taylor_divided_difference(
    derivative: Callable, x: np.ndarray
) -> np.ndarray:
    """Division-free divided differences for tightly clustered node sets.

    Expanding the function around the node mean ``c`` of a row, the
    divided difference of the monomial ``(z - c)^k`` over ``N`` nodes is
    the complete homogeneous symmetric polynomial ``h_{k-N+1}`` of the
    shifted nodes (zero for ``k < N - 1``), so::

        [x_1,...,x_N] = sum_{m>=0} f^{(N-1+m)}(c)/(N-1+m)! * h_m(x - c).

    With spread <= 0.1 and 12 correction orders the truncation error is far
    below 1e-12, and no differences of nearly equal values ever form.
    """
    n = x.shape[1]
    c = x.mean(axis=1)
    y = x - c[:, None]

    # h_m via the power-sum recurrence m*h_m = sum_{k=1}^{m} p_k h_{m-k}.
    p = [np.sum(y**k, axis=1) for k in range(_TAYLOR_EXTRA_ORDERS + 1)]
    h = [np.ones(len(x))]
    for m in range(1, _TAYLOR_EXTRA_ORDERS + 1):
        h.append(sum(p[k] * h[m - k] for k in range(1, m + 1)) / m)

    total = np.zeros(len(x))
    for m in range(_TAYLOR_EXTRA_ORDERS, -1, -1):  # small terms first
        k = n - 1 + m
        total += derivative(c, k) / math.factorial(k) * h[m]
    return total


def _hermite_divided_difference(
    value: Callable, derivative: Callable, x: np.ndarray
) -> np.ndarray:
    """Hermite table of each row: column ``j`` holds ``[x_i, ..., x_{i+j}]``
    for ``i = 0..N-1-j``; a confluent entry takes the analytic derivative."""
    col = value(x)
    with np.errstate(divide="ignore", invalid="ignore"):
        for j in range(1, x.shape[1]):
            lo, hi = x[:, :-j], x[:, j:]
            quotient = (col[:, 1:] - col[:, :-1]) / (hi - lo)
            col = np.where(hi == lo, derivative(lo, j) / math.factorial(j),
                           quotient)
    return col[:, 0]


def divided_difference(func: str, nodes):
    """Confluent divided difference ``[a_1, ..., a_N]`` of ``f`` or ``rho``.

    Repeated (or nearly repeated, within ``CLUSTER_TOLERANCE`` absolute)
    nodes are handled by the Hermite table with analytic derivatives --
    never by dividing nearly equal values -- so exact confluent limits such
    as ``[a, a] = f'(a)`` hold to machine precision.  Node sets whose total
    spread is below 0.1 are evaluated by a division-free Taylor expansion
    around the node mean, avoiding the ``eps / spread^(N-1)`` roundoff
    amplification of the recursion.  Nodes are sorted first, which makes
    permutation invariance exact.

    An ``(m, N)`` array is ``m`` node sets, one per row, each evaluated by
    the same rules; a single node set is evaluated as a batch of one, so
    a row of a batch gives the same float as the set passed alone.

    Parameters
    ----------
    func : {"f", "rho"}
        Which function to difference.
    nodes : sequence of float, or (m, N) array_like
        Arguments ``a_1, ..., a_N``, ``1 <= N <= 8``, in any order.

    Returns
    -------
    float or ndarray
        ``[a_1, ..., a_N]_func``, symmetric in the nodes; an ``(m,)``
        array for an ``(m, N)`` batch.
    """
    value, derivative = _resolve_func(func)
    arr = _validated_nodes(nodes)
    x = _snap_clusters(np.sort(np.atleast_2d(arr), axis=1))
    if x.shape[1] == 1:
        out = value(x[:, 0])
    else:
        out = np.empty(len(x))
        taylor = x[:, -1] - x[:, 0] <= _TAYLOR_SPREAD
        if taylor.any():
            out[taylor] = _taylor_divided_difference(derivative, x[taylor])
        if not taylor.all():
            out[~taylor] = _hermite_divided_difference(value, derivative,
                                                       x[~taylor])
    return out if arr.ndim == 2 else float(out[0])


def fermi_f_divided_difference(x, y):
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
