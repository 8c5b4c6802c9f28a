"""Confluent divided differences of the Fermi weights, the tests' oracle.

The GL and trace-expansion constants have confluent divided-difference
forms ``[a_1, ..., a_N]`` of ``f`` and ``rho``: ``gl_coeffs`` evaluates
their closed g-function forms, and the tests check those against this
independent route.  The pipeline itself evaluates only the two-node
``f[x, y]`` of the Daleckii-Krein trace kernel,
``bcsgl.specfun.divided_difference``.

* ``divided_difference(func, nodes)`` -- ``[a_1, ..., a_N]`` of ``f`` or
  ``rho``, for one node set or a batch of them,
* ``f_derivative``, ``rho_derivative`` -- the derivatives of ``f`` and
  ``rho`` in closed form, as polynomials in ``rho``.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from bcsgl.specfun import (_as_float_array, _maybe_scalar, _occupation,
                           fermi_f, fermi_rho)

#: Nodes closer than this absolute distance are merged into a confluent cluster.
CLUSTER_TOLERANCE = 1e-9

#: Maximum number of divided-difference nodes supported.
MAX_NODES = 8

#: Highest closed-form derivative order kept in the rho-polynomial table.
MAX_DERIVATIVE_ORDER = 20

#: Node sets whose total spread is at most this are evaluated by the
#: division-free Taylor path instead of the Hermite recursion, because the
#: recursion amplifies roundoff like eps / spread^(N-1).
_TAYLOR_SPREAD = 0.1

#: Number of Taylor correction orders kept beyond the leading derivative term.
_TAYLOR_EXTRA_ORDERS = 12


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
