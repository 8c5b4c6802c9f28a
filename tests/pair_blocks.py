"""Dense arrays of a fiber and of its pair block, for the tests.

``bdg_verifier`` assembles a fiber's blocks one window at a time, and the
windowed fiber pass keeps the pair block as ``(row, col, rows)`` blocks,
one per window, and 0 elsewhere.  The tests that compare them with the
dense route, or byte for byte across runs, read the whole fiber through
:func:`full_blocks` and :func:`fiber_matrix` and the whole pair block
through :func:`dense_alpha`.
"""

import numpy as np

from bcsgl import bdg_verifier as bv


def full_blocks(op):
    """``(K, Delta, M22)`` of the fiber ``op`` on every mode."""
    return op.blocks(0, len(op.momenta))


def fiber_matrix(op):
    """The Hermitian ``2N x 2N`` fiber ``[[K, Delta], [Delta^*, M22]]``."""
    return bv._bdg_matrix(*full_blocks(op))


def held_arrays(op):
    """Names of the attributes of ``op`` that hold a matrix; the fiber
    keeps only vectors and fields, whatever assembled its blocks."""
    return [name for name, value in vars(op).items() if np.ndim(value) >= 2]


def dense_alpha(alpha, n):
    """The ``n x n`` pair block of the blocks ``alpha``, in their dtype."""
    out = np.zeros((n, n), np.result_type(*(rows for _, _, rows in alpha)))
    for row, col, rows in alpha:
        out[row:row + rows.shape[0], col:col + rows.shape[1]] = rows
    return out
