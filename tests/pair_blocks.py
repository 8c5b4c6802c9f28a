"""The windowed fiber pass's pair block as one dense array, for the tests.

``bdg_verifier._fiber_pass`` keeps the pair block as ``(row, col, rows)``
blocks, one per window, and 0 elsewhere; the tests that compare it with the
dense route, or byte for byte across runs, read it through
:func:`dense_alpha`.
"""

import numpy as np


def dense_alpha(alpha, n):
    """The ``n x n`` pair block of the blocks ``alpha``, in their dtype."""
    out = np.zeros((n, n), np.result_type(*(rows for _, _, rows in alpha)))
    for row, col, rows in alpha:
        out[row:row + rows.shape[0], col:col + rows.shape[1]] = rows
    return out
