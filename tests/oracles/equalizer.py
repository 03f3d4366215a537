"""Toeplitz solves the MMSE equalizer's Levinson path is pinned to.

* :func:`dense_solve` -- the dense O(n^3) ``numpy.linalg.solve`` of the
  normal equations, shaped like ``MMSEEqualizer._solve`` so it can be
  patched in as that method;
* :func:`levinson_solve` -- a pure-NumPy Levinson recursion (general
  right-hand side), the algorithm SciPy's compiled kernel implements.
"""

from __future__ import annotations

import numpy as np

from repro.core.equalizer import MMSEEqualizer


def dense_solve(
    equalizer: MMSEEqualizer, r_yy: np.ndarray, r_xy: np.ndarray
) -> np.ndarray:
    """Build the full symmetric Toeplitz matrix and solve it densely."""
    indices = np.arange(r_yy.size)
    matrix = r_yy[np.abs(indices[:, None] - indices[None, :])]
    coefficients = np.linalg.solve(matrix, r_xy)
    return np.asarray(coefficients, dtype=float)


def levinson_solve(r: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``T x = b`` for symmetric Toeplitz ``T`` via Levinson-Durbin.

    Parameters
    ----------
    r:
        First column (= first row) of the symmetric Toeplitz matrix.
        ``r[0]`` must be non-zero and the matrix strongly regular (true
        for the equalizer's diagonally-loaded autocorrelation matrices).
    b:
        Right-hand side, same length as ``r``.

    Returns
    -------
    numpy.ndarray
        The solution ``x``, computed in O(n^2) operations.
    """
    r = np.asarray(r, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    if r.size != b.size:
        raise ValueError("r and b must have the same length")
    if r.size == 0:
        raise ValueError("system must have at least one equation")
    if r[0] == 0.0:
        raise ValueError("r[0] must be non-zero for the Levinson recursion")

    n = r.size
    # ``forward`` solves T_k f = e_1 for the growing leading subsystem; for
    # a symmetric Toeplitz matrix the backward vector (T_k g = e_k) is just
    # the reversed forward vector, which halves the recursion's work.
    x = np.zeros(n)
    forward = np.zeros(n)
    forward[0] = 1.0 / r[0]
    x[0] = b[0] / r[0]
    for k in range(1, n):
        prev = forward[:k]
        reversed_lags = r[k:0:-1]  # [r[k], r[k-1], ..., r[1]]
        # Error of the zero-extended forward vector against the new last row.
        eps_f = float(reversed_lags @ prev)
        denominator = 1.0 - eps_f * eps_f
        if denominator == 0.0:
            raise np.linalg.LinAlgError(
                "Toeplitz matrix is singular at order %d" % (k + 1)
            )
        scale = 1.0 / denominator
        new_forward = np.empty(k + 1)
        new_forward[:k] = scale * prev
        new_forward[k] = 0.0
        new_forward[1:] -= (eps_f * scale) * prev[::-1]
        # Error of the zero-extended solution, then correct along the
        # backward vector (the reversed forward vector).
        eps_x = float(reversed_lags @ x[:k])
        x[:k + 1] += (b[k] - eps_x) * new_forward[::-1]
        forward[:k + 1] = new_forward
    return x
