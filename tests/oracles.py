"""Reference forms that several test modules check the library against.

Each is the textbook formula in the original basis, with no orthonormal
frame and no BLAS reshaping, so it stays independent of the kernels it checks.
"""

import math

import numpy as np


def killing_form(alg):
    """B[i][j] = tr(ad e_i . ad e_j)."""
    return np.einsum("iba,jab->ij", alg.c, alg.c)


def metric_adjoint(alg, mat):
    """Adjoint of a matrix w.r.t. gram: G^{-1} M^T G."""
    return np.linalg.solve(alg.gram, np.asarray(mat).T @ alg.gram)


def so_inner(a, b):
    """(a, b) = -tr(ab)/r on so(r)."""
    a = np.asarray(a, dtype=float)
    return -float(np.trace(a @ b)) / a.shape[0]


def jacobi_dense(c):
    """The relative Jacobi residual of `algebra.validate` from the full dim^4
    product cc[i, j, k] = [[e_i, e_j], e_k], zero brackets included, read on
    the triples i < j < k in the same three summation orders."""
    n = c.shape[0]
    r = np.arange(n)
    i, j, k = np.nonzero((r[:, None, None] < r[:, None]) & (r[:, None] < r))
    with np.errstate(over="ignore", invalid="ignore"):
        cc = (c.reshape(n * n, n) @ c.reshape(n, n * n)).reshape(n, n, n, n)
        if not np.isfinite(cc).all():
            return math.inf
        a, b, d = cc[i, j, k], cc[j, k, i], cc[k, i, j]
        jac = max(float(np.max(np.abs(x + y + z), initial=0.0))
                  for x, y, z in ((a, b, d), (b, d, a), (a, d, b)))
    scale = float(np.max(np.abs(c), initial=0.0))
    return jac / scale / scale if scale > 0.0 else 0.0
