"""Reference forms that several test modules check the library against.

Each is the textbook formula in the original basis, with no orthonormal
frame and no BLAS reshaping, so it stays independent of the kernels it checks.
"""

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
