"""Reference forms that several test modules check the library against.

Each is the textbook formula in the original basis, with no orthonormal
frame and no BLAS reshaping, so it stays independent of the kernels it checks.
"""

import math

import numpy as np

from solvgeom.algebra import from_sparse
from solvgeom.carnot import DataTriple, _orthonormalize_family, so_gram
from solvgeom.so6family import W_of, centralizer_in_so6


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


def j_from_brackets(alg):
    """Recover the data triple from an algebra in the canonical layout.

    The X/Z split is read off the ad(A) eigenvalues (1/2 on X, 1 on Z).
    """
    if alg.a_indices != (0,):
        raise ValueError("expected a one-dimensional a in position 0")
    diag = np.array([alg.c[0, k, k] for k in range(1, alg.dim)])
    x_idx = [1 + k for k, v in enumerate(diag) if abs(v - 0.5) <= 1e-12]
    z_idx = [1 + k for k, v in enumerate(diag) if abs(v - 1.0) <= 1e-12]
    if len(x_idx) + len(z_idx) != alg.dim - 1 or x_idx + z_idx != list(range(1, alg.dim)):
        raise ValueError("ad(A) spectrum is not the canonical (1/2, 1) layout")
    r, s = len(x_idx), len(z_idx)
    # j[a, k, i] = c[1 + i, 1 + k, 1 + r + a]
    j = alg.c[1:1 + r, 1:1 + r, 1 + r:].transpose(2, 1, 0).copy()
    return DataTriple(r=r, s=s, j_mats=j)


def build_solvmanifold_sparse(triple):
    """The extension of a data triple from one sparse entry (i, j, k, value)
    per nonzero bracket, i < j, filled in by `from_sparse`."""
    r, s = triple.r, triple.s
    entries = [(0, 1 + i, 1 + i, 0.5) for i in range(r)]
    entries += [(0, 1 + r + a, 1 + r + a, 1.0) for a in range(s)]
    for i in range(r):
        for j in range(i + 1, r):
            for a in range(s):
                v = triple.j_mats[a, j, i]
                if v != 0.0:
                    entries.append((1 + i, 1 + j, 1 + r + a, v))
    labels = ("A",) + tuple(f"X{i+1}" for i in range(r)) + tuple(f"Z{a+1}" for a in range(s))
    dim = 1 + r + s
    return from_sparse(dim, entries, labels=labels, a_indices=(0,),
                       n_indices=tuple(range(1, dim)))


def principal_cos(mats_a, mats_b):
    """Largest cosine of a principal angle between two spans, each
    orthonormalized first."""
    if len(mats_a) == 0 or len(mats_b) == 0:
        return float("nan")
    cos = so_gram(_orthonormalize_family(mats_a), _orthonormalize_family(mats_b))
    return float(min(np.linalg.svd(cos, compute_uv=False)[0], 1.0))


def angle_to_centralizer(r, s, t):
    w = W_of(r, s, t)
    return principal_cos(centralizer_in_so6(w)[1], w)


def bracket_angle(r, s, t):
    w = W_of(r, s, t)
    brs = np.array([w[i] @ w[j] - w[j] @ w[i] for i in range(3) for j in range(i + 1, 3)])
    if np.max(np.abs(brs)) <= 1e-13:
        return float("nan")
    return principal_cos(brs, w)


# --- constant tables, built from scratch on every call ----------------------


def _tau(z):
    """X + iY -> [[X, Y], [-Y, X]]."""
    z = np.asarray(z, dtype=complex)
    return np.block([[z.real, z.imag], [-z.imag, z.real]])


def basis_abc(signs):
    """The so(6) triples A_i = tau(X_i), B_i = sign_i tau(i|X_i|) and
    C_i = tau(i sqrt(3) e_ii), by nine realifications."""
    s32 = math.sqrt(1.5)
    xs = [s32 * np.array(m, dtype=float) for m in (
        [[0, 0, 0], [0, 0, -1], [0, 1, 0]],
        [[0, 0, -1], [0, 0, 0], [1, 0, 0]],
        [[0, -1, 0], [1, 0, 0], [0, 0, 0]],
    )]
    a = np.array([_tau(x) for x in xs])
    b = np.array([sg * _tau(1j * np.abs(x)) for sg, x in zip(signs, xs)])
    c = np.array([_tau(1j * math.sqrt(3.0) * np.diag(np.eye(3)[i])) for i in range(3)])
    return a, b, c


def so_basis(r):
    """sqrt(r/2) (E_ab - E_ba) for a < b, in lexicographic order."""
    mats = []
    for a in range(r):
        for b in range(a + 1, r):
            m = np.zeros((r, r))
            m[a, b] = math.sqrt(r / 2.0)
            m[b, a] = -math.sqrt(r / 2.0)
            mats.append(m)
    return np.array(mats)


def generic_weights(k):
    """The generic combination of k Iwasawa operators: a seeded normal draw."""
    return np.random.default_rng(0).standard_normal(k)
