"""Reference forms that several test modules check the library against.

Each is the textbook formula in the original basis, with no orthonormal
frame and no BLAS reshaping, so it stays independent of the kernels it checks.
"""

import math
from fractions import Fraction

import numpy as np

from solvgeom.algebra import from_sparse
from solvgeom.carnot import DataTriple, _equivalence_invariants, _orthonormalize_family, so_gram
from solvgeom.curvature import EigenvalueType, mean_curvature
from solvgeom.so6family import W_of, centralizer_in_so6
from solvgeom.symtwist import _render_cell


def basis_vector(alg, i):
    """The i-th basis vector e_i in basis coordinates."""
    v = np.zeros(alg.dim)
    v[i] = 1.0
    return v


def ad_matrix(alg, x):
    """Matrix of ad(x) in the original basis: ad_matrix(alg, x) @ y == bracket(alg, x, y)."""
    x = np.asarray(x, dtype=float)
    return np.einsum("ijk,i->kj", alg.c, x)


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


def frame_transform(c, gram):
    """(c_frame, frame, frame_inv) of `MetricLieAlgebra` by the general path for
    any Gram matrix: F = (L^T)^-1 for the Cholesky factor L, and c moved into
    the frame by three tensordots."""
    frame_inv = np.linalg.cholesky(np.asarray(gram, dtype=float)).swapaxes(-1, -2)
    frame = np.linalg.inv(frame_inv)
    t = np.tensordot(np.tensordot(frame, c, (0, 0)), frame, (1, 0))
    return np.tensordot(t, frame_inv, (1, 1)), frame, frame_inv


def eigenvalue_type(alg):
    """`curvature.eigenvalue_type` by its own eigvalsh: the spectrum of the
    symmetric part of ad(H/|H|) on n, in the orthonormal frame of the n-block,
    grouped and made integral as the library does."""
    h = mean_curvature(alg)
    n = list(alg.n_indices)
    f, f_inv = alg.n_frame
    m = f_inv @ ad_matrix(alg, h / alg.norm(h))[np.ix_(n, n)] @ f
    vals = np.sort(np.linalg.eigvalsh(0.5 * (m + m.T)))
    cut = 1e-8 * np.max(np.abs(vals))
    reps, mults = [], []
    for v in vals:
        if reps and abs(v - reps[-1]) <= cut:
            reps[-1] = (reps[-1] * mults[-1] + v) / (mults[-1] + 1)
            mults[-1] += 1
        else:
            reps.append(float(v))
            mults.append(1)
    fracs = [Fraction(r / reps[0]).limit_denominator(64) for r in reps]
    lcm = math.lcm(*(fr.denominator for fr in fracs))
    ints = [int(fr * lcm) for fr in fracs]
    g = math.gcd(*ints)
    ints = [v // g for v in ints]
    return EigenvalueType(eigenvalues=tuple(ints), multiplicities=tuple(mults),
                          scale=reps[0] / ints[0])


def rank_one_reduction_c(alg):
    """The structure tensor of `curvature.rank_one_reduction`, with ad(H/|H|)|n
    read off `ad_matrix` on the full algebra."""
    h = mean_curvature(alg)
    n = list(alg.n_indices)
    adh = ad_matrix(alg, h / alg.norm(h))[np.ix_(n, n)].T
    d = 1 + len(n)
    c = np.zeros((d, d, d))
    c[0, 1:, 1:], c[1:, 0, 1:] = adh, -adh
    c[1:, 1:, 1:] = alg.c[np.ix_(n, n, n)]
    return c


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


def j_of(triple, z):
    """j(z) = sum_a z_a J_a."""
    z = np.asarray(z, dtype=float)
    return np.einsum("a,aij->ij", z, triple.j_mats)


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



# --- uniform subspaces of so(r) ---------------------------------------------


def commutator_map_einsum(mats, basis):
    """`carnot._commutator_map` by summing over the inner index with einsum:
    [basis_u, a_i] for each basis matrix u and family member i, laid out
    (..., d, s r^2)."""
    s, r = mats.shape[-3], mats.shape[-1]
    com = np.einsum("uij,...ajk->...uaik", basis, mats)
    for a in range(s):
        com[..., a, :, :] -= np.einsum("...ij,ujk->...uik", mats[..., a, :, :], basis)
    return com.reshape(mats.shape[:-3] + (basis.shape[0], s * r * r))


def defect_einsum(basis, x, target):
    """`carnot._defect` as plain einsums over the (n, ...) stacks:
    (alpha, sum_i alpha_i^2 + s Id) for frames x (n, d, s)."""
    alpha = np.einsum("nui,uab->niab", x, basis)
    return alpha, np.einsum("niab,nibc->nac", alpha, alpha) + target


def riemannian_grad_einsum(basis, x, alpha, dft):
    """`carnot._riemannian_grad` as plain einsums over the (n, ...) stacks."""
    w = np.einsum("nab,nibc->niac", dft, alpha) + np.einsum("niab,nbc->niac", alpha, dft)
    egrad = 2.0 * np.einsum("niab,uba->nui", w, basis)
    xtg = x.swapaxes(-1, -2) @ egrad
    return egrad - x @ (0.5 * (xtg + xtg.swapaxes(-1, -2)))


def equivalence_invariants(mats):
    """The fingerprint of one subspace of so(r) by `carnot._equivalence_invariants`
    on a stack of one: (eigs of sum a_i^2, eigs of sum_{i<j} [a_i,a_j]^T [a_i,a_j],
    centralizer dimension), from an orthonormal basis of the span."""
    eig1, eig2, cdim = _equivalence_invariants(np.asarray(mats, dtype=float)[None])
    return tuple(eig1[0]), tuple(eig2[0]), int(cdim[0])


def _fingerprints_match(fa, fb):
    if fa[2] != fb[2]:
        return False
    return (
        max(abs(x - y) for x, y in zip(fa[0], fb[0])) <= 1e-6
        and max(abs(x - y) for x, y in zip(fa[1], fb[1])) <= 1e-6
    )


def classes_greedy(fingerprints):
    """Cluster fingerprints (eig1, eig2, cdim) in order: each joins the first
    class whose representative it matches, or opens a class.  Returns
    [representative index, count] per class."""
    classes = []
    for k, fp in enumerate(fingerprints):
        for entry in classes:
            if _fingerprints_match(fingerprints[entry[0]], fp):
                entry[1] += 1
                break
        else:
            classes.append([k, 1])
    return classes


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


# --- bracket tables -----------------------------------------------------------


def bracket_table_reference(rda):
    """`symtwist.bracket_table` cell by cell: each cell's constants above 1e-9
    by their own `flatnonzero`, rendered by `_render_cell`."""
    alg = rda.base
    n_idx = list(alg.n_indices)
    lines = ["\t".join([""] + [alg.labels[i] for i in n_idx])]
    for yi in n_idx:
        row = [alg.labels[yi]]
        for xi in n_idx:
            vec = alg.c[xi, yi, :]
            nz = np.flatnonzero(np.abs(vec) > 1e-9)
            if len(nz) == 0:
                row.append("")
            elif len(nz) == 1:
                k = int(nz[0])
                row.append(_render_cell(float(vec[k]), alg.labels[k]))
            else:
                raise ValueError(
                    f"[{alg.labels[xi]}, {alg.labels[yi]}] is not a basis monomial"
                )
        lines.append("\t".join(row))
    return "\n".join(lines) + "\n"
