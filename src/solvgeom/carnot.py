"""Rank-one solvable extensions of two-step nilpotent algebras.

A data triple (r, s, J) holds s skew-symmetric r x r matrices.  The attached
metric algebra has orthonormal basis {A, X_1..X_r, Z_1..Z_s} with

    [A, X_i] = X_i / 2,   [A, Z_a] = Z_a,   [X_i, X_j] = sum_a <J_a X_i, X_j> Z_a.

The inner product on so(r) throughout is (a, b) = -tr(ab)/r.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import MAX_DIM, from_sparse, orthonormal_frame

__all__ = [
    "DataTriple",
    "EinsteinConditions",
    "UniformSubspaceCandidate",
    "so_inner",
    "so_gram",
    "so_basis",
    "build_solvmanifold",
    "brackets_from_j",
    "j_from_brackets",
    "einstein_conditions",
    "is_uniform",
    "complement_uniform",
    "so4_split_basis",
    "so4_criterion",
    "search_uniform",
    "centralizer",
    "equivalence_invariants",
    "classify_uniform_so4",
    "random_triple",
    "real_hyperbolic_triple",
    "complex_hyperbolic_triple",
]


def so_inner(a, b):
    """(a, b) = -tr(ab)/r on so(r)."""
    a = np.asarray(a, dtype=float)
    return -float(np.trace(a @ b)) / a.shape[0]


def so_gram(a, b):
    """Matrix of (a_i, b_j) for two stacks of r x r matrices."""
    a = np.asarray(a, dtype=float)
    return -np.einsum("iuv,jvu->ij", a, b) / a.shape[1]


def so_basis(r):
    """Orthonormal basis of so(r): sqrt(r/2) (E_ab - E_ba), a < b."""
    mats = []
    scale = math.sqrt(r / 2.0)
    for a in range(r):
        for b in range(a + 1, r):
            m = np.zeros((r, r))
            m[a, b] = scale
            m[b, a] = -scale
            mats.append(m)
    return np.array(mats)


@dataclass
class DataTriple:
    r: int
    s: int
    j_mats: np.ndarray  # (s, r, r), each skew

    def __post_init__(self):
        self.j_mats = np.asarray(self.j_mats, dtype=float).reshape(self.s, self.r, self.r)
        if not np.all(np.isfinite(self.j_mats)):
            raise ValueError("j matrices must be finite")
        skew = np.max(np.abs(self.j_mats + np.transpose(self.j_mats, (0, 2, 1)))) if self.s else 0.0
        if skew > 1e-12:
            raise ValueError(f"j matrices must be skew-symmetric (defect {skew:.2e})")

    def j_of(self, z):
        """j(z) = sum_a z_a J_a."""
        z = np.asarray(z, dtype=float)
        return np.einsum("a,aij->ij", z, self.j_mats)


def brackets_from_j(triple):
    """Sparse structure entries (i, j, k, value) for the solvable extension."""
    r, s = triple.r, triple.s
    entries = []
    for i in range(r):
        entries.append((0, 1 + i, 1 + i, 0.5))
    for a in range(s):
        entries.append((0, 1 + r + a, 1 + r + a, 1.0))
    for i in range(r):
        for j in range(i + 1, r):
            for a in range(s):
                v = triple.j_mats[a, j, i]
                if v != 0.0:
                    entries.append((1 + i, 1 + j, 1 + r + a, v))
    return 1 + r + s, entries


def build_solvmanifold(triple):
    r, s = triple.r, triple.s
    dim, entries = brackets_from_j(triple)
    labels = ("A",) + tuple(f"X{i+1}" for i in range(r)) + tuple(f"Z{a+1}" for a in range(s))
    return from_sparse(
        dim,
        entries,
        labels=labels,
        a_indices=(0,),
        n_indices=tuple(range(1, dim)),
    )


def real_hyperbolic_triple(dim):
    """Data triple (dim - 1, 0); the extension has constant curvature -1/4."""
    if not 2 <= dim <= MAX_DIM:
        raise ValueError(f"need 2 <= dim <= {MAX_DIM}, got {dim}")
    r = dim - 1
    return DataTriple(r, 0, np.zeros((0, r, r)))


def complex_hyperbolic_triple(n):
    """Data triple (2(n-1), 1) whose extension is the complex hyperbolic
    n-space with sectional curvature in [-1, -1/4]."""
    if not 2 <= n <= MAX_DIM // 2:
        raise ValueError(f"need 2 <= n <= {MAX_DIM // 2} (dim 2n <= {MAX_DIM}), got {n}")
    h = n - 1
    j = np.zeros((2 * h, 2 * h))
    j[:h, h:] = -np.eye(h)
    j[h:, :h] = np.eye(h)
    return DataTriple(2 * h, 1, j[None])


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
    j = np.zeros((s, r, r))
    for a in range(s):
        for i in range(r):
            for k in range(r):
                j[a, k, i] = alg.c[1 + i, 1 + k, 1 + r + a]
    return DataTriple(r=r, s=s, j_mats=j)


@dataclass
class EinsteinConditions:
    gram_residual: float      # max |(J_a, J_b) - delta_ab|
    uniform_residual: float   # max |sum_a J_a^2 + s Id|

    @property
    def max_residual(self):
        return max(self.gram_residual, self.uniform_residual)


def einstein_conditions(triple):
    """Residuals of the two conditions equivalent to the extension being Einstein."""
    r, s = triple.r, triple.s
    if s == 0:
        return EinsteinConditions(0.0, 0.0)
    gram = -np.einsum("aij,bji->ab", triple.j_mats, triple.j_mats) / r
    res_i = float(np.max(np.abs(gram - np.eye(s))))
    ss = np.einsum("aij,ajk->ik", triple.j_mats, triple.j_mats)
    res_ii = float(np.max(np.abs(ss + s * np.eye(r))))
    return EinsteinConditions(gram_residual=res_i, uniform_residual=res_ii)


def is_uniform(mats, tol=1e-8):
    """sum_i a_i^2 = -s Id for an orthonormal family (basis-independent)."""
    mats = np.asarray(mats, dtype=float)
    if mats.ndim == 2:
        mats = mats[None]
    s, r = mats.shape[0], mats.shape[1]
    if s == 0:
        return True
    ss = np.einsum("aij,ajk->ik", mats, mats)
    return float(np.max(np.abs(ss + s * np.eye(r)))) <= tol


def complement_uniform(mats, tol=1e-8):
    """Orthonormal basis of the (,)-orthogonal complement of span(mats) in so(r).

    A subspace is uniform iff its complement is: the full basis sums to
    -dim so(r) times the identity.
    """
    mats = np.asarray(mats, dtype=float)
    s, r = mats.shape[0], mats.shape[1]
    basis = so_basis(r)
    coords = so_gram(mats, basis)  # (s, d)
    _, sing, vt = np.linalg.svd(coords, full_matrices=True)
    rank = int(np.sum(sing > tol))
    comp = vt[rank:]  # (d - rank, d) orthonormal rows
    return np.einsum("cu,uij->cij", comp, basis)


# --- so(4) ------------------------------------------------------------------

_LI = np.array([[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]], dtype=float)
_LJ = np.array([[0, 0, -1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, -1, 0, 0]], dtype=float)
_LK = np.array([[0, 0, 0, -1], [0, 0, -1, 0], [0, 1, 0, 0], [1, 0, 0, 0]], dtype=float)
_RI = np.array([[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]], dtype=float)
_RJ = np.array([[0, 0, -1, 0], [0, 0, 0, -1], [1, 0, 0, 0], [0, 1, 0, 0]], dtype=float)
_RK = np.array([[0, 0, 0, -1], [0, 0, 1, 0], [0, -1, 0, 0], [1, 0, 0, 0]], dtype=float)


def so4_split_basis():
    """Left/right quaternion multiplications: orthonormal basis adapted to
    so(4) = L(Im H) + R(Im H)."""
    return np.array([_LI, _LJ, _LK]), np.array([_RI, _RJ, _RK])


def so4_criterion(mats, tol=1e-8):
    """Uniformity test special to so(4).

    Writing each a_i = L(q_i) + R(p_i), an orthonormal family is uniform iff
    sum_i q_i p_i^T = 0.  Returns (residual, verdict).
    """
    mats = np.asarray(mats, dtype=float)
    if mats.shape[1:] != (4, 4):
        raise ValueError("so4_criterion expects 4 x 4 matrices")
    left, right = so4_split_basis()
    m = so_gram(mats, left).T @ so_gram(mats, right)
    res = float(np.max(np.abs(m)))
    return res, res <= tol


# --- uniform subspace search ------------------------------------------------


@dataclass
class UniformSubspaceCandidate:
    r: int
    s: int
    coords: np.ndarray     # (d, s), orthonormal columns in the so(r) basis
    matrices: np.ndarray   # (s, r, r)
    residual: float        # max |sum a_i^2 + s Id|
    objective: float       # squared Frobenius norm of the same defect


def _descend(basis, x, s, max_iter=4000):
    """Projected gradient descent on the Stiefel manifold of s-frames.

    Trial step by the Barzilai-Borwein rule (plain 1/L-style first step),
    then Armijo halving; retraction by QR.
    """
    r = basis.shape[1]
    target = s * np.eye(r)

    def defect(xm):
        alpha = np.einsum("ui,uab->iab", xm, basis)
        return alpha, np.einsum("iab,ibc->ac", alpha, alpha) + target

    def riemannian_grad(xm, alpha, dft):
        w = np.einsum("ab,ibc->iac", dft, alpha) + np.einsum("iab,bc->iac", alpha, dft)
        egrad = 2.0 * np.einsum("iab,uba->ui", w, basis)
        xtg = xm.T @ egrad
        return egrad - xm @ (0.5 * (xtg + xtg.T))

    alpha, dft = defect(x)
    h = float(np.sum(dft * dft))
    rgrad = riemannian_grad(x, alpha, dft)
    step = 1.0
    prev_x = prev_g = None
    for _ in range(max_iter):
        gnorm = float(np.linalg.norm(rgrad))
        if gnorm < 1e-13 or h < 1e-26:
            break
        if prev_x is not None:
            dx = (x - prev_x).ravel()
            dg = (rgrad - prev_g).ravel()
            dxdg = float(dx @ dg)
            if dxdg > 1e-30:
                step = float(dx @ dx) / dxdg
            step = min(max(step, 1e-6), 1e6)
        improved = False
        for _ in range(60):
            q, rr = np.linalg.qr(x - step * rgrad)
            q = q * np.sign(np.where(np.diag(rr) == 0, 1.0, np.diag(rr)))
            alpha_new, dft_new = defect(q)
            h_new = float(np.sum(dft_new * dft_new))
            if h_new < h - 1e-4 * step * gnorm * gnorm:
                prev_x, prev_g = x, rgrad
                x, alpha, dft, h = q, alpha_new, dft_new, h_new
                rgrad = riemannian_grad(x, alpha, dft)
                improved = True
                break
            step *= 0.5
        if not improved:
            break
    return x, alpha, dft, h


def search_uniform(r, s, restarts=200, seed=0, rng=None):
    """Search for a uniform s-dimensional subspace of so(r).

    Minimizes |sum a_i^2 + s Id|_F^2 over orthonormal s-frames; returns the
    best candidate found.  Certify with einstein_conditions / is_uniform.
    """
    if r < 2:
        raise ValueError(f"need --r >= 2, got {r}")
    d = r * (r - 1) // 2
    if not 0 < s <= d:
        raise ValueError(f"need 0 < s <= dim so({r}) = {d}")
    if 1 + r + s > MAX_DIM:
        raise ValueError(f"the extension would have dim 1 + r + s = {1 + r + s}, "
                         f"above {MAX_DIM}")
    if restarts < 1:
        raise ValueError(f"need at least one restart (--trials >= 1), got {restarts}")
    basis = so_basis(r)
    if rng is None:
        rng = np.random.default_rng(seed)
    best = None
    for _ in range(restarts):
        x0, _ = np.linalg.qr(rng.standard_normal((d, s)))
        x, alpha, dft, h = _descend(basis, x0, s)
        res = float(np.max(np.abs(dft)))
        if best is None or h < best.objective:
            best = UniformSubspaceCandidate(
                r=r, s=s, coords=x, matrices=alpha, residual=res, objective=h
            )
            if best.objective < 1e-26:
                break
    return best


# --- equivalence invariants ---------------------------------------------------


def _orthonormalize_family(mats):
    """Orthonormal basis of span(mats) w.r.t. (,), by Gram-Schmidt on the
    so(r) Gram matrix of a linearly independent family."""
    mats = np.asarray(mats, dtype=float)
    frame = orthonormal_frame(so_gram(mats, mats))
    return np.einsum("ak,aij->kij", frame, mats)


def centralizer(mats, tol):
    """(dimension, basis matrices) of {b in so(r): [b, a_i] = 0 for all i}.

    A singular value counts as zero below tol times the largest one.
    """
    mats = np.asarray(mats, dtype=float)
    basis = so_basis(mats.shape[1])
    d = basis.shape[0]
    rows = []
    for a in mats:
        block = np.einsum("uij,jk->uik", basis, a) - np.einsum("ij,ujk->uik", a, basis)
        rows.append(block.reshape(d, -1))
    # s r^2 columns against d = r(r-1)/2 rows, so u is square
    stacked = np.concatenate(rows, axis=1)
    u, sing, _ = np.linalg.svd(stacked, full_matrices=False)
    nullity = int(np.sum(sing <= tol * max(1.0, float(sing[0]))))
    return nullity, np.einsum("uc,uij->cij", u[:, d - nullity:], basis)


def centralizer_dimension(mats, tol=1e-8):
    """dim of {b in so(r): [b, a_i] = 0 for all i}."""
    return centralizer(mats, tol)[0]


def equivalence_invariants(mats):
    """Fingerprint of a subspace, constant on equivalence classes.

    Returns (eigs of sum a_i^2, eigs of sum_{i<j} [a_i,a_j]^T [a_i,a_j],
    centralizer dimension) computed from an orthonormal basis of the span.
    """
    onb = _orthonormalize_family(mats)
    s, r = onb.shape[0], onb.shape[1]
    ss = np.einsum("aij,ajk->ik", onb, onb)
    t = np.zeros((r, r))
    for i in range(s):
        for j in range(i + 1, s):
            com = onb[i] @ onb[j] - onb[j] @ onb[i]
            t += com.T @ com
    eig1 = np.sort(np.linalg.eigvalsh(0.5 * (ss + ss.T)))
    eig2 = np.sort(np.linalg.eigvalsh(t))
    cdim = centralizer_dimension(onb)
    return tuple(eig1), tuple(eig2), cdim


def _fingerprints_match(fa, fb, tol=1e-6):
    if fa[2] != fb[2]:
        return False
    return (
        max(abs(x - y) for x, y in zip(fa[0], fb[0])) <= tol
        and max(abs(x - y) for x, y in zip(fa[1], fb[1])) <= tol
    )


def classify_uniform_so4(s, trials=200, seed=0, tol=1e-8, cluster_tol=1e-6):
    """Collect uniform s-subspaces of so(4) by repeated search and cluster
    their invariant fingerprints.

    Returns a list of (fingerprint, count, representative matrices).
    """
    if trials < 1:
        raise ValueError(f"need at least one trial (--trials >= 1), got {trials}")
    rng = np.random.default_rng(seed)
    classes = []
    found = 0
    for _ in range(trials):
        cand = search_uniform(4, s, restarts=1, rng=rng)
        if cand.residual > tol:
            continue
        found += 1
        fp = equivalence_invariants(cand.matrices)
        for entry in classes:
            if _fingerprints_match(entry[0], fp, cluster_tol):
                entry[1] += 1
                break
        else:
            classes.append([fp, 1, cand.matrices])
    if found == 0:
        return []
    return [(fp, count, rep) for fp, count, rep in classes]


def random_triple(r, s, rng, einstein=False):
    """Random data triple; with einstein=True the span is taken from a
    uniform-subspace search and orthonormalized so both conditions hold."""
    if einstein:
        cand = search_uniform(r, s, restarts=20, rng=rng)
        mats = _orthonormalize_family(cand.matrices)
        return DataTriple(r=r, s=s, j_mats=mats)
    raw = rng.standard_normal((s, r, r))
    return DataTriple(r=r, s=s, j_mats=raw - np.transpose(raw, (0, 2, 1)))
