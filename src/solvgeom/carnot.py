"""Rank-one solvable extensions of two-step nilpotent algebras.

A data triple (r, s, J) holds s skew-symmetric r x r matrices.  The attached
metric algebra has orthonormal basis {A, X_1..X_r, Z_1..Z_s} with

    [A, X_i] = X_i / 2,   [A, Z_a] = Z_a,   [X_i, X_j] = sum_a <J_a X_i, X_j> Z_a.

The inner product on so(r) throughout is (a, b) = -tr(ab)/r.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .algebra import MAX_DIM, MetricLieAlgebra, orthonormal_frame

# largest max|sum_i a_i^2 + s Id| at which an orthonormal family counts as uniform
UNIFORM_TOL = 1e-8

__all__ = [
    "UNIFORM_TOL",
    "DataTriple",
    "EinsteinConditions",
    "UniformSubspaceCandidate",
    "so_gram",
    "so_basis",
    "build_solvmanifold",
    "einstein_conditions",
    "is_uniform",
    "so4_split_basis",
    "so4_criterion",
    "search_uniform",
    "centralizer",
    "classify_uniform_so4",
    "random_triple",
    "real_hyperbolic_triple",
    "complex_hyperbolic_triple",
]


def so_gram(a, b):
    """Matrix of (a_i, b_j) for two stacks of r x r matrices (with leading
    batch axes, one such matrix per batch entry)."""
    a = np.asarray(a, dtype=float)
    return -np.einsum("...iuv,...jvu->...ij", a, b) / a.shape[-1]


@functools.lru_cache(maxsize=None)
def so_basis(r):
    """Orthonormal basis of so(r): sqrt(r/2) (E_ab - E_ba), a < b.  Built
    once per r; the array is shared and read-only."""
    mats = []
    scale = math.sqrt(r / 2.0)
    for a in range(r):
        for b in range(a + 1, r):
            m = np.zeros((r, r))
            m[a, b] = scale
            m[b, a] = -scale
            mats.append(m)
    mats = np.array(mats)
    mats.flags.writeable = False
    return mats


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


def build_solvmanifold(triple):
    """The metric solvable extension of a data triple, on the orthonormal
    basis (A, X_1..X_r, Z_1..Z_s)."""
    r, s = triple.r, triple.s
    dim = 1 + r + s
    c = np.zeros((dim, dim, dim))
    x, z = np.arange(1, 1 + r), np.arange(1 + r, dim)
    c[0, x, x] = 0.5
    c[0, z, z] = 1.0
    # [X_i, X_j] = sum_a J_a[j, i] Z_a for i < j; + 0.0 turns a -0.0 of J
    # into 0.0, so no constant is a signed zero
    upper = np.less.outer(np.arange(r), np.arange(r))[:, :, None]
    c[1:1 + r, 1:1 + r, 1 + r:] = np.where(upper, triple.j_mats.transpose(2, 1, 0) + 0.0, 0.0)
    labels = ("A",) + tuple(f"X{i+1}" for i in range(r)) + tuple(f"Z{a+1}" for a in range(s))
    return MetricLieAlgebra(
        c=c - c.transpose(1, 0, 2), gram=np.eye(dim), labels=labels,
        a_indices=(0,), n_indices=tuple(range(1, dim)),
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


@dataclass
class EinsteinConditions:
    gram_residual: float      # max |(J_a, J_b) - delta_ab|
    uniform_residual: float   # max |sum_a J_a^2 + s Id|

    @property
    def max_residual(self):
        return max(self.gram_residual, self.uniform_residual)


def _uniform_defect(mats):
    """max |sum_a a_a^2 + s Id| for a stack of s matrices of size r x r."""
    ss = np.einsum("aij,ajk->ik", mats, mats)
    return float(np.max(np.abs(ss + len(mats) * np.eye(mats.shape[1]))))


def einstein_conditions(triple):
    """Residuals of the two conditions equivalent to the extension being Einstein."""
    if triple.s == 0:
        return EinsteinConditions(0.0, 0.0)
    res_i = float(np.max(np.abs(so_gram(triple.j_mats, triple.j_mats) - np.eye(triple.s))))
    return EinsteinConditions(gram_residual=res_i,
                              uniform_residual=_uniform_defect(triple.j_mats))


def is_uniform(mats):
    """sum_i a_i^2 = -s Id for an orthonormal family (basis-independent)."""
    mats = np.asarray(mats, dtype=float)
    if mats.ndim == 2:
        mats = mats[None]
    return mats.shape[0] == 0 or _uniform_defect(mats) <= UNIFORM_TOL


# --- so(4) ------------------------------------------------------------------

_LI = np.array([[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]], dtype=float)
_LJ = np.array([[0, 0, -1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, -1, 0, 0]], dtype=float)
_LK = np.array([[0, 0, 0, -1], [0, 0, -1, 0], [0, 1, 0, 0], [1, 0, 0, 0]], dtype=float)
_RI = np.array([[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]], dtype=float)
_RJ = np.array([[0, 0, -1, 0], [0, 0, 0, -1], [1, 0, 0, 0], [0, 1, 0, 0]], dtype=float)
_RK = np.array([[0, 0, 0, -1], [0, 0, 1, 0], [0, -1, 0, 0], [1, 0, 0, 0]], dtype=float)


@functools.lru_cache(maxsize=None)
def so4_split_basis():
    """Left/right quaternion multiplications: orthonormal basis adapted to
    so(4) = L(Im H) + R(Im H).  Built once; the arrays are shared and read-only."""
    left, right = np.array([_LI, _LJ, _LK]), np.array([_RI, _RJ, _RK])
    left.flags.writeable = right.flags.writeable = False
    return left, right


def so4_criterion(mats):
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
    return res, res <= 1e-8


# --- uniform subspace search ------------------------------------------------


@dataclass
class UniformSubspaceCandidate:
    r: int
    s: int
    coords: np.ndarray     # (d, s), orthonormal columns in the so(r) basis
    matrices: np.ndarray   # (s, r, r)
    residual: float        # max |sum a_i^2 + s Id|
    objective: float       # squared Frobenius norm of the same defect


# Starts per lockstep batch: a fixed cap, so the memory of one descent does
# not grow with the number of restarts or trials.
_LOCKSTEP = 512
_HIT = 1e-26


def _defect(basis, x, target):
    """(alpha, sum_i alpha_i^2 + s Id) for a stack of frames x (n, d, s).

    alpha is one matmul: a basis matrix has two nonzero entries, in places no
    other one uses, so each entry of alpha is a single product.  The sum of
    squares is an einsum on a copy of alpha with the start axis last: its
    inner loop then goes over the n starts, not over an axis of length r,
    and it adds each entry's products in the same order as over the (n, ...)
    stack, so the bits agree.  Both results are C-contiguous in the (n, ...)
    layout."""
    (n, d, s), r = x.shape, basis.shape[1]
    alpha = (x.swapaxes(1, 2).reshape(n * s, d) @ basis.reshape(d, r * r)).reshape(n, s, r, r)
    at = alpha.transpose(1, 2, 3, 0).copy()
    dft = np.einsum("iabn,ibcn->acn", at, at).transpose(2, 0, 1).copy()
    dft += target
    return alpha, dft


def _riemannian_grad(basis, x, alpha, dft):
    """The Riemannian gradient of |defect|_F^2 at each frame of x (n, d, s),
    with its einsums on start-axis-last copies as in _defect."""
    at, dt = alpha.transpose(1, 2, 3, 0).copy(), dft.transpose(1, 2, 0).copy()
    w = np.einsum("abn,ibcn->iacn", dt, at) + np.einsum("iabn,bcn->iacn", at, dt)
    egrad = 2.0 * np.einsum("iabn,uba->uin", w, basis).transpose(2, 0, 1).copy()
    xtg = x.swapaxes(-1, -2) @ egrad
    return egrad - x @ (0.5 * (xtg + xtg.swapaxes(-1, -2)))


def _dots(a, b):
    """Frobenius inner product of each pair of matrices of two (n, d, s) stacks.

    One BLAS dot product per pair, as np.linalg.norm and `@` on one raveled
    start sum it, so no start's result depends on the stack it runs in.
    """
    size = a.shape[1] * a.shape[2]
    return np.vecdot(a.reshape(-1, size), b.reshape(-1, size))


def _descend(basis, x, s, max_iter=4000, until_hit=False):
    """Projected gradient descent on the Stiefel manifold of s-frames, for a
    stack of starts x (n, d, s) run in lockstep.

    Every start keeps its own trial step by the Barzilai-Borwein rule (plain
    1/L-style first step), its own Armijo halving (at most 60 trials per
    step), its own max_iter and stop tests.  A lockstep pass evaluates a
    block of each running start's trials at once: trial k of a step is
    step * 0.5**k, a block doubles the trials the line search has made
    (1, 1, 2, 4, 8, 16, 28), the pass holds at most _LOCKSTEP trial matrices
    in all, one batched QR retracts them, and a start takes its first
    accepted trial.  With until_hit, a start that reaches objective < 1e-26
    stops every later start of the stack.  Returns the stacks
    (x, alpha, defect, objective).

    Every stack is kept C-contiguous in the (n, ...) layout, since the
    matmuls, _dots and axis sums take their summation order from it; only
    the einsums of _defect and _riemannian_grad run on copies with the start
    axis last, which sum in the same order.
    """
    n, r = x.shape[0], basis.shape[1]
    target = s * np.eye(r)
    out_x, out_h = np.empty_like(x), np.empty(n)
    alpha, dft = _defect(basis, x, target)
    h = np.sum(dft * dft, axis=(1, 2))
    rgrad = _riemannian_grad(basis, x, alpha, dft)
    gnorm = np.sqrt(_dots(rgrad, rgrad))
    ids, x, step = np.arange(n), x.copy(), np.ones(n)
    fresh = np.ones(n, dtype=bool)  # starting a line search: just begun or accepted
    stop = np.zeros(n, dtype=bool)
    iters, tried = np.zeros(n, dtype=int), np.zeros(n, dtype=int)
    while True:
        stop |= fresh & ((iters == max_iter) | (gnorm < 1e-13) | (h < _HIT))
        if stop.any():
            out_x[ids[stop]], out_h[ids[stop]] = x[stop], h[stop]
            keep = ~stop
            ids, x, h, rgrad, step, gnorm, iters, tried = (
                a[keep] for a in (ids, x, h, rgrad, step, gnorm, iters, tried))
        if not ids.size:
            break
        # double the trials made, up to 60 a line search and _LOCKSTEP a pass
        size = np.minimum(np.maximum(tried, 1), 60 - tried)
        size = np.minimum(size, max(1, _LOCKSTEP // ids.size))
        own = np.repeat(np.arange(ids.size), size)
        # trial k of each block; 0.5**k by ldexp is exactly the repeated halving
        k = tried[own] + np.arange(own.size) - (np.cumsum(size) - size)[own]
        t = np.ldexp(step[own], -k)
        q, rr = np.linalg.qr(x[own] - t[:, None, None] * rgrad[own])
        diag = np.diagonal(rr, axis1=1, axis2=2)
        q = q * np.sign(np.where(diag == 0, 1.0, diag))[:, None, :]
        alpha, dft = _defect(basis, q, target)
        h_new = np.sum(dft * dft, axis=(1, 2))
        # the products in the order one start alone takes them, so the bits agree
        ok = np.flatnonzero(h_new < h[own] - 1e-4 * t * gnorm[own] * gnorm[own])
        owner = own[ok]  # sorted: the first accepted trial of a start opens its run
        first = np.concatenate((ok[:1], ok[1:][owner[1:] != owner[:-1]]))
        acc = own[first]
        tried += size
        tried[acc] = 0
        stop = tried == 60
        fresh = np.zeros(ids.size, dtype=bool)
        if not acc.size:
            continue
        fresh[acc] = True
        iters[acc] += 1
        grad = _riemannian_grad(basis, q[first], alpha[first], dft[first])
        dx, dg = q[first] - x[acc], grad - rgrad[acc]
        dxdg = _dots(dx, dg)
        # the Barzilai-Borwein step, or the accepted one where dx'dg is not positive
        bb = np.divide(_dots(dx, dx), dxdg, out=t[first], where=dxdg > 1e-30)
        step[acc] = np.minimum(np.maximum(bb, 1e-6), 1e6)
        x[acc], h[acc], rgrad[acc] = q[first], h_new[first], grad
        gnorm[acc] = np.sqrt(_dots(grad, grad))
        hit = acc[h[acc] < _HIT]
        if until_hit and hit.size:
            stop |= ids > ids[hit[0]]
    # alpha and the defect of each final frame, recomputed as they were on acceptance
    alpha, dft = _defect(basis, out_x, target)
    return out_x, alpha, dft, out_h


def _check_search(r, s):
    if r < 2:
        raise ValueError(f"need --r >= 2, got {r}")
    d = r * (r - 1) // 2
    if not 0 < s <= d:
        raise ValueError(f"need 0 < s <= dim so({r}) = {d}")
    if 1 + r + s > MAX_DIM:
        raise ValueError(f"the extension would have dim 1 + r + s = {1 + r + s}, "
                         f"above {MAX_DIM}")
    return d


def _starts(rng, n, d, s):
    x0, _ = np.linalg.qr(rng.standard_normal((n, d, s)))
    return x0


def search_uniform(r, s, restarts=200, seed=0, rng=None):
    """Search for a uniform s-dimensional subspace of so(r).

    Minimizes |sum a_i^2 + s Id|_F^2 over orthonormal s-frames; returns the
    best candidate found.  Certify with einstein_conditions / is_uniform.

    The restarts run in lockstep chunks of 1, 2, 4, ... starts, and the
    search ends with the first chunk that holds a hit (objective < 1e-26).
    The result is that of running the restarts one by one and stopping at
    the first hit; a shared rng, though, advances to the end of the chunk
    that holds the hit, not to the hit itself.
    """
    d = _check_search(r, s)
    if restarts < 1:
        raise ValueError(f"need at least one restart (--trials >= 1), got {restarts}")
    basis = so_basis(r)
    if rng is None:
        rng = np.random.default_rng(seed)
    best = None
    size = 1
    while restarts > 0:
        n = min(size, restarts, _LOCKSTEP)
        x, alpha, dft, h = _descend(basis, _starts(rng, n, d, s), s, until_hit=True)
        hits = np.flatnonzero(h < _HIT)
        i = int(np.argmin(h[:hits[0] + 1] if hits.size else h))
        if best is None or h[i] < best.objective:
            best = UniformSubspaceCandidate(
                r=r, s=s, coords=x[i], matrices=alpha[i],
                residual=float(np.max(np.abs(dft[i]))), objective=float(h[i]),
            )
        if hits.size:
            break
        restarts -= n
        size *= 2
    return best


# --- equivalence invariants ---------------------------------------------------


def _orthonormalize_family(mats):
    """Orthonormal basis of span(mats) w.r.t. (,), by Gram-Schmidt on the
    so(r) Gram matrix of a linearly independent family (s, r, r), or of each
    family of a stack (..., s, r, r)."""
    mats = np.asarray(mats, dtype=float)
    frame = orthonormal_frame(so_gram(mats, mats))
    return np.einsum("...ak,...aij->...kij", frame, mats)


def _commutator_map(mats, basis):
    """The map b -> ([b, a_i])_i on so(r) as a (d, s r^2) matrix with rows in
    the coordinates of basis, for one family (s, r, r) or for each family of
    a stack (..., s, r, r).

    Each basis matrix has two nonzero entries, in distinct rows and columns,
    so every entry of a product is a single term and the matmul agrees bit
    for bit with the sum over the inner index."""
    s, r = mats.shape[-3], mats.shape[-1]
    com = np.empty(mats.shape[:-3] + (basis.shape[0], s, r, r))
    for a in range(s):  # one block at a time: no second map-sized temporary
        m = mats[..., a, None, :, :]
        np.subtract(basis @ m, m @ basis, out=com[..., a, :, :])
    return com.reshape(mats.shape[:-3] + (basis.shape[0], s * r * r))


def _nullity(sing, tol):
    """Singular values (..., k) below tol times the largest one count as zero."""
    return np.sum(sing <= tol * np.maximum(1.0, sing[..., :1]), axis=-1)


def centralizer(mats, tol):
    """(dimension, basis matrices) of {b in so(r): [b, a_i] = 0 for all i}.

    A singular value counts as zero below tol times the largest one.
    """
    mats = np.asarray(mats, dtype=float)
    basis = so_basis(mats.shape[1])
    # s r^2 columns against d = r(r-1)/2 rows, so u is square
    u, sing, _ = np.linalg.svd(_commutator_map(mats, basis), full_matrices=False)
    nullity = int(_nullity(sing, tol))
    return nullity, np.einsum("uc,uij->cij", u[:, basis.shape[0] - nullity:], basis)


def _equivalence_invariants(families):
    """Fingerprint of the span of each family of a stack (F, s, r, r), constant
    on equivalence classes: the eigenvalues of sum a_i^2 (F, r), of
    sum_{i<j} [a_i,a_j]^T [a_i,a_j] (F, r) and the centralizer dimension (F,),
    each from an orthonormal basis of the span."""
    onb = _orthonormalize_family(families)
    s, r = onb.shape[1], onb.shape[3]
    ss = np.einsum("faij,fajk->fik", onb, onb)
    t = np.zeros((onb.shape[0], r, r))
    for i in range(s):
        for j in range(i + 1, s):
            com = onb[:, i] @ onb[:, j] - onb[:, j] @ onb[:, i]
            t += com.swapaxes(-1, -2) @ com
    eig1 = np.sort(np.linalg.eigvalsh(0.5 * (ss + ss.swapaxes(-1, -2))), axis=-1)
    eig2 = np.sort(np.linalg.eigvalsh(t), axis=-1)
    sing = np.linalg.svd(_commutator_map(onb, so_basis(r)), compute_uv=False)
    return eig1, eig2, _nullity(sing, 1e-8)


def _classes(eig1, eig2, cdim):
    """Cluster fingerprints in order, as (representative index, count) per
    class: a fingerprint joins the first class whose representative has its
    centralizer dimension and both spectra within 1e-6, and otherwise opens
    a class.  Taken one class at a time: the first unassigned fingerprint
    becomes the next representative and takes every remaining match at once."""
    left, classes = np.arange(len(cdim)), []
    while left.size:
        k = left[0]
        same = ((cdim[left] == cdim[k])
                & (np.max(np.abs(eig1[left] - eig1[k]), axis=1) <= 1e-6)
                & (np.max(np.abs(eig2[left] - eig2[k]), axis=1) <= 1e-6))
        classes.append((k, int(np.count_nonzero(same))))
        left = left[~same]
    return classes


def classify_uniform_so4(s, trials=200, seed=0):
    """Collect uniform s-subspaces of so(4) by repeated search and cluster
    their invariant fingerprints.

    Each trial is one descent from a random start; the trials run in
    lockstep batches.  Returns a list of (fingerprint, count, representative
    matrices).
    """
    if trials < 1:
        raise ValueError(f"need at least one trial (--trials >= 1), got {trials}")
    d = _check_search(4, s)
    basis = so_basis(4)
    rng = np.random.default_rng(seed)
    hits = []
    for start in range(0, trials, _LOCKSTEP):
        _, alpha, dft, _ = _descend(basis, _starts(rng, min(_LOCKSTEP, trials - start), d, s), s)
        hits.append(alpha[np.max(np.abs(dft), axis=(1, 2)) <= UNIFORM_TOL])
    hits = np.concatenate(hits)
    eig1, eig2, cdim = _equivalence_invariants(hits)
    return [((tuple(eig1[k]), tuple(eig2[k]), int(cdim[k])), count, hits[k])
            for k, count in _classes(eig1, eig2, cdim)]


def random_triple(r, s, rng, einstein=False):
    """Random data triple; with einstein=True it is the orthonormal family
    of a uniform-subspace search, so both conditions hold."""
    if einstein:
        cand = search_uniform(r, s, restarts=20, rng=rng)
        return DataTriple(r=r, s=s, j_mats=cand.matrices)
    raw = rng.standard_normal((s, r, r))
    return DataTriple(r=r, s=s, j_mats=raw - np.transpose(raw, (0, 2, 1)))
