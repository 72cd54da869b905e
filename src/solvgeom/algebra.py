"""Metric Lie algebras as structure-constant tensors with an inner product.

An algebra is a tensor c[i][j][k] with [e_i, e_j] = sum_k c[i][j][k] e_k
together with a Gram matrix <e_i, e_j>.  Antisymmetry is enforced at
construction (the j > i half is derived from the i < j half), so validation
only needs to worry about Jacobi and the metric.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np

TOL_EXACT = 1e-10   # identities among closed-form constants entered as doubles
TOL_OPT = 1e-6      # optimizer-derived quantities
# largest dim accepted from a document or a size parameter; validate's one dim^4
# product is then about 42 MB (63 MB peak, dense), and so(6,H), the largest
# builder output, has dim 30
MAX_DIM = 48
# largest |structure constant| accepted from a document: at dim <= MAX_DIM no Jacobi
# entry, nor with an identity Gram any Ricci entry, can then overflow (< 2.3e303)
MAX_CONSTANT = 1e150

__all__ = [
    "TOL_EXACT",
    "TOL_OPT",
    "MAX_DIM",
    "MAX_CONSTANT",
    "MetricLieAlgebra",
    "ValidationReport",
    "IwasawaReport",
    "from_sparse",
    "bracket",
    "validate",
    "killing_form",
    "ad_matrix",
    "metric_adjoint",
    "iwasawa_check",
    "serialize",
    "deserialize",
    "orthonormal_frame",
    "restricted_symmetric",
]


def _cholesky_frame(gram):
    """(F, F^-1) for gram = L L^T: F = (L^T)^-1 is upper triangular with a
    positive diagonal and F^T gram F = Id, and F^-1 = L^T is the factor itself.
    A stack of Gram matrices gives a stack of frames."""
    try:
        upper = np.linalg.cholesky(np.asarray(gram, dtype=float)).swapaxes(-1, -2)
    except np.linalg.LinAlgError:
        raise ValueError("gram matrix is not positive definite") from None
    return np.linalg.inv(upper), upper


def orthonormal_frame(gram):
    """Gram-Schmidt on the standard basis w.r.t. the given Gram matrix.

    Returns F with F^T gram F = Id, upper triangular with a positive diagonal;
    column j holds the coordinates of the j-th orthonormal frame vector in the
    original basis.
    """
    return _cholesky_frame(gram)[0]


def restricted_symmetric(alg, mats, idx):
    """Symmetric parts of the blocks m[idx, idx] of a stack of matrices,
    written in an orthonormal frame of span{e_i : i in idx}."""
    block = np.ix_(idx, idx)
    f, f_inv = _cholesky_frame(alg.gram[block])
    mo = f_inv @ np.asarray(mats)[:, block[0], block[1]] @ f
    return 0.5 * (mo + mo.transpose(0, 2, 1))


@dataclass
class MetricLieAlgebra:
    """Structure tensor + inner product, with optional Iwasawa decoration.

    `roots` (when present) assigns an integer root-functional vector, in
    omega-coordinates, to each nilradical basis index; entries for other
    indices are None.
    """

    c: np.ndarray
    gram: np.ndarray
    labels: tuple = ()
    a_indices: tuple = ()
    n_indices: tuple = ()
    roots: tuple = ()
    frame: np.ndarray = field(init=False, repr=False)
    frame_inv: np.ndarray = field(init=False, repr=False)
    c_frame: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=float)
        self.gram = np.asarray(self.gram, dtype=float)
        n = self.c.shape[0]
        if self.c.shape != (n, n, n):
            raise ValueError(f"structure tensor must be cubic, got {self.c.shape}")
        if self.gram.shape != (n, n):
            raise ValueError("gram shape does not match structure tensor")
        if not self.labels:
            self.labels = tuple(f"e{i}" for i in range(n))
        self.labels = tuple(self.labels)
        self.a_indices = tuple(self.a_indices)
        self.n_indices = tuple(self.n_indices)
        if not self.roots:
            self.roots = tuple(None for _ in range(n))
        self.roots = tuple(
            tuple(int(v) for v in r) if r is not None else None for r in self.roots
        )
        # cached orthonormal frame; every curvature formula sums over it
        self.frame, self.frame_inv = _cholesky_frame(self.gram)
        t = np.tensordot(np.tensordot(self.frame, self.c, (0, 0)), self.frame, (1, 0))
        # frame_inv leads: (l, a, b) strides, the order that ricci's einsums sum in
        self.c_frame = np.tensordot(self.frame_inv, t, (1, 1)).transpose(1, 2, 0)

    @property
    def dim(self):
        return self.c.shape[0]

    @property
    def decorated(self):
        return bool(self.a_indices) or bool(self.n_indices)

    def bracket(self, x, y):
        return bracket(self, x, y)

    def inner(self, x, y):
        return float(np.asarray(x) @ self.gram @ np.asarray(y))

    def norm(self, x):
        return math.sqrt(max(self.inner(x, x), 0.0))

    def basis_vector(self, i):
        v = np.zeros(self.dim)
        v[i] = 1.0
        return v


def from_sparse(dim, entries, gram=None, labels=(), a_indices=(), n_indices=(), roots=()):
    """Build an algebra from sparse entries [(i, j, k, value)] with
    0 <= i < j < dim and 0 <= k < dim; any other entry raises ValueError.

    The j > i half of the tensor is filled by antisymmetry, so the result
    satisfies c[i][j][k] = -c[j][i][k] exactly.
    """
    if gram is None:
        gram = np.eye(dim)
    return MetricLieAlgebra(
        c=_structure_tensor(dim, entries), gram=gram, labels=labels,
        a_indices=a_indices, n_indices=n_indices, roots=roots,
    )


def _structure_tensor(dim, entries):
    c = np.zeros((dim, dim, dim))
    # repeated rows add up; a sum that overflows is left as inf for the caller
    with np.errstate(over="ignore"):
        for i, j, k, v in entries:
            if not 0 <= i < j < dim:
                raise ValueError(f"structure entry ({i},{j},{k}) violates i<j canonical order")
            if not 0 <= k < dim:
                raise ValueError(f"structure entry ({i},{j},{k}) has k outside 0..{dim - 1}")
            c[i, j, k] += v
            c[j, i, k] -= v
    return c


def _nonzero_constants(c, tol):
    """Index arrays (i, j, k), i < j, of every c[i, j, k] not within tol of
    zero (NaN included), in row-major order."""
    i, j, k = np.nonzero(~(np.abs(c) <= tol))
    upper = i < j
    return i[upper], j[upper], k[upper]


def bracket(alg, x, y):
    """[x, y] in basis coordinates."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != (alg.dim,) or y.shape != (alg.dim,):
        raise ValueError("coefficient vectors must have length dim")
    return np.einsum("ijk,i,j->k", alg.c, x, y)


def ad_matrix(alg, x):
    """Matrix of ad(x): ad_matrix(x) @ y == bracket(x, y)."""
    x = np.asarray(x, dtype=float)
    return np.einsum("ijk,i->kj", alg.c, x)


def metric_adjoint(alg, mat):
    """Adjoint of a matrix w.r.t. gram: G^{-1} M^T G."""
    return np.linalg.solve(alg.gram, np.asarray(mat).T @ alg.gram)


def killing_form(alg):
    """B[i][j] = tr(ad e_i . ad e_j)."""
    return np.einsum("iba,jab->ij", alg.c, alg.c)


@dataclass
class ValidationReport:
    jacobi_residual: float
    antisym_residual: float
    gram_min_eig: float
    ok: bool


def validate(alg, tol=TOL_EXACT):
    """Check antisymmetry, Jacobi, and symmetry and positive-definiteness of the
    metric.  A residual that overflows double precision is reported as inf or NaN.

    Jacobi takes one matmul, cc[i, j, k] = [[e_i, e_j], e_k], and reads the
    cyclic sum only on triples i < j < k, in its three summation orders.  When c
    is exactly antisymmetric (checked separately), those are the cyclic sums of
    all six orderings up to sign, and a triple with a repeated index sums to 0.
    """
    c, n = alg.c, alg.dim
    antisym = float(np.max(np.abs(c + np.transpose(c, (1, 0, 2))), initial=0.0))
    r = np.arange(n)
    i, j, k = np.nonzero((r[:, None, None] < r[:, None]) & (r[:, None] < r))
    with np.errstate(over="ignore", invalid="ignore"):
        cc = (c.reshape(n * n, n) @ c.reshape(n, n * n)).reshape(n, n, n, n)
        finite = np.isfinite(cc).all()  # also at dim <= 2, where no triple exists
        a, b, d = cc[i, j, k], cc[j, k, i], cc[k, i, j]
        del cc                          # the dim^4 product is not held while summing
        jac = max(float(np.max(np.abs(x + y + z), initial=0.0))
                  for x, y, z in ((a, b, d), (b, d, a), (a, d, b))) if finite else math.inf
    sym_defect = float(np.max(np.abs(alg.gram - alg.gram.T), initial=0.0))
    # halved before the sum, so a Gram entry near the largest double cannot overflow
    min_eig = float(np.min(np.linalg.eigvalsh(0.5 * alg.gram + 0.5 * alg.gram.T),
                           initial=math.inf))
    ok = antisym <= tol and jac <= tol and sym_defect <= tol and min_eig > 0
    return ValidationReport(
        jacobi_residual=jac, antisym_residual=antisym, gram_min_eig=min_eig, ok=ok,
    )


@dataclass
class IwasawaReport:
    cond_i: bool     # a abelian
    cond_ii: bool    # ad(A) symmetric for all A in a, injectively
    cond_iii: bool   # some ad(A)|n positive definite
    abelian_residual: float
    symmetry_residual: float
    min_positive_eig: float
    witness: np.ndarray


def _min_norm_point(pts):
    """Wolfe's algorithm: the point of least norm in the convex hull of the rows
    of pts.  Each major step adds the row that most decreases <x, row>; each
    minor step moves to the min-norm point of the affine hull of the active rows,
    stopping at the hull's boundary and dropping a row when it would leave it."""
    sq = np.einsum("ij,ij->i", pts, pts)
    eps = 1e-15 * np.max(sq)
    act, lam = [int(np.argmin(sq))], np.ones(1)
    x = pts[act[0]]
    for _ in range(10 * len(pts)):
        j = int(np.argmin(pts @ x))
        if x @ x - pts[j] @ x <= eps or j in act:
            break
        act, lam = act + [j], np.append(lam, 0.0)
        while True:
            q = pts[act]
            c = np.linalg.lstsq((q[1:] - q[0]).T, -q[0], rcond=None)[0]
            mu = np.concatenate([[1.0 - c.sum()], c])
            if np.all(mu > 0):
                lam = mu
                break
            neg = np.flatnonzero(mu <= 0)
            ratios = lam[neg] / (lam[neg] - mu[neg])
            lam = lam + np.min(ratios) * (mu - lam)
            lam[neg[np.argmin(ratios)]] = 0.0
            act, lam = [a for a, l in zip(act, lam) if l > 0], lam[lam > 0]
        x = lam @ pts[act]
    return x


# subsets of roots scored per batch: bounds memory, which grows as C(roots, rank)
_SUBSET_BLOCK = 4096


def _best_direction_by_subsets(roots):
    """argmax over unit w of min_j roots[j] . w, by enumerating candidates.

    The maximum is attained at +-p/|p| for p the min-norm point of the affine
    hull of some at most k roots, or, where that hull passes through 0, at a
    unit normal of it; every such direction is scored and the best kept.
    """
    k = roots.shape[1]
    # roots equal to 9 digits relative to the largest count as one root
    scale = np.max(np.abs(roots), initial=0.0) or 1.0
    _, first = np.unique(np.round(roots / scale, 9), axis=0, return_index=True)
    roots = roots[np.sort(first)]
    # each subset padded to k indices by repeating its first: same affine hull
    subsets = (c + c[:1] * (k - s) for s in range(1, k + 1)
               for c in itertools.combinations(range(len(roots)), s))
    best_w, best_val = None, -np.inf
    while block := list(itertools.islice(subsets, _SUBSET_BLOCK)):
        pts = roots[np.array(block)]
        diffs = (pts[:, 1:] - pts[:, :1]).transpose(0, 2, 1)
        # projector onto the normals of each hull, and the hull's min-norm point
        proj = np.eye(k) - diffs @ np.linalg.pinv(diffs)
        p = np.einsum("nab,nb->na", proj, pts[:, 0])
        widest = np.argmax(np.einsum("naa->na", proj), axis=1)
        normal = proj[np.arange(len(block)), :, widest]
        dirs = np.concatenate([p, normal])
        lengths = np.linalg.norm(dirs, axis=1)
        dirs = dirs[lengths > 0] / lengths[lengths > 0, None]
        dirs = np.concatenate([dirs, -dirs])
        vals = np.min(dirs @ roots.T, axis=1)
        best = int(np.argmax(vals))
        if vals[best] > best_val:
            best_w, best_val = dirs[best], vals[best]
    return best_w


def _best_positive_direction(sym_ops):
    """Maximize the least eigenvalue of sum_a w_a S_a over unit w.

    The maximum is exact when the S_a commute, as they do when conditions (i)
    and (ii) hold.  One eigh of a fixed generic combination diagonalizes the
    family; the diagonals of V^T S_a V are the roots alpha_j, and the least
    eigenvalue at w is min_j alpha_j . w.  When 0 is outside the convex hull of
    the roots, the maximum is positive and attained at p/|p| for p the hull's
    min-norm point (Wolfe's algorithm, polynomial in the rank).  Otherwise no
    direction is positive, and the maximum, at most 0, is found by enumerating
    subsets of at most k roots.  The value returned is the least eigenvalue at
    the returned w, so it is attained there for any input.  Non-finite
    operators give w = 0 and a NaN value.
    """
    ops = np.asarray(sym_ops, dtype=float)
    k = len(ops)
    if not np.all(np.isfinite(ops)):
        return np.zeros(k), math.nan
    weights = np.random.default_rng(0).standard_normal(k)
    _, v = np.linalg.eigh(np.einsum("a,aij->ij", weights, ops))
    roots = np.einsum("ij,aik,kj->ja", v, ops, v)
    p = _min_norm_point(roots)
    length = np.linalg.norm(p)
    if length > 1e-9 * np.max(np.abs(roots)):
        w = p / length
    else:
        w = _best_direction_by_subsets(roots)
    return w, float(np.min(np.linalg.eigvalsh(np.einsum("a,aij->ij", w, ops))))


def iwasawa_check(alg, tol=TOL_EXACT):
    """Check the three Iwasawa-type conditions for a decorated algebra.

    (i) the a-part is abelian; (ii) every ad(A) with A in a is symmetric
    w.r.t. gram and ad is injective on a; (iii) some A in a has
    positive-definite ad(A) restricted to the nilradical.
    """
    if not alg.decorated:
        raise ValueError("algebra has no Iwasawa decoration")
    a_idx = list(alg.a_indices)
    n_idx = list(alg.n_indices)
    if sorted(a_idx + n_idx) != list(range(alg.dim)):
        raise ValueError("a_indices and n_indices must partition the basis")
    # n must be an ideal: [anything, n] stays inside span(n)
    not_n = [k for k in range(alg.dim) if k not in n_idx]
    if n_idx and not_n:
        leak = float(np.max(np.abs(alg.c[np.ix_(range(alg.dim), n_idx, not_n)])))
        if leak > tol:
            raise ValueError(f"n_indices do not span an ideal (leak {leak:.2e})")

    abelian = float(np.max(np.abs(alg.c[np.ix_(a_idx, a_idx)]), initial=0.0))

    g = alg.gram
    # ads[a] = ad_matrix(alg, e_a) for each a-index, stacked
    ads = np.ascontiguousarray(alg.c[a_idx].transpose(0, 2, 1))
    sym_res = float(np.max(np.abs(g @ ads - ads.transpose(0, 2, 1) @ g), initial=0.0))
    if a_idx:
        injective = np.linalg.matrix_rank(ads.reshape(len(a_idx), -1), tol=1e-8) == len(a_idx)
    else:
        injective = True

    cond_iii = False
    min_pos = -np.inf
    witness = np.zeros(alg.dim)
    if a_idx and n_idx:
        sym_ops = restricted_symmetric(alg, ads, n_idx)
        w, min_pos = _best_positive_direction(sym_ops)
        cond_iii = min_pos > tol
        for wi, i in zip(w, a_idx):
            witness[i] = wi

    return IwasawaReport(
        cond_i=abelian <= tol,
        cond_ii=sym_res <= tol and injective,
        cond_iii=cond_iii,
        abelian_residual=abelian,
        symmetry_residual=sym_res,
        min_positive_eig=float(min_pos),
        witness=witness,
    )


# --- serialization ----------------------------------------------------------
#
# Document format: JSON object with fields
#   dim        int
#   labels     array of strings
#   gram       "identity" or row-major array of dim*dim floats
#   structure  array of [i, j, k, value] with 0-based indices, i < j
#   decoration optional {a_indices, n_indices, roots}
# Floats are written with 17 significant digits.


def _fmt(x):
    return format(float(x), ".17g")


def serialize(alg):
    lines = ["{"]
    lines.append(f'  "dim": {alg.dim},')
    lines.append('  "labels": [' + ", ".join(json.dumps(l) for l in alg.labels) + "],")
    if np.array_equal(alg.gram, np.eye(alg.dim)):
        lines.append('  "gram": "identity",')
    else:
        flat = ", ".join(_fmt(v) for v in alg.gram.ravel())
        lines.append(f'  "gram": [{flat}],')
    rows = [f"[{i}, {j}, {k}, {_fmt(alg.c[i, j, k])}]"
            for i, j, k in zip(*_nonzero_constants(alg.c, 0.0))]
    lines.append('  "structure": [' + ", ".join(rows) + "]")
    if alg.decorated:
        lines[-1] += ","
        dec = {
            "a_indices": list(alg.a_indices),
            "n_indices": list(alg.n_indices),
        }
        if any(r is not None for r in alg.roots):
            dec["roots"] = [list(r) if r is not None else None for r in alg.roots]
        lines.append('  "decoration": ' + json.dumps(dec))
    lines.append("}")
    return "\n".join(lines) + "\n"


def _sized(doc, key, dim):
    """Optional per-basis-vector list: absent, or exactly dim entries."""
    values = doc.get(key)
    if not values:
        return ()
    if not isinstance(values, list) or len(values) != dim:
        raise ValueError(f"'{key}' must list one entry per basis vector (dim {dim})")
    return tuple(values)


def _is_int(value):
    """A JSON integer: never a float to truncate, nor a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_int_list(values):
    return isinstance(values, list) and all(map(_is_int, values))


def deserialize(text):
    """Parse an algebra document, checking only what it states: JSON types,
    indices, finiteness, MAX_DIM, MAX_CONSTANT and a symmetric positive-definite
    Gram matrix.  Anything else raises ValueError; Jacobi is left to `validate`."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed algebra document: {exc}") from exc
    if not isinstance(doc, dict) or "dim" not in doc:
        raise ValueError("malformed algebra document: missing 'dim'")
    try:
        return _from_document(doc)
    except TypeError as exc:
        raise ValueError(f"malformed algebra document: {exc}") from exc


def _from_document(doc):
    dim = doc["dim"]
    if not _is_int(dim) or dim <= 0:
        raise ValueError(f"dim must be a positive integer, got {dim!r}")
    if dim > MAX_DIM:
        raise ValueError(f"dim {dim} is above the largest supported dim {MAX_DIM}")
    labels = _sized(doc, "labels", dim)
    gram_spec = doc.get("gram", "identity")
    if gram_spec == "identity":
        gram = np.eye(dim)
    else:
        gram = np.asarray(gram_spec, dtype=float).reshape(dim, dim)
    entries = []
    for row in doc.get("structure", []):
        if not (isinstance(row, list) and len(row) == 4 and _is_int_list(row[:3])):
            raise ValueError(f"structure entry {row!r} is not [i, j, k, value] "
                             "with integer i, j, k")
        v = float(row[3])
        if not math.isfinite(v):
            raise ValueError("non-finite structure constant")
        entries.append((row[0], row[1], row[2], v))
    if not np.all(np.isfinite(gram)):
        raise ValueError("non-finite gram entry")
    with np.errstate(over="ignore"):
        sym_defect = float(np.max(np.abs(gram - gram.T)))
    if sym_defect > TOL_EXACT:
        raise ValueError(f"gram is not symmetric (defect {sym_defect:.3e})")
    # the Cholesky factor reads one triangle: factor the symmetric part validate checks,
    # and refuse by its least eigenvalue, which Cholesky can pass when ill-conditioned
    gram = 0.5 * gram + 0.5 * gram.T
    min_eig = float(np.linalg.eigvalsh(gram)[0])
    if not min_eig > 0:
        raise ValueError(f"gram is not positive definite (min eig {min_eig:.3e})")
    dec = doc.get("decoration") or {}
    if not isinstance(dec, dict):
        raise ValueError("'decoration' must be an object")
    a_idx, n_idx = dec.get("a_indices", []), dec.get("n_indices", [])
    if not (_is_int_list(a_idx) and _is_int_list(n_idx)):
        raise ValueError(f"'a_indices' and 'n_indices' must be lists of integers, "
                         f"got {a_idx!r} and {n_idx!r}")
    roots = _sized(dec, "roots", dim)
    if not all(r is None or _is_int_list(r) for r in roots):
        raise ValueError("'roots' entries must be null or lists of integers")
    # bounded before MetricLieAlgebra transforms it into the frame, where it could overflow
    c = _structure_tensor(dim, entries)
    if not np.all(np.abs(c) <= MAX_CONSTANT):
        raise ValueError(f"a structure constant is above {MAX_CONSTANT:g} in absolute value")
    # a tiny Gram can still overflow the frame transform of constants inside the bound
    with np.errstate(over="ignore", invalid="ignore"):
        alg = MetricLieAlgebra(
            c=c, gram=gram, labels=labels, a_indices=a_idx, n_indices=n_idx, roots=roots,
        )
    if not (np.isfinite(alg.frame).all() and np.isfinite(alg.c_frame).all()):
        raise ValueError("the structure constants overflow in the orthonormal frame")
    return alg
