"""Metric Lie algebras as structure-constant tensors with an inner product.

An algebra is a tensor c[i][j][k] with [e_i, e_j] = sum_k c[i][j][k] e_k
together with a Gram matrix <e_i, e_j>.  Antisymmetry is enforced at
construction (the j > i half is derived from the i < j half), so validation
only needs to worry about Jacobi and the metric.
"""

from __future__ import annotations

import functools
import json
import math
import operator
from dataclasses import dataclass, field

import numpy as np

TOL_EXACT = 1e-10   # identities among closed-form constants entered as doubles
# largest dim accepted from a document or a size parameter; validate's one dim^4
# product is then about 42 MB (63 MB peak, dense), and so(6,H), the largest
# builder output, has dim 30
MAX_DIM = 48
# largest |structure constant| accepted from a document, in its basis and in the
# orthonormal frame: at dim <= MAX_DIM a Jacobi entry sums at most dim^2 products of
# two constants (< 2.3e303) and a frame Ricci entry a few such sums, so neither overflows
MAX_CONSTANT = 1e150

__all__ = [
    "TOL_EXACT",
    "MAX_DIM",
    "MAX_CONSTANT",
    "MetricLieAlgebra",
    "ValidationReport",
    "IwasawaReport",
    "from_sparse",
    "bracket",
    "validate",
    "iwasawa_check",
    "serialize",
    "deserialize",
    "orthonormal_frame",
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


@dataclass
class MetricLieAlgebra:
    """Structure tensor + inner product, with optional Iwasawa decoration.

    Construction caches the orthonormal frame: `frame` F with F^T gram F = Id,
    `frame_inv` and the C-contiguous `c_frame[a,b,l] = <[f_a, f_b], f_l>`.  A
    Gram matrix that is exactly the identity gives F = Id and c_frame = c + 0.0
    at no cost; any other is factored by Cholesky and c is transported by three
    tensordots at O(dim^4) cost.  Forms read off the frame (`ad_table`,
    `ricci_frame`, `n_frame`, `root_decomposition`) are built once, on first use.
    `labels` and `roots` are empty or list one entry per basis vector, as the
    document format asks.

    A decoration's `a_indices` and `n_indices` must partition range(dim); any
    other decoration is refused at construction.  `roots` (when present)
    assigns an integer root-functional vector, in omega-coordinates, to each
    nilradical basis index; entries for other indices are None.
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
        self.labels = _per_basis_vector("labels", self.labels, n) or tuple(
            f"e{i}" for i in range(n))
        if not all(isinstance(label, str) for label in self.labels):
            raise ValueError("'labels' entries must be strings")
        self.a_indices = tuple(self.a_indices)
        self.n_indices = tuple(self.n_indices)
        if self.decorated and sorted(self.a_indices + self.n_indices) != list(range(n)):
            raise ValueError("a_indices and n_indices must partition the basis")
        try:
            self.roots = tuple(
                None if r is None else tuple(map(operator.index, r))
                for r in _per_basis_vector("roots", self.roots, n)) or (None,) * n
        except TypeError:
            raise ValueError("'roots' entries must be null or lists of integers") from None
        # cached orthonormal frame; every curvature formula sums over it
        eye = np.eye(n)
        if self.gram.tobytes() == eye.tobytes():
            # what the transform below gives for F = Id: each frame sum has one
            # nonzero product, 1 * c, and + 0.0 turns -0.0 into +0.0 as that sum does;
            # F^-1 in Fortran order, as L^T below, which `sectional` reads faster
            self.frame, self.frame_inv = eye, np.eye(n).T
            self.c_frame = np.add(self.c, 0.0, order="C")
        else:
            self.frame, self.frame_inv = _cholesky_frame(self.gram)
            t = np.tensordot(np.tensordot(self.frame, self.c, (0, 0)), self.frame, (1, 0))
            self.c_frame = np.tensordot(t, self.frame_inv, (1, 1))

    @functools.cached_property
    def n_frame(self):
        """(F, F^-1) of the Gram block on n_indices, factored on first use."""
        n = list(self.n_indices)
        return _cholesky_frame(self.gram[np.ix_(n, n)])

    @functools.cached_property
    def ad_table(self):
        """(dim, 2 dim^2) table whose row i is [c_frame[i] | c_frame[i]^T], both
        flattened, built on first use: v @ ad_table is [ad_v | ad_v^T] for v in
        frame coordinates, with ad_v[j, k] = [v, f_j]_k."""
        d = self.dim
        return np.concatenate((self.c_frame.reshape(d, d * d),
                               self.c_frame.transpose(0, 2, 1).reshape(d, d * d)), axis=1)

    @functools.cached_property
    def ricci_frame(self):
        """Read-only Ricci form in the orthonormal frame {f_i}, built on first use:
          ric(x,y) = -1/2 sum_i <[x,f_i],[y,f_i]> - 1/2 B(x,y)
                     + 1/4 sum_ij <[f_i,f_j],x><[f_i,f_j],y> - <U(x,y),H>,
        as BLAS products on C = c_frame: the first term is -1/2 A A^T with
        A = C.reshape(d, d^2), the Killing form B is A against the (0, 2, 1)
        transpose, the third term is 1/4 D^T D with D = C.reshape(d^2, d), and
        <U(x,y),H> is the symmetric part of the contraction of H = tr C[z] with C."""
        C = self.c_frame
        d = self.dim
        A = C.reshape(d, d * d)
        D = C.reshape(d * d, d)
        B = A @ C.transpose(0, 2, 1).reshape(d, d * d).T
        t4 = np.tensordot(np.einsum("zkk->z", C), C, (0, 0))
        ric = -0.5 * (A @ A.T) - 0.5 * B + 0.25 * (D.T @ D) - 0.5 * (t4 + t4.T)
        ric.flags.writeable = False
        return ric

    @functools.cached_property
    def root_decomposition(self):
        """(S, roots) of ad(a)|n by `_joint_roots`, on first use: S[a] is the symmetric
        part of ad(e_a)|n in `n_frame` (real roots, unlike the `roots` decoration)."""
        f, f_inv = self.n_frame
        n = list(self.n_indices)
        mo = f_inv @ self.c[np.ix_(list(self.a_indices), n, n)].transpose(0, 2, 1) @ f
        return _joint_roots(0.5 * (mo + mo.transpose(0, 2, 1)))

    @property
    def dim(self):
        return self.c.shape[0]

    @property
    def decorated(self):
        return bool(self.a_indices) or bool(self.n_indices)

    def inner(self, x, y):
        return float(np.asarray(x) @ self.gram @ np.asarray(y))

    def norm(self, x):
        return math.sqrt(max(self.inner(x, x), 0.0))


def from_sparse(dim, entries, gram=None, labels=(), a_indices=(), n_indices=()):
    """Build an algebra from sparse entries [(i, j, k, value)] with
    0 <= i < j < dim and 0 <= k < dim; any other entry raises ValueError.

    The j > i half of the tensor is filled by antisymmetry, so the result
    satisfies c[i][j][k] = -c[j][i][k] exactly.
    """
    if gram is None:
        gram = np.eye(dim)
    return MetricLieAlgebra(
        c=_structure_tensor(dim, entries), gram=gram, labels=labels,
        a_indices=a_indices, n_indices=n_indices,
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


@dataclass
class ValidationReport:
    jacobi_residual: float
    antisym_residual: float
    gram_min_eig: float
    ok: bool


@functools.lru_cache(maxsize=None)
def _jacobi_triples(n):
    """Over the triples i < j < k, as two (3, triples) arrays: the flat pair
    indices (i n + j, j n + k, k n + i) and the third indices (k, i, j) of the
    three brackets [[e_i, e_j], e_k], [[e_j, e_k], e_i] and [[e_k, e_i], e_j]."""
    r = np.arange(n)
    i, j, k = np.nonzero((r[:, None, None] < r[:, None]) & (r[:, None] < r))
    table = np.stack([i * n + j, j * n + k, k * n + i, k, i, j])
    table.flags.writeable = False       # shared by every call at this dim
    return table[:3], table[3:]


def validate(alg):
    """Check antisymmetry, Jacobi, and symmetry and positive-definiteness of the
    metric, each at TOL_EXACT.  A residual that overflows double precision is
    reported as inf or NaN.

    Jacobi takes one matmul, cc[i, j, k] = [[e_i, e_j], e_k], over the nonzero
    brackets [e_i, e_j] only, plus one zero row that every zero bracket reads.
    It reads the cyclic sum only on triples i < j < k with a nonzero bracket,
    in its three summation orders.  When c is exactly antisymmetric (checked
    separately), those are the cyclic sums of all six orderings up to sign, and
    a triple with a repeated index sums to 0.
    The Jacobi residual is divided by max|c|^2, the scale of a sum quadratic in
    c, so a homothety c -> s c leaves it as it is; c = 0 has residual 0.
    """
    c, n = alg.c, alg.dim
    antisym = float(np.max(np.abs(c + np.transpose(c, (1, 0, 2))), initial=0.0))
    flat = c.reshape(n * n, n)
    nonzero = np.flatnonzero(flat.any(axis=1))      # NaN counts as nonzero
    row = np.full(n * n, nonzero.size)  # row of cc holding [e_i, e_j]; zero ones: the last
    row[nonzero] = np.arange(nonzero.size)
    pairs, thirds = _jacobi_triples(n)
    rows = row[pairs]
    # a triple whose three brackets vanish has cyclic sum exactly 0
    live = (rows < nonzero.size).any(axis=0)
    with np.errstate(over="ignore", invalid="ignore"):
        cc = np.concatenate([flat[nonzero], np.zeros((1, n))]) @ c.reshape(n, n * n)
        # the zero row times an inf constant is NaN, as in the full product
        finite = np.isfinite(cc).all()
        a, b, d = cc.reshape(nonzero.size + 1, n, n)[rows[:, live], thirds[:, live]]
        del cc                          # the product is not held while summing
        jac, total = 0.0, np.empty_like(a)
        for x, y, z in ((a, b, d), (b, d, a), (a, d, b)):
            np.add(x, y, out=total)
            total += z
            jac = max(jac, float(np.max(np.abs(total, out=total), initial=0.0)))
    scale = float(np.max(np.abs(c), initial=0.0))
    if not finite:
        jac = math.inf
    elif scale > 0.0:
        # divided twice: scale**2 can underflow where the residual does not
        jac = jac / scale / scale
    sym_defect = float(np.max(np.abs(alg.gram - alg.gram.T), initial=0.0))
    # halved before the sum, so a Gram entry near the largest double cannot overflow
    min_eig = float(np.min(np.linalg.eigvalsh(0.5 * alg.gram + 0.5 * alg.gram.T),
                           initial=math.inf))
    ok = (antisym <= TOL_EXACT and jac <= TOL_EXACT and sym_defect <= TOL_EXACT
          and min_eig > 0)
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


@functools.lru_cache(maxsize=None)
def _generic_weights(k):
    """The fixed generic combination of k operators: one draw of a seeded
    normal, made once per k and shared read-only."""
    weights = np.random.default_rng(0).standard_normal(k)
    weights.flags.writeable = False
    return weights


def _joint_roots(ops):
    """(S, roots) for symmetric S: roots[j, a] = (V^T S_a V)[j, j] for V the eigenbasis
    of a fixed generic combination, which diagonalizes the S_a when they commute."""
    ops = np.asarray(ops, dtype=float)
    _, v = np.linalg.eigh(np.einsum("a,aij->ij", _generic_weights(len(ops)), ops))
    return ops, np.einsum("ij,aik,kj->ja", v, ops, v)


def _best_positive_direction(ops, roots):
    """Maximize the least eigenvalue of sum_a w_a S_a over the unit ball |w| <= 1,
    given `_joint_roots`.

    When the S_a commute, as they do when conditions (i) and (ii) hold, the
    least eigenvalue at w is min_j roots[j] . w.  If 0 lies outside the convex
    hull of the roots, the maximum is |p|, attained at w = p/|p| for p the hull's
    min-norm point (Wolfe's algorithm, polynomial in the rank).  If
    |p| <= 1e-9 max|roots|, 0 counts as inside the hull and the maximum is +0.0
    at w = 0.  The value is read off one `eigvalsh` at w, so it is attained
    at the witness for any input: exact when the S_a commute, and otherwise a
    lower bound on the maximum, never below the +0.0 of w = 0.  Non-finite S
    give w = 0 and a NaN value.
    """
    if not np.all(np.isfinite(ops)):
        return np.zeros(len(ops)), math.nan
    p = _min_norm_point(roots)
    length = np.linalg.norm(p)
    if length > 1e-9 * np.max(np.abs(roots)):
        w = p / length
        value = float(np.min(np.linalg.eigvalsh(np.einsum("a,aij->ij", w, ops))))
        if value > 0.0:
            return w, value
    return np.zeros(len(ops)), 0.0


def iwasawa_check(alg):
    """Check the three Iwasawa-type conditions for a decorated algebra, at TOL_EXACT.

    (i) the a-part is abelian; (ii) every ad(A) with A in a is symmetric
    w.r.t. gram and ad is injective on a; (iii) some A in a has
    positive-definite ad(A) restricted to the nilradical.  min_positive_eig is the
    largest least eigenvalue of ad(A)|n over A in a with |A| <= 1, and +0.0 at a
    zero witness when no direction is positive (`_best_positive_direction`);
    when (i) or (ii) fails it may be only a lower bound on it, never below +0.0.
    """
    if not alg.decorated:
        raise ValueError("algebra has no Iwasawa decoration")
    a_idx = list(alg.a_indices)
    n_idx = list(alg.n_indices)
    # n must be an ideal: [anything, n] has no component along a
    leak = float(np.max(np.abs(alg.c[:, n_idx][:, :, a_idx]), initial=0.0))
    if leak > TOL_EXACT:
        raise ValueError(f"n_indices do not span an ideal (leak {leak:.2e})")

    abelian = float(np.max(np.abs(alg.c[np.ix_(a_idx, a_idx)]), initial=0.0))

    g = alg.gram
    # ads[a] is the matrix of ad(e_a) for each a-index, stacked: ads[a] @ y = [e_a, y]
    ads = np.ascontiguousarray(alg.c[a_idx].transpose(0, 2, 1))
    sym_res = float(np.max(np.abs(g @ ads - ads.transpose(0, 2, 1) @ g), initial=0.0))
    if a_idx:
        # a singular value counts as zero below 1e-8 times the largest constant of ad(a)
        injective = np.linalg.matrix_rank(
            ads.reshape(len(a_idx), -1), tol=1e-8 * np.max(np.abs(ads))) == len(a_idx)
    else:
        injective = True

    min_pos = -np.inf
    witness = np.zeros(alg.dim)
    if a_idx and n_idx:
        w, min_pos = _best_positive_direction(*alg.root_decomposition)
        witness[a_idx] = w

    return IwasawaReport(
        cond_i=abelian <= TOL_EXACT,
        cond_ii=sym_res <= TOL_EXACT and injective,
        cond_iii=min_pos > TOL_EXACT,
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


def _per_basis_vector(key, values, dim):
    """An optional per-basis-vector field as a tuple: empty, or exactly dim entries."""
    values = tuple(values)
    if values and len(values) != dim:
        raise ValueError(f"'{key}' must list one entry per basis vector (dim {dim})")
    return values


def _sized(doc, key, dim):
    """Optional per-basis-vector list: absent, null, empty, or exactly dim entries."""
    values = doc.get(key)
    if values is None:
        return ()
    if not isinstance(values, list):
        raise ValueError(f"'{key}' must list one entry per basis vector (dim {dim})")
    return _per_basis_vector(key, values, dim)


def _is_int(value):
    """A JSON integer: never a float to truncate, nor a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_int_list(values):
    return isinstance(values, list) and all(map(_is_int, values))


def _is_number(value):
    """A JSON number: never a bool, nor a string of digits."""
    return type(value) in (int, float)


def deserialize(text):
    """Parse an algebra document, checking only what it states: JSON types,
    indices, finiteness, MAX_DIM, MAX_CONSTANT (in the basis and in the
    orthonormal frame) and a symmetric positive-definite Gram matrix.  Anything
    else raises ValueError, a number too large for a float included; Jacobi is
    left to `validate`."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed algebra document: {exc}") from exc
    if not isinstance(doc, dict) or "dim" not in doc:
        raise ValueError("malformed algebra document: missing 'dim'")
    try:
        return _from_document(doc)
    except (TypeError, OverflowError) as exc:
        raise ValueError(f"malformed algebra document: {exc}") from exc


def _from_document(doc):
    dim = doc["dim"]
    if not _is_int(dim) or dim <= 0:
        raise ValueError(f"dim must be a positive integer, got {dim!r}")
    if dim > MAX_DIM:
        raise ValueError(f"dim {dim} is above the largest supported dim {MAX_DIM}")
    labels = _sized(doc, "labels", dim)     # entries are checked at construction
    gram_spec = doc.get("gram", "identity")
    if gram_spec == "identity":
        gram = np.eye(dim)
    elif (isinstance(gram_spec, list) and len(gram_spec) == dim * dim
          and all(map(_is_number, gram_spec))):
        gram = np.array(gram_spec, dtype=float).reshape(dim, dim)
    else:
        raise ValueError(f"'gram' must be \"identity\" or a flat list of {dim * dim} numbers")
    structure = doc.get("structure", [])
    if not isinstance(structure, list):
        raise ValueError("'structure' must be an array of [i, j, k, value] entries")
    entries = []
    for row in structure:
        if not (isinstance(row, list) and len(row) == 4 and _is_int_list(row[:3])):
            raise ValueError(f"structure entry {row!r} is not [i, j, k, value] "
                             "with integer i, j, k")
        if not _is_number(row[3]):
            raise ValueError(f"structure constant {row[3]!r} is not a number")
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
    dec = doc.get("decoration")
    if dec is None:
        dec = {}
    if not isinstance(dec, dict):
        raise ValueError("'decoration' must be an object")
    a_idx, n_idx = dec.get("a_indices", []), dec.get("n_indices", [])
    if not (_is_int_list(a_idx) and _is_int_list(n_idx)):
        raise ValueError(f"'a_indices' and 'n_indices' must be lists of integers, "
                         f"got {a_idx!r} and {n_idx!r}")
    roots = _sized(dec, "roots", dim)
    if not all(r is None or _is_int_list(r) for r in roots):
        raise ValueError("'roots' entries must be null or lists of integers")
    # bounded in the basis (validate sums products of c) and, below, in the frame
    # (the curvature formulas sum products of c_frame), where a tiny Gram can scale it up
    c = _structure_tensor(dim, entries)
    if not np.all(np.abs(c) <= MAX_CONSTANT):
        raise ValueError(f"a structure constant is above {MAX_CONSTANT:g} in absolute value")
    with np.errstate(over="ignore", invalid="ignore"):
        alg = MetricLieAlgebra(
            c=c, gram=gram, labels=labels, a_indices=a_idx, n_indices=n_idx, roots=roots,
        )
    if not (np.isfinite(alg.frame).all() and np.all(np.abs(alg.c_frame) <= MAX_CONSTANT)):
        raise ValueError(f"a structure constant in the orthonormal frame is above "
                         f"{MAX_CONSTANT:g} in absolute value")
    return alg
