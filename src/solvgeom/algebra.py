"""Metric Lie algebras as structure-constant tensors with an inner product.

An algebra is a tensor c[i][j][k] with [e_i, e_j] = sum_k c[i][j][k] e_k
together with a Gram matrix <e_i, e_j>.  Antisymmetry is enforced at
construction (the j > i half is derived from the i < j half), so validation
only needs to worry about Jacobi and the metric.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

TOL_EXACT = 1e-10   # identities among closed-form constants entered as doubles
TOL_OPT = 1e-6      # optimizer-derived quantities

__all__ = [
    "TOL_EXACT",
    "TOL_OPT",
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


def orthonormal_frame(gram):
    """Modified Gram-Schmidt on the standard basis w.r.t. the given Gram matrix.

    Returns F with F^T gram F = Id; column j holds the coordinates of the
    j-th orthonormal frame vector in the original basis.
    """
    gram = np.asarray(gram, dtype=float)
    n = gram.shape[0]
    frame = np.eye(n)
    for j in range(n):
        v = frame[:, j]
        for i in range(j):
            u = frame[:, i]
            v = v - (u @ gram @ v) * u
        nrm = float(v @ gram @ v)
        if nrm <= 0:
            raise ValueError("gram matrix is not positive definite")
        frame[:, j] = v / math.sqrt(nrm)
    return frame


def restricted_symmetric(alg, mats, idx):
    """Symmetric parts of the blocks m[idx, idx], written in an orthonormal
    frame of span{e_i : i in idx}."""
    block = np.ix_(idx, idx)
    f = orthonormal_frame(alg.gram[block])
    f_inv = np.linalg.inv(f)
    ops = []
    for m in mats:
        mo = f_inv @ m[block] @ f
        ops.append(0.5 * (mo + mo.T))
    return ops


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
        self.frame = orthonormal_frame(self.gram)
        self.frame_inv = np.linalg.inv(self.frame)
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
    """Build an algebra from sparse entries [(i, j, k, value)] with i < j.

    The j > i half of the tensor is filled by antisymmetry, so the result
    satisfies c[i][j][k] = -c[j][i][k] exactly.
    """
    c = np.zeros((dim, dim, dim))
    for i, j, k, v in entries:
        if not (0 <= i < j < dim and 0 <= k < dim):
            raise ValueError(f"bad sparse entry ({i},{j},{k}): need 0 <= i < j < dim")
        c[i, j, k] += v
        c[j, i, k] -= v
    if gram is None:
        gram = np.eye(dim)
    return MetricLieAlgebra(
        c=c, gram=gram, labels=labels, a_indices=a_indices, n_indices=n_indices, roots=roots
    )


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
    """Check antisymmetry, Jacobi, and positive-definiteness of the metric."""
    c = alg.c
    antisym = float(np.max(np.abs(c + np.transpose(c, (1, 0, 2))))) if alg.dim else 0.0
    cc = np.einsum("ijm,mkl->ijkl", c, c)
    jacobi = cc + np.transpose(cc, (1, 2, 0, 3)) + np.transpose(cc, (2, 0, 1, 3))
    jac = float(np.max(np.abs(jacobi))) if alg.dim else 0.0
    sym_defect = float(np.max(np.abs(alg.gram - alg.gram.T)))
    min_eig = float(np.min(np.linalg.eigvalsh(0.5 * (alg.gram + alg.gram.T))))
    ok = antisym <= tol and jac <= tol and sym_defect <= tol and min_eig > 0
    return ValidationReport(
        jacobi_residual=jac, antisym_residual=antisym, gram_min_eig=min_eig, ok=ok
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


def _best_positive_direction(alg, sym_ops):
    """Maximize the least eigenvalue of sum w_a S_a over unit w (subgradient ascent)."""
    k = len(sym_ops)
    rng = np.random.default_rng(0)
    candidates = [np.ones(k)]
    candidates += list(np.eye(k))
    candidates += list(-np.eye(k))
    candidates += list(rng.standard_normal((16, k)))
    best_w, best_val = None, -np.inf
    for w0 in candidates:
        w = w0 / np.linalg.norm(w0)
        for _ in range(80):
            s = sum(wi * si for wi, si in zip(w, sym_ops))
            vals, vecs = np.linalg.eigh(s)
            v0 = vecs[:, 0]
            grad = np.array([v0 @ si @ v0 for si in sym_ops])
            w_new = w + 0.5 * grad
            nrm = np.linalg.norm(w_new)
            if nrm == 0:
                break
            w_new /= nrm
            if np.linalg.norm(w_new - w) < 1e-14:
                w = w_new
                break
            w = w_new
        s = sum(wi * si for wi, si in zip(w, sym_ops))
        val = float(np.min(np.linalg.eigvalsh(s)))
        if val > best_val:
            best_val, best_w = val, w
    return best_w, best_val


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

    abelian = 0.0
    for i in a_idx:
        for j in a_idx:
            abelian = max(abelian, float(np.max(np.abs(alg.c[i, j, :]))))

    g = alg.gram
    sym_res = 0.0
    ads = []
    for i in a_idx:
        m = ad_matrix(alg, alg.basis_vector(i))
        ads.append(m)
        sym_res = max(sym_res, float(np.max(np.abs(g @ m - m.T @ g))))
    if a_idx:
        stacked = np.stack([m.ravel() for m in ads])
        injective = np.linalg.matrix_rank(stacked, tol=1e-8) == len(a_idx)
    else:
        injective = True

    cond_iii = False
    min_pos = -np.inf
    witness = np.zeros(alg.dim)
    if a_idx and n_idx:
        sym_ops = restricted_symmetric(alg, ads, n_idx)
        w, min_pos = _best_positive_direction(alg, sym_ops)
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
    rows = []
    for i in range(alg.dim):
        for j in range(i + 1, alg.dim):
            for k in range(alg.dim):
                v = alg.c[i, j, k]
                if v != 0.0:
                    rows.append(f"[{i}, {j}, {k}, {_fmt(v)}]")
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


def deserialize(text):
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
    dim = int(doc["dim"])
    if dim <= 0:
        raise ValueError("dim must be positive")
    labels = _sized(doc, "labels", dim)
    gram_spec = doc.get("gram", "identity")
    if gram_spec == "identity":
        gram = np.eye(dim)
    else:
        gram = np.asarray(gram_spec, dtype=float).reshape(dim, dim)
    entries = []
    for row in doc.get("structure", []):
        if not isinstance(row, list) or len(row) != 4:
            raise ValueError(f"structure entry {row!r} is not [i, j, k, value]")
        i, j, k, v = int(row[0]), int(row[1]), int(row[2]), float(row[3])
        if not (0 <= i < j < dim):
            raise ValueError(f"structure entry ({i},{j},{k}) violates i<j canonical order")
        if not 0 <= k < dim:
            raise ValueError(f"structure entry ({i},{j},{k}) has k outside 0..{dim - 1}")
        if not math.isfinite(v):
            raise ValueError("non-finite structure constant")
        entries.append((i, j, k, v))
    if not np.all(np.isfinite(gram)):
        raise ValueError("non-finite gram entry")
    dec = doc.get("decoration") or {}
    if not isinstance(dec, dict):
        raise ValueError("'decoration' must be an object")
    alg = from_sparse(
        dim,
        entries,
        gram=gram,
        labels=labels,
        a_indices=tuple(dec.get("a_indices", ())),
        n_indices=tuple(dec.get("n_indices", ())),
        roots=_sized(dec, "roots", dim),
    )
    rep = validate(alg)
    if rep.gram_min_eig <= 0:
        raise ValueError(f"gram is not positive definite (min eig {rep.gram_min_eig:.3e})")
    return alg
