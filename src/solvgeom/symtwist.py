"""Iwasawa-type solvable algebras of classical symmetric spaces and their
sign twists.

Each builder returns a RootDecoratedAlgebra: the metric algebra a + n with an
orthonormal basis grouped by restricted root, integer root tuples in
omega-coordinates, and enough per-vector metadata to express the twists.

A twist flips the sign of c[i][j][k] when basis vectors i and j both carry
parity 1 (vectors in a always carry parity 0).  When the parity assignment is
closed (parity(k) = parity(i) xor parity(j) on every nonzero constant), the
twisted algebra is the real span of the even vectors and sqrt(-1) times the
odd vectors inside the complexification, hence again a Lie algebra, and the
twist is an exact involution.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .algebra import (MAX_DIM, MetricLieAlgebra, _nonzero_constants, ad_matrix,
                      from_sparse, orthonormal_frame)

__all__ = [
    "RootDecoratedAlgebra",
    "TwistAssignment",
    "TwistClosureReport",
    "twist_closure_check",
    "twist",
    "restricted_height_twist",
    "enumerate_twists",
    "wa_twist",
    "paper_twist_so_nH",
    "paper_twist_sl_nH",
    "type_iv_twist",
    "build_so_pq",
    "build_su_pq",
    "build_sp_pq",
    "build_so_nH",
    "build_sl_nH",
    "build_type_iv_sl",
    "build_sl_nR",
    "positive_curvature_witness",
    "bracket_table",
]


@dataclass
class RootDecoratedAlgebra:
    base: MetricLieAlgebra
    tag: str
    simple_roots: tuple          # base of the positive root system, omega-coords
    meta: tuple                  # per-index dict: col (wa_twist), group (paper twists)
    params: dict = field(default_factory=dict)

    def root_of(self, i):
        return self.base.roots[i]

    @property
    def dim(self):
        return self.base.dim

    @property
    def labels(self):
        return self.base.labels

    @property
    def a_indices(self):
        return self.base.a_indices

    @property
    def n_indices(self):
        return self.base.n_indices


@dataclass
class TwistAssignment:
    parities: tuple   # one 0/1 per basis index; 0 on a
    tag: str = ""


# --- generic assembly from matrices -----------------------------------------


def _flat(stack):
    """Rows of real coordinates (real parts, then imaginary parts) of a stack
    of complex matrices."""
    rows = np.asarray(stack, dtype=complex).reshape(len(stack), -1)
    return np.concatenate([rows.real, rows.imag], axis=1)


# commutator pairs projected at once: bounds _assemble's memory to a few
# blocks of matrices whatever the number of pairs
_PAIR_BLOCK = 256


def _assemble(tag, a_mats, a_names, n_mats, n_names, n_roots, n_cols, n_groups,
              simple_roots, params, tol=1e-10):
    """Orthogonality of the basis is asserted (each builder asserts its own
    common norm), structure constants are computed by exact expansion of
    matrix commutators, and the root decoration is validated against the
    actual ad(a) eigenvalues."""
    mats = np.asarray(list(a_mats) + list(n_mats), dtype=complex)
    la, dim = len(a_mats), len(mats)
    names = tuple(a_names) + tuple(n_names)

    basis_flat = _flat(mats)        # (dim, 2 s^2)
    # in every family the shipped inner product is a block-constant multiple of
    # the Frobenius form, so orthonormality of the basis reduces to the flat
    # gram being diagonal with the norms the builders already fixed
    gmat = basis_flat @ basis_flat.T
    if float(np.max(np.abs(gmat - np.diag(np.diag(gmat))))) > 1e-10:
        raise ValueError(f"{tag}: basis is not orthogonal")
    norms = np.diag(gmat)

    # project every commutator [e_i, e_j], i < j, onto the orthogonal basis
    rows, cols = np.triu_indices(dim, 1)
    entries = []
    for start in range(0, len(rows), _PAIR_BLOCK):
        pi, pj = rows[start:start + _PAIR_BLOCK], cols[start:start + _PAIR_BLOCK]
        left, right = mats[pi], mats[pj]
        targets = _flat(left @ right - right @ left)
        coeffs = (targets @ basis_flat.T) / norms
        resid = np.max(np.abs(coeffs @ basis_flat - targets), axis=1, initial=0.0)
        bad = np.flatnonzero(resid > tol)
        if bad.size:
            t = bad[0]
            raise ValueError(
                f"{tag}: [{names[pi[t]]}, {names[pj[t]]}] leaves the span "
                f"(residual {resid[t]:.2e})"
            )
        entries += [(int(pi[t]), int(pj[t]), int(k), float(coeffs[t, k]))
                    for t, k in zip(*np.nonzero(np.abs(coeffs) > 1e-12))]

    roots = tuple([None] * la) + tuple(tuple(r) for r in n_roots)
    alg = from_sparse(
        dim,
        entries,
        gram=np.eye(dim),
        labels=names,
        a_indices=tuple(range(la)),
        n_indices=tuple(range(la, dim)),
        roots=roots,
    )

    # ad(a) must act diagonally on the n-basis, linearly in the root tuples
    root_mat = np.array([list(r) for r in n_roots], dtype=float)  # (nn, rank)
    for ai in range(la):
        adm = ad_matrix(alg, alg.basis_vector(ai))
        block = adm[la:, la:]
        off = block - np.diag(np.diag(block))
        if float(np.max(np.abs(off))) > tol:
            raise ValueError(f"{tag}: ad({names[ai]}) is not diagonal on n")
        lam = np.diag(block)
        kappa, res, *_ = np.linalg.lstsq(root_mat, lam, rcond=None)
        if float(np.max(np.abs(root_mat @ kappa - lam))) > 1e-8:
            raise ValueError(f"{tag}: root labels disagree with ad({names[ai]}) spectrum")

    meta = tuple(
        {"col": (n_cols[i - la] if i >= la else None),
         "group": (n_groups[i - la] if i >= la else "a")}
        for i in range(dim)
    )
    return RootDecoratedAlgebra(
        base=alg, tag=tag, simple_roots=tuple(tuple(s) for s in simple_roots),
        meta=meta, params=dict(params),
    )


def _trace_free_diagonals(n):
    """Orthonormal rows spanning the trace-free diagonals of gl(n): the simple
    coroots e_l - e_(l+1), orthonormalized in order."""
    v = np.eye(n)[:-1] - np.eye(n)[1:]
    return orthonormal_frame(v @ v.T).T @ v


# --- sign twists -------------------------------------------------------------


@dataclass
class TwistClosureReport:
    ok: bool
    monomial: bool
    violations: tuple


def twist_closure_check(rda, assignment, tol=1e-12):
    """Parity closure: parity(k) = parity(i) + parity(j) mod 2 on every nonzero
    structure constant.  Also reports whether every basis bracket is a scalar
    multiple of a single basis vector."""
    alg = rda.base
    par = assignment.parities
    if len(par) != alg.dim:
        raise ValueError("parity assignment has wrong length")
    if any(par[i] for i in alg.a_indices):
        raise ValueError("parities must vanish on a")
    i, j, k = _nonzero_constants(alg.c, tol)
    odd = np.asarray(par) % 2
    bad = (odd[i] + odd[j] + odd[k]) % 2 != 0
    violations = tuple(zip(i[bad].tolist(), j[bad].tolist(), k[bad].tolist()))
    # row-major order puts the constants of one pair (i, j) next to each other
    monomial = not np.any((i[1:] == i[:-1]) & (j[1:] == j[:-1]))
    return TwistClosureReport(ok=not violations, monomial=monomial,
                              violations=violations)


def twist(rda, assignment):
    """Flip signs of brackets between odd basis vectors; exact involution."""
    rep = twist_closure_check(rda, assignment)
    if not rep.ok:
        i, j, k = rep.violations[0]
        raise ValueError(
            f"twist is not closed: constant ({rda.labels[i]},{rda.labels[j]})->"
            f"{rda.labels[k]} violates parity"
        )
    alg = rda.base
    par = np.asarray(assignment.parities)
    sign = np.where(np.outer(par, par) == 1, -1.0, 1.0)
    c = alg.c * sign[:, :, None]
    labels = tuple(
        (lab[:-1] if lab.endswith("'") else lab + "'") if par[i] else lab
        for i, lab in enumerate(alg.labels)
    )
    new = MetricLieAlgebra(
        c=c, gram=alg.gram.copy(), labels=labels,
        a_indices=alg.a_indices, n_indices=alg.n_indices, roots=alg.roots,
    )
    suffix = f" twisted[{assignment.tag}]" if assignment.tag else " twisted"
    tag = rda.tag[:-len(suffix)] if rda.tag.endswith(suffix) else rda.tag + suffix
    return RootDecoratedAlgebra(
        base=new, tag=tag, simple_roots=rda.simple_roots, meta=rda.meta,
        params=dict(rda.params),
    )


def _expand_in_base(root, simple_roots):
    """Integer coordinates of a root in the base; raises if not integral."""
    a = np.array(simple_roots, dtype=float).T
    b = np.array(root, dtype=float)
    coeff, res, *_ = np.linalg.lstsq(a, b, rcond=None)
    if float(np.max(np.abs(a @ coeff - b))) > 1e-9:
        raise ValueError(f"root {root} is not in the span of the base")
    ints = np.rint(coeff).astype(int)
    if float(np.max(np.abs(coeff - ints))) > 1e-9:
        raise ValueError(f"root {root} has non-integer base coordinates {coeff}")
    return ints


def restricted_height_twist(rda, subset):
    """Parity = (sum of base-coordinates over the subset) mod 2.

    Constant on root spaces; always closed.  These twists give algebras
    isometric to the untwisted one.
    """
    subset = tuple(sorted(set(subset)))
    k = len(rda.simple_roots)
    if any(not 0 <= s < k for s in subset):
        raise ValueError(f"subset must contain base indices 0..{k-1}")
    parities = [0] * rda.dim
    for i in rda.n_indices:
        coords = _expand_in_base(rda.root_of(i), rda.simple_roots)
        parities[i] = int(sum(coords[s] for s in subset)) % 2
    return TwistAssignment(parities=tuple(parities), tag="rh:" + ",".join(map(str, subset)))


def enumerate_twists(rda, tol=1e-12, max_solutions=4096):
    """All closed parity assignments, by GF(2) elimination of the closure system."""
    alg = rda.base
    n_idx = list(alg.n_indices)
    nn = len(n_idx)
    # one closure row per constant: the xor of the bits of its n-indices, as
    # Python ints so that any number of them fits
    bit = np.zeros(alg.dim, dtype=object)
    bit[n_idx] = [1 << t for t in range(nn)]
    i, j, k = _nonzero_constants(alg.c, tol)
    masks = bit[i] ^ bit[j] ^ bit[k]
    rows = set(masks[masks != 0].tolist())
    # forward elimination into an xor basis, then full reduction so each pivot
    # bit appears in exactly one row (the remaining support is free bits only)
    basis = []
    for row in rows:
        for b in basis:
            row = min(row, row ^ b)
        if row:
            basis.append(row)
            basis.sort(reverse=True)
    changed = True
    while changed:
        changed = False
        for t in range(len(basis)):
            piv = basis[t].bit_length() - 1
            for u in range(len(basis)):
                if u != t and (basis[u] >> piv) & 1:
                    basis[u] ^= basis[t]
                    changed = True
    pivots = {b.bit_length() - 1 for b in basis}
    free = [t for t in range(nn) if t not in pivots]
    if 2 ** len(free) > max_solutions:
        raise ValueError(f"twist solution space too large (2^{len(free)})")
    sols = []
    for bits in itertools.product((0, 1), repeat=len(free)):
        x = 0
        for t, v in zip(free, bits):
            if v:
                x ^= 1 << t
        for b in basis:
            piv = b.bit_length() - 1
            if bin(b & x).count("1") % 2 == 1:
                x ^= 1 << piv
        parities = [0] * alg.dim
        for t in range(nn):
            if (x >> t) & 1:
                parities[n_idx[t]] = 1
        sols.append(TwistAssignment(parities=tuple(parities), tag=f"bits:{x:#x}"))
    return sols


def wa_twist(rda, a):
    """Parity 1 on the omega_k vectors whose column exceeds a (needs 1 <= a < m)."""
    if rda.params.get("family") not in ("so_pq", "su_pq", "sp_pq"):
        raise ValueError("column twists apply to the Grassmannian families only")
    m = rda.params.get("m")
    if m is None or m < 2:
        raise ValueError("this algebra has no column split to twist (need m >= 2)")
    if not 1 <= a < m:
        raise ValueError(f"need 1 <= a < m = {m}")
    parities = [0] * rda.dim
    for i in rda.n_indices:
        col = rda.meta[i]["col"]
        if col is not None and col > a:
            parities[i] = 1
    return TwistAssignment(parities=tuple(parities), tag=f"wa:{a}")


def positive_curvature_witness(twisted):
    """Unit pair (x, y) with [x, y] = 0 and K(x, y) > 0 in a twisted algebra.

    Each family's pair mixes an untwisted and a twisted basis vector from
    adjacent root spaces; the input must already carry the appropriate twist
    (primed labels).  Raises ValueError when no standard pair applies.
    """
    labels = list(twisted.labels)
    index = {lab: i for i, lab in enumerate(labels)}

    def unit(*terms):
        v = np.zeros(twisted.dim)
        for lab, coeff in terms:
            if lab not in index:
                raise ValueError(f"no basis vector {lab!r}; wrong or missing twist")
            v[index[lab]] = coeff
        return v / np.linalg.norm(v)

    fam = twisted.params.get("family")
    if fam in ("so_pq", "su_pq", "sp_pq"):
        if twisted.params.get("p", 0) < 2:
            raise ValueError("the column-twist pair needs p >= 2")
        plain = sorted(
            c for c in range(1, twisted.params["m"] + 1) if f"w1c{c}" in index
        )
        primed = sorted(
            c for c in range(1, twisted.params["m"] + 1) if f"w1c{c}'" in index
        )
        if not plain or not primed or max(plain) >= min(primed):
            raise ValueError("need a column split: plain columns then twisted ones")
        i, j = max(plain), min(primed)
        x = unit((f"w1c{i}", 1.0), (f"w1c{j}'", 1.0))
        y = unit((f"w2c{i}", 1.0), (f"w2c{j}'", 1.0))
        return x, y
    if fam == "so_nH":
        if twisted.params.get("m", 0) < 3:
            raise ValueError("the minus-family pair needs m >= 3")
        x = unit(("A-_12", 1.0), ("B-_12'", 1.0))
        y = unit(("C-_23'", 1.0), ("D-_23", 1.0))
        return x, y
    if fam == "sl_nH":
        if twisted.params.get("n", 0) < 3:
            raise ValueError("the two-step pair needs n >= 3")
        x = unit(("A_12'", 1.0), ("B_12", 1.0))
        y = unit(("C_23'", 1.0), ("D_23", 1.0))
        return x, y
    if fam == "type_iv":
        if twisted.params.get("n", 0) < 3:
            raise ValueError("the two-step pair needs n >= 3")
        x = unit(("X_12", 1.0), ("JX_12'", 1.0))
        y = unit(("X_23", 1.0), ("JX_23'", -1.0))
        return x, y
    raise ValueError(f"no standard positive-curvature pair for family {fam!r}")


def _group_twist(rda, groups, tag):
    parities = [0] * rda.dim
    for i in rda.n_indices:
        if rda.meta[i]["group"] in groups:
            parities[i] = 1
    return TwistAssignment(parities=tuple(parities), tag=tag)


def paper_twist_so_nH(rda):
    """Even: odd vectors are B-, C-, A+, D+, G.  Odd n: X, Z, B+, C+, B-, C-."""
    if rda.params.get("family") != "so_nH":
        raise ValueError("paper_twist_so_nH expects a so(n,H) build")
    if rda.params["n"] % 2 == 0:
        groups = {"B-", "C-", "A+", "D+", "G"}
    else:
        groups = {"X", "Z", "B+", "C+", "B-", "C-"}
    return _group_twist(rda, groups, "paper")


def paper_twist_sl_nH(rda):
    """Odd vectors are A_jk and C_jk for all j < k."""
    if rda.params.get("family") != "sl_nH":
        raise ValueError("paper_twist_sl_nH expects a sl(n,H) build")
    return _group_twist(rda, {"A", "C"}, "paper")


def type_iv_twist(rda):
    """Odd vectors are the J-rotated root vectors."""
    if rda.params.get("family") != "type_iv":
        raise ValueError("type_iv_twist expects a type-IV build")
    return _group_twist(rda, {"JX"}, "paper")


# --- Grassmannian families so(p,q), su(p,q), sp(p,q) -------------------------
#
# Block form with sizes (p, p, m), m = q - p:
#     [[A, B, C], [B*, D, E], [C*, -E*, F]],   A* = -A, D* = -D, F* = -F,
# where * is conjugate transpose over the base field.  a = {B real diagonal}.
# Quaternionic matrices are embedded as 2N x 2N complex matrices via
# X + Yj -> [[X, Y], [-conj(Y), conj(X)]].
#
# The family is the fixed set of the involution sigma(M) = -Q M* Q, where
# Q = diag(-I_p, I_p, I_m) (kron(I_2, Q) on the embedding), so M + sigma(M)
# lies in it for any M, exactly in floating point: sigma only permutes,
# conjugates and negates entries.  Each basis vector is that completion of one
# seed u v w^T (`_seed`), normalised, for a unit u of the field and integer
# vectors v, w.

_UNITS = {
    "R": (("", (1.0, 0.0)),),
    "C": (("", (1.0, 0.0)), ("i", (1j, 0.0))),
    "H": (("", (1.0, 0.0)), ("i", (1j, 0.0)), ("j", (0.0, 1.0)), ("k", (0.0, 1j))),
}


def _materialize(field_, size, entries):
    """The matrix with quaternion entries {(r, c): (X, Y)} in field_'s embedding."""
    x = np.zeros((size, size), dtype=complex)
    y = np.zeros((size, size), dtype=complex)
    for (r, c), (a, b) in entries.items():
        x[r, c] += a
        y[r, c] += b
    if field_ == "R":
        if np.max(np.abs(y)) > 0 or np.max(np.abs(x.imag)) > 0:
            raise ValueError("non-real entry in a real build")
        return x.real
    if field_ == "C":
        if np.max(np.abs(y)) > 0:
            raise ValueError("quaternionic entry in a complex build")
        return x
    mat = np.empty((2 * size, 2 * size), dtype=complex)
    mat[:size, :size], mat[:size, size:] = x, y
    mat[size:, :size], mat[size:, size:] = -np.conj(y), np.conj(x)
    return mat


def _seed(field_, size, u, v, w):
    """The rank-one matrix u v w^T in field_'s embedding, for a unit u as the
    pair (X, Y) of X + Yj and vectors v, w as {index: coefficient}."""
    return _materialize(field_, size, {(r, c): (u[0] * a * b, u[1] * a * b)
                                       for r, a in v.items() for c, b in w.items()})


def _check_dim(tag, dim):
    """Refuse a build whose Iwasawa algebra exceeds MAX_DIM, before any
    matrix is allocated."""
    if dim > MAX_DIM:
        raise ValueError(f"{tag} would have dim {dim}, above the largest supported "
                         f"dim {MAX_DIM}")


def _build_grassmannian(field_, p, q):
    if q < p or p < 1:
        raise ValueError("need 1 <= p <= q")
    m = q - p
    size = 2 * p + m
    units = _UNITS[field_]
    d = len(units)
    fam = {"R": "so", "C": "su", "H": "sp"}[field_]
    tag = f"{fam}({p},{q})"
    # a has dim p, n has dim d p (q - 1) + (d - 1) p
    _check_dim(tag, d * p * q)

    sig = np.array([-1.0] * p + [1.0] * (p + m))
    if field_ == "H":
        sig = np.tile(sig, 2)
    qq = np.outer(sig, sig)

    def emb(u, v, w, norm):
        mat = _seed(field_, size, u, v, w)
        mat = mat - qq * mat.conj().T
        return mat / math.sqrt(norm(mat))

    ids = np.eye(p, dtype=int)
    # (name, root, column, group, unit, v, w) of each basis vector in order,
    # with v and w as {index: coefficient}
    rows = [(f"a{k+1}", None, None, "a", (1.0, 0.0), {k: 1}, {p + k: 1}) for k in range(p)]
    # omega_k: C = E = u e_k e_c^T
    rows += [(f"w{k+1}c{c+1}{suf}", ids[k], c + 1, "W", u, {k: 1, p + k: 1}, {2 * p + c: 1})
             for k in range(p) for c in range(m) for suf, u in units]
    # omega_j - omega_i and omega_j + omega_i, i < j
    for i, j in itertools.combinations(range(p), 2):
        for suf, u in units:
            v = {j: 1, p + j: 1}
            rows += [(f"m{j+1}{i+1}{suf}", ids[j] - ids[i], None, "M", u, v, {i: 1, p + i: 1}),
                     (f"p{j+1}{i+1}{suf}", ids[j] + ids[i], None, "P", u, v, {i: 1, p + i: -1})]
    # 2 omega_k, imaginary units only; the completion doubles the seed
    rows += [(f"d{k+1}{suf}", 2 * ids[k], None, "D2", u, {k: 1, p + k: 1}, {k: 1, p + k: -1})
             for k in range(p) for suf, u in units[1:]]

    mats = [emb(u, v, w, _norm_a if group == "a" else _norm_n)
            for _, _, _, group, u, v, w in rows]
    n_rows = rows[p:]
    expected = d * p * (p - 1) + d * m * p + (d - 1) * p
    if len(n_rows) != expected:
        raise ValueError(f"{tag}: expected dim n = {expected}, built {len(n_rows)}")
    if not n_rows:
        raise ValueError(f"{tag} has no restricted roots; need q >= 2")

    if m == 0:
        simple = [tuple(ids[k] - ids[k - 1]) for k in range(1, p)]
        simple.append(tuple(ids[0] + ids[1]) if field_ == "R" else tuple(2 * ids[0]))
    else:
        simple = [tuple(ids[0])] + [tuple(ids[k] - ids[k - 1]) for k in range(1, p)]

    names, roots, cols, groups, *_ = zip(*n_rows)
    return _assemble(
        tag, mats[:p], [r[0] for r in rows[:p]], mats[p:], names, roots, cols, groups,
        simple_roots=simple,
        params={"family": f"{fam}_pq", "p": p, "q": q, "m": m, "field": field_},
    )


def _norm_a(mat):
    return float(np.real(np.trace(mat @ mat)))


def _norm_n(mat):
    return 0.5 * float(np.real(np.trace(mat @ np.conj(mat).T)))


def build_so_pq(p, q):
    """Iwasawa algebra of the real hyperbolic Grassmannian family."""
    return _build_grassmannian("R", p, q)


def build_su_pq(p, q):
    return _build_grassmannian("C", p, q)


def build_sp_pq(p, q):
    return _build_grassmannian("H", p, q)


# --- so(n, H) ----------------------------------------------------------------
#
# so(n, H) = so*(2n) is the quaternionic n x n matrices X + Yj with X complex
# skew and Y Hermitian, embedded as for the Grassmannians: the fixed set of
# sigma(M) = -M^T, which sends X to -X^T and Y to Y^*.  Each basis vector is
# the completion M + sigma(M) of one seed M = u v w^T (`_seed`), with u = 1
# for the part X or u = j for the part Y, v on the row pair (2j - 1, 2j) and w
# on the row pair (2k - 1, 2k), or w = e_n when n is odd.  The rows below list
# the root vectors of e_j +- e_k as (letter, u, v, w of e_j + e_k, the entry
# of w that e_j - e_k negates), and those of e_k for odd n as (letter, u, v
# over 1/sqrt(2)).

_X, _Y = (1.0, 0.0), (0.0, 1.0)
_SO_NH_PAIR = (
    ("A", _X, (1, -1j), (0.5, -0.5j), 1),
    ("B", _X, (1j, 1), (0.5, -0.5j), 0),
    ("C", _Y, (-1j, -1), (0.5, 0.5j), 0),
    ("D", _Y, (1, -1j), (0.5, 0.5j), 1),
)
_SO_NH_ODD = (("X", _X, (1j, 1)), ("Y", _X, (1, -1j)),
              ("Z", _Y, (1j, 1)), ("W", _Y, (1, -1j)))


def build_so_nH(n):
    """Iwasawa algebra of the quaternion-skew family inside gl(2n, C).

    Every basis vector has norm-square 2, under Re tr(XY) on a and under
    Re tr(X Y*)/2 on n; the shipped inner product is that form halved, making
    the basis orthonormal.
    """
    if n < 4:
        raise ValueError("need n >= 4 for a rank >= 2 algebra")
    m = n // 2
    # restricted roots C_m (n even) or BC_m (n odd); e_i +- e_j have multiplicity 4
    _check_dim(f"so({n},H)", 4 * m * m - 2 * m if n % 2 == 0 else 4 * m * m + 2 * m)
    r = 1 / math.sqrt(2)
    pair = lambda j, coeffs: {2 * j - 2: coeffs[0], 2 * j - 1: coeffs[1]}
    ids = np.eye(m, dtype=int)
    # (name, root, u, v, w) of each basis vector in basis order; the name of an
    # n-vector up to its underscore is its group for the paper twists
    rows = [(f"a{j}", None, _X, {2 * j - 2: r * 1j}, {2 * j - 1: 1}) for j in range(1, m + 1)]
    for j, k in itertools.combinations(range(1, m + 1), 2):
        for s, pm in ((1, "+"), (-1, "-")):
            rows += [(f"{letter}{pm}_{j}{k}", ids[j - 1] + s * ids[k - 1], u, pair(j, v),
                      pair(k, [b * (s if t == col else 1) for t, b in enumerate(w)]))
                     for letter, u, v, w, col in _SO_NH_PAIR]
    # 2 e_k: the completion doubles the diagonal of the seed
    rows += [(f"G_{k}", 2 * ids[k - 1], _Y, pair(k, (1, -1j)), pair(k, (r / 2, r / 2 * 1j)))
             for k in range(1, m + 1)]
    if n % 2 == 1:
        rows += [(f"{letter}_{k}", ids[k - 1], u, pair(k, [r * b for b in v]), {n - 1: 1})
                 for k in range(1, m + 1) for letter, u, v in _SO_NH_ODD]
    mats = []
    for t, (name, _, u, v, w) in enumerate(rows):
        mat = _seed("H", n, u, v, w)
        mat = mat - mat.T
        nrm = (_norm_a if t < m else _norm_n)(mat)
        if abs(nrm - 2.0) > 1e-12:
            raise ValueError(f"{name}: expected common norm, got {nrm}")
        mats.append(mat)

    simple = [tuple(ids[k] - ids[k + 1]) for k in range(m - 1)]
    simple.append(tuple(ids[m - 1] * (2 if n % 2 == 0 else 1)))
    names, roots, *_ = zip(*rows[m:])
    return _assemble(
        f"so({n},H)", mats[:m], [row[0] for row in rows[:m]], mats[m:], names,
        [tuple(root) for root in roots], [None] * len(names),
        [name.split("_")[0] for name in names], simple_roots=simple,
        params={"family": "so_nH", "n": n, "m": m},
    )


# --- sl(n, F) for F = R, C, H -----------------------------------------------
#
# a is the trace-free real diagonal; the root space of e_j - e_k is spanned by
# the seeds sqrt(2) u E_jk (`_seed`, no completion) over the units u of the
# field, listed below in basis order as (letter, unit X + Yj as the pair
# (X, Y)), embedded as for the Grassmannians.

_SL_FAMILIES = {
    "R": ("sl({},R)", "sl_nR", (("E", (1.0, 0.0)),)),
    "C": ("sl({},C) real", "type_iv", (("X", (1.0, 0.0)), ("JX", (1j, 0.0)))),
    "H": ("sl({},H)", "sl_nH", (("A", (1j, 0.0)), ("B", (0.0, 1j)),
                                ("C", (0.0, 1.0)), ("D", (1.0, 0.0)))),
}


def _build_sl(field_, n):
    """Iwasawa algebra of sl(n, F).  Every basis vector shares one norm-square:
    Re tr(XY) on a, Re tr(X Y*)/2 on n, so the shipped metric (that form,
    scaled) makes the basis exactly orthonormal."""
    if n < 2:
        raise ValueError("need n >= 2")
    tag_fmt, fam, units = _SL_FAMILIES[field_]
    tag = tag_fmt.format(n)
    _check_dim(tag, (n - 1) + len(units) * n * (n - 1) // 2)

    a_mats = [_materialize(field_, n, {(i, i): (x, 0.0) for i, x in enumerate(v)})
              for v in _trace_free_diagonals(n)]
    a_names = [f"a{l+1}" for l in range(n - 1)]
    common = _norm_a(a_mats[0])

    ids = np.eye(n, dtype=int)
    s2 = math.sqrt(2)
    # (name, root, group, u, j, k) of each n-vector in basis order
    rows = [(f"{letter}_{j + 1}{k + 1}", tuple(ids[j] - ids[k]), letter, u, j, k)
            for j, k in itertools.combinations(range(n), 2) for letter, u in units]
    n_mats = [_seed(field_, n, u, {j: s2}, {k: 1}) for *_, u, j, k in rows]
    for (name, *_), mat in zip(rows, n_mats):
        nrm = _norm_n(mat)
        if abs(nrm - common) > 1e-12:
            raise ValueError(f"{name}: expected common norm {common}, got {nrm}")

    simple = [tuple(ids[j] - ids[j + 1]) for j in range(n - 1)]
    n_names, n_roots, n_groups, *_ = zip(*rows)
    return _assemble(
        tag, a_mats, a_names, n_mats, n_names, n_roots,
        [None] * len(n_mats), n_groups, simple_roots=simple,
        params={"family": fam, "n": n},
    )


def build_sl_nH(n):
    """Iwasawa algebra of the quaternion special-linear family in gl(2n, C)."""
    return _build_sl("H", n)


def build_type_iv_sl(n):
    """Iwasawa algebra of sl(n, C) viewed as a real algebra; root spaces are
    spanned by X_jk and its rotation JX_jk = i X_jk."""
    return _build_sl("C", n)


def build_sl_nR(n):
    """Iwasawa algebra of the normal real form sl(n, R): one-dimensional root
    spaces, so every closed twist is a restricted-height twist."""
    return _build_sl("R", n)


# --- bracket tables -----------------------------------------------------------

_SNAP = ((0.0, ""), (1.0, "{}"), (-1.0, "-{}"),
         (math.sqrt(2), "r2 {}"), (-math.sqrt(2), "-r2 {}"),
         (math.sqrt(0.5), "r2/2 {}"), (-math.sqrt(0.5), "-r2/2 {}"))


def _render_cell(coeff, label):
    for val, fmt in _SNAP:
        if abs(coeff - val) <= 1e-9:
            return fmt.format(label)
    raise ValueError(f"coefficient {coeff} is not in the snap set")


def bracket_table(rda):
    """Full bracket grid over the n-basis as TSV: rows Y, columns X, cell [X, Y].

    Cells are rendered with coefficients snapped to 0, +-1, +-sqrt(2) and
    +-sqrt(1/2) (the last occur in sp(p,q) for p >= 2), as "", "L", "-L",
    "r2 L", "-r2 L", "r2/2 L" and "-r2/2 L" for a result label L.
    """
    alg = rda.base
    n_idx = list(alg.n_indices)
    labels = [alg.labels[i] for i in n_idx]
    lines = ["\t".join([""] + labels)]
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
