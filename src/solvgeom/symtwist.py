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

from .algebra import MAX_DIM, MetricLieAlgebra, _nonzero_constants, orthonormal_frame

__all__ = [
    "RootDecoratedAlgebra",
    "TwistAssignment",
    "TwistClosureReport",
    "twist_closure_check",
    "twist",
    "restricted_height_twist",
    "restricted_height_parities",
    "enumerate_twists",
    "mask_twist",
    "wa_twist",
    "paper_twist",
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
    "SPACES",
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


def _assemble(tag, rows, simple_roots, params):
    """The decorated algebra of the basis rows (name, matrix, root, group,
    column), the rank vectors of a first with root None.  The basis must be
    orthogonal with a common norm, the flat norm-square k on a and 2k on n;
    structure constants are computed by exact expansion of matrix
    commutators, and the root decoration is validated against the actual
    ad(a) eigenvalues."""
    names, mats, roots, groups, columns = zip(*rows)
    mats = np.asarray(mats, dtype=complex)
    la, dim = len(simple_roots), len(mats)

    basis_flat = _flat(mats)        # (dim, 2 s^2)
    # in every family the shipped inner product is a block-constant multiple of
    # the Frobenius form (the trace form, halved on n), so orthonormality of the
    # basis reduces to the flat gram being diagonal with the common norm
    gmat = basis_flat @ basis_flat.T
    if float(np.max(np.abs(gmat - np.diag(np.diag(gmat))))) > 1e-10:
        raise ValueError(f"{tag}: basis is not orthogonal")
    norms = np.diag(gmat)
    want = norms[0] * np.where(np.arange(dim) < la, 1.0, 2.0)
    bad = np.flatnonzero(np.abs(norms - want) > 1e-12 * norms[0])
    if bad.size:
        t = bad[0]
        raise ValueError(f"{names[t]}: expected common norm {want[t]}, got {norms[t]}")

    # project every commutator [e_i, e_j], i < j, onto the orthogonal basis
    first, second = np.triu_indices(dim, 1)
    c = np.zeros((dim,) * 3)
    for start in range(0, len(first), _PAIR_BLOCK):
        pi, pj = first[start:start + _PAIR_BLOCK], second[start:start + _PAIR_BLOCK]
        left, right = mats[pi], mats[pj]
        targets = _flat(left @ right - right @ left)
        coeffs = (targets @ basis_flat.T) / norms
        resid = np.max(np.abs(coeffs @ basis_flat - targets), axis=1, initial=0.0)
        bad = np.flatnonzero(resid > 1e-10)
        if bad.size:
            t = bad[0]
            raise ValueError(
                f"{tag}: [{names[pi[t]]}, {names[pj[t]]}] leaves the span "
                f"(residual {resid[t]:.2e})"
            )
        coeffs[np.abs(coeffs) <= 1e-12] = 0.0
        c[pi, pj] = coeffs
        # subtracted from zero, so a dropped constant stays +0.0 on both halves
        c[pj, pi] -= coeffs

    alg = MetricLieAlgebra(
        c=c, gram=np.eye(dim), labels=names, a_indices=tuple(range(la)),
        n_indices=tuple(range(la, dim)), roots=roots[:la] + tuple(map(tuple, roots[la:])),
    )

    # ad(a) must act diagonally on the n-basis, linearly in the root tuples:
    # ad(e_a) e_j = sum_k c[a, j, k] e_k
    nn = dim - la
    block = c[:la, la:, la:]
    off = np.abs(block)
    off[:, np.arange(nn), np.arange(nn)] = 0.0
    lam = np.diagonal(block, axis1=1, axis2=2).T            # (nn, la)
    root_mat = np.array(roots[la:], dtype=float)             # (nn, rank)
    kappa = np.linalg.lstsq(root_mat, lam, rcond=None)[0]
    off_diagonal = np.max(off, axis=(1, 2)) > 1e-10
    off_roots = np.max(np.abs(root_mat @ kappa - lam), axis=0) > 1e-8
    bad = np.flatnonzero(off_diagonal | off_roots)
    if bad.size:
        ai = bad[0]
        if off_diagonal[ai]:
            raise ValueError(f"{tag}: ad({names[ai]}) is not diagonal on n")
        raise ValueError(f"{tag}: root labels disagree with ad({names[ai]}) spectrum")

    return RootDecoratedAlgebra(
        base=alg, tag=tag, simple_roots=tuple(tuple(s) for s in simple_roots),
        meta=tuple({"col": col, "group": group} for col, group in zip(columns, groups)),
        params=dict(params),
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


def twist_closure_check(rda, assignment):
    """Parity closure: parity(k) = parity(i) + parity(j) mod 2 on every nonzero
    structure constant.  Also reports whether every basis bracket is a scalar
    multiple of a single basis vector."""
    alg = rda.base
    par = assignment.parities
    if len(par) != alg.dim:
        raise ValueError("parity assignment has wrong length")
    if any(par[i] for i in alg.a_indices):
        raise ValueError("parities must vanish on a")
    i, j, k = _nonzero_constants(alg.c, 1e-12)
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


def _base_coordinates(rda):
    """Integer coordinates in the base of every nilradical root, one row per
    n-index, from one least-squares solve; raises unless each is integral."""
    base = np.array(rda.simple_roots, dtype=float).T
    roots = np.array([rda.root_of(i) for i in rda.n_indices], dtype=float).T
    coeff = np.linalg.lstsq(base, roots, rcond=None)[0]
    ints = np.rint(coeff).astype(int)
    bad = np.flatnonzero((np.max(np.abs(base @ coeff - roots), axis=0) > 1e-9)
                         | (np.max(np.abs(coeff - ints), axis=0) > 1e-9))
    if bad.size:
        root = rda.root_of(rda.n_indices[bad[0]])
        raise ValueError(f"root {root} is not an integer combination of the base")
    return ints.T


def restricted_height_twist(rda, subset):
    """Parity = (sum of base-coordinates over the subset) mod 2.

    Constant on root spaces; always closed.  These twists give algebras
    isometric to the untwisted one.
    """
    subset = tuple(sorted(set(subset)))
    k = len(rda.simple_roots)
    if any(not 0 <= s < k for s in subset):
        raise ValueError(f"subset must contain base indices 0..{k-1}")
    parities = np.zeros(rda.dim, dtype=int)
    parities[list(rda.n_indices)] = _base_coordinates(rda)[:, list(subset)].sum(axis=1) % 2
    return TwistAssignment(parities=tuple(parities.tolist()),
                           tag="rh:" + ",".join(map(str, subset)))


def restricted_height_parities(rda):
    """The set of parity tuples of all 2^k restricted-height twists, one per
    subset of the k simple roots."""
    coords = _base_coordinates(rda)
    k = coords.shape[1]
    subsets = (np.arange(1 << k)[:, None] >> np.arange(k)) & 1
    parities = np.zeros((1 << k, rda.dim), dtype=int)
    parities[:, list(rda.n_indices)] = (subsets @ coords.T) % 2
    return set(map(tuple, parities.tolist()))


def mask_twist(rda, mask):
    """Parity 1 on the t-th nilradical vector for each bit t set in mask."""
    parities = [0] * rda.dim
    for t, v in enumerate(rda.n_indices):
        parities[v] = (mask >> t) & 1
    return TwistAssignment(parities=tuple(parities), tag=f"bits:{mask:#x}")


def enumerate_twists(rda):
    """All closed parity assignments, by GF(2) elimination of the closure system."""
    alg = rda.base
    n_idx = list(alg.n_indices)
    nn = len(n_idx)
    # one closure row per constant: the xor of the bits of its n-indices, as
    # Python ints so that any number of them fits
    bit = np.zeros(alg.dim, dtype=object)
    bit[n_idx] = [1 << t for t in range(nn)]
    i, j, k = _nonzero_constants(alg.c, 1e-12)
    masks = bit[i] ^ bit[j] ^ bit[k]
    # xor basis {pivot bit: row}, fully reduced as each row arrives: every pivot
    # bit occurs in its own row only, so the rest of a row's support is free bits
    basis = {}
    for row in set(masks[masks != 0].tolist()):
        for piv, b in basis.items():
            if (row >> piv) & 1:
                row ^= b
        if row:
            top = row.bit_length() - 1
            for piv, b in basis.items():
                if (b >> top) & 1:
                    basis[piv] = b ^ row
            basis[top] = row
    free = [t for t in range(nn) if t not in basis]
    if len(free) > 12:                  # at most 2^12 = 4096 solutions
        raise ValueError(f"twist solution space too large (2^{len(free)})")
    sols = []
    for bits in itertools.product((0, 1), repeat=len(free)):
        x = sum(1 << t for t, v in zip(free, bits) if v)
        for piv, b in basis.items():
            if (b & x).bit_count() % 2 == 1:
                x ^= 1 << piv
        sols.append(mask_twist(rda, x))
    return sols


_GRASSMANNIANS = ("so_pq", "su_pq", "sp_pq")


def wa_twist(rda, a):
    """Parity 1 on the omega_k vectors whose column exceeds a (needs 1 <= a < m)."""
    if rda.params.get("family") not in _GRASSMANNIANS:
        raise ValueError("column twists apply to the Grassmannian families only")
    m = rda.params.get("m")
    if m is None or m < 2:
        raise ValueError("this algebra has no column split to twist (need m >= 2)")
    if not 1 <= a < m:
        raise ValueError(f"need 1 <= a < m = {m}")
    parities = tuple(int(v["col"] is not None and v["col"] > a) for v in rda.meta)
    return TwistAssignment(parities=parities, tag=f"wa:{a}")


# the groups of odd vectors of the paper's twist of each family without a column
# split, keyed by family; so(n,H) has one set for even n and one for odd n
_PAPER_GROUPS = {
    ("so_nH", 0): {"B-", "C-", "A+", "D+", "G"},
    ("so_nH", 1): {"X", "Z", "B+", "C+", "B-", "C-"},
    "sl_nH": {"A", "C"},
    "type_iv": {"JX"},
}


def paper_twist(rda):
    """The paper's twist of each family: the column twist wa:1 on the
    Grassmannians, otherwise parity 1 on the family's groups of vectors."""
    fam = rda.params.get("family")
    if fam in _GRASSMANNIANS:
        return wa_twist(rda, 1)
    key = (fam, rda.params["n"] % 2) if fam == "so_nH" else fam
    if key not in _PAPER_GROUPS:
        raise ValueError(f"no standard twist for family {fam!r}")
    groups = _PAPER_GROUPS[key]
    return TwistAssignment(parities=tuple(int(v["group"] in groups) for v in rda.meta),
                           tag="paper")


def paper_twist_so_nH(rda):
    """Even: odd vectors are B-, C-, A+, D+, G.  Odd n: X, Z, B+, C+, B-, C-."""
    if rda.params.get("family") != "so_nH":
        raise ValueError("paper_twist_so_nH expects a so(n,H) build")
    return paper_twist(rda)


def paper_twist_sl_nH(rda):
    """Odd vectors are A_jk and C_jk for all j < k."""
    if rda.params.get("family") != "sl_nH":
        raise ValueError("paper_twist_sl_nH expects a sl(n,H) build")
    return paper_twist(rda)


def type_iv_twist(rda):
    """Odd vectors are the J-rotated root vectors."""
    if rda.params.get("family") != "type_iv":
        raise ValueError("type_iv_twist expects a type-IV build")
    return paper_twist(rda)


# (size parameter, its least value, (label, coefficient) terms of x, terms of y)
# of the positive-curvature pair of each family without a column split
_WITNESSES = {
    "so_nH": ("m", 3, (("A-_12", 1.0), ("B-_12'", 1.0)), (("C-_23'", 1.0), ("D-_23", 1.0))),
    "sl_nH": ("n", 3, (("A_12'", 1.0), ("B_12", 1.0)), (("C_23'", 1.0), ("D_23", 1.0))),
    "type_iv": ("n", 3, (("X_12", 1.0), ("JX_12'", 1.0)), (("X_23", 1.0), ("JX_23'", -1.0))),
}


def positive_curvature_witness(twisted):
    """Unit pair (x, y) with [x, y] = 0 and K(x, y) > 0 in a twisted algebra.

    Each family's pair mixes an untwisted and a twisted basis vector from
    adjacent root spaces; the input must already carry the appropriate twist
    (primed labels).  Raises ValueError when no standard pair applies.
    """
    index = {lab: i for i, lab in enumerate(twisted.labels)}

    def unit(terms):
        v = np.zeros(twisted.dim)
        for lab, coeff in terms:
            if lab not in index:
                raise ValueError(f"no basis vector {lab!r}; wrong or missing twist")
            v[index[lab]] = coeff
        return v / np.linalg.norm(v)

    fam = twisted.params.get("family")
    if fam in _GRASSMANNIANS:
        if twisted.params.get("p", 0) < 2:
            raise ValueError("the column-twist pair needs p >= 2")
        cols = range(1, twisted.params["m"] + 1)
        plain = [c for c in cols if f"w1c{c}" in index]
        primed = [c for c in cols if f"w1c{c}'" in index]
        if not plain or not primed or max(plain) >= min(primed):
            raise ValueError("need a column split: plain columns then twisted ones")
        i, j = max(plain), min(primed)
        xs = ((f"w1c{i}", 1.0), (f"w1c{j}'", 1.0))
        ys = ((f"w2c{i}", 1.0), (f"w2c{j}'", 1.0))
    elif fam in _WITNESSES:
        param, least, xs, ys = _WITNESSES[fam]
        if twisted.params.get(param, 0) < least:
            raise ValueError(f"the {fam} pair needs {param} >= {least}")
    else:
        raise ValueError(f"no standard positive-curvature pair for family {fam!r}")
    return unit(xs), unit(ys)


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

    def row(name, root, group, u, v, w, col=None):
        """The basis row of the completion of the seed u v w^T, scaled to the
        flat norm-square 1 on a and 2 on n."""
        mat = _seed(field_, size, u, v, w)
        mat = mat - qq * mat.conj().T
        mat = mat / math.sqrt(np.vdot(mat, mat).real / (1 if root is None else 2))
        return name, mat, root, group, col

    ids = np.eye(p, dtype=int)
    rows = [row(f"a{k+1}", None, "a", (1.0, 0.0), {k: 1}, {p + k: 1}) for k in range(p)]
    # omega_k: C = E = u e_k e_c^T
    rows += [row(f"w{k+1}c{c+1}{suf}", ids[k], "W", u, {k: 1, p + k: 1}, {2 * p + c: 1}, c + 1)
             for k in range(p) for c in range(m) for suf, u in units]
    # omega_j - omega_i and omega_j + omega_i, i < j
    for i, j in itertools.combinations(range(p), 2):
        for suf, u in units:
            v = {j: 1, p + j: 1}
            rows += [row(f"m{j+1}{i+1}{suf}", ids[j] - ids[i], "M", u, v, {i: 1, p + i: 1}),
                     row(f"p{j+1}{i+1}{suf}", ids[j] + ids[i], "P", u, v, {i: 1, p + i: -1})]
    # 2 omega_k, imaginary units only; the completion doubles the seed
    rows += [row(f"d{k+1}{suf}", 2 * ids[k], "D2", u, {k: 1, p + k: 1}, {k: 1, p + k: -1})
             for k in range(p) for suf, u in units[1:]]

    expected = d * p * (p - 1) + d * m * p + (d - 1) * p
    if len(rows) - p != expected:
        raise ValueError(f"{tag}: expected dim n = {expected}, built {len(rows) - p}")
    if len(rows) == p:
        raise ValueError(f"{tag} has no restricted roots; need q >= 2")

    if m == 0:
        simple = [tuple(ids[k] - ids[k - 1]) for k in range(1, p)]
        simple.append(tuple(ids[0] + ids[1]) if field_ == "R" else tuple(2 * ids[0]))
    else:
        simple = [tuple(ids[0])] + [tuple(ids[k] - ids[k - 1]) for k in range(1, p)]

    return _assemble(
        tag, rows, simple_roots=simple,
        params={"family": f"{fam}_pq", "p": p, "q": q, "m": m, "field": field_},
    )


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

    def row(name, root, u, v, w):
        """The basis row of the completion of the seed u v w^T; the name of an
        n-vector up to its underscore is its group for the paper twists."""
        mat = _seed("H", n, u, v, w)
        return name, mat - mat.T, root, "a" if root is None else name.split("_")[0], None

    rows = [row(f"a{j}", None, _X, {2 * j - 2: r * 1j}, {2 * j - 1: 1})
            for j in range(1, m + 1)]
    for j, k in itertools.combinations(range(1, m + 1), 2):
        for s, pm in ((1, "+"), (-1, "-")):
            rows += [row(f"{letter}{pm}_{j}{k}", ids[j - 1] + s * ids[k - 1], u, pair(j, v),
                         pair(k, [b * (s if t == col else 1) for t, b in enumerate(w)]))
                     for letter, u, v, w, col in _SO_NH_PAIR]
    # 2 e_k: the completion doubles the diagonal of the seed
    rows += [row(f"G_{k}", 2 * ids[k - 1], _Y, pair(k, (1, -1j)), pair(k, (r / 2, r / 2 * 1j)))
             for k in range(1, m + 1)]
    if n % 2 == 1:
        rows += [row(f"{letter}_{k}", ids[k - 1], u, pair(k, [r * b for b in v]), {n - 1: 1})
                 for k in range(1, m + 1) for letter, u, v in _SO_NH_ODD]

    simple = [tuple(ids[k] - ids[k + 1]) for k in range(m - 1)]
    simple.append(tuple(ids[m - 1] * (2 if n % 2 == 0 else 1)))
    return _assemble(f"so({n},H)", rows, simple_roots=simple,
                     params={"family": "so_nH", "n": n, "m": m})


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

    rows = [(f"a{l+1}", _materialize(field_, n, {(i, i): (x, 0.0) for i, x in enumerate(v)}),
             None, "a", None) for l, v in enumerate(_trace_free_diagonals(n))]
    ids = np.eye(n, dtype=int)
    s2 = math.sqrt(2)
    rows += [(f"{letter}_{j + 1}{k + 1}", _seed(field_, n, u, {j: s2}, {k: 1}),
              tuple(ids[j] - ids[k]), letter, None)
             for j, k in itertools.combinations(range(n), 2) for letter, u in units]
    simple = [tuple(ids[j] - ids[j + 1]) for j in range(n - 1)]
    return _assemble(tag, rows, simple_roots=simple, params={"family": fam, "n": n})


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


# CLI space name -> (builder, names of its size parameters)
SPACES = {
    "so_pq": (build_so_pq, ("p", "q")),
    "su_pq": (build_su_pq, ("p", "q")),
    "sp_pq": (build_sp_pq, ("p", "q")),
    "so_nH": (build_so_nH, ("n",)),
    "sl_nH": (build_sl_nH, ("n",)),
    "type4_sl": (build_type_iv_sl, ("n",)),
    "sl_nR": (build_sl_nR, ("n",)),
}


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
    "r2 L", "-r2 L", "r2/2 L" and "-r2/2 L" for a result label L.  One array
    pass over the n-block finds each cell's constants above 1e-9; a cell with
    two or more is refused, as is an unsnappable one, the first such cell in
    (row, column) order deciding the message.
    """
    alg = rda.base
    n_idx = list(alg.n_indices)
    labels = [alg.labels[i] for i in n_idx]
    cells = alg.c[np.ix_(n_idx, n_idx)].transpose(1, 0, 2)     # cells[y, x] = [X, Y]
    big = np.abs(cells) > 1e-9
    where = big.argmax(axis=2)                  # the first constant above 1e-9
    coeffs = np.take_along_axis(cells, where[:, :, None], axis=2)[:, :, 0].tolist()
    counts, where = big.sum(axis=2).tolist(), where.tolist()
    lines = ["\t".join([""] + labels)]
    for y, ylabel in enumerate(labels):
        row = [ylabel]
        for x, xlabel in enumerate(labels):
            if counts[y][x] == 0:
                row.append("")
            elif counts[y][x] == 1:
                row.append(_render_cell(coeffs[y][x], alg.labels[where[y][x]]))
            else:
                raise ValueError(f"[{xlabel}, {ylabel}] is not a basis monomial")
        lines.append("\t".join(row))
    return "\n".join(lines) + "\n"
