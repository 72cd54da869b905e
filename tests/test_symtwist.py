"""Iwasawa-type algebras of the classical families, sign twists, Einstein
preservation, positive-curvature witnesses, and the GF(2) twist enumeration."""

import itertools
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from solvgeom import symtwist
from solvgeom.algebra import MAX_DIM, validate
from solvgeom.curvature import einstein_verdict, ricci, sectional
from solvgeom.symtwist import (
    TwistAssignment,
    build_sl_nH,
    build_sl_nR,
    build_so_nH,
    build_so_pq,
    build_sp_pq,
    build_su_pq,
    build_type_iv_sl,
    enumerate_twists,
    paper_twist_sl_nH,
    paper_twist_so_nH,
    positive_curvature_witness,
    restricted_height_twist,
    twist,
    twist_closure_check,
    type_iv_twist,
    wa_twist,
)

from conftest import NoNumpy

_CACHE = {}


def space(key):
    if key not in _CACHE:
        builders = {
            "so13": lambda: build_so_pq(1, 3),
            "so22": lambda: build_so_pq(2, 2),
            "so23": lambda: build_so_pq(2, 3),
            "so24": lambda: build_so_pq(2, 4),
            "su13": lambda: build_su_pq(1, 3),
            "sp13": lambda: build_sp_pq(1, 3),
            "so4h": lambda: build_so_nH(4),
            "so5h": lambda: build_so_nH(5),
            "so6h": lambda: build_so_nH(6),
            "sl3h": lambda: build_sl_nH(3),
            "type4": lambda: build_type_iv_sl(3),
            "sl3r": lambda: build_sl_nR(3),
        }
        _CACHE[key] = builders[key]()
    return _CACHE[key]


LAMBDAS = {
    "so13": -1.0,
    "so22": -1.0,
    "so23": -1.5,
    "so24": -2.0,
    "su13": -4.0,
    "sp13": -5.0,
    "so4h": -6.0,
    "so5h": -8.0,
    "so6h": -10.0,
    "sl3h": -12.0,
    "type4": -6.0,
    "sl3r": -3.0,
}


@pytest.mark.parametrize("key", sorted(LAMBDAS))
def test_builds_are_valid_einstein_algebras(key):
    rda = space(key)
    alg = rda.base
    rep = validate(alg)
    assert rep.ok
    assert rep.jacobi_residual <= 1e-10
    assert np.array_equal(alg.gram, np.eye(alg.dim))
    v = einstein_verdict(alg)
    assert v.is_einstein
    assert abs(v.lam - LAMBDAS[key]) <= 1e-10


@pytest.mark.parametrize("key", ["so13", "so23", "so4h", "sl3h", "type4", "sl3r"])
def test_root_decoration_consistent(key):
    # every ad(a_k) is diagonal on the n-block, and the eigenvalue matrix
    # factors through the integer root vectors by one change of basis (the
    # omega-functionals evaluated on the orthonormal a-basis)
    rda = space(key)
    alg = rda.base
    n_idx = list(alg.n_indices)
    eig = np.zeros((len(n_idx), len(alg.a_indices)))
    for t, i in enumerate(n_idx):
        root = rda.root_of(i)
        assert root is not None
        assert all(float(v) == int(v) for v in root)
        for k, ai in enumerate(alg.a_indices):
            col = alg.c[ai, i, :]
            eig[t, k] = col[i]
            off = col.copy()
            off[i] = 0.0
            assert np.max(np.abs(off)) <= 1e-10
    roots = np.array([rda.root_of(i) for i in n_idx], dtype=float)
    omega, *_ = np.linalg.lstsq(roots, eig, rcond=None)
    assert np.max(np.abs(roots @ omega - eig)) <= 1e-10
    assert np.linalg.matrix_rank(omega) == len(alg.a_indices)
    for i in alg.a_indices:
        assert rda.root_of(i) is None


def test_grassmannian_dimensions_and_params():
    assert space("so13").dim == 3
    assert space("so23").dim == 6
    s24 = space("so24")
    assert s24.params["m"] == 2 and s24.params["p"] == 2
    assert space("so22").params["m"] == 0
    assert space("su13").params["field"] == "C"
    assert space("sp13").params["field"] == "H"
    assert space("so6h").params["m"] == 3
    assert space("sl3h").params["n"] == 3


def test_builder_argument_validation():
    with pytest.raises(ValueError):
        build_so_pq(0, 3)
    with pytest.raises(ValueError):
        build_so_pq(3, 2)
    with pytest.raises(ValueError, match="no restricted roots"):
        build_so_pq(1, 1)
    with pytest.raises(ValueError):
        build_so_nH(3)
    with pytest.raises(ValueError):
        build_sl_nH(1)
    with pytest.raises(ValueError):
        build_type_iv_sl(1)
    with pytest.raises(ValueError):
        build_sl_nR(1)


# (builder, largest in-bound arguments, their dim, smallest refused arguments)
LARGEST_IN_BOUND = [
    (build_so_pq, (6, 8), 48, (7, 7)),
    (build_su_pq, (4, 6), 48, (5, 5)),
    (build_sp_pq, (3, 4), 48, (1, 13)),
    (build_so_nH, (7,), 42, (8,)),
    (build_sl_nH, (5,), 44, (6,)),
    (build_type_iv_sl, (7,), 48, (8,)),
    (build_sl_nR, (9,), 44, (10,)),
]


@pytest.mark.parametrize("builder, args, dim, refused", LARGEST_IN_BOUND,
                         ids=[b.__name__ for b, *_ in LARGEST_IN_BOUND])
def test_builders_bounded_by_max_dim(builder, args, dim, refused):
    assert dim <= MAX_DIM
    assert builder(*args).dim == dim
    with pytest.raises(ValueError, match=f"above the largest supported dim {MAX_DIM}"):
        builder(*refused)


def test_builder_bound_refuses_before_allocating(monkeypatch):
    # a huge size is refused by arithmetic alone, before numpy is touched
    monkeypatch.setattr(symtwist, "np", NoNumpy())
    big = 10 ** 6
    for builder, args in ((build_sl_nR, (big,)), (build_so_nH, (big,)),
                          (build_sl_nH, (big,)), (build_type_iv_sl, (big,)),
                          (build_so_pq, (big, big)), (build_su_pq, (3, big)),
                          (build_sp_pq, (1, big))):
        with pytest.raises(ValueError, match="above the largest supported dim"):
            builder(*args)


def test_rank_one_families_still_build():
    # n = 2 gives rank-one algebras: valid and Einstein, just not twistable
    # into anything new
    for rda in (build_sl_nH(2), build_type_iv_sl(2), build_sl_nR(2)):
        assert validate(rda.base).ok
        assert einstein_verdict(rda.base).is_einstein


def test_type_iv_n2_twist_is_trivial():
    # abelian nilradical: the J-twist exists but changes no bracket
    rda = build_type_iv_sl(2)
    a = type_iv_twist(rda)
    tw = twist(rda, a)
    assert np.array_equal(tw.base.c, rda.base.c)


def test_so_1_48_build_memory_bounded():
    # dim 48 from 49 x 49 matrices: _assemble projects the 1128 commutators
    # in blocks, so its memory does not scale with the number of pairs
    tracemalloc.start()
    try:
        build_so_pq(1, 48)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64e6


def hamilton(p, q):
    """Product of quaternions given as (1, i, j, k) coordinates."""
    a1, b1, c1, d1 = p
    a2, b2, c2, d2 = q
    return (a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
            a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
            a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
            a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2)


# root-space units of sl(n, F) in basis order: (letter, index of 1, i, j, k)
SL_UNITS = {
    "R": (("E", 0),),
    "C": (("X", 0), ("JX", 1)),
    "H": (("A", 1), ("B", 3), ("C", 2), ("D", 0)),
}
SL_BUILDERS = {"R": build_sl_nR, "C": build_type_iv_sl, "H": build_sl_nH}


def sl_closed_form(field_, n):
    """Labels, roots and structure constants of the Iwasawa algebra of
    sl(n, F) from the unit multiplication table: [a_l, u_jk] = (v_l[j] -
    v_l[k]) u_jk and [u_jk, w_kl] = sqrt(2) (uw)_jl."""
    units = SL_UNITS[field_]
    v = symtwist._trace_free_diagonals(n)
    labels = [f"a{l + 1}" for l in range(n - 1)]
    roots = [None] * (n - 1)
    index = {}
    for j, k in itertools.combinations(range(n), 2):
        for letter, q in units:
            index[j, k, q] = len(labels)
            labels.append(f"{letter}_{j + 1}{k + 1}")
            roots.append(tuple(int(t == j) - int(t == k) for t in range(n)))
    unit = np.eye(4, dtype=int)
    c = np.zeros((len(labels),) * 3)
    for (j, k, q), x in index.items():
        for l in range(n - 1):
            c[l, x, x] = v[l, j] - v[l, k]
            c[x, l, x] = -c[l, x, x]
        for (k2, m, q2), y in index.items():
            if k2 != k:
                continue
            prod = hamilton(unit[q], unit[q2])
            r = int(np.flatnonzero(prod)[0])
            z = index[j, m, r]
            c[x, y, z] = np.sqrt(2.0) * prod[r]
            c[y, x, z] = -c[x, y, z]
    return tuple(labels), tuple(roots), c


@pytest.mark.parametrize("field_", sorted(SL_UNITS))
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_sl_brackets_match_unit_table(field_, n):
    labels, roots, c = sl_closed_form(field_, n)
    rda = SL_BUILDERS[field_](n)
    assert rda.labels == labels
    assert rda.base.roots == roots
    assert np.max(np.abs(rda.base.c - c)) <= 1e-12


def test_sl_builder_checks_common_norm(monkeypatch):
    # a root vector off the norm of a (here for sl(n,R)) is refused
    monkeypatch.setitem(symtwist._SL_FAMILIES, "R",
                        ("sl({},R)", "sl_nR", (("E", (2.0, 0.0)),)))
    with pytest.raises(ValueError, match="E_12: expected common norm"):
        build_sl_nR(3)


def test_sl3h_bracket_spot_values():
    rda = space("sl3h")
    idx = {lab: i for i, lab in enumerate(rda.labels)}
    c = rda.base.c
    root2 = np.sqrt(2.0)
    # [A_12, A_23] = -sqrt(2) D_13 and [D_12, D_23] = +sqrt(2) D_13
    v = c[idx["A_12"], idx["A_23"], :]
    assert abs(v[idx["D_13"]] + root2) <= 1e-12
    assert np.sum(np.abs(v)) <= root2 + 1e-12
    v = c[idx["D_12"], idx["D_23"], :]
    assert abs(v[idx["D_13"]] - root2) <= 1e-12
    # paper_twist_sl_nH makes A odd, so [A', A'] flips sign: +sqrt(2) D_13
    tw = twist(rda, paper_twist_sl_nH(rda))
    v = tw.base.c[idx["A_12"], idx["A_23"], :]
    assert abs(v[idx["D_13"]] - root2) <= 1e-12


PAPER_TWISTS = {
    "so13": lambda rda: wa_twist(rda, 1),
    "so24": lambda rda: wa_twist(rda, 1),
    "su13": lambda rda: wa_twist(rda, 1),
    "so4h": paper_twist_so_nH,
    "so5h": paper_twist_so_nH,
    "so6h": paper_twist_so_nH,
    "sl3h": paper_twist_sl_nH,
    "type4": type_iv_twist,
}


@pytest.mark.parametrize("key", sorted(PAPER_TWISTS))
def test_paper_twists_closed_and_monomial(key):
    rda = space(key)
    a = PAPER_TWISTS[key](rda)
    rep = twist_closure_check(rda, a)
    assert rep.ok
    assert rep.monomial
    assert any(a.parities)
    assert all(a.parities[i] == 0 for i in rda.a_indices)


@pytest.mark.parametrize("key", sorted(PAPER_TWISTS))
def test_twist_is_exact_involution(key):
    rda = space(key)
    a = PAPER_TWISTS[key](rda)
    once = twist(rda, a)
    twice = twist(once, a)
    assert np.array_equal(twice.base.c, rda.base.c)
    assert twice.labels == rda.labels
    assert twice.tag == rda.tag


def test_twist_toggles_labels_and_tag():
    rda = space("so13")
    a = wa_twist(rda, 1)
    tw = twist(rda, a)
    assert tw.tag == rda.tag + " twisted[wa:1]"
    flipped = [i for i in range(rda.dim) if a.parities[i]]
    assert flipped
    for i in flipped:
        assert tw.labels[i] == rda.labels[i] + "'"
    for i in range(rda.dim):
        if not a.parities[i]:
            assert tw.labels[i] == rda.labels[i]


@pytest.mark.parametrize("key", sorted(PAPER_TWISTS))
def test_einstein_preserved_with_zero_drift(key):
    rda = space(key)
    a = PAPER_TWISTS[key](rda)
    before = einstein_verdict(rda.base, tol=1e-10)
    after = einstein_verdict(twist(rda, a).base, tol=1e-10)
    assert before.is_einstein and after.is_einstein
    assert abs(before.lam - after.lam) == 0.0


@pytest.mark.parametrize("key", ["so13", "so24", "sl3h", "type4"])
def test_ricci_matrix_unchanged_entrywise(key):
    rda = space(key)
    tw = twist(rda, PAPER_TWISTS[key](rda))
    drift = np.max(np.abs(ricci(rda.base) - ricci(tw.base)))
    assert drift <= 1e-10


def test_twist_rejects_parity_violation():
    rda = space("so23")
    # parity 1 on a single n-vector that brackets nontrivially with even ones
    parities = [0] * rda.dim
    target = None
    alg = rda.base
    for i in alg.n_indices:
        for j in alg.n_indices:
            if i < j and np.max(np.abs(alg.c[i, j, :])) > 1e-12:
                target = i
                break
        if target is not None:
            break
    assert target is not None
    parities[target] = 1
    bad = TwistAssignment(parities=tuple(parities), tag="bad")
    assert not twist_closure_check(rda, bad).ok
    with pytest.raises(ValueError):
        twist(rda, bad)


def test_twist_rejects_parity_on_a():
    rda = space("so13")
    parities = [0] * rda.dim
    parities[rda.a_indices[0]] = 1
    with pytest.raises(ValueError):
        twist_closure_check(rda, TwistAssignment(parities=tuple(parities)))


def test_wa_twist_validation():
    with pytest.raises(ValueError):
        wa_twist(space("so13"), 2)       # m = 2: only a = 1 valid
    with pytest.raises(ValueError):
        wa_twist(space("so22"), 1)       # m = 0: no column split
    with pytest.raises(ValueError):
        wa_twist(space("so4h"), 1)       # not a Grassmannian family
    a = wa_twist(space("so24"), 1)
    assert a.tag == "wa:1"


WITNESS_K = {
    "so24": 0.25,
    "so6h": 0.5,
    "sl3h": 1.0,
    "type4": 1.0,
}


@pytest.mark.parametrize("key", sorted(WITNESS_K))
def test_positive_curvature_witnesses(key):
    rda = space(key)
    tw = twist(rda, PAPER_TWISTS[key](rda))
    x, y = positive_curvature_witness(tw)
    alg = tw.base
    assert abs(alg.norm(x) - 1.0) <= 1e-12
    assert abs(alg.norm(y) - 1.0) <= 1e-12
    assert abs(alg.inner(x, y)) <= 1e-12
    br = alg.bracket(x, y)
    assert np.max(np.abs(br)) == 0.0
    k = sectional(alg, x, y)
    assert abs(k - WITNESS_K[key]) <= 1e-10
    # the same plane is nonpositively curved before the twist
    k0 = sectional(rda.base, x, y)
    assert k0 <= 1e-12


def test_witness_requires_suitable_space():
    with pytest.raises(ValueError):
        positive_curvature_witness(twist(space("so13"), wa_twist(space("so13"), 1)))
    with pytest.raises(ValueError):
        positive_curvature_witness(space("so24"))  # untwisted: no primed labels


def test_restricted_height_twists_closed_everywhere():
    for key in ("so13", "so22", "so23", "so4h", "sl3h", "type4", "sl3r"):
        rda = space(key)
        k = len(rda.simple_roots)
        for subset in ([], [0], list(range(k))):
            a = restricted_height_twist(rda, subset)
            assert twist_closure_check(rda, a).ok
        assert not any(restricted_height_twist(rda, []).parities)


def test_restricted_height_twist_validates_subset():
    rda = space("so23")
    with pytest.raises(ValueError):
        restricted_height_twist(rda, [99])


def rh_parity_set(rda):
    k = len(rda.simple_roots)
    out = set()
    for size in range(k + 1):
        for subset in itertools.combinations(range(k), size):
            out.add(restricted_height_twist(rda, subset).parities)
    return out


@pytest.mark.parametrize("key", ["so22", "so23", "sl3r"])
def test_enumeration_matches_height_twists(key):
    rda = space(key)
    sols = {a.parities for a in enumerate_twists(rda)}
    rh = rh_parity_set(rda)
    assert rh <= sols
    assert sols == rh


def test_enumeration_group_structure():
    rda = space("so13")
    sols = [a.parities for a in enumerate_twists(rda)]
    as_set = {s for s in sols}
    assert tuple([0] * rda.dim) in as_set
    # closed under XOR
    for a in sols:
        for b in sols:
            c = tuple(x ^ y for x, y in zip(a, b))
            assert c in as_set
    # the wa:1 assignment is one of the solutions
    assert wa_twist(rda, 1).parities in as_set


def test_enumeration_contains_paper_twist_so24():
    rda = space("so24")
    sols = {a.parities for a in enumerate_twists(rda)}
    assert wa_twist(rda, 1).parities in sols
    # every enumerated assignment is closed
    for a in enumerate_twists(rda):
        assert twist_closure_check(rda, a).ok


def test_twisted_algebra_still_valid_but_curvature_changes():
    rda = space("so24")
    tw = twist(rda, wa_twist(rda, 1))
    rep = validate(tw.base)
    assert rep.ok and rep.jacobi_residual <= 1e-10
    # structure constants differ from the original on the odd-odd block
    assert np.max(np.abs(tw.base.c - rda.base.c)) > 0.1


def assembly_inputs(monkeypatch, builder, *params):
    """The matrices and decoration a builder hands to _assemble."""
    captured = {}
    assemble = symtwist._assemble

    def capture(*args, **kwargs):
        captured["args"], captured["kwargs"] = list(args), kwargs
        return assemble(*args, **kwargs)

    monkeypatch.setattr(symtwist, "_assemble", capture)
    builder(*params)
    return captured["args"], captured["kwargs"]


def test_assemble_rejects_non_orthogonal_basis(monkeypatch):
    args, kwargs = assembly_inputs(monkeypatch, build_so_pq, 2, 4)
    n_mats = list(args[3])
    n_mats[1] = n_mats[0] + n_mats[1]
    args[3] = n_mats
    with pytest.raises(ValueError, match="basis is not orthogonal"):
        symtwist._assemble(*args, **kwargs)


def test_assemble_rejects_bracket_leaving_the_span(monkeypatch):
    args, kwargs = assembly_inputs(monkeypatch, build_so_pq, 2, 4)
    tag, a_mats, a_names, n_mats, n_names, n_roots, n_cols, n_groups = args
    drop = n_names.index("p21")     # [w1c1, w2c1] lands on p21
    keep = [t for t in range(len(n_names)) if t != drop]
    pick = lambda seq: [seq[t] for t in keep]
    with pytest.raises(ValueError, match=r"\[w1c1, w2c1\] leaves the span"):
        symtwist._assemble(tag, a_mats, a_names, pick(n_mats), pick(n_names),
                           pick(n_roots), pick(n_cols), pick(n_groups), **kwargs)


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_so_nH_matrices_satisfy_so_star_relations(monkeypatch, n):
    # so(n, H) = so*(2n) = {M : M^T = -M, M J = J conj(M)} in gl(2n, C),
    # with J = [[0, I], [-I, 0]]; both relations hold exactly
    args, _ = assembly_inputs(monkeypatch, build_so_nH, n)
    mats = np.array(list(args[1]) + list(args[3]))
    assert mats.shape[1:] == (2 * n, 2 * n)
    eye, zero = np.eye(n), np.zeros((n, n))
    j = np.block([[zero, eye], [-eye, zero]])
    for mat in mats:
        assert np.array_equal(mat.T, -mat)
        assert np.array_equal(mat @ j, j @ np.conj(mat))


@pytest.mark.parametrize("n", [6, 7])
def test_so_nH_rank_three_tables_match_data(n):
    # the shipped goldens stop at so(5,H); these pin rank 3 byte for byte
    expected = (Path(__file__).parent / "data" / f"so{n}h_brackets.tsv").read_bytes()
    assert symtwist.bracket_table(build_so_nH(n)).encode() == expected


GRASSMANNIANS = {"R": build_so_pq, "C": build_su_pq, "H": build_sp_pq}
GRASSMANNIAN_SIZES = [
    (field, p, q)
    for field, d in (("R", 1), ("C", 2), ("H", 4))
    for p in range(1, 5)
    for q in range(max(p, 2), 7)
    if d * p * q <= MAX_DIM
]


@pytest.mark.parametrize("field, p, q", GRASSMANNIAN_SIZES)
def test_grassmannian_matrices_satisfy_defining_relations(monkeypatch, field, p, q):
    # so/su/sp(p, q) = {M : M Q + Q M^H = 0} with Q = diag(-I_p, I_q), plus
    # tr M = 0 for su and M J = J conj(M) for sp on the quaternionic embedding
    # (J = [[0, I], [-I, 0]]); every relation holds exactly
    args, _ = assembly_inputs(monkeypatch, GRASSMANNIANS[field], p, q)
    mats = np.array(list(args[1]) + list(args[3]))
    n = p + q
    form = np.diag([-1.0] * p + [1.0] * q)
    if field == "H":
        form = np.kron(np.eye(2), form)
        eye, zero = np.eye(n), np.zeros((n, n))
        j = np.block([[zero, eye], [-eye, zero]])
    assert mats.shape == (len(mats), len(form), len(form))
    assert (field == "R") == np.isrealobj(mats)
    for mat in mats:
        assert np.array_equal(mat @ form + form @ np.conj(mat).T, np.zeros_like(mat))
        if field == "C":
            assert np.trace(mat) == 0
        if field == "H":
            assert np.array_equal(mat @ j, j @ np.conj(mat))


@pytest.mark.parametrize("field, p, q", [("R", 3, 4), ("C", 2, 4), ("C", 3, 3),
                                         ("H", 1, 3), ("H", 2, 2)])
def test_grassmannian_tables_match_data(field, p, q):
    name = {"R": "so", "C": "su", "H": "sp"}[field] + f"{p}{q}_brackets.tsv"
    expected = (Path(__file__).parent / "data" / name).read_bytes()
    assert symtwist.bracket_table(GRASSMANNIANS[field](p, q)).encode() == expected


SL_SIZES = [(field, n) for field, top in (("R", 9), ("C", 7), ("H", 5))
            for n in range(2, top + 1)]


@pytest.mark.parametrize("field, n", SL_SIZES)
def test_sl_matrices_are_trace_free_diagonal_and_upper_triangular(monkeypatch, field, n):
    # a is the real diagonal of trace 0 and every root vector is strictly upper
    # triangular, in each n x n block of the embedding; over H, M J = J conj(M)
    # with J = [[0, I], [-I, 0]]; every relation holds exactly
    args, _ = assembly_inputs(monkeypatch, SL_BUILDERS[field], n)
    a_mats, n_mats = np.array(args[1]), np.array(args[3])
    size = 2 * n if field == "H" else n
    assert a_mats.shape == (n - 1, size, size)
    assert n_mats.shape == (len(SL_UNITS[field]) * n * (n - 1) // 2, size, size)
    assert (field == "R") == np.isrealobj(a_mats) == np.isrealobj(n_mats)
    blocks = [(r, c) for r in range(0, size, n) for c in range(0, size, n)]
    for mat in a_mats:
        assert np.array_equal(mat, np.diag(np.diag(mat).real))
        assert np.trace(mat[:n, :n]) == 0
    for mat in n_mats:
        for r, c in blocks:
            block = mat[r:r + n, c:c + n]
            assert np.array_equal(block, np.triu(block, 1))
    if field == "H":
        eye, zero = np.eye(n), np.zeros((n, n))
        j = np.block([[zero, eye], [-eye, zero]])
        for mat in np.concatenate([a_mats, n_mats]):
            assert np.array_equal(mat @ j, j @ np.conj(mat))
