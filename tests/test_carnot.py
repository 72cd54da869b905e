"""Uniform subspaces of so(r): search, the so(4) criterion and classification,
equivalence invariants, and the Einstein conditions on data triples."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from solvgeom import carnot
from solvgeom.carnot import (
    DataTriple,
    UniformSubspaceCandidate,
    build_solvmanifold,
    centralizer,
    classify_uniform_so4,
    complement_uniform,
    complex_hyperbolic_triple,
    einstein_conditions,
    is_uniform,
    random_triple,
    real_hyperbolic_triple,
    search_uniform,
    so4_criterion,
    so4_split_basis,
    so_basis,
    so_gram,
)
from solvgeom.carnot import (
    _classes,
    _commutator_map,
    _defect,
    _descend,
    _equivalence_invariants,
    _riemannian_grad,
)
from solvgeom.curvature import einstein_verdict
from solvgeom.so6family import W_of

from conftest import SEED
from oracles import (
    _fingerprints_match,
    build_solvmanifold_sparse,
    classes_greedy,
    commutator_map_einsum,
    defect_einsum,
    equivalence_invariants,
    j_from_brackets,
    j_of,
    riemannian_grad_einsum,
    so_inner,
)


def test_so_basis_orthonormal():
    for r in (3, 4, 6):
        basis = so_basis(r)
        d = r * (r - 1) // 2
        assert basis.shape == (d, r, r)
        gram = np.array([[so_inner(a, b) for b in basis] for a in basis])
        assert np.allclose(gram, np.eye(d), atol=1e-12)


def test_so_basis_sums_to_multiple_of_identity():
    # sum of squares over the full basis: -(r-1) r/2 Id = -dim so(r) Id
    for r in (3, 4, 5):
        basis = so_basis(r)
        ss = np.einsum("aij,ajk->ik", basis, basis)
        assert np.allclose(ss, -basis.shape[0] * np.eye(r), atol=1e-12)


def test_data_triple_rejects_non_skew():
    with pytest.raises(ValueError):
        DataTriple(2, 1, np.ones((1, 2, 2)))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_data_triple_rejects_non_finite(bad):
    # a NaN skew defect compares False against the skew tolerance
    j = np.array([[[0.0, bad], [-bad, 0.0]]])
    with pytest.raises(ValueError, match="finite"):
        DataTriple(2, 1, j)


def test_j_of_is_linear_combination():
    rng = np.random.default_rng(0)
    triple = random_triple(4, 3, rng)
    z = rng.standard_normal(3)
    expect = sum(z[a] * triple.j_mats[a] for a in range(3))
    assert np.allclose(j_of(triple, z), expect, atol=1e-13)


def test_brackets_round_trip():
    rng = np.random.default_rng(1)
    for (r, s) in ((2, 1), (4, 2), (5, 3)):
        triple = random_triple(r, s, rng)
        alg = build_solvmanifold(triple)
        back = j_from_brackets(alg)
        assert back.r == r and back.s == s
        assert np.allclose(back.j_mats, triple.j_mats, atol=1e-13)


def test_solvmanifold_layout():
    alg = build_solvmanifold(complex_hyperbolic_triple(2))
    assert alg.labels == ("A", "X1", "X2", "Z1")
    assert alg.a_indices == (0,)
    assert alg.n_indices == (1, 2, 3)
    # [A, X] = X/2, [A, Z] = Z
    assert alg.c[0, 1, 1] == 0.5
    assert alg.c[0, 3, 3] == 1.0


def test_build_matches_sparse_reference():
    # the tensor written straight from J is, bit for bit, the one filled in
    # from one sparse entry per nonzero bracket
    from perfbench.workloads import _generating_triples
    triples = [complex_hyperbolic_triple(n) for n in (2, 3, 4, 5)]
    triples.append(real_hyperbolic_triple(2))  # r = 1, s = 0: no brackets in n
    for seed in range(1, 9):
        triples += _generating_triples(np.random.default_rng(seed))
    for triple in triples:
        alg, ref = build_solvmanifold(triple), build_solvmanifold_sparse(triple)
        assert alg.c.tobytes() == ref.c.tobytes()
        assert (alg.labels, alg.a_indices, alg.n_indices) == (
            ref.labels, ref.a_indices, ref.n_indices)


def test_build_writes_no_signed_zero():
    # exact 0.0 and -0.0 in J, on both sides of the diagonal
    j = np.array([[[0.0, 0.0, -2.0], [-0.0, 0.0, -0.0], [2.0, 0.0, -0.0]],
                  [[-0.0, -0.0, 0.0], [0.0, -0.0, 0.0], [-0.0, -0.0, 0.0]]])
    triple = DataTriple(3, 2, j)
    c = build_solvmanifold(triple).c
    assert c.tobytes() == build_solvmanifold_sparse(triple).c.tobytes()
    assert not np.signbit(c[c == 0.0]).any()


def test_einstein_conditions_model_spaces():
    assert complex_hyperbolic_triple(3) is not None
    for triple in (complex_hyperbolic_triple(2), complex_hyperbolic_triple(4)):
        cond = einstein_conditions(triple)
        assert cond.max_residual <= 1e-14
    rng = np.random.default_rng(2)
    cond = einstein_conditions(random_triple(4, 2, rng))
    assert cond.max_residual > 1e-3


def test_einstein_conditions_s_zero():
    cond = einstein_conditions(DataTriple(3, 0, np.zeros((0, 3, 3))))
    assert cond.max_residual == 0.0


def test_conditions_equivalent_to_verdict():
    # the two residuals vanish iff the 1+r+s extension is Einstein
    rng = np.random.default_rng(SEED)
    cases = []
    cases.append(complex_hyperbolic_triple(2))
    cases.append(random_triple(4, 2, rng, einstein=True))
    for _ in range(6):
        cases.append(random_triple(4, 2, rng))
        cases.append(random_triple(3, 1, rng))
    for triple in cases:
        cond = einstein_conditions(triple).max_residual <= 1e-9
        verdict = einstein_verdict(build_solvmanifold(triple)).is_einstein
        assert cond == verdict


def test_is_uniform_on_known_families():
    left, right = so4_split_basis()
    assert is_uniform(left)                      # L(i), L(j), L(k)
    assert is_uniform(left[:2])                  # L(i), L(j)
    assert is_uniform(np.array([left[0], right[0]]))
    assert is_uniform(left[0])                   # single complex structure
    mixed = (left[0] + right[0]) / np.sqrt(2.0)
    assert not is_uniform(mixed[None])


def test_so4_split_basis_properties():
    left, right = so4_split_basis()
    both = np.concatenate([left, right])
    gram = np.array([[so_inner(a, b) for b in both] for a in both])
    assert np.allclose(gram, np.eye(6), atol=1e-12)
    # left and right multiplications commute and are complex structures
    for a in left:
        assert np.allclose(a @ a, -np.eye(4), atol=1e-12)
        for b in right:
            assert np.allclose(a @ b, b @ a, atol=1e-12)
    # quaternion relations on each side
    assert np.allclose(left[0] @ left[1], left[2], atol=1e-12)
    assert np.allclose(right[0] @ right[1], -right[2], atol=1e-12)


def test_so4_criterion_matches_is_uniform():
    left, right = so4_split_basis()
    res, ok = so4_criterion(left[:2])
    assert ok and res <= 1e-14
    res, ok = so4_criterion(np.array([left[0], right[0]]))
    assert ok and res <= 1e-14
    mixed = (left[0] + right[0]) / np.sqrt(2.0)
    res, ok = so4_criterion(mixed[None])
    assert not ok and res > 0.1
    rng = np.random.default_rng(3)
    for _ in range(20):
        raw = rng.standard_normal((2, 4, 4))
        mats = raw - np.transpose(raw, (0, 2, 1))
        # normalize to an orthonormal pair so both tests apply
        from solvgeom.carnot import _orthonormalize_family

        onb = _orthonormalize_family(mats)
        assert so4_criterion(onb)[1] == is_uniform(onb)


def test_so4_criterion_rejects_wrong_size():
    with pytest.raises(ValueError):
        so4_criterion(np.zeros((1, 3, 3)))


def test_complement_uniform_duality():
    left, right = so4_split_basis()
    comp = complement_uniform(left[:2])
    assert comp.shape[0] == 4
    assert is_uniform(comp)
    # complement of the complement spans the original subspace
    back = complement_uniform(comp)
    fp_a = equivalence_invariants(left[:2])
    fp_b = equivalence_invariants(back)
    assert fp_a[2] == fp_b[2]
    assert np.allclose(fp_a[0], fp_b[0], atol=1e-10)
    assert np.allclose(fp_a[1], fp_b[1], atol=1e-10)


def centralizer_dimension(mats, tol=1e-8):
    """dim of {b in so(r): [b, a_i] = 0 for all i}."""
    return centralizer(mats, tol)[0]


def test_centralizer_dimensions_of_model_families():
    left, right = so4_split_basis()
    assert centralizer_dimension(left) == 3       # all of the right side
    assert centralizer_dimension(left[:2]) == 3
    assert (
        centralizer_dimension(np.array([left[0], right[0]])) == 2
    )  # span of the pair itself


def test_fingerprints_of_so4_families():
    left, right = so4_split_basis()
    eig1, eig2, cdim = equivalence_invariants(left[:2])
    assert np.allclose(eig1, -2.0, atol=1e-10)
    assert np.allclose(eig2, 4.0, atol=1e-10)
    assert cdim == 3
    eig1, eig2, cdim = equivalence_invariants(np.array([left[0], right[0]]))
    assert np.allclose(eig2, 0.0, atol=1e-10)
    assert cdim == 2
    eig1, eig2, cdim = equivalence_invariants(left)
    assert np.allclose(eig1, -3.0, atol=1e-10)
    assert np.allclose(eig2, 12.0, atol=1e-10)
    assert cdim == 3


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=15, deadline=None)
def test_fingerprint_invariant_under_equivalence(seed):
    # conjugating by O in SO(4) and remixing the spanning set leaves the
    # fingerprint unchanged
    rng = np.random.default_rng(seed)
    left, right = so4_split_basis()
    mats = left[:2]
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    mix = rng.standard_normal((2, 2)) + 2.0 * np.eye(2)
    moved = np.einsum("ab,bij->aij", mix, np.einsum("pi,aij,jq->apq", q.T, mats, q))
    fa = equivalence_invariants(mats)
    fb = equivalence_invariants(moved)
    assert fa[2] == fb[2]
    assert np.allclose(fa[0], fb[0], atol=1e-8)
    assert np.allclose(fa[1], fb[1], atol=1e-8)


def test_search_uniform_finds_known_solutions():
    # r = 2, s = 1: the standard complex structure
    cand = search_uniform(2, 1, restarts=3, seed=SEED)
    assert cand.residual <= 1e-10
    # r = 3, s = 3: all of so(3)
    cand = search_uniform(3, 3, restarts=5, seed=SEED)
    assert cand.residual <= 1e-10
    assert is_uniform(cand.matrices)
    cond = einstein_conditions(
        DataTriple(3, 3, cand.matrices)
    )
    assert cond.max_residual <= 1e-8


def test_search_uniform_rejects_bad_dimensions():
    with pytest.raises(ValueError):
        search_uniform(3, 4)
    with pytest.raises(ValueError):
        search_uniform(3, 0)
    # d = r(r-1)/2 is positive for negative r, so the s check alone lets r < 2 through
    for r in (1, 0, -1, -2):
        with pytest.raises(ValueError, match="--r >= 2"):
            search_uniform(r, 1)
    with pytest.raises(ValueError, match="above"):
        search_uniform(40, 8)


def test_search_uniform_needs_a_restart():
    with pytest.raises(ValueError, match="restart"):
        search_uniform(4, 2, restarts=0)


def test_classify_so4_needs_a_trial():
    for trials in (0, -1):
        with pytest.raises(ValueError, match="--trials >= 1"):
            classify_uniform_so4(1, trials=trials)


def test_search_uniform_deterministic_given_seed():
    a = search_uniform(4, 2, restarts=4, seed=123)
    b = search_uniform(4, 2, restarts=4, seed=123)
    assert np.array_equal(a.coords, b.coords)
    assert a.objective == b.objective


def test_classify_so4_small_cases():
    classes = classify_uniform_so4(1, trials=40, seed=SEED)
    assert len(classes) == 1
    fp, count, rep = classes[0]
    assert count > 0
    assert is_uniform(rep)
    classes = classify_uniform_so4(6, trials=5, seed=SEED)
    assert len(classes) == 1  # the whole algebra
    assert classes[0][0][2] == 0  # trivial centralizer


def test_classify_counts_match_complement_duality():
    classes_2 = classify_uniform_so4(2, trials=120, seed=SEED)
    classes_4 = classify_uniform_so4(4, trials=120, seed=SEED)
    assert len(classes_2) == len(classes_4) == 2
    # complements of s=2 representatives realize the s=4 fingerprints
    fps4 = [fp for fp, _, _ in classes_4]
    for fp, _, rep in classes_2:
        comp_fp = equivalence_invariants(complement_uniform(rep))
        assert any(
            comp_fp[2] == f[2]
            and np.allclose(comp_fp[0], f[0], atol=1e-6)
            and np.allclose(comp_fp[1], f[1], atol=1e-6)
            for f in fps4
        )


def test_random_triple_einstein_flag():
    rng = np.random.default_rng(SEED)
    triple = random_triple(4, 2, rng, einstein=True)
    assert einstein_conditions(triple).max_residual <= 1e-8
    triple = random_triple(4, 2, rng)
    skew = triple.j_mats + np.transpose(triple.j_mats, (0, 2, 1))
    assert np.max(np.abs(skew)) <= 1e-12


# --- the lockstep descent against the one-start-at-a-time loop ----------------


def descend_reference(basis, x, s, max_iter=4000):
    """The descent one start at a time, as it ran before the lockstep batch."""
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


def search_reference(r, s, restarts=200, seed=0, rng=None):
    """The restart loop one start at a time; also returns how many restarts ran."""
    d = r * (r - 1) // 2
    basis = so_basis(r)
    if rng is None:
        rng = np.random.default_rng(seed)
    best = None
    used = 0
    for _ in range(restarts):
        used += 1
        x0, _ = np.linalg.qr(rng.standard_normal((d, s)))
        x, alpha, dft, h = descend_reference(basis, x0, s)
        res = float(np.max(np.abs(dft)))
        if best is None or h < best.objective:
            best = UniformSubspaceCandidate(
                r=r, s=s, coords=x, matrices=alpha, residual=res, objective=h
            )
            if best.objective < 1e-26:
                break
    return best, used


def classify_reference(s, trials, seed):
    """Classes from one single-restart search per trial, clustered in order."""
    rng = np.random.default_rng(seed)
    classes = []
    for _ in range(trials):
        cand, _ = search_reference(4, s, restarts=1, rng=rng)
        if cand.residual > 1e-8:
            continue
        fp = equivalence_invariants(cand.matrices)
        for entry in classes:
            if _fingerprints_match(entry[0], fp):
                entry[1] += 1
                break
        else:
            classes.append([fp, 1, cand.matrices])
    return classes


def _same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _kernel_cases():
    """(basis, s, x) for every r in 3..6, s up to min(d, 6) and stacks of 1, 2,
    9 and 300 starts; the 1e3-scaled so(4) basis; and strided stacks."""
    rng = np.random.default_rng(SEED)
    for r in range(3, 7):
        d = r * (r - 1) // 2
        for s in range(1, min(d, 6) + 1):
            for n in (1, 2, 9, 300):
                yield so_basis(r), s, np.linalg.qr(rng.standard_normal((n, d, s)))[0]
    for s in (1, 2, 6):
        yield 1e3 * so_basis(4), s, np.linalg.qr(rng.standard_normal((9, 6, s)))[0]
    x = np.linalg.qr(rng.standard_normal((18, 10, 3)))[0]
    yield so_basis(5), 3, x[::-2]
    yield so_basis(5), 3, np.asfortranarray(x)


def test_kernels_equal_the_einsum_forms_bit_for_bit():
    # the start-axis-last einsums and the alpha matmul sum each entry in the
    # einsum's order, signed zeros included, and return C-contiguous stacks
    for basis, s, x in _kernel_cases():
        target = s * np.eye(basis.shape[1])
        alpha, dft = _defect(basis, x, target)
        alpha_ref, dft_ref = defect_einsum(basis, x, target)
        assert _same_bits(alpha, alpha_ref) and _same_bits(dft, dft_ref)
        grad = _riemannian_grad(basis, x, alpha, dft)
        assert _same_bits(grad, riemannian_grad_einsum(basis, x, alpha_ref, dft_ref))
        assert alpha.flags.c_contiguous and dft.flags.c_contiguous and grad.flags.c_contiguous


LOCKSTEP_PAIRS = [(3, 1), (3, 2), (5, 1), (5, 2), (4, 2), (6, 3), (3, 3)]


@pytest.mark.parametrize("r, s", LOCKSTEP_PAIRS)
def test_lockstep_descent_matches_reference_per_start(r, s):
    # every start of a stack ends bit for bit where it ends alone, whatever
    # the stack size
    d = r * (r - 1) // 2
    basis = so_basis(r)
    x0, _ = np.linalg.qr(np.random.default_rng(SEED + r * s).standard_normal((9, d, s)))
    ref = [descend_reference(basis, x, s) for x in x0]
    for n in (1, 4, 9):
        got = _descend(basis, x0[:n], s)
        for i in range(n):
            for k in range(3):
                assert np.array_equal(got[k][i], ref[i][k])
            assert got[3][i] == ref[i][3]


def test_lockstep_descent_respects_max_iter():
    basis = so_basis(5)
    x0, _ = np.linalg.qr(np.random.default_rng(SEED).standard_normal((6, 10, 2)))
    for max_iter in (0, 1, 7):
        got = _descend(basis, x0, 2, max_iter=max_iter)
        for i, x in enumerate(x0):
            ref = descend_reference(basis, x, 2, max_iter=max_iter)
            assert np.array_equal(got[0][i], ref[0]) and got[3][i] == ref[3]


def test_a_step_accepted_in_the_last_block_of_trials_goes_on():
    # with the basis scaled by 1e3 the unit first step is ~1e12 too long, so
    # each start takes its first step at a trial above 32, in the block that
    # ends the 60; the start must then go on, not stop as a failed search
    basis = 1e3 * so_basis(4)
    x0, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((4, 6, 2)))
    got = _descend(basis, x0, 2, max_iter=3)
    for i, x in enumerate(x0):
        ref = descend_reference(basis, x, 2, max_iter=3)
        assert np.array_equal(got[0][i], ref[0]) and got[3][i] == ref[3]
    assert not np.array_equal(got[0][0], _descend(basis, x0[:1], 2, max_iter=1)[0][0])

def test_a_hit_stops_the_later_starts_of_its_stack():
    # start 0 lies next to the uniform pair L(i), L(j) and hits first; the
    # random starts after it would hit too if they ran on
    left, _ = so4_split_basis()
    basis = so_basis(4)
    rng = np.random.default_rng(0)
    near, _ = np.linalg.qr(so_gram(left[:2], basis).T + 1e-3 * rng.standard_normal((6, 2)))
    rand, _ = np.linalg.qr(rng.standard_normal((5, 6, 2)))
    x0 = np.concatenate([near[None], rand])
    cut = _descend(basis, x0, 2, until_hit=True)
    full = _descend(basis, x0, 2)
    assert np.array_equal(cut[0][0], full[0][0]) and cut[3][0] < 1e-26
    assert np.all(full[3][1:] < 1e-26)
    assert np.all(cut[3][1:] >= 1e-26)



@pytest.mark.parametrize("r, s", LOCKSTEP_PAIRS)
def test_until_hit_matches_reference_up_to_the_first_hit(r, s):
    # a hit stops only the starts after it; every start up to and including
    # the first hit ends bit for bit where it ends alone
    d = r * (r - 1) // 2
    basis = so_basis(r)
    x0, _ = np.linalg.qr(np.random.default_rng(SEED + r * s).standard_normal((9, d, s)))
    ref = [descend_reference(basis, x, s) for x in x0]
    for n in (1, 4, 9):
        hits = [i for i in range(n) if ref[i][3] < 1e-26]
        got = _descend(basis, x0[:n], s, until_hit=True)
        for i in range(hits[0] + 1 if hits else n):
            for k in range(3):
                assert np.array_equal(got[k][i], ref[i][k])
            assert got[3][i] == ref[i][3]

@pytest.mark.parametrize("r, s", LOCKSTEP_PAIRS)
@pytest.mark.parametrize("seed", [0, 1, SEED])
def test_search_uniform_matches_reference(r, s, seed):
    got = search_uniform(r, s, restarts=30, seed=seed)
    ref, _ = search_reference(r, s, restarts=30, seed=seed)
    assert np.array_equal(got.coords, ref.coords)
    assert np.array_equal(got.matrices, ref.matrices)
    assert got.residual == ref.residual
    assert got.objective == ref.objective


@pytest.mark.parametrize("s", range(1, 7))
def test_classify_so4_matches_reference(s):
    got = classify_uniform_so4(s, trials=40, seed=SEED)
    ref = classify_reference(s, trials=40, seed=SEED)
    assert [count for _, count, _ in got] == [count for _, count, _ in ref]
    for (fp, _, rep), (fp_ref, _, rep_ref) in zip(got, ref):
        assert fp == fp_ref
        assert np.array_equal(rep, rep_ref)


def test_batched_fingerprints_equal_per_family():
    rng = np.random.default_rng(SEED)
    left, right = so4_split_basis()
    for s in range(1, 7):
        raw = rng.standard_normal((5, s, 4, 4))
        fams = raw - np.transpose(raw, (0, 1, 3, 2))
        if s == 2:
            fams = np.concatenate([fams, [left[:2], [left[0], right[0]]]])
        eig1, eig2, cdim = _equivalence_invariants(fams)
        for k, mats in enumerate(fams):
            assert equivalence_invariants(mats) == (tuple(eig1[k]), tuple(eig2[k]), cdim[k])



def _random_families(rng, shape, r):
    raw = rng.standard_normal(shape + (r, r))
    return raw - np.swapaxes(raw, -1, -2)


def test_commutator_map_equals_the_einsum_form():
    # each product entry is one term, so the matmul map is the einsum map bit for bit
    rng = np.random.default_rng(SEED)
    points = rng.standard_normal((300, 3))
    w = np.array([W_of(*p) for p in points / np.linalg.norm(points, axis=1)[:, None]])
    families = [w, w[0], w.reshape(20, 15, 3, 6, 6)]
    families += [_random_families(rng, shape, 4)
                 for shape in ((1,), (6,), (200, 2), (5, 3, 4), (7, 6))]
    for mats in families:
        basis = so_basis(mats.shape[-1])
        got = _commutator_map(mats, basis)
        s, r = mats.shape[-3], mats.shape[-1]
        assert got.shape == mats.shape[:-3] + (basis.shape[0], s * r * r)
        assert np.array_equal(got, commutator_map_einsum(mats, basis))


def test_classes_equal_the_greedy_loop_at_the_tolerance():
    # spectra 1e-6 apart, give or take one ulp: matches are not transitive
    # there, so the classes depend on the order the loop visits them in
    tol = 1e-6
    steps = np.array([0.0, tol, np.nextafter(tol, 0.0), np.nextafter(tol, 1.0),
                      2 * tol, np.nextafter(2 * tol, 0.0), np.nextafter(2 * tol, 1.0)])
    rng = np.random.default_rng(SEED)
    for base in (0.0, 0.25, 3.0):
        for _ in range(20):
            count = 60
            eig1 = base + rng.choice(steps, size=(count, 4)) * rng.integers(0, 2, (count, 4))
            eig2 = base + rng.choice(steps, size=(count, 4)) * (rng.random((count, 4)) < 0.3)
            cdim = rng.integers(1, 3, count)
            fps = [(tuple(eig1[k]), tuple(eig2[k]), int(cdim[k])) for k in range(count)]
            ref = classes_greedy(fps)
            got = _classes(eig1, eig2, cdim)
            assert [(int(k), n) for k, n in got] == [tuple(entry) for entry in ref]
            assert sum(n for _, n in got) == count
    assert _classes(np.zeros((0, 4)), np.zeros((0, 4)), np.zeros(0, dtype=int)) == []


# --- counted work ---------------------------------------------------------------


@pytest.fixture
def descend_sizes(monkeypatch):
    """Records the number of starts of every _descend call."""
    sizes = []

    def recording(basis, x, s, **kwargs):
        sizes.append(x.shape[0])
        return _descend(basis, x, s, **kwargs)

    monkeypatch.setattr(carnot, "_descend", recording)
    return sizes


def test_early_hit_bounds_the_starts_descended(descend_sizes):
    # chunks of 1, 2, 4, ... starts: a hit at reference index k costs at most
    # 2(k + 1) descents, not all the restarts
    ref, used = search_reference(6, 3, restarts=200, seed=0)
    got = search_uniform(6, 3, restarts=200, seed=0)
    assert ref.objective < 1e-26 and used < 200
    assert np.array_equal(got.coords, ref.coords)
    assert sum(descend_sizes) <= 2 * used
    assert descend_sizes == [2 ** k for k in range(len(descend_sizes))]


def test_shared_rng_advances_to_the_end_of_the_hit_chunk(descend_sizes):
    rng = np.random.default_rng(0)
    search_uniform(6, 3, restarts=200, rng=rng)
    drawn = np.random.default_rng(0)
    drawn.standard_normal((sum(descend_sizes), 15, 3))
    assert rng.standard_normal() == drawn.standard_normal()


def test_nonexistence_search_descends_every_restart_once(descend_sizes):
    search_uniform(3, 1, restarts=50, seed=SEED)
    assert descend_sizes == [1, 2, 4, 8, 16, 19]


def test_classify_batches_are_capped(descend_sizes):
    # memory of one lockstep batch does not grow with the number of trials
    classes = classify_uniform_so4(1, trials=5000, seed=SEED)
    assert len(classes) == 1
    assert sum(descend_sizes) == 5000
    assert max(descend_sizes) == carnot._LOCKSTEP


@pytest.fixture
def defect_sizes(monkeypatch):
    """Records the stack size of every _defect call: a descent makes one for
    its starts, one for the trials of each lockstep pass and one for its
    final frames."""
    sizes = []
    defect = carnot._defect

    def recording(basis, x, target):
        sizes.append(x.shape[0])
        return defect(basis, x, target)

    monkeypatch.setattr(carnot, "_defect", recording)
    return sizes


@pytest.mark.parametrize("r, s, bound", [(5, 2, 250), (5, 1, 150)])
def test_blocked_trials_cut_the_passes_of_a_nonexistence_search(defect_sizes, r, s, bound):
    # no uniform s-subspace of so(5) exists, so every start ends in a failed
    # 60-trial line search; one trial a pass took 603 and 357 passes here
    cand = search_uniform(r, s, restarts=50, seed=1)
    assert cand.objective > 0.5
    assert len(defect_sizes) <= bound
    assert max(defect_sizes) <= carnot._LOCKSTEP
    # and blocks of more than one trial a start did run: the last chunk has 18 starts
    assert max(defect_sizes) > 18


# _defect calls of classify_uniform_so4(s, 300, seed=1) with one trial a pass
ONE_TRIAL_PASSES = {1: 14, 2: 28, 3: 25, 4: 32, 5: 14, 6: 3}


@pytest.mark.parametrize("s", range(1, 7))
def test_classify_makes_no_more_passes_than_one_trial_a_pass(defect_sizes, s):
    classify_uniform_so4(s, trials=300, seed=1)
    assert len(defect_sizes) <= ONE_TRIAL_PASSES[s]
    assert max(defect_sizes) <= carnot._LOCKSTEP


def test_trial_stack_holds_at_most_lockstep_matrices(defect_sizes):
    # a full batch of starts: each pass holds one trial a start at first, and
    # larger blocks only once starts have stopped
    x0, _ = np.linalg.qr(np.random.default_rng(SEED).standard_normal((carnot._LOCKSTEP, 10, 2)))
    _descend(so_basis(5), x0, 2, max_iter=40)
    passes = defect_sizes[1:-1]
    assert max(passes) <= carnot._LOCKSTEP
    # the running starts never grow, so a pass larger than the one before ran blocks
    assert any(b > a for a, b in zip(passes, passes[1:]))
