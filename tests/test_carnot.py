"""Uniform subspaces of so(r): search, the so(4) criterion and classification,
equivalence invariants, and the Einstein conditions on data triples."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from solvgeom.carnot import (
    DataTriple,
    build_solvmanifold,
    centralizer_dimension,
    classify_uniform_so4,
    complement_uniform,
    complex_hyperbolic_triple,
    einstein_conditions,
    equivalence_invariants,
    is_uniform,
    j_from_brackets,
    random_triple,
    search_uniform,
    so4_criterion,
    so4_split_basis,
    so_basis,
    so_inner,
)
from solvgeom.curvature import einstein_verdict

from conftest import SEED


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
    assert np.allclose(triple.j_of(z), expect, atol=1e-13)


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
    assert is_uniform(cand.matrices, tol=1e-8)
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
