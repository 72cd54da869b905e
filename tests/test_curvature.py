"""Curvature formulas checked against closed-form model spaces and against
each other (Ricci vs sums of sectional curvatures, U-map adjunction, scaling)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from solvgeom.algebra import (
    MetricLieAlgebra,
    ad_matrix,
    bracket,
    from_sparse,
    metric_adjoint,
)
from solvgeom.carnot import (
    DataTriple,
    build_solvmanifold,
    complex_hyperbolic_triple,
    random_triple,
    real_hyperbolic_triple,
)
from solvgeom.curvature import (
    U_map,
    eigenvalue_type,
    einstein_verdict,
    mean_curvature,
    rank_one_reduction,
    ricci,
    sectional,
    sectionals,
)
from solvgeom.so6family import induced_triple
from solvgeom.symtwist import build_sl_nH, build_so_pq


def test_real_hyperbolic_constant_curvature():
    # normalization [A, X] = X/2 gives K identically -1/4
    alg = build_solvmanifold(real_hyperbolic_triple(4))
    rng = np.random.default_rng(0)
    for _ in range(25):
        x, y = rng.standard_normal((2, alg.dim))
        assert abs(sectional(alg, x, y) + 0.25) <= 1e-12


def test_real_hyperbolic_einstein_constant():
    # ric = -(dim-1)/4 g
    for dim in (2, 3, 4, 7):
        alg = build_solvmanifold(real_hyperbolic_triple(dim))
        v = einstein_verdict(alg)
        assert v.is_einstein
        assert abs(v.lam + (dim - 1) / 4.0) <= 1e-12


def test_complex_hyperbolic_plane():
    alg = build_solvmanifold(complex_hyperbolic_triple(2))
    v = einstein_verdict(alg)
    assert v.is_einstein
    assert abs(v.lam + 1.5) <= 1e-12
    t = eigenvalue_type(alg)
    assert t.eigenvalues == (1, 2)
    assert t.multiplicities == (2, 1)


def test_complex_hyperbolic_pinching():
    # holomorphic planes reach -1, totally real planes reach -1/4
    alg = build_solvmanifold(complex_hyperbolic_triple(3))
    rng = np.random.default_rng(1)
    lo, hi = math.inf, -math.inf
    for _ in range(300):
        x, y = rng.standard_normal((2, alg.dim))
        k = sectional(alg, x, y)
        lo, hi = min(lo, k), max(hi, k)
        assert -1.0 - 1e-10 <= k <= -0.25 + 1e-10
    assert lo < -0.9
    assert hi > -0.3


def test_sectional_invariant_under_span_change():
    alg = build_solvmanifold(complex_hyperbolic_triple(2))
    rng = np.random.default_rng(2)
    x, y = rng.standard_normal((2, alg.dim))
    k = sectional(alg, x, y)
    for _ in range(5):
        a, b, c, d = rng.standard_normal(4)
        if abs(a * d - b * c) < 1e-3:
            continue
        assert abs(sectional(alg, a * x + b * y, c * x + d * y) - k) <= 1e-9


def test_sectional_rejects_degenerate_input():
    alg = build_solvmanifold(real_hyperbolic_triple(3))
    x = np.array([1.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        sectional(alg, x, 2.0 * x)
    with pytest.raises(ValueError):
        sectional(alg, np.zeros(3), x)


def _levi_civita_sectional(alg, x, y):
    """K(x, y) from the Levi-Civita connection in the original basis,
    nabla_x y = 1/2 ([x,y] - ad*_x y - ad*_y x), with no orthonormal frame."""
    def nabla(a, b):
        return 0.5 * (
            bracket(alg, a, b)
            - metric_adjoint(alg, ad_matrix(alg, a)) @ b
            - metric_adjoint(alg, ad_matrix(alg, b)) @ a
        )

    r_xyy = nabla(x, nabla(y, y)) - nabla(y, nabla(x, y)) - nabla(bracket(alg, x, y), y)
    g = alg.inner
    return g(r_xyy, x) / (g(x, x) * g(y, y) - g(x, y) ** 2)


def _random_metric_algebra(rng):
    """A random two-step extension under a random positive-definite Gram matrix."""
    r, s = int(rng.integers(2, 6)), int(rng.integers(1, 4))
    base = build_solvmanifold(random_triple(r, s, rng))
    g = rng.standard_normal((base.dim, base.dim))
    return MetricLieAlgebra(c=base.c, gram=g @ g.T + base.dim * np.eye(base.dim))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_sectionals_match_levi_civita_reference(seed):
    rng = np.random.default_rng(seed)
    alg = _random_metric_algebra(rng)
    xs, ys = rng.standard_normal((2, 6, alg.dim))
    ks = sectionals(alg, xs, ys)
    assert ks.shape == (6,)
    for k, x, y in zip(ks, xs, ys):
        ref = _levi_civita_sectional(alg, x, y)
        assert abs(k - ref) <= 1e-12 * max(1.0, abs(ref))


# |sectionals - sectionals_reference| <= KERNEL_VS_REFERENCE * max(1, |K|)
KERNEL_VS_REFERENCE = 1e-14
# one-row `sectional` against the same row of a batch: BLAS sums the one-row
# products (gemv) and the batched ones (gemm) in different orders
ROW_VS_BATCH = 4e-15


def sectionals_reference(alg, xs, ys):
    """The kernel's formula as three-operand einsums over `c_frame`, one per
    bracket and per U: what the ad-stack kernel must reproduce."""
    xs = np.asarray(xs, dtype=float) @ alg.frame_inv.T
    ys = np.asarray(ys, dtype=float) @ alg.frame_inv.T
    u = xs / np.linalg.norm(xs, axis=1)[:, None]
    w = ys - np.sum(ys * u, axis=1)[:, None] * u
    w = w / np.linalg.norm(w, axis=1)[:, None]
    c = alg.c_frame

    def lie(a, b):
        return np.einsum("ijk,ni,nj->nk", c, a, b)

    def u_map(a, b):
        return 0.5 * (np.einsum("zjk,nj,nk->nz", c, a, b)
                      + np.einsum("zjk,nj,nk->nz", c, b, a))

    uw = lie(u, w)
    uxy = u_map(u, w)
    terms = (-0.75 * uw * uw - 0.5 * lie(u, uw) * w + 0.5 * lie(w, uw) * u
             + uxy * uxy - u_map(u, u) * u_map(w, w))
    return terms.sum(axis=1)


@given(st.integers(0, 2**32 - 1), st.sampled_from([0, 1, 2, 4097]))
@settings(max_examples=12, deadline=None)
def test_sectionals_match_einsum_reference(seed, rows):
    # 4097 rows: more than one `so6family._BLOCK` of 4096
    rng = np.random.default_rng(seed)
    alg = _random_metric_algebra(rng)
    assert not np.allclose(alg.gram, np.eye(alg.dim))
    xs, ys = rng.standard_normal((2, rows, alg.dim))
    ks = sectionals(alg, xs, ys)
    ref = sectionals_reference(alg, xs, ys)
    assert ks.shape == ref.shape == (rows,)
    bound = KERNEL_VS_REFERENCE * np.maximum(1.0, np.abs(ref))
    assert np.all(np.abs(ks - ref) <= bound)


def test_sectional_rows_within_named_bound_of_batch():
    rng = np.random.default_rng(11)
    algs = (
        build_solvmanifold(induced_triple(0.6, 0.64, 0.48)),    # dim 10
        build_sl_nH(4).base,                                    # dim 27
        _random_metric_algebra(rng),                            # non-identity Gram
    )
    for alg in algs:
        xs, ys = rng.standard_normal((2, 300, alg.dim))
        ks = sectionals(alg, xs, ys)
        one = np.array([sectional(alg, x, y) for x, y in zip(xs, ys)])
        assert np.all(np.abs(ks - one) <= ROW_VS_BATCH * np.maximum(1.0, np.abs(one)))


def test_sectionals_rows_equal_sectional():
    rng = np.random.default_rng(9)
    ch3 = build_solvmanifold(complex_hyperbolic_triple(3))
    for alg in (ch3, _random_metric_algebra(rng)):
        xs, ys = rng.standard_normal((2, 40, alg.dim))
        ks = sectionals(alg, xs, ys)
        for k, x, y in zip(ks, xs, ys):
            assert abs(k - sectional(alg, x, y)) <= 1e-12


def test_sectionals_reject_a_degenerate_row():
    alg = build_solvmanifold(real_hyperbolic_triple(3))
    xs, ys = np.random.default_rng(10).standard_normal((2, 5, alg.dim))
    dependent = ys.copy()
    dependent[2] = -3.0 * xs[2]
    with pytest.raises(ValueError, match="linearly dependent"):
        sectionals(alg, xs, dependent)
    zero = xs.copy()
    zero[4] = 0.0
    with pytest.raises(ValueError, match="numerically zero"):
        sectionals(alg, zero, ys)


def test_sectionals_empty_batch():
    alg = build_solvmanifold(real_hyperbolic_triple(3))
    empty = np.empty((0, alg.dim))
    assert sectionals(alg, empty, empty).shape == (0,)


def test_u_map_adjunction_identity():
    # 2 <U(x,y), z> = <[z,x], y> + <[z,y], x>, with a non-identity metric
    rng = np.random.default_rng(3)
    triple = random_triple(4, 2, rng)
    base = build_solvmanifold(triple)
    g = rng.standard_normal((base.dim, base.dim))
    gram = g @ g.T + base.dim * np.eye(base.dim)
    alg = MetricLieAlgebra(c=base.c, gram=gram)
    for _ in range(10):
        x, y, z = rng.standard_normal((3, alg.dim))
        lhs = 2.0 * alg.inner(U_map(alg, x, y), z)
        rhs = alg.inner(alg.bracket(z, x), y) + alg.inner(alg.bracket(z, y), x)
        assert abs(lhs - rhs) <= 1e-9


def test_u_map_symmetric_bilinear():
    alg = build_solvmanifold(complex_hyperbolic_triple(2))
    rng = np.random.default_rng(4)
    x, y = rng.standard_normal((2, alg.dim))
    assert np.allclose(U_map(alg, x, y), U_map(alg, y, x), atol=1e-12)


def test_mean_curvature_is_trace_of_ad():
    from solvgeom.algebra import ad_matrix

    rng = np.random.default_rng(5)
    triple = random_triple(5, 2, rng)
    base = build_solvmanifold(triple)
    g = rng.standard_normal((base.dim, base.dim))
    gram = g @ g.T + base.dim * np.eye(base.dim)
    alg = MetricLieAlgebra(c=base.c, gram=gram)
    h = mean_curvature(alg)
    for _ in range(8):
        x = rng.standard_normal(alg.dim)
        assert abs(alg.inner(h, x) - np.trace(ad_matrix(alg, x))) <= 1e-9


def test_mean_curvature_equals_frame_trace_of_u():
    alg = build_solvmanifold(complex_hyperbolic_triple(3))
    total = np.zeros(alg.dim)
    for i in range(alg.dim):
        f = alg.frame[:, i]
        total += U_map(alg, f, f)
    assert np.allclose(total, mean_curvature(alg), atol=1e-10)


def test_ricci_symmetric():
    rng = np.random.default_rng(6)
    alg = build_solvmanifold(random_triple(4, 3, rng))
    r = ricci(alg)
    assert np.allclose(r, r.T, atol=1e-12)


def test_ricci_diagonal_is_sum_of_sectionals():
    # ric(f_j, f_j) = sum_{i != j} K(f_j, f_i) in any orthonormal frame;
    # independent consistency check between the two implementations
    rng = np.random.default_rng(7)
    for triple in (complex_hyperbolic_triple(2), random_triple(4, 2, rng)):
        alg = build_solvmanifold(triple)
        ric = ricci(alg)
        for j in range(alg.dim):
            fj = alg.frame[:, j]
            total = sum(
                sectional(alg, fj, alg.frame[:, i])
                for i in range(alg.dim)
                if i != j
            )
            quad = float(fj @ ric @ fj)
            assert abs(quad - total) <= 1e-9


def test_ricci_flat_abelian():
    alg = MetricLieAlgebra(c=np.zeros((4, 4, 4)), gram=np.eye(4))
    assert np.allclose(ricci(alg), 0.0)


def test_metric_scaling_covariance():
    # g -> c g keeps the Ricci bilinear form and divides lambda by c
    alg = build_solvmanifold(complex_hyperbolic_triple(2))
    scaled = MetricLieAlgebra(c=alg.c, gram=4.0 * alg.gram)
    assert np.allclose(ricci(alg), ricci(scaled), atol=1e-10)
    v0, v4 = einstein_verdict(alg), einstein_verdict(scaled)
    assert v0.is_einstein and v4.is_einstein
    assert abs(v4.lam - v0.lam / 4.0) <= 1e-12


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=10, deadline=None)
def test_ricci_frame_invariance(seed):
    # the Ricci form of the same bracket tensor under a rescaled metric block
    # must transform consistently with sectional sums (spot value)
    rng = np.random.default_rng(seed)
    triple = random_triple(3, 1, rng)
    alg = build_solvmanifold(triple)
    ric = ricci(alg)
    j = int(rng.integers(alg.dim))
    fj = alg.frame[:, j]
    total = sum(
        sectional(alg, fj, alg.frame[:, i]) for i in range(alg.dim) if i != j
    )
    assert abs(float(fj @ ric @ fj) - total) <= 1e-8


def test_einstein_verdict_rejects_generic_triple():
    rng = np.random.default_rng(8)
    alg = build_solvmanifold(random_triple(4, 2, rng))
    assert not einstein_verdict(alg).is_einstein


def test_eigenvalue_type_carnot_33():
    from solvgeom.carnot import search_uniform, _orthonormalize_family

    cand = search_uniform(3, 3, restarts=5, seed=0)
    triple = DataTriple(3, 3, _orthonormalize_family(cand.matrices))
    alg = build_solvmanifold(triple)
    v = einstein_verdict(alg)
    assert v.is_einstein
    assert abs(v.lam + 3.75) <= 1e-9
    t = eigenvalue_type(alg)
    assert t.eigenvalues == (1, 2)
    assert t.multiplicities == (3, 3)


def test_eigenvalue_type_requires_decoration():
    alg = from_sparse(3, [(0, 1, 2, 1.0)])
    with pytest.raises(ValueError):
        eigenvalue_type(alg)


@pytest.mark.parametrize("scale", [1e-20, 1.0, 1e30])
def test_eigenvalue_type_refuses_degenerate_nilradical_at_any_scale(scale):
    gram = scale * np.eye(3)
    # ad(A)|n = diag(1, -1): the mean curvature vanishes
    unimodular = from_sparse(3, [(0, 1, 1, 1.0), (0, 2, 2, -1.0)], gram=gram,
                             a_indices=(0,), n_indices=(1, 2))
    with pytest.raises(ValueError, match="mean curvature vanishes"):
        eigenvalue_type(unimodular)
    # ad(A)|n = diag(1, 0): a zero eigenvalue
    kernel = from_sparse(3, [(0, 1, 1, 1.0)], gram=gram, a_indices=(0,), n_indices=(1, 2))
    with pytest.raises(ValueError, match="non-positive eigenvalue"):
        eigenvalue_type(kernel)


def test_eigenvalue_type_scale_recovers_spectrum():
    alg = build_solvmanifold(complex_hyperbolic_triple(2))
    t = eigenvalue_type(alg)
    # the unit mean-curvature direction is A, whose ad|n spectrum is {1/2, 1/2, 1}
    expected = np.array([0.5, 0.5, 1.0])
    got = np.repeat(
        [t.scale * e for e in t.eigenvalues], t.multiplicities
    )
    assert np.allclose(np.sort(got), np.sort(expected), atol=1e-10)


def test_rank_one_reduction_preserves_einstein_data():
    alg = build_so_pq(2, 3).base
    assert len(alg.a_indices) == 2
    v = einstein_verdict(alg)
    red = rank_one_reduction(alg)
    assert red.dim == alg.dim - 1
    assert red.a_indices == (0,)
    vr = einstein_verdict(red)
    assert v.is_einstein and vr.is_einstein
    assert abs(v.lam - vr.lam) <= 1e-9


def test_rank_one_reduction_requires_decoration():
    with pytest.raises(ValueError):
        rank_one_reduction(from_sparse(3, [(0, 1, 2, 1.0)]))


def test_rank_one_reduction_of_rank_one_is_isometric():
    alg = build_solvmanifold(complex_hyperbolic_triple(2))
    red = rank_one_reduction(alg)
    # already rank one: reduction only renormalizes the a-direction
    assert red.dim == alg.dim
    assert np.allclose(
        np.sort(np.linalg.eigvalsh(ricci(red))),
        np.sort(np.linalg.eigvalsh(ricci(alg))),
        atol=1e-10,
    )
