"""The sphere of 3-dimensional subspaces W(r,s,t) of so(6): algebraic
identities of the spanning basis, the two angle invariants, and the
negative-curvature margin."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from solvgeom import algebra, cli, so6family
from solvgeom.carnot import (
    build_solvmanifold,
    einstein_conditions,
    random_triple,
    real_hyperbolic_triple,
)
from solvgeom.curvature import einstein_verdict, sectional, sectionals
from solvgeom.so6family import (
    W_of,
    angle_to_centralizer,
    basis_ABC,
    bracket_angle,
    bracket_angle_closed_form,
    centralizer_in_so6,
    family_grid,
    family_report,
    induced_triple,
    negative_curvature_margin,
    tau,
)
from solvgeom.so6family import (
    _margin_and_grad,
    _margin_rows,
    _project_rows,
    _sample_margins,
)

from conftest import SEED
import oracles
from oracles import so_inner


def sphere_point(rng):
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


# --- scalar reference of the batched margin kernel ----------------------------


def _margin(triple, x, z, y, w):
    jz_x = oracles.j_of(triple, z) @ x
    jw_y = oracles.j_of(triple, w) @ y
    jz_y = oracles.j_of(triple, z) @ y
    jw_x = oracles.j_of(triple, w) @ x
    t1 = (0.5 * (x @ x) + z @ z) * (0.5 * (y @ y) + w @ w)
    t2 = float(jz_x @ jw_y)
    mix = jz_y + jw_x
    return t1 + t2 - 0.25 * float(mix @ mix)


def _project_pair(raw, r, s):
    """Map 2(r+s) free parameters onto the constraint set x _|_ y, z _|_ w,
    |x|^2+|z|^2 = |y|^2+|w|^2 = 1."""
    x, y = raw[0:r], raw[r:2 * r]
    z, w = raw[2 * r:2 * r + s], raw[2 * r + s:]
    nx = x @ x
    if nx > 1e-16:
        y = y - (y @ x) / nx * x
    nz = z @ z
    if nz > 1e-16:
        w = w - (w @ z) / nz * z
    n1 = math.sqrt(x @ x + z @ z)
    n2 = math.sqrt(y @ y + w @ w)
    if n1 < 1e-6 or n2 < 1e-6:
        return None
    return x / n1, z / n1, y / n2, w / n2


def _margin_row(triple, x, z, y, w):
    """The batched margin of one (x, z, y, w) row."""
    xy, zw = np.array([[x, y]], dtype=float), np.array([[z, w]], dtype=float)
    return float(_margin_rows(triple.j_mats, xy, zw)[0][0])


def _unpair(xy, zw):
    """(x, z, y, w) stacks of the pair stacks xy = (x, y) and zw = (z, w)."""
    return xy[:, 0], zw[:, 0], xy[:, 1], zw[:, 1]


def _project_row(raw, r, s):
    """The batched projection of one raw row, None where it degenerates."""
    xy, zw, ok, _ = _project_rows(np.asarray(raw)[None], r, s)
    return tuple(p[0] for p in _unpair(xy, zw)) if ok[0] else None


def test_tau_is_multiplicative_and_real():
    rng = np.random.default_rng(0)
    for _ in range(10):
        z = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        w = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        assert np.allclose(tau(z @ w), tau(z) @ tau(w), atol=1e-12)
        assert np.allclose(tau(z) + tau(w), tau(z + w), atol=1e-13)
    assert np.allclose(tau(np.eye(3)), np.eye(6), atol=1e-15)


def test_tau_sends_skew_hermitian_to_skew():
    rng = np.random.default_rng(1)
    m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    sk = m - m.conj().T
    t = tau(sk)
    assert np.allclose(t, -t.T, atol=1e-13)


def test_basis_families_orthonormal():
    a, b, c = basis_ABC()
    nine = np.concatenate([a, b, c])
    gram = np.array([[so_inner(x, y) for y in nine] for x in nine])
    assert np.allclose(gram, np.eye(9), atol=1e-12)


def test_basis_sum_of_squares():
    a, b, c = basis_ABC()
    for fam in (a, b, c):
        ss = np.einsum("aij,ajk->ik", fam, fam)
        assert np.allclose(ss, -3.0 * np.eye(6), atol=1e-12)


def test_basis_anticommutation():
    a, b, c = basis_ABC()
    for i in range(3):
        anti = a[i] @ b[i] + b[i] @ a[i]
        assert np.allclose(anti, 0.0, atol=1e-12)


def test_sign_flips_preserve_identities():
    a, b, c = oracles.basis_abc((1, -1, 1))
    ss = np.einsum("aij,ajk->ik", b, b)
    assert np.allclose(ss, -3.0 * np.eye(6), atol=1e-12)
    for i in range(3):
        assert np.allclose(a[i] @ b[i] + b[i] @ a[i], 0.0, atol=1e-12)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_every_sphere_point_is_uniform(seed):
    rng = np.random.default_rng(seed)
    r, s, t = sphere_point(rng)
    w = W_of(r, s, t)
    ss = np.einsum("aij,ajk->ik", w, w)
    assert np.max(np.abs(ss + 3.0 * np.eye(6))) <= 1e-10
    cond = einstein_conditions(induced_triple(r, s, t))
    assert cond.max_residual <= 1e-10


def test_reference_point_is_einstein():
    alg = build_solvmanifold(induced_triple(1.0, 0.0, 0.0))
    v = einstein_verdict(alg)
    assert v.is_einstein
    assert abs(v.lam + 4.5) <= 1e-12  # -(r + 4 s)/4 with r = 6, s = 3


def test_w_of_rescales_before_the_squares_overflow():
    for rst, unit in (((1e308, 1e308, 0.0), (1.0, 1.0, 0.0)),
                      ((-1e200, 0.0, 3e200), (-1.0, 0.0, 3.0)),
                      ((0.0, 0.0, -1.7e308), (0.0, 0.0, -1.0)),
                      # tiny directions, with squares in range or below it
                      ((1e-13, 0.0, 0.0), (1.0, 0.0, 0.0)),
                      ((1e-200, 0.0, 0.0), (1.0, 0.0, 0.0)),
                      ((3e-170, 0.0, 4e-170), (3.0, 0.0, 4.0))):
        assert np.max(np.abs(W_of(*rst) - W_of(*unit))) <= 1e-15
        assert np.max(np.abs(induced_triple(*rst).j_mats - W_of(*unit))) <= 1e-15


def test_w_of_renormalizes_and_rejects_zero():
    assert np.allclose(W_of(2.0, 0.0, 0.0), W_of(1.0, 0.0, 0.0))
    assert np.allclose(W_of(-3.0, 3.0, 3.0), W_of(*(np.ones(3) * [-1, 1, 1] / np.sqrt(3))))
    with pytest.raises(ValueError):
        W_of(0.0, 0.0, 0.0)


@pytest.mark.parametrize("rst", [(math.nan, 0.0, 0.0), (math.inf, 0.0, 0.0),
                                 (1.0, -math.inf, 0.0), (0.0, 0.0, math.nan)])
def test_w_of_rejects_non_finite(rst):
    with pytest.raises(ValueError, match="finite"):
        W_of(*rst)


def test_angle_to_centralizer_equals_abs_t():
    rng = np.random.default_rng(2)
    for _ in range(15):
        r, s, t = sphere_point(rng)
        assert abs(angle_to_centralizer(r, s, t) - abs(t)) <= 1e-9
    assert abs(angle_to_centralizer(1.0, 0.0, 0.0)) <= 1e-9
    assert abs(angle_to_centralizer(0.0, 0.0, 1.0) - 1.0) <= 1e-9


def test_centralizer_dimension_generic_and_pole():
    rng = np.random.default_rng(3)
    for _ in range(10):
        r, s, t = sphere_point(rng)
        if max(abs(r), abs(s)) <= 1e-6:
            continue
        dim, _ = centralizer_in_so6(W_of(r, s, t))
        assert dim == 1
    dim, _ = centralizer_in_so6(W_of(0.0, 0.0, 1.0))
    assert dim == 3


def test_centralizer_dimension_on_switch_locus():
    # t^2 = (r^2 + s^2)/2 on the unit sphere forces t^2 = 1/3
    rng = np.random.default_rng(4)
    for _ in range(5):
        psi = rng.uniform(0, 2 * math.pi)
        r = math.sqrt(2.0 / 3.0) * math.cos(psi)
        s = math.sqrt(2.0 / 3.0) * math.sin(psi)
        t = 1.0 / math.sqrt(3.0)
        dim, _ = centralizer_in_so6(W_of(r, s, t))
        assert dim == 1


def test_centralizer_elements_commute():
    rng = np.random.default_rng(5)
    r, s, t = sphere_point(rng)
    w = W_of(r, s, t)
    _, cz = centralizer_in_so6(w)
    for p in cz:
        for d in w:
            assert np.max(np.abs(p @ d - d @ p)) <= 1e-9


def test_bracket_angle_matches_closed_form():
    rng = np.random.default_rng(6)
    for _ in range(20):
        r, s, t = sphere_point(rng)
        closed = bracket_angle_closed_form(r, s, t)
        numeric = bracket_angle(r, s, t)
        assert abs(closed - numeric) <= 1e-6


def test_angles_match_the_orthonormalizing_reference():
    # the angles take W and the centralizer basis as the orthonormal families
    # they are; the reference orthonormalizes both spans first
    rng = np.random.default_rng(SEED)
    points = family_grid() + [tuple(sphere_point(rng)) for _ in range(200)]
    for rst in points:
        for new, ref in ((angle_to_centralizer, oracles.angle_to_centralizer),
                         (bracket_angle, oracles.bracket_angle)):
            a, b = new(*rst), ref(*rst)
            assert (math.isnan(a) and math.isnan(b)) or abs(a - b) <= 1e-14


def test_bracket_angle_special_loci():
    # r = 0: brackets orthogonal to W
    assert bracket_angle_closed_form(0.0, 1.0, 0.0) == 0.0
    assert abs(bracket_angle(0.0, 1.0, 0.0)) <= 1e-9
    # r = s = 0: the span is abelian, the angle is undefined
    assert math.isnan(bracket_angle_closed_form(0.0, 0.0, 1.0))
    assert math.isnan(bracket_angle(0.0, 0.0, 1.0))
    # t = 0, s = 0: W is a subalgebra, cos = 1
    assert abs(bracket_angle_closed_form(1.0, 0.0, 0.0) - 1.0) <= 1e-12
    assert abs(bracket_angle(1.0, 0.0, 0.0) - 1.0) <= 1e-9


def test_cyclic_bracket_inner_products():
    # <[D_i, D_j], D_k> = -sqrt(3) r (r^2 + s^2) / sqrt(2), the same value for
    # all cyclic (i, j, k)
    rng = np.random.default_rng(10)
    for _ in range(8):
        r, s, t = sphere_point(rng)
        w = W_of(r, s, t)
        expect = -math.sqrt(3.0) * r * (r * r + s * s) / math.sqrt(2.0)
        for (i, j, k) in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            br = w[i] @ w[j] - w[j] @ w[i]
            assert abs(so_inner(br, w[k]) - expect) <= 1e-10


def test_commutator_expansions_in_the_nine_basis():
    # the three brackets expand over {A_i, B_i} with coefficients proportional
    # to (r^2 +- s^2)/sqrt(2), sqrt(2) r s and t-linear mixing terms; one global
    # factor of -sqrt(3) relative to the unnormalized cyclic so(3) convention
    rng = np.random.default_rng(12)
    k = -math.sqrt(3.0)
    for _ in range(5):
        r, s, t = sphere_point(rng)
        a, b, _ = basis_ABC()
        d = W_of(r, s, t)
        plus = (r * r + s * s) / math.sqrt(2.0)
        minus = (r * r - s * s) / math.sqrt(2.0)
        expect_12 = k * (plus * a[2] + t * (r * (b[1] - b[0]) + s * (a[0] - a[1])))
        expect_31 = k * (
            minus * a[1]
            + math.sqrt(2.0) * r * s * b[1]
            + t * (-r * (b[0] + b[2]) + s * (a[0] + a[2]))
        )
        expect_23 = k * (plus * a[0] + t * (r * (b[1] - b[2]) + s * (a[2] - a[1])))
        assert np.max(np.abs(d[0] @ d[1] - d[1] @ d[0] - expect_12)) <= 1e-12
        assert np.max(np.abs(d[2] @ d[0] - d[0] @ d[2] - expect_31)) <= 1e-12
        assert np.max(np.abs(d[1] @ d[2] - d[2] @ d[1] - expect_23)) <= 1e-12


def test_bracket_angle_single_branch_domain():
    # where t^2 + sqrt(2) s t >= 0 the two closed-form branches coincide
    rng = np.random.default_rng(11)
    count = 0
    while count < 10:
        r, s, t = sphere_point(rng)
        c = t * t + math.sqrt(2.0) * s * t
        if c < 0 or abs(r) < 1e-3:
            continue
        count += 1
        one_branch = abs(r) * math.sqrt(
            (r * r + s * s) / (r * r + s * s + 4 * t * t - 2 * abs(c))
        )
        assert abs(bracket_angle_closed_form(r, s, t) - one_branch) <= 1e-12
        assert abs(bracket_angle(r, s, t) - one_branch) <= 1e-6


def test_margin_degenerate_plane():
    triple = induced_triple(1.0, 0.0, 0.0)
    rng = np.random.default_rng(7)
    for _ in range(5):
        x, y = rng.standard_normal((2, 6))
        z = np.zeros(3)
        for margin in (_margin, _margin_row):
            m = margin(triple, x, z, y, z)
            assert abs(m - 0.25 * (x @ x) * (y @ y)) <= 1e-12


def test_margin_equals_negated_sectional_plus_bracket_term():
    # margin(x,z,y,w) = -K(u,v) - 3/4 |[u,v]|^2 for the admissible embedding;
    # the scalar reference and the batched helpers see the same raw rows
    triple = induced_triple(0.6, 0.48, math.sqrt(1 - 0.6**2 - 0.48**2))
    alg = build_solvmanifold(triple)
    r, s = triple.r, triple.s
    for margin, project in ((_margin, _project_pair), (_margin_row, _project_row)):
        rng = np.random.default_rng(8)
        for _ in range(8):
            parts = project(rng.standard_normal(2 * (r + s)), r, s)
            assert parts is not None
            x, z, y, w = parts
            u = np.zeros(alg.dim)
            v = np.zeros(alg.dim)
            u[1:1 + r], u[1 + r:] = x, z
            v[1:1 + r], v[1 + r:] = y, w
            k = sectional(alg, u, v)
            br = algebra.bracket(alg, u, v)
            expect = -k - 0.75 * alg.inner(br, br)
            assert abs(margin(triple, x, z, y, w) - expect) <= 1e-10


def test_project_pair_satisfies_constraints():
    for project in (_project_pair, _project_row):
        rng = np.random.default_rng(9)
        for _ in range(20):
            parts = project(rng.standard_normal(18), 6, 3)
            if parts is None:
                continue
            x, z, y, w = parts
            assert abs(x @ x + z @ z - 1.0) <= 1e-12
            assert abs(y @ y + w @ w - 1.0) <= 1e-12
            assert abs(x @ y) <= 1e-9
            assert abs(z @ w) <= 1e-9


def test_margin_positive_at_reference_point():
    triple = induced_triple(1.0, 0.0, 0.0)
    m = negative_curvature_margin(triple, samples=1500, descents=12, seed=SEED)
    assert m > 0.05
    assert abs(m - 3.0 / 28.0) <= 2e-3


def test_margin_negative_at_pole():
    triple = induced_triple(0.0, 0.0, 1.0)
    m = negative_curvature_margin(triple, samples=800, descents=8, seed=SEED)
    assert m < -0.2


def test_margin_needs_a_sample_or_a_descent():
    triple = induced_triple(1.0, 0.0, 0.0)
    for samples, descents in ((0, 0), (-1, 5), (5, -1)):
        with pytest.raises(ValueError, match="samples"):
            negative_curvature_margin(triple, samples=samples, descents=descents)
    assert negative_curvature_margin(triple, samples=0, descents=1) < math.inf
    assert negative_curvature_margin(triple, samples=1, descents=0) < math.inf


def _kernel_triples():
    """so(6)-family points, a random triple and an s = 0 triple."""
    return [induced_triple(1.0, 0.0, 0.0), induced_triple(0.6, 0.64, 0.48),
            induced_triple(0.0, 0.0, 1.0), induced_triple(0.3, -0.5, 0.8),
            random_triple(5, 3, np.random.default_rng(1)),
            real_hyperbolic_triple(5)]


def _degenerate_rows(r, s, rng):
    """Raw rows that hit each branch of the projection: x = z = 0, y = 2x with
    w = 3z (nothing left after Gram-Schmidt), x = 0 (no x-projection), and
    |x|^2 just below (x = 1e-9) and above (x = 1e-6) the 1e-16 cutoff."""
    x, y = rng.standard_normal((2, r))
    z, w = rng.standard_normal((2, s))
    zero_r, zero_s = np.zeros(r), np.zeros(s)
    return np.array([
        np.concatenate([zero_r, y, zero_s, w]),
        np.concatenate([x, 2.0 * x, z, 3.0 * z]),
        np.concatenate([zero_r, y, z, w]),
        np.concatenate([np.full(r, 1e-9), y, z, w]),
        np.concatenate([np.full(r, 1e-6), y, z, w]),
    ])


@pytest.mark.parametrize("k", range(6))
def test_batched_margin_matches_scalar_reference(k):
    triple = _kernel_triples()[k]
    r, s = triple.r, triple.s
    rng = np.random.default_rng(20 + k)
    raw = np.concatenate([rng.standard_normal((40, 2 * (r + s))),
                          _degenerate_rows(r, s, rng)])
    xy, zw, ok, _ = _project_rows(raw, r, s)
    parts = _unpair(xy, zw)
    values = _sample_margins(triple.j_mats, raw, r, s)
    value_and_grad = _margin_and_grad(triple.j_mats, raw, r, s)
    assert np.array_equal(value_and_grad[0], values)
    assert not ok[-5:-3].any()
    for n, row in enumerate(raw):
        ref = _project_pair(row, r, s)
        assert (ref is not None) == ok[n]
        if ref is None:
            assert values[n] == 10.0
            assert not value_and_grad[1][n].any()
            continue
        for got, want in zip(parts, ref):
            assert np.max(np.abs(got[n] - want), initial=0.0) <= 1e-13
        assert abs(values[n] - _margin(triple, *ref)) <= 1e-13


def _central_differences(f, u, h=1e-6):
    g = np.zeros_like(u)
    for k in range(u.size):
        e = np.zeros_like(u)
        e[k] = h
        g[k] = (f(u + e) - f(u - e)) / (2.0 * h)
    return g


@pytest.mark.parametrize("k", range(6))
def test_margin_gradient_matches_finite_differences(k):
    triple = _kernel_triples()[k]
    r, s = triple.r, triple.s
    raw = np.random.default_rng(30 + k).standard_normal((4, 2 * (r + s)))
    _, grad = _margin_and_grad(triple.j_mats, raw, r, s)

    def f(u):
        return _margin_and_grad(triple.j_mats, u[None], r, s)[0][0]

    for n, row in enumerate(raw):
        fd = _central_differences(f, row)
        assert np.max(np.abs(grad[n] - fd)) <= 1e-7 * max(1.0, np.max(np.abs(fd)))


def test_margin_closed_forms():
    # constant curvature -1/4: the margin is |x|^2 |y|^2 / 4 = 1/4 everywhere
    m = negative_curvature_margin(real_hyperbolic_triple(5), samples=200, descents=3, seed=SEED)
    assert abs(m - 0.25) <= 1e-9
    m = negative_curvature_margin(induced_triple(1.0, 0.0, 0.0), samples=500, descents=5,
                                  seed=SEED)
    assert abs(m - 3.0 / 28.0) <= 1e-9


def test_margin_counted_work(monkeypatch):
    # every descent evaluation is one analytic `_margin_and_grad` call (no
    # finite-difference gradient), and the first one is the whole stack of starts
    descent_rows, kernel_rows = [], []

    def counted_grad(j_mats, raw, r, s):
        descent_rows.append(len(raw))
        return _margin_and_grad(j_mats, raw, r, s)

    def counted_kernel(j_mats, raw, r, s):
        kernel_rows.append(len(raw))
        return _sample_margins(j_mats, raw, r, s)

    lbfgs, requests = so6family._lbfgs, []

    def counted_lbfgs(value_and_grad, starts):
        def requested(raw):
            requests.append(len(raw))
            return value_and_grad(raw)
        return lbfgs(requested, starts)

    monkeypatch.setattr(so6family, "_margin_and_grad", counted_grad)
    monkeypatch.setattr(so6family, "_sample_margins", counted_kernel)
    monkeypatch.setattr(so6family, "_lbfgs", counted_lbfgs)
    triple = induced_triple(1.0, 0.0, 0.0)
    whole = negative_curvature_margin(triple, samples=20, descents=4, seed=SEED)
    assert kernel_rows == [20]
    assert descent_rows[0] == 4
    assert descent_rows == requests
    kernel_rows.clear()
    monkeypatch.setattr(so6family, "_BLOCK", 7)
    assert negative_curvature_margin(triple, samples=20, descents=4, seed=SEED) == whole
    assert kernel_rows == [7, 7, 6]  # ceil(20 / 7) blocks, the same rows


# --- the lockstep L-BFGS ----------------------------------------------------


def _margin_objective(triple):
    def value_and_grad(raw):
        return _margin_and_grad(triple.j_mats, raw, triple.r, triple.s)
    return value_and_grad


@pytest.mark.parametrize("k", [0, 1, 4])
def test_lbfgs_start_ends_on_the_same_bits_in_any_stack(k):
    # W(1,0,0), W(0.6,0.64,0.48) and random_triple(5, 3, default_rng(1))
    triple = _kernel_triples()[k]
    value_and_grad = _margin_objective(triple)
    starts = np.random.default_rng(40 + k).standard_normal((20, 2 * (triple.r + triple.s)))
    x20, f20 = so6family._lbfgs(value_and_grad, starts)
    alone = [so6family._lbfgs(value_and_grad, row[None]) for row in starts]
    assert np.array_equal(np.concatenate([f for _, f in alone]), f20)
    assert np.array_equal(np.concatenate([x for x, _ in alone]), x20)
    fours = [so6family._lbfgs(value_and_grad, starts[i:i + 4])[1] for i in range(0, 20, 4)]
    assert np.array_equal(np.concatenate(fours), f20)


def test_margin_descent_blocks_match_one_stack(monkeypatch):
    # 20 descents in blocks of 7, 7 and 6 starts: the same rows, the same bits
    triple = induced_triple(0.6, 0.64, 0.48)
    whole = negative_curvature_margin(triple, samples=30, descents=20, seed=SEED)
    monkeypatch.setattr(so6family, "_BLOCK", 7)
    assert negative_curvature_margin(triple, samples=30, descents=20, seed=SEED) == whole


def test_lbfgs_separable_quadratic():
    # f(x) = sum_i c_i (x_i - m_i)^2 / 2 + f0 with curvatures in [1, 2].  The
    # stop on a relative decrease <= 2.2e-9 can end a start before
    # max|g| <= 1e-5 (at f - f0 ~ 1e-10..1e-8): on worse-conditioned stacks it does,
    # as in L-BFGS-B, so this one is well conditioned
    rng = np.random.default_rng(SEED)
    c = np.linspace(1.0, 2.0, 12)
    m = rng.standard_normal(12)
    f0 = -0.75

    def value_and_grad(x):
        return f0 + 0.5 * np.sum(c * (x - m) ** 2, axis=1), c * (x - m)

    x, f = so6family._lbfgs(value_and_grad, 3.0 * rng.standard_normal((8, 12)))
    assert np.max(np.abs(value_and_grad(x)[1])) <= 1e-5
    assert np.max(np.abs(f - f0)) <= 1e-10


def test_lbfgs_no_worse_than_lbfgsb():
    optimize = pytest.importorskip("scipy.optimize")
    for point in ((1.0, 0.0, 0.0), (0.6, 0.64, 0.48), (1.0, 0.0, 1.0), (0.0, 0.0, 1.0)):
        triple = induced_triple(*point)
        value_and_grad = _margin_objective(triple)

        def objective(u):
            value, grad = value_and_grad(u[None])
            return float(value[0]), grad[0]

        starts = np.random.default_rng(SEED).standard_normal((10, 18))
        _, f = so6family._lbfgs(value_and_grad, starts)
        ref = min(optimize.minimize(objective, u, jac=True, method="L-BFGS-B").fun
                  for u in starts)
        assert f.min() <= ref + 1e-6, point


def test_family_report_blocks_draw_the_same_pairs(monkeypatch):
    point = (0.6, 0.64, 0.48)
    xy = np.random.default_rng(SEED).standard_normal((20, 2, 10))
    ks = sectionals(build_solvmanifold(induced_triple(*point)), xy[:, 0], xy[:, 1])
    monkeypatch.setattr(so6family, "_BLOCK", 7)
    (row,) = family_report(points=[point], samples=20, seed=SEED)
    assert abs(row.min_sectional - ks.min()) <= 1e-14
    assert abs(row.max_sectional - ks.max()) <= 1e-14


def test_margin_and_report_memory_flat_in_samples(monkeypatch):
    import tracemalloc

    triple = induced_triple(1.0, 0.0, 0.0)
    negative_curvature_margin(triple, samples=10, descents=1)
    family_report(points=[(1.0, 0.0, 0.0)], samples=10)
    tracemalloc.start()
    try:
        negative_curvature_margin(triple, samples=200_000, descents=0)
        margin_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        family_report(points=[(0.6, 0.64, 0.48)], samples=200_000)
        report_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one 200 000-row draw alone would take 28.8 MB (margin) or 32 MB (report)
    assert margin_peak < 8e6
    assert report_peak < 8e6
    # the descents run in blocks of starts too
    monkeypatch.setattr(so6family, "_BLOCK", 7)
    peaks = []
    for descents in (7, 70):
        tracemalloc.start()
        try:
            negative_curvature_margin(triple, samples=0, descents=descents)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.5 * peaks[0]


def test_family_grid_needs_two_latitudes():
    assert len(family_grid(n_lat=2, n_az=8)) == 9
    for n_lat in (1, 0):
        with pytest.raises(ValueError, match="--grid >= 2"):
            family_grid(n_lat=n_lat)


def test_family_grid_shape():
    pts = family_grid()
    assert pts[-1] == (0.0, 0.0, 1.0)
    assert sum(1 for p in pts if p == (0.0, 0.0, 1.0)) == 1
    for (r, s, t) in pts:
        assert abs(r * r + s * s + t * t - 1.0) <= 1e-12
        assert t >= 0.0
    # equator keeps only half the azimuths (s >= 0 up to roundoff)
    equator = [p for p in pts if p[2] == 0.0]
    assert all(p[1] >= -1e-12 for p in equator)


def test_family_report_rows():
    pts = [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.6, 0.0, 0.8)]
    rows = family_report(points=pts, samples=40, seed=SEED)
    assert len(rows) == 3
    for row in rows:
        assert row.einstein_residual <= 1e-9
        assert abs(row.cos_angle_centralizer - abs(row.t)) <= 1e-9
        assert row.min_sectional <= row.max_sectional
    assert rows[0].max_sectional < 0.0  # reference point has K < 0


def test_family_report_counted_work(monkeypatch, capsys):
    # one W, one centralizer and at most two Cholesky factors (the algebra's
    # frame and span[W, W]) a point; the CLI reads the centralizer dimension
    # off the rows
    points = family_grid(3, 12)
    family_report(points=points, samples=20)  # warm-up: the cached tables
    calls = {"W_of": 0, "centralizer": 0, "_cholesky_frame": 0}

    def counted(module, name):
        inner = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    counted(so6family, "W_of")
    counted(so6family, "centralizer")
    counted(algebra, "_cholesky_frame")
    rows = family_report(points=points, samples=20)
    assert len(points) == 21
    assert calls["W_of"] == 21 and calls["centralizer"] == 21
    assert calls["_cholesky_frame"] <= 42
    assert [row.centralizer_dim for row in rows] == [
        centralizer_in_so6(W_of(*p))[0] for p in points]
    calls["centralizer"] = 0
    assert cli.main(["family", "report", "--grid", "3", "--samples", "20"]) == 0
    capsys.readouterr()
    assert calls["centralizer"] == 21
