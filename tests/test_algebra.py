"""Core tensor machinery: construction, validation, Iwasawa checks, serialization."""

import dataclasses
import functools
import math
import re
import sys
import time
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from solvgeom import algebra, symtwist
from solvgeom.algebra import (
    MAX_DIM,
    TOL_EXACT,
    MetricLieAlgebra,
    _best_positive_direction,
    _joint_roots,
    bracket,
    deserialize,
    from_sparse,
    iwasawa_check,
    orthonormal_frame,
    serialize,
    validate,
)
from solvgeom.carnot import (
    _orthonormalize_family,
    build_solvmanifold,
    complex_hyperbolic_triple,
    random_triple,
    real_hyperbolic_triple,
)
from solvgeom.curvature import eigenvalue_type, rank_one_reduction
from solvgeom.symtwist import (
    build_sl_nH,
    build_sl_nR,
    build_so_nH,
    build_so_pq,
    build_sp_pq,
    build_su_pq,
    build_type_iv_sl,
    paper_twist_so_nH,
    restricted_height_twist,
    twist,
)

from cli_battery import SPACES as BATTERY_SPACES
from documents import rank6_opposite_roots
from oracles import (
    ad_matrix,
    basis_vector,
    frame_transform,
    jacobi_dense,
    killing_form,
    metric_adjoint,
)


def so3():
    return from_sparse(3, [(0, 1, 2, 1.0), (1, 2, 0, 1.0), (0, 2, 1, -1.0)])


def heisenberg():
    return from_sparse(3, [(0, 1, 2, 1.0)])


def test_from_sparse_antisymmetry_exact():
    alg = so3()
    assert np.array_equal(alg.c, -np.transpose(alg.c, (1, 0, 2)))


def test_from_sparse_rejects_bad_entries():
    with pytest.raises(ValueError, match="i<j canonical order"):
        from_sparse(3, [(1, 1, 0, 1.0)])
    with pytest.raises(ValueError, match="i<j canonical order"):
        from_sparse(3, [(2, 1, 0, 1.0)])
    with pytest.raises(ValueError, match=r"k outside 0\.\.2"):
        from_sparse(3, [(0, 1, 3, 1.0)])


def test_shape_checks():
    with pytest.raises(ValueError):
        MetricLieAlgebra(c=np.zeros((2, 2, 3)), gram=np.eye(2))
    with pytest.raises(ValueError):
        MetricLieAlgebra(c=np.zeros((2, 2, 2)), gram=np.eye(3))


def test_frame_is_derived_not_a_parameter():
    # frame, frame_inv and c_frame always come from gram in __post_init__
    with pytest.raises(TypeError):
        MetricLieAlgebra(c=np.zeros((2, 2, 2)), gram=np.eye(2), frame=np.eye(2))
    alg = MetricLieAlgebra(c=np.zeros((2, 2, 2)), gram=4.0 * np.eye(2))
    assert np.allclose(alg.frame, 0.5 * np.eye(2))
    assert "frame" not in repr(alg)


def test_bracket_matches_ad_matrix():
    alg = so3()
    rng = np.random.default_rng(0)
    for _ in range(10):
        x = rng.standard_normal(3)
        y = rng.standard_normal(3)
        assert np.allclose(ad_matrix(alg, x) @ y, bracket(alg, x, y), atol=1e-14)


def test_bracket_so3_cross_product():
    alg = so3()
    e0, e1, e2 = np.eye(3)
    assert np.allclose(bracket(alg, e0, e1), e2)
    assert np.allclose(bracket(alg, e1, e2), e0)
    assert np.allclose(bracket(alg, e2, e0), e1)


def test_bracket_rejects_wrong_length():
    alg = so3()
    with pytest.raises(ValueError):
        bracket(alg, np.ones(4), np.ones(3))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_bracket_antisymmetric_bilinear(seed):
    alg = so3()
    rng = np.random.default_rng(seed)
    x, y, z = rng.standard_normal((3, 3))
    a = float(rng.standard_normal())
    assert np.allclose(bracket(alg, x, y), -bracket(alg, y, x), atol=1e-13)
    assert np.allclose(
        bracket(alg, a * x + z, y),
        a * bracket(alg, x, y) + bracket(alg, z, y),
        atol=1e-12,
    )


def test_killing_form_so3():
    # standard so(3) basis: B = -2 Id
    assert np.allclose(killing_form(so3()), -2.0 * np.eye(3), atol=1e-14)


def test_killing_form_symmetric_on_lie_algebra():
    alg = build_solvmanifold(complex_hyperbolic_triple(3))
    b = killing_form(alg)
    assert np.allclose(b, b.T, atol=1e-12)


def test_validate_good_algebras():
    for alg in (so3(), heisenberg()):
        rep = validate(alg)
        assert rep.ok
        assert rep.jacobi_residual <= 1e-10
        assert rep.antisym_residual == 0.0
        assert rep.gram_min_eig > 0


def test_validate_flags_jacobi_violation():
    # so(3) plus a spurious [e0,e1] component along e0 breaks Jacobi by 0.1
    alg = from_sparse(
        3, [(0, 1, 2, 1.0), (1, 2, 0, 1.0), (0, 2, 1, -1.0), (0, 1, 0, 0.1)]
    )
    rep = validate(alg)
    assert not rep.ok
    assert rep.jacobi_residual > 1e-3


# validate and jacobi_reference add the same products in different orders, so
# their residuals agree to a few ulp of the largest sum of |products|,
# max over i, j, k, l of sum_m |c_ijm c_mkl|: the scale of a dot product's rounding.
# validate divides its residual by max|c|^2, so the reference and the bound are
# divided by it too (`relative`)
JACOBI_ULPS = 8
# dense c at MAX_DIM: one 42 MB dim^4 product, then the gathered i < j < k triples
# (the full-tensor reference with its two transposed copies peaks at 127 MB)
VALIDATE_PEAK_MB = 70


def jacobi_reference(c):
    """(max |[[e_i,e_j],e_k] + [[e_j,e_k],e_i] + [[e_k,e_i],e_j]| over the full
    dim^4 tensor, max_ijkl sum_m |c_ijm c_mkl|), by einsum."""
    with np.errstate(over="ignore", invalid="ignore"):
        cc = np.einsum("ijm,mkl->ijkl", c, c)
        jacobi = cc + np.transpose(cc, (1, 2, 0, 3)) + np.transpose(cc, (2, 0, 1, 3))
        scale = np.einsum("ijm,mkl->ijkl", np.abs(c), np.abs(c))
    return float(np.max(np.abs(jacobi), initial=0.0)), float(np.max(scale, initial=0.0))


def relative(x, c):
    """x / max|c|^2, divided as validate divides its Jacobi residual (c = 0: x)."""
    m = float(np.max(np.abs(c), initial=0.0)) or 1.0
    return x / m / m


def _semidirect(act):
    """R acting on the abelian ideal R^m by the m x m matrix act: a Lie algebra."""
    m = len(act)
    c = np.zeros((m + 1,) * 3)
    c[0, 1:, 1:] = act.T
    c[1:, 0, 1:] = -act.T
    return c


@given(st.integers(0, 14), st.sampled_from(["dense", "sparse"]), st.booleans(),
       st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_validate_jacobi_matches_full_tensor_reference(dim, density, lie, seed):
    rng = np.random.default_rng(seed)
    if lie and dim:
        act = rng.standard_normal((dim - 1, dim - 1))
        if density == "sparse":
            c = _semidirect(act * (rng.random(act.shape) < 0.2))
        else:   # a basis change fills the tensor
            p = rng.standard_normal((dim, dim)) + 3.0 * np.eye(dim)
            c = np.einsum("ia,jb,ijk,lk->abl", p, p, _semidirect(act), np.linalg.inv(p))
    else:
        c = rng.standard_normal((dim,) * 3) * 10.0 ** rng.integers(-3, 4)
        if density == "sparse":
            c = c * (rng.random(c.shape) < 0.05)
    c = 0.5 * (c - c.transpose(1, 0, 2))   # exactly antisymmetric
    ref, scale = jacobi_reference(c)
    rep = validate(MetricLieAlgebra(c=c, gram=np.eye(dim)))
    assert rep.antisym_residual == 0.0
    assert abs(rep.jacobi_residual - relative(ref, c)) <= \
        relative(JACOBI_ULPS * np.spacing(scale), c)


def test_builder_jacobi_status_matches_full_tensor_reference():
    rda = build_so_nH(4)
    for alg in _round_trip_algebras() + [twist(rda, paper_twist_so_nH(rda)).base]:
        ref, scale = jacobi_reference(alg.c)
        ref, bound = relative(ref, alg.c), relative(JACOBI_ULPS * np.spacing(scale), alg.c)
        got = validate(alg).jacobi_residual
        assert (got <= TOL_EXACT) == (ref <= TOL_EXACT)
        assert abs(got - ref) <= bound


def test_jacobi_verdict_is_scale_free():
    """c -> s c keeps the Jacobi verdict at every s = 10^k, k = -8..8: every
    builder up to sl(4,H) passes, and a random antisymmetric tensor fails."""
    lie = _round_trip_algebras() + [build_sl_nH(4).base]
    c = np.random.default_rng(0).standard_normal((6,) * 3)
    not_lie = MetricLieAlgebra(c=c - c.transpose(1, 0, 2), gram=np.eye(6))
    for s in 10.0 ** np.arange(-8, 9):
        res = [validate(dataclasses.replace(alg, c=s * alg.c)).jacobi_residual
               for alg in lie + [not_lie]]
        assert max(res[:-1]) <= TOL_EXACT < res[-1], s


def test_validate_jacobi_equals_dense_product():
    """Multiplying only the nonzero brackets gives exactly the residual of the
    full dim^4 product, including its inf when a constant is not finite."""
    builds = [build_so_pq(p, q) for p, q in ((1, 2), (2, 2), (2, 3), (2, 4), (3, 3))]
    builds += [build_su_pq(p, q) for p, q in ((1, 3), (2, 2), (2, 3), (2, 4))]
    builds += [build_sp_pq(p, q) for p, q in ((1, 2), (1, 3), (2, 2))]
    builds += [build_so_nH(n) for n in (4, 5, 6)] + [build_sl_nH(n) for n in (2, 3, 4)]
    builds += [build_type_iv_sl(n) for n in (2, 3, 4)] + [build_sl_nR(n) for n in (3, 4)]
    algs = [rda.base for rda in builds] + _round_trip_algebras()
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
    from perfbench.workloads import verify_documents
    algs += [alg for _, alg, _ in verify_documents(1)]
    rng = np.random.default_rng(3)
    for dim in (1, 2, 3, 14, 30):
        c = rng.standard_normal((dim,) * 3)
        algs.append(MetricLieAlgebra(c=c - c.transpose(1, 0, 2), gram=np.eye(dim)))
    for alg in algs:
        assert validate(alg).jacobi_residual == jacobi_dense(alg.c), alg.labels
    # one inf constant; at dim <= 2 no triple i < j < k reads it
    for dim, pos in ((1, (0, 0, 0)), (2, (0, 1, 0)), (2, (1, 1, 1)), (3, (0, 1, 2)),
                     (3, (2, 2, 0)), (5, (1, 3, 4))):
        c = np.zeros((dim,) * 3)
        c[pos] = np.inf
        with np.errstate(invalid="ignore"):
            alg = MetricLieAlgebra(c=c, gram=np.eye(dim))
        assert validate(alg).jacobi_residual == jacobi_dense(c) == math.inf


def test_validate_memory_at_max_dim():
    c = np.random.default_rng(0).standard_normal((MAX_DIM,) * 3)
    alg = MetricLieAlgebra(c=c - c.transpose(1, 0, 2), gram=np.eye(MAX_DIM))
    tracemalloc.start()
    try:
        validate(alg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < VALIDATE_PEAK_MB * 1e6


def test_indefinite_metric_rejected_at_construction():
    gram = np.diag([1.0, -1.0, 1.0])
    with pytest.raises(ValueError):
        MetricLieAlgebra(c=np.zeros((3, 3, 3)), gram=gram)


def test_orthonormal_frame_property():
    rng = np.random.default_rng(1)
    for _ in range(5):
        m = rng.standard_normal((5, 5))
        gram = m @ m.T + 5.0 * np.eye(5)
        f = orthonormal_frame(gram)
        assert np.allclose(f.T @ gram @ f, np.eye(5), atol=1e-10)


def test_orthonormal_frame_rejects_indefinite():
    with pytest.raises(ValueError):
        orthonormal_frame(np.diag([1.0, 0.0]))


def gram_schmidt_reference(gram):
    """Modified Gram-Schmidt on the standard basis w.r.t. gram, one vector at a
    time: the frame the Cholesky factor must reproduce."""
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


@given(st.integers(1, 30), st.integers(0, 2**32 - 1), st.floats(0.0, 5.0),
       st.floats(0.0, 1.5))
@settings(max_examples=60, deadline=None)
def test_cholesky_frame_is_gram_schmidt(n, seed, spread, scale):
    rng = np.random.default_rng(seed)
    # eigenvalues over `spread` decades, then basis vectors rescaled over
    # 2 * `scale` decades: badly conditioned and badly scaled Gram matrices
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    d = 10.0 ** rng.uniform(-scale, scale, n)
    gram = q @ np.diag(10.0 ** rng.uniform(-spread, 0.0, n)) @ q.T
    gram = d[:, None] * (0.5 * (gram + gram.T)) * d[None, :]
    cond = np.linalg.cond(gram)
    f = orthonormal_frame(gram)
    ref = gram_schmidt_reference(gram)
    assert np.max(np.abs(f - ref)) <= 1e-14 * cond * np.max(np.abs(ref))
    # orthonormalized in order: vector j lies in span(e_0 .. e_j)
    assert np.all(np.tril(f, -1) == 0.0)
    assert np.all(np.diag(f) > 0.0)
    alg = MetricLieAlgebra(c=np.zeros((n, n, n)), gram=gram)
    assert np.array_equal(alg.frame, f)
    assert np.array_equal(alg.frame_inv, np.linalg.cholesky(gram).T)
    assert np.max(np.abs(alg.frame @ alg.frame_inv - np.eye(n))) <= 1e-14 * cond


@pytest.mark.parametrize("gram", [[[1.0, 0.0], [0.0, 0.0]], [[1.0, 2.0], [2.0, 1.0]]],
                         ids=["singular", "indefinite"])
def test_non_positive_gram_raises_value_error(gram):
    with pytest.raises(ValueError, match="not positive definite"):
        MetricLieAlgebra(c=np.zeros((2, 2, 2)), gram=gram)
    # the n-block factor that root_decomposition uses reads only gram and n_indices
    with pytest.raises(ValueError, match="not positive definite"):
        MetricLieAlgebra.n_frame.func(SimpleNamespace(gram=np.asarray(gram), n_indices=(0, 1)))
    rot = np.array([[0.0, 1.0], [-1.0, 0.0]])
    with pytest.raises(ValueError, match="not positive definite"):
        _orthonormalize_family([rot, rot])


def test_metric_adjoint_property():
    rng = np.random.default_rng(2)
    m = rng.standard_normal((4, 4))
    g = rng.standard_normal((4, 4))
    gram = g @ g.T + 4.0 * np.eye(4)
    alg = MetricLieAlgebra(c=np.zeros((4, 4, 4)), gram=gram)
    ms = metric_adjoint(alg, m)
    for _ in range(5):
        x, y = rng.standard_normal((2, 4))
        assert abs(alg.inner(m @ x, y) - alg.inner(x, ms @ y)) <= 1e-10


def test_cached_frame_transports_structure_constants():
    rng = np.random.default_rng(3)
    g = rng.standard_normal((3, 3))
    gram = g @ g.T + 3.0 * np.eye(3)
    alg = MetricLieAlgebra(c=so3().c, gram=gram)
    # c_frame must reproduce brackets of the frame vectors in frame coordinates
    for a in range(3):
        for b in range(3):
            br = bracket(alg, alg.frame[:, a], alg.frame[:, b])
            back = alg.frame @ alg.c_frame[a, b, :]
            assert np.allclose(br, back, atol=1e-10)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_c_frame_matches_unoptimised_einsum(seed):
    rng = np.random.default_rng(seed)
    r, s = int(rng.integers(2, 7)), int(rng.integers(1, 4))
    base = build_solvmanifold(random_triple(r, s, rng))
    g = rng.standard_normal((base.dim, base.dim))
    alg = MetricLieAlgebra(c=base.c, gram=g @ g.T + base.dim * np.eye(base.dim))
    ref = np.einsum("ia,jb,ijk,lk->abl", alg.frame, alg.frame, alg.c, alg.frame_inv,
                    optimize=False)
    assert np.max(np.abs(alg.c_frame - ref)) <= 1e-12 * np.max(np.abs(ref))


@functools.cache
def _frame_algebras():
    """(name, algebra): every classical space at the CLI battery's sizes with its
    paper and enumerated twists and its rank-one reduction, Carnot builds, and the
    verify-stream algebras of seeds 1 and 2 with the documents they are sent as."""
    algs = []
    for space, _, args in BATTERY_SPACES:
        name = space + "".join(map(str, args))
        rda = symtwist.SPACES[space][0](*args)
        algs += [(name, rda.base), (name + " reduced", rank_one_reduction(rda.base))]
        try:
            algs.append((name + " paper", twist(rda, symtwist.paper_twist(rda)).base))
        except ValueError:      # sl(n,R) and the Grassmannians with q - p < 2
            pass
        algs += [(f"{name} {a.tag}", twist(rda, a).base)
                 for a in symtwist.enumerate_twists(rda)]
    rng = np.random.default_rng(1)
    triples = [complex_hyperbolic_triple(n) for n in (2, 3)]
    triples += [real_hyperbolic_triple(d) for d in (3, 5)]
    triples += [random_triple(r, s, rng) for r, s in ((3, 1), (4, 3))]
    algs += [(f"carnot {t.r},{t.s}", build_solvmanifold(t)) for t in triples]
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
    from perfbench.workloads import verify_documents, write_document
    for seed in (1, 2):
        for kind, alg, _ in verify_documents(seed):
            algs += [(kind, alg), (kind + " document", deserialize(write_document(alg)))]
    return algs


def test_identity_gram_builders_keep_c_frame_exact():
    # an identity Gram skips the transform; the frame forms keep every bit of the
    # general path, signed zeros included, and c_frame is stored C-contiguous
    algs = _frame_algebras()
    identity = [alg for _, alg in algs if alg.gram.tobytes() == np.eye(alg.dim).tobytes()]
    assert len(identity) > 0.8 * len(algs)
    # paper twists carry -0.0 constants, which the frame holds as +0.0
    assert any(np.signbit(alg.c[alg.c == 0.0]).any() for alg in identity)
    for name, alg in algs:
        c_frame, frame, frame_inv = frame_transform(alg.c, alg.gram)
        assert alg.c_frame.tobytes() == c_frame.tobytes(), name
        assert alg.frame.tobytes() == frame.tobytes(), name
        assert alg.frame_inv.tobytes() == frame_inv.tobytes(), name
        # laid out as the general path lays them out
        assert alg.frame.flags.c_contiguous and frame.flags.c_contiguous, name
        assert alg.frame_inv.flags.f_contiguous and frame_inv.flags.f_contiguous, name
        # stored C-contiguous: ricci and the ad stacks reshape it without a copy
        assert alg.c_frame.flags.c_contiguous, name


def test_identity_gram_c_frame_is_a_contiguous_copy_of_a_view():
    base = build_sl_nH(3).base
    for c in (base.c[:, ::-1, :], np.asfortranarray(base.c), base.c.transpose(2, 0, 1)):
        alg = MetricLieAlgebra(c=c, gram=np.eye(base.dim))
        assert alg.c_frame.flags.c_contiguous and alg.c_frame is not alg.c
        assert alg.c_frame.tobytes() == frame_transform(c, alg.gram)[0].tobytes()


def test_identity_gram_c_frame_of_a_non_finite_c_is_c_plus_zero():
    # reachable only by direct construction: deserialize refuses non-finite constants
    c = np.zeros((3, 3, 3))
    c[0, 1, 2], c[1, 0, 2], c[0, 2, 1], c[2, 0, 1] = np.inf, -np.inf, np.nan, -0.0
    with np.errstate(invalid="ignore"):
        alg = MetricLieAlgebra(c=c, gram=np.eye(3))
    assert alg.c_frame.tobytes() == (c + 0.0).tobytes()
    assert alg.frame.tobytes() == alg.frame_inv.tobytes() == np.eye(3).tobytes()


def test_so6H_and_paper_twist_construct_within_one_second():
    start = time.perf_counter()
    rda = build_so_nH(6)
    tw = twist(rda, paper_twist_so_nH(rda))
    elapsed = time.perf_counter() - start
    assert tw.base.dim == 30
    assert elapsed < 1.0, f"so(6,H) build and paper twist took {elapsed:.2f} s"


def test_iwasawa_check_on_hyperbolic_build():
    alg = build_solvmanifold(complex_hyperbolic_triple(2))
    rep = iwasawa_check(alg)
    assert rep.cond_i and rep.cond_ii and rep.cond_iii
    assert rep.abelian_residual == 0.0
    assert rep.symmetry_residual <= 1e-12
    assert rep.min_positive_eig > 0.4  # spectrum is {1/2, 1}
    assert abs(alg.norm(rep.witness) - 1.0) <= 1e-12


def _counting_factor(monkeypatch):
    calls, factor = [], algebra._cholesky_frame

    def counting(gram):
        calls.append(np.shape(gram))
        return factor(gram)

    monkeypatch.setattr(algebra, "_cholesky_frame", counting)
    return calls


def _rescaled_basis(alg):
    """The same metric algebra in the basis e'_i = 2^(i mod 3) e_i, with Gram
    diag(4^(i mod 3)); every constant is scaled by a power of two."""
    s = 2.0 ** (np.arange(alg.dim) % 3)
    return dataclasses.replace(alg, c=alg.c * s[:, None, None] * s[None, :, None] / s,
                               gram=np.diag(s * s))


def test_n_block_factored_once_per_algebra(monkeypatch):
    # a verify of a decorated document with a non-identity Gram: construction
    # factors the Gram, and the Iwasawa check and the eigenvalue type share one
    # factor of its n-block
    doc = serialize(_rescaled_basis(build_sl_nH(3).base))
    calls = _counting_factor(monkeypatch)
    alg = deserialize(doc)
    assert calls == [(alg.dim, alg.dim)]
    assert "n_frame" not in vars(alg)   # factored on first use, not at construction
    iwasawa_check(alg)
    eigenvalue_type(alg)
    n = len(alg.n_indices)
    assert calls == [(alg.dim, alg.dim), (n, n)]


def test_identity_gram_factors_only_the_n_block(monkeypatch):
    # an identity-Gram document: construction factors nothing
    doc = serialize(build_sl_nH(3).base)
    calls = _counting_factor(monkeypatch)
    alg = deserialize(doc)
    assert calls == []
    iwasawa_check(alg)
    eigenvalue_type(alg)
    assert calls == [(len(alg.n_indices),) * 2]


def test_roots_computed_once_per_algebra(monkeypatch):
    # the Iwasawa check diagonalizes ad(a)|n once; the eigenvalue type reads the
    # cached roots, with no eigh or eigvalsh of its own
    alg = deserialize(serialize(build_sl_nH(3).base))
    calls = []
    for name in ("eigh", "eigvalsh"):
        def counting(*args, name=name, func=getattr(np.linalg, name)):
            calls.append(name)
            return func(*args)
        monkeypatch.setattr(np.linalg, name, counting)
    iwasawa_check(alg)
    eigenvalue_type(alg)
    assert sorted(calls) == ["eigh", "eigvalsh"]
    eigenvalue_type(alg)
    assert len(calls) == 2


def test_zero_in_the_root_hull_gives_plus_zero_at_the_zero_witness():
    # 0 in the hull of 42 roots at rank 6: no direction of a is positive, and the
    # best value over the unit ball is +0.0 at A = 0, decided by Wolfe alone
    alg = rank6_opposite_roots()
    start = time.perf_counter()
    rep = iwasawa_check(alg)
    assert time.perf_counter() - start < 1.0
    assert not rep.cond_iii
    assert rep.min_positive_eig == 0.0 and math.copysign(1.0, rep.min_positive_eig) == 1.0
    assert np.array_equal(rep.witness, np.zeros(alg.dim))


def test_iwasawa_check_requires_decoration():
    with pytest.raises(ValueError):
        iwasawa_check(so3())


def test_iwasawa_check_rejects_non_ideal():
    alg = from_sparse(2, [(0, 1, 0, 1.0)], a_indices=(0,), n_indices=(1,))
    with pytest.raises(ValueError):
        iwasawa_check(alg)


def test_iwasawa_check_rejects_bad_partition():
    # refused at construction: CH^2 got type (1;2) and a 3-dim reduction with
    # n = (1, 2), and the type (7,9,12;1,1,1) with a = (0, 1) and n = (1, 2, 3)
    ch2 = build_solvmanifold(complex_hyperbolic_triple(2))
    for build in (
        lambda: from_sparse(3, [(0, 1, 2, 1.0)], a_indices=(0,), n_indices=(1,)),
        lambda: dataclasses.replace(ch2, n_indices=(1, 2)),
        lambda: dataclasses.replace(ch2, a_indices=(0, 1), n_indices=(1, 2, 3)),
    ):
        with pytest.raises(ValueError, match="^a_indices and n_indices must partition the basis$"):
            build()


def test_iwasawa_nonsymmetric_ad_fails_cond_ii():
    # [A, X] = X + Y, [A, Y] = Y: ad(A)|n is a Jordan block, not symmetric
    alg = from_sparse(
        3,
        [(0, 1, 1, 1.0), (0, 1, 2, 1.0), (0, 2, 2, 1.0)],
        a_indices=(0,),
        n_indices=(1, 2),
    )
    rep = iwasawa_check(alg)
    assert not rep.cond_ii
    assert rep.symmetry_residual > 0.1


@pytest.mark.parametrize("k", range(-14, 9))
@pytest.mark.parametrize("build", [
    lambda: build_solvmanifold(complex_hyperbolic_triple(3)),
    lambda: build_sl_nH(3).base,
    lambda: build_so_pq(2, 4).base,
], ids=["CH3", "sl3H", "so24"])
def test_iwasawa_injectivity_is_scale_free(build, k):
    # ad is injective on a at every homothety c -> 10^k c: the rank cut-off
    # is relative to the largest constant of ad(a)
    alg = build()
    rep = iwasawa_check(dataclasses.replace(alg, c=10.0 ** k * alg.c))
    assert rep.cond_i and rep.cond_ii


@pytest.mark.parametrize("builder, args, expected", [
    (build_so_pq, (2, 2), math.sqrt(1 / 2)),
    (build_sl_nR, (3,), math.sqrt(1 / 2)),
    (build_type_iv_sl, (3,), math.sqrt(1 / 2)),   # sl(3,C)
    (build_sl_nH, (3,), math.sqrt(1 / 2)),
    (build_su_pq, (2, 2), 1 / math.sqrt(5)),
    (build_so_nH, (4,), 1 / math.sqrt(5)),
    (build_sl_nR, (4,), 1 / math.sqrt(5)),
    (build_sl_nH, (4,), 1 / math.sqrt(5)),
    (build_so_pq, (2, 3), 1 / math.sqrt(10)),
    (build_so_pq, (2, 4), 1 / math.sqrt(10)),
    (build_su_pq, (2, 3), 1 / math.sqrt(10)),
    (build_so_pq, (3, 3), 1 / math.sqrt(10)),
    (build_so_pq, (3, 4), 1 / math.sqrt(28)),
    (build_so_nH, (6,), math.sqrt(2 / 35)),
    # sl(n,R) up to rank 7: sqrt(12 / (n^3 - n))
    (build_sl_nR, (5,), math.sqrt(12 / 120)),
    (build_sl_nR, (6,), math.sqrt(12 / 210)),
    (build_sl_nR, (7,), math.sqrt(12 / 336)),
    (build_sl_nR, (8,), math.sqrt(12 / 504)),
])
def test_iwasawa_positive_direction_closed_forms(builder, args, expected):
    alg = builder(*args).base
    start = time.perf_counter()
    rep = iwasawa_check(alg)
    elapsed = time.perf_counter() - start
    assert rep.cond_iii
    assert abs(rep.min_positive_eig - expected) <= 1e-12
    assert abs(alg.norm(rep.witness) - 1.0) <= 1e-12
    assert elapsed < 1.0, f"iwasawa_check took {elapsed:.2f} s"


def _commuting_extension(d, q):
    """a = R^k acting on an abelian n = R^m by S_a = q diag(d[a]) q^T."""
    k, m = d.shape
    ops = np.einsum("ij,aj,lj->ail", q, d, q)
    c = np.zeros((k + m, k + m, k + m))
    c[:k, k:, k:] = ops.transpose(0, 2, 1)
    c[k:, :k, k:] = -ops.transpose(2, 0, 1)
    alg = MetricLieAlgebra(c=c, gram=np.eye(k + m), a_indices=range(k),
                           n_indices=range(k, k + m))
    return alg, ops


@given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.integers(1, 6),
       st.sampled_from(["normal", "shifted", "integer"]))
@settings(max_examples=60, deadline=None)
def test_iwasawa_positive_direction_beats_dense_scan(seed, k, m, kind):
    rng = np.random.default_rng(seed)
    d = rng.standard_normal((k, m))
    if kind == "shifted":      # usually a positive direction exists
        d = np.abs(d) + 0.1
    elif kind == "integer":    # repeated and zero roots
        d = np.round(2 * d)
    q = np.linalg.qr(rng.standard_normal((m, m)))[0]
    alg, ops = _commuting_extension(d, q)
    rep = iwasawa_check(alg)
    w = rep.witness[:k]
    # the best value over the unit ball: at a unit w, or at w = 0 when none is positive
    assert abs(np.linalg.norm(w) - 1.0) <= 1e-12 or np.array_equal(w, np.zeros(k))
    least = np.min(np.linalg.eigvalsh(np.tensordot(w, ops, 1)))
    assert abs(rep.min_positive_eig - least) <= 1e-12 * max(1.0, np.max(np.abs(d)))
    scan = rng.standard_normal((4000, k))
    scan /= np.linalg.norm(scan, axis=1)[:, None]
    best_scanned = max(0.0, np.max(np.min(scan @ d, axis=1)))
    assert rep.min_positive_eig >= best_scanned - 1e-9 * max(1.0, np.max(np.abs(d)))
    assert rep.cond_iii == (rep.min_positive_eig > 1e-10)


@pytest.mark.parametrize("roots, expected", [
    ([[1, 0], [0, 1]], math.sqrt(1 / 2)),                     # a positive direction
    ([[1, 0], [-1, 0], [0, 1], [0, -1]], 0.0),                # 0 inside the hull
    ([[1, 0], [-1, 0], [0, 1]], 0.0),                         # 0 on an edge of it
    ([[0, 0], [1, 0]], 0.0),                                  # a zero root
    ([[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0]], 0.0),    # roots span a plane
    ([[0, 0, 0]], 0.0),                                       # ad(a) vanishes on n
])
def test_best_positive_direction_exact_on_degenerate_roots(roots, expected):
    # over the unit ball: a unit w when the value is positive, else +0.0 at w = 0
    d = np.array(roots, dtype=float).T
    ops = [np.diag(row) for row in d]
    w, value = _best_positive_direction(*_joint_roots(ops))
    if expected > 0:
        assert abs(np.linalg.norm(w) - 1.0) <= 1e-12
        assert abs(value - expected) <= 1e-12
    else:
        assert np.array_equal(w, np.zeros(len(d)))
        assert value == 0.0 and math.copysign(1.0, value) == 1.0


def test_best_positive_direction_rank_one_is_the_better_end_of_the_spectrum():
    rng = np.random.default_rng(6)
    for shift in (-3.0, 0.0, 3.0):
        g = rng.standard_normal((5, 5))
        s = g + g.T + shift * np.eye(5)
        lo, hi = np.linalg.eigvalsh(s)[[0, -1]]
        w, value = _best_positive_direction(*_joint_roots([s]))
        expected = max(lo, -hi, 0.0)
        if expected > 0:
            assert abs(w[0]) == 1.0
            assert abs(value - expected) <= 1e-12
        else:
            assert np.array_equal(w, [0.0]) and value == 0.0


def test_best_positive_direction_never_below_the_zero_witness():
    # non-commuting pairs: the value at Wolfe's direction of the joint-roots
    # diagonals can be negative, below the +0.0 that w = 0 attains
    rng = np.random.default_rng(0)
    for _ in range(2000):
        raw = rng.standard_normal((2, 4, 4))
        ops = raw + raw.transpose(0, 2, 1) + np.eye(4)
        w, value = _best_positive_direction(*_joint_roots(ops))
        assert value >= 0.0
        assert value == np.min(np.linalg.eigvalsh(np.einsum("a,aij->ij", w, ops)))
        assert (value == 0.0) == (not w.any())

def test_best_positive_direction_tolerates_non_finite_operators():
    for bad in (np.nan, np.inf):
        s = np.eye(3)
        s[0, 1] = s[1, 0] = bad
        w, value = _best_positive_direction(*_joint_roots([s, np.eye(3)]))
        assert math.isnan(value)
        assert w.shape == (2,)


def _round_trip_algebras():
    """Every builder, untwisted and twisted, plus a decorated algebra with a
    non-identity Gram matrix."""
    algs = [
        build_solvmanifold(complex_hyperbolic_triple(2)),
        build_solvmanifold(real_hyperbolic_triple(3)),
    ]
    for rda in (build_so_pq(2, 3), build_su_pq(2, 2), build_sp_pq(1, 2),
                build_so_nH(4), build_sl_nH(2), build_type_iv_sl(3), build_sl_nR(3)):
        algs.append(rda.base)
        algs.append(twist(rda, restricted_height_twist(rda, [0])).base)
    base = algs[0]
    g = np.random.default_rng(5).standard_normal((base.dim, base.dim))
    algs.append(MetricLieAlgebra(
        c=base.c, gram=g @ g.T + 2.0 * np.eye(base.dim), labels=base.labels,
        a_indices=base.a_indices, n_indices=base.n_indices,
    ))
    return algs


def test_serialize_round_trip_identity_gram():
    for alg in _round_trip_algebras():
        back = deserialize(serialize(alg))
        assert np.array_equal(back.c, alg.c)
        assert np.array_equal(back.gram, alg.gram)
        assert back.labels == alg.labels
        assert back.a_indices == alg.a_indices
        assert back.n_indices == alg.n_indices
        assert back.roots == alg.roots


def test_serialize_round_trip_general_gram():
    rng = np.random.default_rng(4)
    g = rng.standard_normal((3, 3))
    gram = g @ g.T + 3.0 * np.eye(3)
    alg = MetricLieAlgebra(c=so3().c, gram=gram)
    back = deserialize(serialize(alg))
    assert np.array_equal(back.c, alg.c)
    assert np.array_equal(back.gram, alg.gram)


@given(
    st.lists(
        st.tuples(
            st.integers(0, 3),
            st.integers(0, 4),
            st.integers(0, 4),
            st.floats(-8, 8, allow_nan=False, width=32),
        ),
        max_size=8,
    )
)
@settings(max_examples=40, deadline=None)
def test_serialize_round_trip_random_tensors(rows):
    entries = [(i, j, k, v) for (i, j, k, v) in rows if i < j and v != 0.0]
    alg = from_sparse(5, entries)
    back = deserialize(serialize(alg))
    assert np.array_equal(back.c, alg.c)


def test_deserialize_rejects_malformed():
    with pytest.raises(ValueError):
        deserialize("this is not json")
    with pytest.raises(ValueError):
        deserialize("[1, 2, 3]")
    with pytest.raises(ValueError):
        deserialize('{"labels": []}')
    for doc in (
        '{"dim": 0}',
        '{"dim": null}',
        '{"dim": 3, "labels": ["A", "B"]}',
        '{"dim": 2, "labels": "AB"}',
        '{"dim": 2, "decoration": [0]}',
        '{"dim": 2, "decoration": {"a_indices": [0], "n_indices": [1], "roots": [null]}}',
        '{"dim": 2.0}',
        '{"dim": "2"}',
        '{"dim": 2, "gram": [1, 0.5, 0, 1]}',                       # not symmetric
        '{"dim": 2, "decoration": {"a_indices": ["x"], "n_indices": [1]}}',
        '{"dim": 2, "decoration": {"a_indices": [0.0], "n_indices": [1]}}',
        '{"dim": 2, "decoration": {"a_indices": 0, "n_indices": [1]}}',
        '{"dim": 2, "decoration": {"a_indices": [0], "n_indices": [1], "roots": [null, [1.5]]}}',
        '{"dim": 2, "decoration": {"a_indices": [0], "n_indices": [1], "roots": [null, "1"]}}',
        '{"dim": 2, "structure": [[0, 1, 1, 1e200]]}',              # above MAX_CONSTANT
        '{"dim": 3, "structure": [[0, 1, 2, 1e160]]}',              # Jacobi 0, Ricci overflows
        # only JSON numbers are constants or Gram entries, and only strings are labels
        '{"dim": 2, "structure": [[0, 1, 1, "1.0"]]}',
        '{"dim": 2, "structure": [[0, 1, 1, true]]}',
        '{"dim": 2, "gram": ["1", "0", "0", "1"]}',
        '{"dim": 2, "gram": [true, false, false, true]}',
        '{"dim": 2, "structure": [[0, 1, 1, 1' + "0" * 400 + ']]}',   # too large for a float
        '{"dim": 2, "gram": [1' + "0" * 400 + ', 0, 0, 1]}',
        '{"dim": 2, "labels": ["A", 2]}',
        '{"dim": 2, "gram": [[1, 0], [0, 1]]}',                     # not one flat list
        # a falsy field of the wrong type is not an absent one
        '{"dim": 2, "labels": false}',
        '{"dim": 2, "labels": ""}',
        '{"dim": 2, "structure": {}}',
        '{"dim": 2, "decoration": 0}',
        '{"dim": 2, "decoration": {"a_indices": [0], "n_indices": [1], "roots": false}}',
    ):
        with pytest.raises(ValueError):
            deserialize(doc)


def test_deserialize_reads_null_and_empty_optional_fields_as_absent():
    for doc in ('{"dim": 2, "labels": null, "decoration": null}',
                '{"dim": 2, "labels": [], "structure": []}',
                '{"dim": 2, "decoration": {"a_indices": [0], "n_indices": [1], "roots": []}}'):
        alg = deserialize(doc)
        assert alg.labels == ("e0", "e1") and alg.roots == (None, None)


_REFUSED_FIELDS = (
    ({"labels": ("x",)}, '"labels": ["x"]',
     "'labels' must list one entry per basis vector (dim 3)"),
    ({"labels": (0, 1, 2)}, '"labels": [0, 1, 2]', "'labels' entries must be strings"),
    ({"roots": (None, (1,))}, '"decoration": {"roots": [null, [1]]}',
     "'roots' must list one entry per basis vector (dim 3)"),
    ({"roots": (None, (1.7,), (2.2,))}, '"decoration": {"roots": [null, [1.7], [2.2]]}',
     "'roots' entries must be null or lists of integers"),
    ({"roots": (None, 1, 2)}, '"decoration": {"roots": [null, 1, 2]}',
     "'roots' entries must be null or lists of integers"),
)


@pytest.mark.parametrize("fields, document, message", _REFUSED_FIELDS,
                         ids=[doc for _, doc, _ in _REFUSED_FIELDS])
def test_construction_refuses_what_deserialize_refuses(fields, document, message):
    # no algebra is built that serialize would write as a refused document
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        MetricLieAlgebra(c=so3().c, gram=np.eye(3), **fields)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        deserialize('{"dim": 3, ' + document + "}")


def test_construction_reads_numpy_integer_roots():
    alg = MetricLieAlgebra(c=so3().c, gram=np.eye(3), a_indices=(0,), n_indices=(1, 2),
                           roots=(None, np.array([1, -2]), (np.int64(3), np.int8(0))))
    assert alg.roots == (None, (1, -2), (3, 0))
    assert all(type(v) is int for r in alg.roots[1:] for v in r)
    assert deserialize(serialize(alg)).roots == alg.roots


def test_every_builder_output_round_trips():
    for name, alg in _frame_algebras():
        text = serialize(alg)
        back = deserialize(text)
        assert serialize(back) == text, name
        assert back.labels == alg.labels and back.roots == alg.roots, name
        assert (back.a_indices, back.n_indices) == (alg.a_indices, alg.n_indices), name


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_deserialize_bounds_constants_before_any_overflow():
    # repeated rows summing past the largest double, and a tiny Gram whose frame
    # transform would overflow: each refused without a warning
    for doc in (
        '{"dim": 2, "structure": [[0, 1, 1, 1e308], [0, 1, 1, 1e308]]}',
        '{"dim": 2, "gram": [1e-20, 0, 0, 1e-20], "structure": [[0, 1, 1, 1e300]]}',
    ):
        with pytest.raises(ValueError, match=r"above 1e\+150"):
            deserialize(doc)
    # repeated rows are summed before the bound, which is inclusive
    alg = deserialize('{"dim": 2, "structure": [[0, 1, 1, 5e149], [0, 1, 1, 5e149]]}')
    assert alg.c[0, 1, 1] == 5e149 + 5e149


def test_deserialize_rejects_bad_structure_rows():
    for rows in (
        "[[1, 0, 0, 1.0]]",
        "[[0, 1, 0, NaN]]",
        "[[0, 1, 2]]",
        "[[0, 1, 0, 1.0, 5]]",
        "[[0, 1, 2, 1.0]]",
        "[[0, 1, null, 1.0]]",
        "[[0.5, 1, 1, 1.0]]",
        "[[0, true, 1, 1.0]]",
        "7",
    ):
        with pytest.raises(ValueError):
            deserialize('{"dim": 2, "structure": ' + rows + "}")


def test_deserialize_rejects_indefinite_gram():
    doc = '{"dim": 2, "gram": [1.0, 0.0, 0.0, -1.0], "structure": []}'
    with pytest.raises(ValueError):
        deserialize(doc)
    # singular to working precision though Cholesky passes, and an indefinite
    # symmetric part whose lower triangle alone is positive definite
    for gram in ("[0.1, 1, 1, 10]", "[1e-12, 5e-11, 0, 1e-12]"):
        with pytest.raises(ValueError, match="gram is not positive definite"):
            deserialize('{"dim": 2, "gram": ' + gram + ', "structure": []}')


def test_validate_reports_gram_symmetry_defect_and_overflow():
    alg = MetricLieAlgebra(c=np.zeros((2, 2, 2)), gram=np.array([[1.0, 0.5], [0.0, 1.0]]))
    assert not validate(alg).ok
    big = from_sparse(2, [(0, 1, 1, 1e200)])
    rep = validate(big)
    assert not math.isfinite(rep.jacobi_residual)
    assert not rep.ok


def test_serialize_is_deterministic():
    alg = build_solvmanifold(complex_hyperbolic_triple(3))
    assert serialize(alg) == serialize(alg)


def test_inner_norm_and_basis_vector():
    alg = so3()
    v = basis_vector(alg, 1)
    assert v.tolist() == [0.0, 1.0, 0.0]
    assert alg.inner(v, v) == 1.0
    assert alg.norm(2.0 * v) == 2.0
    assert math.isclose(alg.norm(np.array([3.0, 4.0, 0.0])), 5.0)
