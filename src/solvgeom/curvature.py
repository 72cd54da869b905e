"""Curvature of left-invariant metrics from structure constants.

Every formula runs in the orthonormal frame cached by `MetricLieAlgebra`
(`frame`, `frame_inv` and the C-contiguous `c_frame`), so a non-identity Gram
matrix costs no linear solve, and an identity one no transform at all.  The
frame Ricci form, four BLAS products on `c_frame`, is the algebra's cached
`ricci_frame`: `ricci` moves it to the original basis, and `einstein_verdict`
decides ric = lam * gram on it, so the two together compute it once.
Sectional curvature has two paths chosen by input size, one formula and one
quadratic form `_FORM` in five rows.  `sectionals` (N planes) reads every
bracket and every U from ad stacks, ad[n, j] = [v_n, f_j], each one matmul of
the row stack with `c_frame`, and keeps one (N, dim, dim) stack alive at a
time.  `sectional` (one plane) would spend its time in the batch's numpy
dispatches on dim-long arrays, so it runs Gram-Schmidt on Python floats and
reads its rows off the per-algebra `ad_table` in two matmuls; on large
batches the ad stacks are the faster form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .algebra import MetricLieAlgebra

__all__ = [
    "EinsteinVerdict",
    "EigenvalueType",
    "mean_curvature",
    "ricci",
    "einstein_verdict",
    "sectional",
    "sectionals",
    "eigenvalue_type",
    "rank_one_reduction",
]


def _ad_stack(alg, vs):
    """ad stacks of the rows of vs in frame coordinates, ad[n, j] = [vs[n], f_j],
    one matmul with the (dim, dim * dim) view of the C-contiguous `c_frame`."""
    n, d = vs.shape
    return (vs @ alg.c_frame.reshape(d, d * d)).reshape(n, d, d)


def mean_curvature(alg):
    """H with <H, x> = tr ad(x); equals sum_i U(f_i, f_i) over any orthonormal frame."""
    return alg.frame @ np.einsum("zkk->z", alg.c_frame)


def ricci(alg):
    """Ricci form as a symmetric matrix in the original basis."""
    r = alg.frame_inv.T @ alg.ricci_frame @ alg.frame_inv
    return 0.5 * (r + r.T)


@dataclass
class EinsteinVerdict:
    is_einstein: bool
    lam: float
    residual: float


def einstein_verdict(alg, tol=1e-9):
    """Decide ric = lam * gram, in the frame: ric_frame = lam * Id.

    The residual max|ric_frame - lam * Id| is divided by max|c_frame|^2, the
    scale of a form quadratic in c_frame, so a homothety (c -> s c, or
    gram -> s gram) leaves the verdict as it is.  c_frame = 0 is flat: lam = 0.
    """
    scale = float(np.max(np.abs(alg.c_frame)))
    if scale == 0.0:
        return EinsteinVerdict(is_einstein=True, lam=0.0, residual=0.0)
    r = alg.ricci_frame
    lam = float(np.trace(r)) / alg.dim
    # divided twice: scale**2 can underflow where the residual does not
    residual = float(np.max(np.abs(r - lam * np.eye(alg.dim)))) / scale / scale
    return EinsteinVerdict(is_einstein=residual <= tol, lam=lam, residual=residual)


# K = sum over a <= b of _FORM[a, b] <r_a, r_b>, over the five rows of `sectionals`
_FORM = np.zeros((5, 5))
_FORM[0, 0], _FORM[0, 2], _FORM[0, 3] = -0.75, -0.5, 0.5
_FORM[2, 2], _FORM[2, 3], _FORM[3, 3] = 0.25, 0.5, 0.25
_FORM[1, 4] = -1.0
# the same form on the eight rows (0, r0, r1, r2, -r0, 0, r3, r4) of `sectional`
_FORM8 = np.zeros((8, 8))
_FORM8[np.ix_((1, 2, 3, 6, 7), (1, 2, 3, 6, 7))] = _FORM


def sectional(alg, x, y):
    """Sectional curvature of span{x, y}; inputs need not be orthonormal.

    One plane of `sectionals`, with the same formula and refusal thresholds, in
    a handful of numpy calls.  Gram-Schmidt runs on Python floats: norms by
    `math.hypot`, the inner product by `math.fsum`.  The eight rows
    (0, r0, r1, r2, -r0, 0, r3, r4) come from two matmuls, uw @ `ad_table` =
    [ad_u | ad_u^T] and [ad_w | ad_w^T], then uw against those four matrices,
    and K = <R R^T, _FORM8>.
    """
    d = alg.dim
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != (d,) or y.shape != (d,):
        raise ValueError("coefficient vectors must have length dim")
    xs, ys = (np.array((x, y)) @ alg.frame_inv.T).tolist()
    nx = math.hypot(*xs)
    if nx == 0.0:
        raise ValueError("x is numerically zero")
    u = [v / nx for v in xs]
    p = math.fsum([a * b for a, b in zip(u, ys)])
    w = [b - p * a for a, b in zip(u, ys)]
    nw = math.hypot(*w)
    if nw <= 1e-12 * math.hypot(*ys):
        raise ValueError("x and y are linearly dependent")
    uw = np.array((u, [v / nw for v in w]))
    ads = (uw @ alg.ad_table).reshape(4, d, d)      # ad_u, ad_u^T, ad_w, ad_w^T
    rows = (uw @ ads).reshape(8, d)
    return float(np.vdot(rows @ rows.T, _FORM8))


def sectionals(alg, xs, ys):
    """Sectional curvatures of the planes span{xs[n], ys[n]} for (N, dim) stacks.

    With (u, w) the Gram-Schmidt pair of each row in frame coordinates,
    K = -3/4 |[u,w]|^2 - 1/2 <[u,[u,w]],w> - 1/2 <[w,[w,u]],u>
        + |U(u,w)|^2 - <U(u,u),U(w,w)>.
    Every term is read off the ad stacks of u and w (`_ad_stack`):
    [u,w] = w ad_u, U(x,y) = -(ad_x^T y + ad_y^T x)/2,
    <[u,[u,w]],w> = <[u,w], ad_u^T w> and <[w,[w,u]],u> = -<[u,w], ad_w^T u>.
    With the five rows r0 = [u,w], r1 = ad_u^T u, r2 = ad_u^T w, r3 = ad_w^T u
    and r4 = ad_w^T w, K is the fixed quadratic form `_FORM`:
    K = -3/4 r0.r0 - 1/2 r0.r2 + 1/2 r0.r3 + 1/4 (r2 + r3).(r2 + r3) - r1.r4.
    The Gram-Schmidt sums are `add.reduce`, the rounding of `np.linalg.norm`, on
    rows first scaled by 2^-e, e the `frexp` exponent of the row's largest |entry|:
    the scale is exact, and no square of a coordinate overflows or underflows.
    No refusal depends on the scale of x, y or the Gram matrix: x is refused when
    its frame norm is 0, y when at most 1e-12 of its frame norm is orthogonal to x.
    """
    xs, ys = (np.asarray(v, dtype=float) @ alg.frame_inv.T for v in (xs, ys))
    xs, ys = (np.ldexp(v, -np.frexp(np.max(np.abs(v), axis=1, initial=0.0))[1][:, None])
              for v in (xs, ys))
    n, d = xs.shape
    nx = np.sqrt((xs * xs).sum(axis=1))
    if (nx == 0.0).any():
        raise ValueError("x is numerically zero")
    pair = np.empty((n, 2, d))
    u = np.divide(xs, nx[:, None], out=pair[:, 0])
    w = ys - (ys * u).sum(axis=1)[:, None] * u
    nw = np.sqrt((w * w).sum(axis=1))
    if (nw <= 1e-12 * np.sqrt((ys * ys).sum(axis=1))).any():
        raise ValueError("x and y are linearly dependent")
    w = np.divide(w, nw[:, None], out=pair[:, 1])
    rows = np.empty((5, n, d))          # rows[a, n] = r_a of plane n
    ad = _ad_stack(alg, u)
    np.matmul(w[:, None], ad, out=rows[0, :, None])
    np.matmul(pair, ad.mT, out=rows[1:3].transpose(1, 0, 2))
    del ad                              # one (N, dim, dim) stack at a time
    np.matmul(pair, _ad_stack(alg, w).mT, out=rows[3:].transpose(1, 0, 2))
    form = (_FORM @ rows.reshape(5, n * d)).reshape(5, n, d)
    return np.einsum("anj,anj->n", form, rows)


@dataclass
class EigenvalueType:
    eigenvalues: tuple
    multiplicities: tuple
    scale: float


def _mean_curvature_direction(alg, refusal):
    """H/|H| for the mean-curvature vector H, refused when |H| is at most 1e-14
    times the largest frame constant (a scale-free cut-off) or when a coordinate
    of H/|H| on n_indices is above 1e-9 (H does not lie in a)."""
    h = mean_curvature(alg)
    nh = alg.norm(h)
    if nh <= 1e-14 * np.max(np.abs(alg.c_frame)):
        raise ValueError(f"mean curvature vanishes; {refusal}")
    hu = h / nh
    if np.max(np.abs(hu[list(alg.n_indices)]), initial=0.0) > 1e-9:
        raise ValueError("mean-curvature vector does not lie in a")
    return hu


def eigenvalue_type(alg):
    """Spectrum of ad(A)|n as coprime positive integers with multiplicities, for
    A the unit mean-curvature direction: roots . A over `root_decomposition`,
    exact when ad(a)|n is symmetric and commuting (Iwasawa (i) and (ii)).

    scale * eigenvalues recovers the spectrum.  The cut-offs are relative: |H|
    against the largest frame constant, and the eigenvalues against 1e-8 times
    the largest one in absolute value, so rescaling the metric gives the same type.
    """
    if not alg.decorated:
        raise ValueError("eigenvalue_type needs an Iwasawa decoration")
    if not alg.n_indices:
        raise ValueError("eigenvalue_type needs a non-empty nilradical (n_indices)")
    hu = _mean_curvature_direction(alg, "no direction in a to take")
    vals = np.sort(alg.root_decomposition[1] @ hu[list(alg.a_indices)])
    cut = 1e-8 * np.max(np.abs(vals))

    reps, mults = [], []
    for v in vals:
        if reps and abs(v - reps[-1]) <= cut:
            reps[-1] = (reps[-1] * mults[-1] + v) / (mults[-1] + 1)
            mults[-1] += 1
        else:
            reps.append(float(v))
            mults.append(1)
    if reps[0] <= cut:
        raise ValueError("ad(A)|n has a non-positive eigenvalue; not of Iwasawa type")

    fracs = [Fraction(r / reps[0]).limit_denominator(64) for r in reps]
    lcm = math.lcm(*(fr.denominator for fr in fracs))
    ints = [int(fr * lcm) for fr in fracs]
    g = math.gcd(*ints)
    ints = [v // g for v in ints]
    scale = reps[0] / ints[0]
    return EigenvalueType(
        eigenvalues=tuple(ints), multiplicities=tuple(mults), scale=float(scale)
    )


def rank_one_reduction(alg):
    """Replace a by the line through the mean-curvature vector H.

    Returns a decorated algebra on basis {H/|H|} + n-basis.  For a standard
    Einstein algebra the reduction is Einstein with the same constant.
    """
    if not alg.decorated:
        raise ValueError("rank_one_reduction needs an Iwasawa decoration")
    hu = _mean_curvature_direction(alg, "nothing to reduce to")
    a_idx, n_idx = list(alg.a_indices), list(alg.n_indices)

    dim = 1 + len(n_idx)
    c = np.zeros((dim, dim, dim))
    # adh_n[j, k] = [H, e_j]_k on n, from the a-block of c (H lies in a)
    adh_n = np.tensordot(hu[a_idx], alg.c[np.ix_(a_idx, n_idx, n_idx)], 1)
    c[0, 1:, 1:] = adh_n
    c[1:, 0, 1:] = -adh_n
    c[1:, 1:, 1:] = alg.c[np.ix_(n_idx, n_idx, n_idx)]

    gram = np.zeros((dim, dim))
    gram[0, 0] = 1.0
    gram[1:, 1:] = alg.gram[np.ix_(n_idx, n_idx)]
    labels = ("H",) + tuple(alg.labels[i] for i in n_idx)
    return MetricLieAlgebra(
        c=c,
        gram=gram,
        labels=labels,
        a_indices=(0,),
        n_indices=tuple(range(1, dim)),
    )
