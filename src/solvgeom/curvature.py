"""Curvature of left-invariant metrics from structure constants.

Every formula runs in the orthonormal frame cached by `MetricLieAlgebra`
(`frame`, `frame_inv`, `c_frame`), so a non-identity Gram matrix costs no
linear solve; `einstein_verdict` alone solves once, for the Einstein constant.
`sectionals` (and `sectional`, its one-row call) and `U_map` read every
bracket and every U from ad stacks, ad[n, j] = [v_n, f_j], each one matmul
of the row stack with `c_frame`; a batch keeps one (N, dim, dim) stack alive
at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .algebra import MetricLieAlgebra, ad_matrix, restricted_symmetric

__all__ = [
    "EinsteinVerdict",
    "EigenvalueType",
    "U_map",
    "mean_curvature",
    "ricci",
    "einstein_verdict",
    "sectional",
    "sectionals",
    "eigenvalue_type",
    "rank_one_reduction",
]


def _ad_stack(c_flat, vs):
    """ad stacks of the rows of vs in frame coordinates, ad[n, j] = [vs[n], f_j],
    from c_flat = c_frame.reshape(dim, dim * dim) (a copy: `c_frame` is not
    C-contiguous, so callers reshape it once)."""
    n, d = vs.shape
    return (vs @ c_flat).reshape(n, d, d)


def U_map(alg, x, y):
    """Symmetric bilinear U with 2<U(x,y),z> = <[z,x],y> + <[z,y],x> for all z.

    In the orthonormal frame U(x, y) = -(ad_x^T y + ad_y^T x) / 2, and with
    the rows ad[j] = [x, f_j] of an ad stack, ad_x^T y is `ad @ y`.
    """
    xy = np.asarray([x, y], dtype=float) @ alg.frame_inv.T
    ad_x, ad_y = _ad_stack(alg.c_frame.reshape(alg.dim, -1), xy)
    return alg.frame @ (-0.5 * (ad_x @ xy[1] + ad_y @ xy[0]))


def mean_curvature(alg):
    """H with <H, x> = tr ad(x); equals sum_i U(f_i, f_i) over any orthonormal frame."""
    return alg.frame @ np.einsum("zkk->z", alg.c_frame)


def ricci(alg):
    """Ricci form as a symmetric matrix in the original basis.

    In an orthonormal frame {f_i},
      ric(x,y) = -1/2 sum_i <[x,f_i],[y,f_i]> - 1/2 B(x,y)
                 + 1/4 sum_ij <[f_i,f_j],x><[f_i,f_j],y> - <U(x,y),H>.
    """
    C = alg.c_frame
    term1 = -0.5 * np.einsum("xik,yik->xy", C, C)
    B = np.einsum("iba,jab->ij", C, C)
    term3 = 0.25 * np.einsum("ijx,ijy->xy", C, C)
    h = np.einsum("zkk->z", C)
    t4 = np.einsum("zxy,z->xy", C, h)
    r_frame = term1 - 0.5 * B + term3 - 0.5 * (t4 + t4.T)
    r = alg.frame_inv.T @ r_frame @ alg.frame_inv
    return 0.5 * (r + r.T)


@dataclass
class EinsteinVerdict:
    is_einstein: bool
    lam: float
    residual: float


def einstein_verdict(alg, tol=1e-9):
    """Decide ric = lam * gram; residual is max-norm relative to ric (absolute if tiny)."""
    r = ricci(alg)
    lam = float(np.trace(np.linalg.solve(alg.gram, r))) / alg.dim
    denom = max(1.0, float(np.max(np.abs(r))))
    residual = float(np.max(np.abs(r - lam * alg.gram))) / denom
    return EinsteinVerdict(is_einstein=residual <= tol, lam=lam, residual=residual)


def sectional(alg, x, y):
    """Sectional curvature of span{x, y}; inputs need not be orthonormal."""
    return float(sectionals(alg, np.asarray(x)[None], np.asarray(y)[None])[0])


def _frame_pairs(alg, xs, ys):
    """(N, 2, dim) stack of the Gram-Schmidt pairs (u, w) of the rows of
    xs, ys, in frame coordinates.  Its temporaries are freed on return, before
    `sectionals` builds an ad stack."""
    xs = np.asarray(xs, dtype=float) @ alg.frame_inv.T
    ys = np.asarray(ys, dtype=float) @ alg.frame_inv.T
    nx = np.linalg.norm(xs, axis=1)
    if np.any(nx <= 1e-14):
        raise ValueError("x is numerically zero")
    u = xs / nx[:, None]
    w = ys - np.sum(ys * u, axis=1)[:, None] * u
    nw = np.linalg.norm(w, axis=1)
    if np.any(nw <= 1e-12 * np.maximum(1.0, np.linalg.norm(ys, axis=1))):
        raise ValueError("x and y are linearly dependent")
    return np.stack([u, w / nw[:, None]], axis=1)


def sectionals(alg, xs, ys):
    """Sectional curvatures of the planes span{xs[n], ys[n]} for (N, dim) stacks.

    With (u, w) the Gram-Schmidt pair of each row in frame coordinates,
    K = -3/4 |[u,w]|^2 - 1/2 <[u,[u,w]],w> - 1/2 <[w,[w,u]],u>
        + |U(u,w)|^2 - <U(u,u),U(w,w)>.
    Every term is read off the ad stacks of u and w (`_ad_stack`):
    [u,w] = w ad_u, U(x,y) = -(ad_x^T y + ad_y^T x)/2,
    <[u,[u,w]],w> = <[u,w], ad_u^T w> and <[w,[w,u]],u> = -<[u,w], ad_w^T u>.
    """
    pair = _frame_pairs(alg, xs, ys)
    u, w = pair[:, 0], pair[:, 1]
    c_flat = alg.c_frame.reshape(alg.dim, -1)
    ad = _ad_stack(c_flat, u)
    uw = (w[:, None] @ ad)[:, 0]
    au = pair @ ad.mT                   # rows ad_u^T u, ad_u^T w
    del ad                              # one (N, dim, dim) stack at a time
    aw = pair @ _ad_stack(c_flat, w).mT
    uxy = -0.5 * (au[:, 1] + aw[:, 0])
    terms = (-0.75 * uw * uw - 0.5 * uw * au[:, 1] + 0.5 * uw * aw[:, 0]
             + uxy * uxy - au[:, 0] * aw[:, 1])
    return terms.sum(axis=1)


@dataclass
class EigenvalueType:
    eigenvalues: tuple
    multiplicities: tuple
    scale: float


def eigenvalue_type(alg, direction=None, tol=1e-8):
    """Spectrum of ad(A)|n as coprime positive integers with multiplicities.

    A defaults to the unit mean-curvature direction.  scale * eigenvalues
    recovers the actual spectrum.  The cut-offs are relative: |H| against the
    largest frame constant, and the eigenvalues against the largest one in
    absolute value, so rescaling the metric gives the same type.
    """
    if not alg.decorated:
        raise ValueError("eigenvalue_type needs an Iwasawa decoration")
    if not alg.n_indices:
        raise ValueError("eigenvalue_type needs a non-empty nilradical (n_indices)")
    if direction is None:
        h = mean_curvature(alg)
        nh = alg.norm(h)
        if nh <= 1e-14 * np.max(np.abs(alg.c_frame)):
            raise ValueError("mean curvature vanishes; no direction in a to take")
        direction = h / nh
    m = ad_matrix(alg, np.asarray(direction, dtype=float))
    (sym,) = restricted_symmetric(alg, [m], list(alg.n_indices))
    vals = np.sort(np.linalg.eigvalsh(sym))
    unit = np.max(np.abs(vals))

    reps, mults = [], []
    for v in vals:
        if reps and abs(v - reps[-1]) <= tol * unit:
            reps[-1] = (reps[-1] * mults[-1] + v) / (mults[-1] + 1)
            mults[-1] += 1
        else:
            reps.append(float(v))
            mults.append(1)
    if reps[0] <= tol * unit:
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
    h = mean_curvature(alg)
    n_idx = list(alg.n_indices)
    off = [abs(h[i]) for i in n_idx]
    if off and max(off) > 1e-9:
        raise ValueError("mean-curvature vector does not lie in a")
    nh = alg.norm(h)
    if nh <= 1e-14:
        raise ValueError("mean curvature vanishes; nothing to reduce to")
    hu = h / nh

    dim = 1 + len(n_idx)
    c = np.zeros((dim, dim, dim))
    adh_n = ad_matrix(alg, hu)[np.ix_(n_idx, n_idx)].T
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
