"""Curvature of left-invariant metrics from structure constants.

Everything is computed in the cached orthonormal frame of the algebra and
mapped back to the original basis, so non-identity Gram matrices cost one
congruence transform and nothing else.
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
    "eigenvalue_type",
    "rank_one_reduction",
]


def U_map(alg, x, y):
    """Symmetric bilinear U with 2<U(x,y),z> = <[z,x],y> + <[z,y],x> for all z."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    g = alg.gram
    u = 0.5 * (
        np.einsum("zjk,j,kl,l->z", alg.c, x, g, y)
        + np.einsum("zjk,j,kl,l->z", alg.c, y, g, x)
    )
    return np.linalg.solve(g, u)


def mean_curvature(alg):
    """H with <H, x> = tr ad(x); equals sum_i U(f_i, f_i) over any orthonormal frame."""
    t = np.einsum("zkk->z", alg.c)
    return np.linalg.solve(alg.gram, t)


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
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    nx = alg.norm(x)
    if nx <= 1e-14:
        raise ValueError("x is numerically zero")
    u = x / nx
    w = y - alg.inner(y, u) * u
    nw = alg.norm(w)
    if nw <= 1e-12 * max(1.0, alg.norm(y)):
        raise ValueError("x and y are linearly dependent")
    w = w / nw

    br = alg.bracket(u, w)
    term = -0.75 * alg.inner(br, br)
    term -= 0.5 * alg.inner(alg.bracket(u, br), w)
    term -= 0.5 * alg.inner(alg.bracket(w, alg.bracket(w, u)), u)
    uxy = U_map(alg, u, w)
    term += alg.inner(uxy, uxy)
    term -= alg.inner(U_map(alg, u, u), U_map(alg, w, w))
    return float(term)


@dataclass
class EigenvalueType:
    eigenvalues: tuple
    multiplicities: tuple
    scale: float


def eigenvalue_type(alg, direction=None, tol=1e-8):
    """Spectrum of ad(A)|n as coprime positive integers with multiplicities.

    A defaults to the unit mean-curvature direction.  scale * eigenvalues
    recovers the actual spectrum.
    """
    if not alg.decorated:
        raise ValueError("eigenvalue_type needs an Iwasawa decoration")
    if direction is None:
        h = mean_curvature(alg)
        direction = h / alg.norm(h)
    m = ad_matrix(alg, np.asarray(direction, dtype=float))
    (sym,) = restricted_symmetric(alg, [m], list(alg.n_indices))
    vals = np.sort(np.linalg.eigvalsh(sym))

    reps, mults = [], []
    for v in vals:
        if reps and abs(v - reps[-1]) <= tol * max(1.0, abs(reps[-1])):
            reps[-1] = (reps[-1] * mults[-1] + v) / (mults[-1] + 1)
            mults[-1] += 1
        else:
            reps.append(float(v))
            mults.append(1)
    if reps[0] <= tol:
        raise ValueError("ad(A)|n has a non-positive eigenvalue; not of Iwasawa type")

    fracs = [Fraction(r / reps[0]).limit_denominator(64) for r in reps]
    lcm = 1
    for fr in fracs:
        lcm = lcm * fr.denominator // math.gcd(lcm, fr.denominator)
    ints = [int(fr * lcm) for fr in fracs]
    g = 0
    for v in ints:
        g = math.gcd(g, v)
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
