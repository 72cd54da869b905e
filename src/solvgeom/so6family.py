"""A sphere of three-dimensional subspaces W(r,s,t) of so(6).

The subspaces are spanned by D_i = r A_i + s B_i + t C_i where A, B, C come
from realifying a distinguished basis of 3 x 3 complex matrices.  All inner
products on so(6) are (P, Q) = -tr(PQ)/6.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .carnot import (
    DataTriple,
    _orthonormalize_family,
    build_solvmanifold,
    centralizer,
    einstein_conditions,
    so_gram,
)
from .curvature import sectionals

__all__ = [
    "FamilyPoint",
    "tau",
    "basis_ABC",
    "W_of",
    "induced_triple",
    "centralizer_in_so6",
    "angle_to_centralizer",
    "bracket_angle",
    "bracket_angle_closed_form",
    "negative_curvature_margin",
    "family_grid",
    "family_report",
]


def tau(z):
    """Realify a complex 3 x 3 matrix: X + iY -> [[X, Y], [-Y, X]] (multiplicative)."""
    z = np.asarray(z, dtype=complex)
    x, y = z.real, z.imag
    return np.block([[x, y], [-y, x]])


_S32 = math.sqrt(1.5)
_X1 = _S32 * np.array([[0, 0, 0], [0, 0, -1], [0, 1, 0]], dtype=float)
_X2 = _S32 * np.array([[0, 0, -1], [0, 0, 0], [1, 0, 0]], dtype=float)
_X3 = _S32 * np.array([[0, -1, 0], [1, 0, 0], [0, 0, 0]], dtype=float)


@functools.lru_cache(maxsize=None)
def basis_ABC():
    """Three orthonormal triples A_i, B_i, C_i in so(6).

    A_i = tau(X_i), B_i = tau(i|X_i|), C_i = tau(i sqrt(3) e_ii).  Identities
    used elsewhere: sum A_i^2 = sum B_i^2 = sum C_i^2 = -3 Id and
    A_i B_i + B_i A_i = 0.  Built once; the arrays are shared and read-only.
    """
    xs = (_X1, _X2, _X3)
    a = np.array([tau(x) for x in xs])
    b = np.array([tau(1j * np.abs(x)) for x in xs])
    c = np.array(
        [tau(1j * math.sqrt(3.0) * np.diag(np.eye(3)[i])) for i in range(3)]
    )
    for m in (a, b, c):
        m.flags.writeable = False
    return a, b, c


def W_of(r, s, t):
    """Spanning matrices D_i = r A_i + s B_i + t C_i.

    (r, s, t) is renormalized to the unit sphere, where the D_i are
    orthonormal under -(1/6) tr.
    """
    if not all(map(math.isfinite, (r, s, t))):
        raise ValueError(f"need finite (r, s, t), got ({r}, {s}, {t})")
    if r == s == t == 0:
        raise ValueError("need (r, s, t) != 0")
    if not 1e-300 < r * r + s * s + t * t < math.inf:
        # the squares leave the double range: rescale first (in-range points keep
        # their bits)
        big = max(abs(r), abs(s), abs(t))
        r, s, t = r / big, s / big, t / big
    nrm = math.sqrt(r * r + s * s + t * t)
    r, s, t = r / nrm, s / nrm, t / nrm
    a, b, c = basis_ABC()
    return r * a + s * b + t * c


def induced_triple(r, s, t):
    return DataTriple(r=6, s=3, j_mats=W_of(r, s, t))


def centralizer_in_so6(mats):
    """(dimension, basis matrices) of {P in so(6): [P, D_i] = 0 for all i}."""
    return centralizer(mats, 1e-10)


def _principal_cos(onb_a, onb_b):
    """Largest cosine of a principal angle between the spans of two
    orthonormal families."""
    if len(onb_a) == 0 or len(onb_b) == 0:
        return float("nan")
    sing = np.linalg.svd(so_gram(onb_a, onb_b), compute_uv=False)
    return float(min(sing[0], 1.0))


def _bracket_cos(w):
    """`bracket_angle` of the orthonormal family w = W(r,s,t)."""
    brs = np.array([w[i] @ w[j] - w[j] @ w[i] for i, j in ((0, 1), (0, 2), (1, 2))])
    if np.max(np.abs(brs)) <= 1e-13:
        return float("nan")
    return _principal_cos(_orthonormalize_family(brs), w)


def angle_to_centralizer(r, s, t):
    """cos of the angle between W(r,s,t) and its centralizer in so(6) (equals |t|)."""
    w = W_of(r, s, t)
    return _principal_cos(centralizer_in_so6(w)[1], w)


def bracket_angle(r, s, t):
    """cos of the angle between span[W, W] and W; NaN when the brackets vanish."""
    return _bracket_cos(W_of(r, s, t))


def bracket_angle_closed_form(r, s, t):
    """Closed form |r| sqrt((r^2+s^2) / (r^2+s^2+4t^2 + 4 min(e2 c))).

    Here c = t^2 + sqrt(2) s t and the minimum of e2 c is over the range
    e2 = xy+yz+zx in [-1/2, 1] on the unit sphere, so the last term is
    -2c when c >= 0 and +4c when c < 0 (attained at e2 = 1).
    """
    num = r * r + s * s
    if num <= 1e-30:
        return float("nan")
    if abs(r) <= 1e-30:
        return 0.0
    c = t * t + math.sqrt(2.0) * s * t
    den = r * r + s * s + 4 * t * t + (4 * c if c < 0 else -2 * c)
    return abs(r) * math.sqrt(num / den)


# --- curvature scan ---------------------------------------------------------


# Rows per sampling block: memory stays flat in the number of samples.
_BLOCK = 4096


def _dot(a, b):
    """Inner products along the last axis."""
    return np.einsum("...i,...i->...", a, b)


def _orthogonalize(pair):
    """Gram-Schmidt inside each (first, second) pair of an (N, 2, m) stack:
    second - c first with c = <second, first>/|first|^2, or c = 0 where
    |first|^2 <= 1e-16.  Returns the new pairs, c and |first|^2 (inf where
    c = 0)."""
    first, second = pair[:, 0], pair[:, 1]
    nn = _dot(first, first)
    nn = np.where(nn > 1e-16, nn, np.inf)
    c = _dot(second, first) / nn
    return np.stack([first, second - c[:, None] * first], axis=1), c, nn


def _orthogonalize_grad(pair, g, c, nn):
    """Carry the gradient g in the output of `_orthogonalize(pair)` back to `pair`."""
    first, second = pair[:, 0], pair[:, 1]
    k = (_dot(g[:, 1], first) / nn)[:, None]
    c = c[:, None]
    return np.stack([g[:, 0] - k * (second - 2.0 * c * first) - c * g[:, 1],
                     g[:, 1] - k * first], axis=1)


def _project_rows(raw, r, s):
    """Map each row (x, y, z, w) of an (N, 2(r+s)) stack onto the constraint
    set x _|_ y, z _|_ w, |x|^2+|z|^2 = |y|^2+|w|^2 = 1.

    Returns the pairs xy = (x, y) as an (N, 2, r) stack and zw = (z, w) as
    an (N, 2, s) stack, the mask of rows that project (the others are
    degenerate: finite but meaningless), and what the chain rule reads.
    """
    n = len(raw)
    xy, cy, nx = _orthogonalize(raw[:, :2 * r].reshape(n, 2, r))
    zw, cw, nz = _orthogonalize(raw[:, 2 * r:].reshape(n, 2, s))
    norms = np.sqrt(_dot(xy, xy) + _dot(zw, zw))  # (N, 2): |(x, z)|, |(y, w)|
    ok = np.all(norms >= 1e-6, axis=1)
    norms = np.where(ok[:, None], norms, 1.0)[:, :, None]
    return xy / norms, zw / norms, ok, (cy, nx, cw, nz, norms)


def _margin_rows(j_mats, xy, zw):
    """The margin of each row of the pair stacks xy = (x, y), zw = (z, w), and
    the terms its gradient reads: b = (|x|^2/2 + |z|^2, |y|^2/2 + |w|^2),
    j(z) and j(w) with j(z) = sum_a z_a J_a, j(z)x, j(w)y and j(z)y + j(w)x."""
    b = 0.5 * _dot(xy, xy) + _dot(zw, zw)
    jzw = np.einsum("nka,aij->nkij", zw, j_mats)
    prod = np.einsum("nkij,nlj->nkli", jzw, xy)  # j(zw[k]) xy[l]
    p, q = prod[:, 0, 0], prod[:, 1, 1]
    mix = prod[:, 0, 1] + prod[:, 1, 0]
    return b[:, 0] * b[:, 1] + _dot(p, q) - 0.25 * _dot(mix, mix), (b, jzw, p, q, mix)


def _sample_margins(j_mats, raw, r, s):
    """Margins of the projected rows of `raw`; 10.0 where the projection degenerates."""
    xy, zw, ok, _ = _project_rows(raw, r, s)
    return np.where(ok, _margin_rows(j_mats, xy, zw)[0], 10.0)


def _margin_and_grad(j_mats, raw, r, s):
    """`_sample_margins` of `raw` and its gradient in the raw coordinates.

    The gradient of the margin in (x, z, y, w) is carried back through the
    two normalisations and the two Gram-Schmidt steps; it is 0 on the rows
    where the projection degenerates.
    """
    n = len(raw)
    xy, zw, ok, (cy, nx, cw, nz, norms) = _project_rows(raw, r, s)
    margin, (b, jzw, p, q, mix) = _margin_rows(j_mats, xy, zw)
    # the margin's derivative is sum over k, l of <a[k, l], d(j(zw[k]) xy[l])>
    a = np.stack([q, -0.5 * mix, -0.5 * mix, p], axis=1).reshape(n, 2, 2, r)
    other = b[:, ::-1, None]  # b2 multiplies |x|^2/2 and |z|^2, b1 |y|^2/2 and |w|^2
    g_xy = other * xy + np.einsum("nkij,nkli->nlj", jzw, a)
    g_zw = 2.0 * other * zw + np.einsum("aij,nkli,nlj->nka", j_mats, a, xy)
    # the normalisations (x, z)/|(x, z)| and (y, w)/|(y, w)|
    d = (_dot(g_xy, xy) + _dot(g_zw, zw))[:, :, None]
    g_xy, g_zw = (g_xy - d * xy) / norms, (g_zw - d * zw) / norms
    # the Gram-Schmidt steps y - c x and w - c z
    g_xy = _orthogonalize_grad(raw[:, :2 * r].reshape(n, 2, r), g_xy, cy, nx)
    g_zw = _orthogonalize_grad(raw[:, 2 * r:].reshape(n, 2, s), g_zw, cw, nz)
    grad = np.concatenate([g_xy.reshape(n, 2 * r), g_zw.reshape(n, 2 * s)], axis=1)
    return np.where(ok, margin, 10.0), grad * ok[:, None]


# L-BFGS: pairs kept per start, and the stop tests of L-BFGS-B's defaults
# (max |g| <= 1e-5, relative decrease <= 1e7 machine epsilons, 15 000 iterations).
_MEMORY = 10
_GTOL = 1e-5
_FTOL = 1e7 * np.finfo(float).eps
_MAX_ITER = 15000


def _two_loop(g, s_hist, y_hist, rho, h0):
    """The L-BFGS direction -H g of each row, from its pairs stored newest
    first and the initial scale h0 (s'y/y'y of the newest pair, 1 before the
    first).  Empty slots hold zeros with rho = 0 and leave q and r exactly as
    they are."""
    q, alpha = g, np.empty((len(g), _MEMORY))
    for i in range(_MEMORY):
        alpha[:, i] = rho[:, i] * _dot(s_hist[:, i], q)
        q = q - alpha[:, i, None] * y_hist[:, i]
    r = h0[:, None] * q
    for i in reversed(range(_MEMORY)):
        beta = rho[:, i] * _dot(y_hist[:, i], r)
        r = r - s_hist[:, i] * (beta - alpha[:, i])[:, None]
    return -r


def _lbfgs(value_and_grad, starts):
    """L-BFGS (Liu and Nocedal, Math. Prog. 45, 1989) from each row of the
    (n, dim) stack `starts`, run in lockstep.

    `value_and_grad` maps an (m, dim) stack to its values (m,) and gradients
    (m, dim), row by row.  Every start keeps its own `_MEMORY` pairs (stored
    only when s'y > 0), its own backtracking line search (halving from the
    unit step under Armijo's condition with c1 = 1e-4, at most 20 trials)
    and its own stop tests; a start that stops leaves the working arrays.
    Every reduction is row-wise, so a start ends on the same bits in any
    stack.  Returns the final points and values.
    """
    x = np.array(starts, dtype=float)
    n, dim = x.shape
    out_x, out_f = np.empty_like(x), np.empty(n)
    f, g = value_and_grad(x)
    ids = np.arange(n)
    s_hist, y_hist = np.zeros((n, _MEMORY, dim)), np.zeros((n, _MEMORY, dim))
    rho, h0 = np.zeros((n, _MEMORY)), np.ones(n)  # 1/s'y; s'y/y'y of the newest pair
    stop = np.max(np.abs(g), axis=1) <= _GTOL
    for _ in range(_MAX_ITER):
        if stop.any():
            out_x[ids[stop]], out_f[ids[stop]] = x[stop], f[stop]
            keep = ~stop
            ids, x, f, g, s_hist, y_hist, rho, h0 = (
                a[keep] for a in (ids, x, f, g, s_hist, y_hist, rho, h0))
        if not ids.size:
            break
        d = _two_loop(g, s_hist, y_hist, rho, h0)
        slope = 1e-4 * _dot(g, d)
        x_new, f_new, g_new = x.copy(), f.copy(), g.copy()
        step, todo = np.ones(len(ids)), np.arange(len(ids))
        for _ in range(20):
            xt = x[todo] + step[todo, None] * d[todo]
            ft, gt = value_and_grad(xt)
            ok = ft <= f[todo] + step[todo] * slope[todo]
            done = todo[ok]
            x_new[done], f_new[done], g_new[done] = xt[ok], ft[ok], gt[ok]
            todo = todo[~ok]
            if not todo.size:
                break
            step[todo] *= 0.5
        # a start whose line search failed (todo) stays put: s = 0 stores no
        # pair, and its zero decrease stops it
        sk, yk = x_new - x, g_new - g
        sy = _dot(sk, yk)
        store = sy > 0.0
        if store.any():
            sk, yk, sy = sk[store], yk[store], sy[store]
            for hist, new in ((s_hist, sk), (y_hist, yk), (rho, 1.0 / sy)):
                hist[store, 1:] = hist[store, :-1]
                hist[store, 0] = new
            h0[store] = sy / _dot(yk, yk)
        scale = np.maximum(np.maximum(np.abs(f), np.abs(f_new)), 1.0)
        stop = (f - f_new <= _FTOL * scale) | (np.max(np.abs(g_new), axis=1) <= _GTOL)
        x, f, g = x_new, f_new, g_new
    out_x[ids], out_f[ids] = x, f
    return out_x, out_f


def negative_curvature_margin(triple, samples=10000, descents=100, seed=0):
    """Estimate the minimum of the curvature margin over admissible 4-tuples.

    margin = (|x|^2/2 + |z|^2)(|y|^2/2 + |w|^2) + <j(z)x, j(w)y>
             - |j(z)y + j(w)x|^2 / 4
    with x _|_ y in R^r, z _|_ w in R^s, unit mixed norms.  A positive
    minimum certifies negative sectional curvature of the extension.

    The samples, then the descent starts, are drawn and evaluated in blocks
    of `_BLOCK` rows (the same rows as one draw at a time); the best sample
    starts the first descent, and each block of starts descends as one
    lockstep L-BFGS stack on the analytic gradient.
    """
    if samples < 0 or descents < 0 or samples + descents < 1:
        raise ValueError("need samples >= 0, descents >= 0 and at least one of them "
                         f"positive, got samples={samples}, descents={descents}")
    rng = np.random.default_rng(seed)
    r, s, j_mats = triple.r, triple.s, triple.j_mats
    dim = 2 * (r + s)

    def value_and_grad(raw):
        return _margin_and_grad(j_mats, raw, r, s)

    best = math.inf
    best_raw = None
    for start in range(0, samples, _BLOCK):
        raw = rng.standard_normal((min(_BLOCK, samples - start), dim))
        v = _sample_margins(j_mats, raw, r, s)
        i = int(np.argmin(v))
        if v[i] < best:
            best, best_raw = float(v[i]), raw[i]
    for start in range(0, descents, _BLOCK):
        starts = rng.standard_normal((min(_BLOCK, descents - start), dim))
        if start == 0 and best_raw is not None:
            starts[0] = best_raw
        best = min(best, float(np.min(_lbfgs(value_and_grad, starts)[1])))
    return best


# --- report grid ------------------------------------------------------------


def family_grid(n_lat=7, n_az=24):
    """Deterministic grid on the hemisphere t >= 0 (half equator: s >= 0 at t = 0)."""
    if n_lat < 2:
        raise ValueError(f"the grid needs at least 2 latitudes (--grid >= 2), got {n_lat}")
    pts = []
    for i in range(n_lat):
        phi = 0.5 * math.pi * i / (n_lat - 1)
        t = math.sin(phi)
        c = math.cos(phi)
        if i == n_lat - 1:
            pts.append((0.0, 0.0, 1.0))
            break
        m = max(1, round(n_az * c))
        for k in range(m):
            if i == 0:
                psi = math.pi * k / m
            else:
                psi = 2.0 * math.pi * k / m
            pts.append((c * math.cos(psi), c * math.sin(psi), t))
    return pts


@dataclass
class FamilyPoint:
    r: float
    s: float
    t: float
    einstein_residual: float
    cos_angle_centralizer: float
    cos_angle_bracket: float
    min_sectional: float
    max_sectional: float
    centralizer_dim: int


def family_report(points=None, samples=200, seed=0):
    """Scan the family: Einstein residuals, the two angle invariants, the
    centralizer dimension, and the range of sampled sectional curvatures of
    the attached solvable extension (drawn and evaluated in blocks of
    `_BLOCK` sample pairs).

    `min_sectional` and `max_sectional` are the extremes over `samples`
    random planes, not bounds: a plane of larger (or smaller) curvature may
    exist, so a negative `max_sectional` does not show negative curvature.
    """
    if samples < 0:
        raise ValueError(f"need samples >= 0, got samples={samples}")
    if points is None:
        points = family_grid()
    rng = np.random.default_rng(seed)
    rows = []
    for (r, s, t) in points:
        triple = induced_triple(r, s, t)
        w = triple.j_mats
        cdim, cz = centralizer_in_so6(w)
        alg = build_solvmanifold(triple)
        lo, hi = math.inf, -math.inf
        for start in range(0, samples, _BLOCK):
            xy = rng.standard_normal((min(_BLOCK, samples - start), 2, alg.dim))
            ks = sectionals(alg, xy[:, 0], xy[:, 1])
            lo, hi = float(np.min(ks, initial=lo)), float(np.max(ks, initial=hi))
        rows.append(
            FamilyPoint(
                r=r, s=s, t=t,
                einstein_residual=einstein_conditions(triple).max_residual,
                cos_angle_centralizer=_principal_cos(cz, w),
                cos_angle_bracket=_bracket_cos(w),
                min_sectional=lo,
                max_sectional=hi,
                centralizer_dim=cdim,
            )
        )
    return rows
