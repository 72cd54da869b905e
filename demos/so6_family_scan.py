"""Scan of the sphere-parametrized family W(r,s,t) inside so(6).

Every unit (r,s,t) spans a uniform 3-dimensional subspace, so each point
gives a 10-dimensional metric solvable Lie algebra.  Only (r,s,t)=(1,0,0)
is Einstein; the whole family is negatively curved, with a computable
margin in the defining curvature inequality.
"""

import numpy as np

from solvgeom.carnot import build_solvmanifold, einstein_conditions
from solvgeom.curvature import einstein_verdict, sectionals
from solvgeom.so6family import (
    W_of,
    angle_to_centralizer,
    bracket_angle,
    bracket_angle_closed_form,
    centralizer_in_so6,
    induced_triple,
    negative_curvature_margin,
)

SEED = 0xE15731
rng = np.random.default_rng(SEED)

print("== uniformity holds on the whole sphere ==")
for _ in range(4):
    v = rng.standard_normal(3)
    r, s, t = v / np.linalg.norm(v)
    w = W_of(r, s, t)
    res = np.max(np.abs(np.einsum("aij,ajk->ik", w, w) + 3 * np.eye(6)))
    cond = einstein_conditions(induced_triple(r, s, t)).max_residual
    print(f"({r:+.3f},{s:+.3f},{t:+.3f}): |sum D^2 + 3 Id| = {res:.2e}, "
          f"einstein residual {cond:.3f}")

print()
print("== the Einstein point ==")
v = einstein_verdict(build_solvmanifold(induced_triple(1.0, 0.0, 0.0)))
print(f"(1,0,0): einstein {v.is_einstein}, lambda {v.lam}")

print()
print("== centralizer angle equals |t| ==")
for t in (0.0, 0.3, 0.8):
    r = np.sqrt((1 - t * t) / 2)
    cos = angle_to_centralizer(r, r, t)
    dim, _ = centralizer_in_so6(W_of(r, r, t))
    print(f"t={t}: cos angle {cos:.10f}, centralizer dim {dim}")

print()
print("== bracket angle: closed form vs numerical maximization ==")
for _ in range(5):
    v = rng.standard_normal(3)
    r, s, t = v / np.linalg.norm(v)
    cf = bracket_angle_closed_form(r, s, t)
    nm = bracket_angle(r, s, t)
    print(f"({r:+.3f},{s:+.3f},{t:+.3f}): closed {cf:.10f}, numeric {nm:.10f}, "
          f"diff {abs(cf - nm):.2e}")

print()
print("== negative curvature margins (samples + local descents) ==")
for point in [(1.0, 0.0, 0.0), (0.6, 0.64, 0.48), (0.0, 0.0, 1.0)]:
    m = negative_curvature_margin(induced_triple(*point), samples=2000,
                                  descents=20, seed=SEED)
    note = "inequality holds with room" if m > 0 else "inequality fails somewhere"
    print(f"W{point}: min margin {m:+.6f}  ({note})")

print()
print("== sectional curvature stays negative at the Einstein point ==")
alg = build_solvmanifold(induced_triple(1.0, 0.0, 0.0))
xy = rng.standard_normal((2000, 2, 10))
worst = np.max(sectionals(alg, xy[:, 0], xy[:, 1]))
print(f"max of 2000 random sectional curvatures: {worst:.6f}")
