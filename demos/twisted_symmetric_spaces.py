"""Sign twists of Iwasawa algebras from classical symmetric spaces.

A twist multiplies selected nilradical vectors by sqrt(-1) in the
complexification; on structure constants this is a parity sign rewrite.
Twisting never moves the Ricci tensor, yet it can create commuting pairs
spanning positively curved planes, so twisted and untwisted algebras are
non-isometric whenever such a pair appears.
"""

import numpy as np

from solvgeom.curvature import einstein_verdict, ricci, sectional
from solvgeom.symtwist import (
    build_sl_nH,
    build_sl_nR,
    build_so_pq,
    build_type_iv_sl,
    enumerate_twists,
    paper_twist_sl_nH,
    positive_curvature_witness,
    restricted_height_parities,
    twist,
    type_iv_twist,
    wa_twist,
)

CASES = [
    ("so(2,4)", build_so_pq(2, 4), lambda rda: wa_twist(rda, 1)),
    ("sl(3,H)", build_sl_nH(3), paper_twist_sl_nH),
    ("type IV sl(3)", build_type_iv_sl(3), type_iv_twist),
]

print("== twisting preserves Ricci, hence Einstein ==")
for name, rda, make in CASES:
    assignment = make(rda)
    tw = twist(rda, assignment)
    drift = np.max(np.abs(ricci(tw.base) - ricci(rda.base)))
    v0, v1 = einstein_verdict(rda.base), einstein_verdict(tw.base)
    back = twist(tw, assignment)
    print(f"{name} [{assignment.tag}]: dim {rda.dim}, lambda {v0.lam:.4f} -> {v1.lam:.4f}, "
          f"ricci drift {drift:.2e}, involution exact {np.array_equal(back.base.c, rda.base.c)}")

print()
print("== commuting pairs with positive sectional curvature ==")
for name, rda, make in CASES:
    tw = twist(rda, make(rda))
    x, y = positive_curvature_witness(tw)
    bracket = np.max(np.abs(np.einsum("ijk,i,j->k", tw.base.c, x, y)))
    k_before = sectional(rda.base, x, y)
    k_after = sectional(tw.base, x, y)
    print(f"{name}: |[x,y]| = {bracket}, K before {k_before:+.4f}, after {k_after:+.4f}")

print()
print("== normal real forms admit only trivial twists ==")
for name, rda in [("so(2,2)", build_so_pq(2, 2)),
                  ("so(2,3)", build_so_pq(2, 3)),
                  ("sl(3,R)", build_sl_nR(3))]:
    sols = {a.parities for a in enumerate_twists(rda)}
    rh = restricted_height_parities(rda)
    print(f"{name}: {len(sols)} closed parity assignments, "
          f"all isometric to the identity: {sols == rh}")
