"""Tour of the rank-one Carnot constructions.

Builds the classical hyperbolic spaces as metric solvable Lie algebras,
checks the Einstein condition two independent ways, then searches so(4)
for uniform subspaces and clusters what it finds.
"""

import numpy as np

from solvgeom.algebra import validate
from solvgeom.carnot import (
    build_solvmanifold,
    classify_uniform_so4,
    complex_hyperbolic_triple,
    einstein_conditions,
    random_triple,
    real_hyperbolic_triple,
    search_uniform,
)
from solvgeom.curvature import eigenvalue_type, einstein_verdict, sectionals

SEED = 0xE15731


def show(name, alg):
    rep = validate(alg)
    v = einstein_verdict(alg)
    et = eigenvalue_type(alg)
    print(f"{name}: dim {alg.dim}, jacobi {rep.jacobi_residual:.2e}, "
          f"einstein {v.is_einstein}, lambda {v.lam:.6f}, "
          f"type ({','.join(map(str, et.eigenvalues))};{','.join(map(str, et.multiplicities))})")


print("== hyperbolic spaces ==")
for dim in (2, 3, 4, 7):
    show(f"RH^{dim}", build_solvmanifold(real_hyperbolic_triple(dim)))
for n in (2, 3, 4):
    show(f"CH^{n}", build_solvmanifold(complex_hyperbolic_triple(n)))

# constant curvature spot check on RH^4
alg = build_solvmanifold(real_hyperbolic_triple(4))
rng = np.random.default_rng(SEED)
xy = rng.standard_normal((6, 2, 4))
ks = sectionals(alg, xy[:, 0], xy[:, 1])
print("RH^4 sectional curvatures:", np.round(ks, 12))

print()
print("== two conditions on the data triple vs the curvature verdict ==")
t = complex_hyperbolic_triple(3)
cond = einstein_conditions(t)
v = einstein_verdict(build_solvmanifold(t))
print(f"CH^3 residuals: gram {cond.gram_residual:.2e}, uniform {cond.uniform_residual:.2e}; "
      f"verdict {v.is_einstein}")

print()
print("== uniform subspaces of so(4) ==")
best = search_uniform(4, 2, restarts=40, seed=SEED)
print(f"(r,s)=(4,2): best residual {best.residual:.2e}")
t42 = random_triple(4, 2, np.random.default_rng(SEED), einstein=True)
show("carnot(4,2)", build_solvmanifold(t42))

for s in range(1, 7):
    classes = classify_uniform_so4(s, trials=60, seed=SEED)
    hits = sum(c for _, c, _ in classes)
    print(f"s={s}: {len(classes)} equivalence class(es) from {hits} successful searches")

print()
print("== where the search comes up empty ==")
for r, s in [(3, 1), (3, 2), (5, 1), (5, 2)]:
    best = search_uniform(r, s, restarts=120, seed=SEED)
    print(f"(r,s)=({r},{s}): best residual {best.residual:.3f}  (never near zero)")
