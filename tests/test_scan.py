"""The one scan of the nonzero structure constants (`algebra._nonzero_constants`)
against the three Python triple loops it replaced in `serialize`,
`twist_closure_check` and `enumerate_twists`, kept here as the reference."""

import dataclasses
import itertools
import json

import numpy as np
import pytest

from solvgeom.algebra import _fmt, from_sparse, serialize
from solvgeom.carnot import build_solvmanifold, random_triple
from solvgeom.symtwist import (
    RootDecoratedAlgebra,
    TwistAssignment,
    build_sl_nH,
    build_sl_nR,
    build_so_nH,
    build_so_pq,
    build_sp_pq,
    build_su_pq,
    build_type_iv_sl,
    enumerate_twists,
    restricted_height_twist,
    twist_closure_check,
)

from conftest import SEED


def loop_serialize(alg):
    lines = ["{"]
    lines.append(f'  "dim": {alg.dim},')
    lines.append('  "labels": [' + ", ".join(json.dumps(l) for l in alg.labels) + "],")
    if np.array_equal(alg.gram, np.eye(alg.dim)):
        lines.append('  "gram": "identity",')
    else:
        flat = ", ".join(_fmt(v) for v in alg.gram.ravel())
        lines.append(f'  "gram": [{flat}],')
    rows = []
    for i in range(alg.dim):
        for j in range(i + 1, alg.dim):
            for k in range(alg.dim):
                v = alg.c[i, j, k]
                if v != 0.0:
                    rows.append(f"[{i}, {j}, {k}, {_fmt(v)}]")
    lines.append('  "structure": [' + ", ".join(rows) + "]")
    if alg.decorated:
        lines[-1] += ","
        dec = {
            "a_indices": list(alg.a_indices),
            "n_indices": list(alg.n_indices),
        }
        if any(r is not None for r in alg.roots):
            dec["roots"] = [list(r) if r is not None else None for r in alg.roots]
        lines.append('  "decoration": ' + json.dumps(dec))
    lines.append("}")
    return "\n".join(lines) + "\n"


def loop_closure(rda, assignment, tol=1e-12):
    """(ok, monomial, violations) as twist_closure_check computed them."""
    alg = rda.base
    par = assignment.parities
    violations = []
    monomial = True
    for i in range(alg.dim):
        for j in range(i + 1, alg.dim):
            nz = np.flatnonzero(np.abs(alg.c[i, j, :]) > tol)
            if len(nz) > 1:
                monomial = False
            for k in nz:
                if (par[i] + par[j] + par[int(k)]) % 2 != 0:
                    violations.append((i, j, int(k)))
    return not violations, monomial, tuple(violations)


def loop_enumerate(rda, tol=1e-12, max_solutions=4096):
    """[(parities, tag)] as enumerate_twists computed them."""
    alg = rda.base
    n_idx = list(alg.n_indices)
    pos = {v: t for t, v in enumerate(n_idx)}
    nn = len(n_idx)
    rows = set()
    for i in range(alg.dim):
        for j in range(i + 1, alg.dim):
            for k in np.flatnonzero(np.abs(alg.c[i, j, :]) > tol):
                mask = 0
                for v in (i, j, int(k)):
                    if v in pos:
                        mask ^= 1 << pos[v]
                if mask:
                    rows.add(mask)
    basis = []
    for row in rows:
        for b in basis:
            row = min(row, row ^ b)
        if row:
            basis.append(row)
            basis.sort(reverse=True)
    changed = True
    while changed:
        changed = False
        for t in range(len(basis)):
            piv = basis[t].bit_length() - 1
            for u in range(len(basis)):
                if u != t and (basis[u] >> piv) & 1:
                    basis[u] ^= basis[t]
                    changed = True
    pivots = {b.bit_length() - 1 for b in basis}
    free = [t for t in range(nn) if t not in pivots]
    assert 2 ** len(free) <= max_solutions
    sols = []
    for bits in itertools.product((0, 1), repeat=len(free)):
        x = 0
        for t, v in zip(free, bits):
            if v:
                x ^= 1 << t
        for b in basis:
            piv = b.bit_length() - 1
            if bin(b & x).count("1") % 2 == 1:
                x ^= 1 << piv
        parities = [0] * alg.dim
        for t in range(nn):
            if (x >> t) & 1:
                parities[n_idx[t]] = 1
        sols.append((tuple(parities), f"bits:{x:#x}"))
    return sols


BUILDS = {
    "so12": lambda: build_so_pq(1, 2), "so13": lambda: build_so_pq(1, 3),
    "so22": lambda: build_so_pq(2, 2), "so23": lambda: build_so_pq(2, 3),
    "so24": lambda: build_so_pq(2, 4), "so33": lambda: build_so_pq(3, 3),
    "su13": lambda: build_su_pq(1, 3), "su22": lambda: build_su_pq(2, 2),
    "sp12": lambda: build_sp_pq(1, 2), "sp13": lambda: build_sp_pq(1, 3),
    "so4h": lambda: build_so_nH(4), "so5h": lambda: build_so_nH(5),
    "sl2h": lambda: build_sl_nH(2), "sl3h": lambda: build_sl_nH(3),
    "type2": lambda: build_type_iv_sl(2), "type3": lambda: build_type_iv_sl(3),
    "sl3r": lambda: build_sl_nR(3), "sl4r": lambda: build_sl_nR(4),
}


def hand_made():
    """[e0, e1] = e2 + e3: the one bracket is not a basis monomial."""
    alg = from_sparse(4, [(0, 1, 2, 1.0), (0, 1, 3, 1.0)], n_indices=(0, 1, 2, 3))
    return RootDecoratedAlgebra(base=alg, tag="hand-made", simple_roots=(), meta=())


def assignments(rda, rng):
    """Random parities (0 on a), the all-odd n and the first height twist."""
    n_idx = list(rda.n_indices)
    out = []
    for _ in range(8):
        par = [0] * rda.dim
        for i in n_idx:
            par[i] = int(rng.integers(2))
        out.append(TwistAssignment(parities=tuple(par)))
    out.append(TwistAssignment(parities=tuple(int(i in n_idx) for i in range(rda.dim))))
    if rda.simple_roots:
        out.append(restricted_height_twist(rda, [0]))
    return out


@pytest.mark.parametrize("key", sorted(BUILDS))
def test_scan_matches_loops_on_builds(key):
    rda = BUILDS[key]()
    rng = np.random.default_rng([SEED, sorted(BUILDS).index(key)])
    assert serialize(rda.base) == loop_serialize(rda.base)
    for a in assignments(rda, rng):
        rep = twist_closure_check(rda, a)
        assert (rep.ok, rep.monomial, rep.violations) == loop_closure(rda, a)
    assert [(a.parities, a.tag) for a in enumerate_twists(rda)] == loop_enumerate(rda)


def test_scan_matches_loops_on_carnot_documents():
    # random constants and a non-identity Gram matrix
    rng = np.random.default_rng(SEED)
    for r, s in ((2, 1), (3, 2), (4, 3)):
        alg = build_solvmanifold(random_triple(r, s, rng))
        assert serialize(alg) == loop_serialize(alg)
        p = rng.standard_normal((alg.dim, alg.dim)) + 3 * np.eye(alg.dim)
        alg = dataclasses.replace(alg, gram=p.T @ p)
        assert serialize(alg) == loop_serialize(alg)


def test_closure_of_a_non_monomial_bracket():
    rda = hand_made()
    closed = TwistAssignment(parities=(1, 0, 1, 1))
    rep = twist_closure_check(rda, closed)
    assert (rep.ok, rep.monomial, rep.violations) == (True, False, ())
    assert loop_closure(rda, closed) == (True, False, ())
    broken = TwistAssignment(parities=(1, 0, 1, 0))
    rep = twist_closure_check(rda, broken)
    assert (rep.ok, rep.monomial, rep.violations) == (False, False, ((0, 1, 3),))
    assert loop_closure(rda, broken) == (False, False, ((0, 1, 3),))
    sols = [(a.parities, a.tag) for a in enumerate_twists(rda)]
    assert sols == loop_enumerate(rda)
    assert len(sols) == 4 and (closed.parities, "bits:0xd") in sols
