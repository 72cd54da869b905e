"""The constant tables of the library are built once per process, shared
read-only, and equal bit for bit to a from-scratch build; the hot paths that
read them build none."""

import itertools

import numpy as np
import pytest

from solvgeom import algebra, carnot, so6family
from solvgeom.carnot import build_solvmanifold, complex_hyperbolic_triple

import oracles

SIGNS = list(itertools.product((1, -1), repeat=3))


# every cached table, as (name, call that returns it), built inside each test
TABLES = (
    [(f"basis_ABC-default-{'ABC'[i]}", lambda i=i: so6family.basis_ABC()[i])
     for i in range(3)]
    + [(f"so_basis-{r}", lambda r=r: carnot.so_basis(r)) for r in range(2, 9)]
    + [(f"so4_split_basis-{'LR'[i]}", lambda i=i: carnot.so4_split_basis()[i])
       for i in range(2)]
    + [(f"generic_weights-{k}", lambda k=k: algebra._generic_weights(k)) for k in range(1, 5)]
)


@pytest.mark.parametrize("signs", SIGNS + [None])
def test_basis_ABC_equals_nine_tau_build(signs):
    # the oracle's sign flips, which the tests use, negate B_i of the cached table
    signs = signs or (1, 1, 1)
    a, b, c = so6family.basis_ABC()
    flipped = (a, np.array(signs, dtype=float)[:, None, None] * b, c)
    for cached, ref in zip(flipped, oracles.basis_abc(signs)):
        assert cached.dtype == ref.dtype and np.array_equal(cached, ref)


@pytest.mark.parametrize("r", range(2, 9))
def test_so_basis_equals_double_loop(r):
    cached = carnot.so_basis(r)
    assert cached.dtype == np.float64 and np.array_equal(cached, oracles.so_basis(r))


@pytest.mark.parametrize("k", range(1, 5))
def test_generic_weights_equal_seeded_draw(k):
    assert np.array_equal(algebra._generic_weights(k), oracles.generic_weights(k))


@pytest.mark.parametrize("get", [get for _, get in TABLES], ids=[name for name, _ in TABLES])
def test_table_is_read_only(get):
    table = get()
    assert not table.flags.writeable
    with pytest.raises(ValueError):
        table.flat[0] = 1.0
    with pytest.raises(ValueError):
        table += 1.0


def test_tables_are_shared_between_calls():
    assert carnot.so_basis(5) is carnot.so_basis(5)
    assert so6family.basis_ABC() is so6family.basis_ABC()
    assert carnot.so4_split_basis() is carnot.so4_split_basis()
    assert algebra._generic_weights(3) is algebra._generic_weights(3)


# --- call counts after one warm-up ------------------------------------------


def _counting(monkeypatch, module, name):
    calls = []
    inner = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_family_report_realifies_nothing_after_warm_up(monkeypatch):
    points = [(1.0, 0.0, 0.0), (0.6, 0.8, 0.0), (0.3, 0.4, 0.5)]
    so6family.family_report(points[:1], samples=10)
    calls = _counting(monkeypatch, so6family, "tau")
    so6family.family_report(points, samples=10)
    assert calls == []


def test_so_r_searches_build_no_basis_after_warm_up():
    w = so6family.W_of(0.6, 0.8, 0.0)

    def run():
        carnot.centralizer(w, 1e-10)
        carnot.search_uniform(3, 2, restarts=2, seed=1)
        carnot.classify_uniform_so4(2, trials=4, seed=1)

    run()
    built = carnot.so_basis.cache_info().misses
    run()
    assert carnot.so_basis.cache_info().misses == built


def test_iwasawa_check_draws_no_generator_after_warm_up(monkeypatch):
    alg = build_solvmanifold(complex_hyperbolic_triple(3))
    algebra.iwasawa_check(alg)
    calls = _counting(monkeypatch, np.random, "default_rng")
    rep = algebra.iwasawa_check(alg)
    assert rep.cond_iii and calls == []
