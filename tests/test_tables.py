"""Golden bracket tables: the shipped files, the tables rendered from the
matrix realizations, and the hand-encoded instantiation rules must agree
byte for byte."""

import dataclasses
import math
from importlib import resources

import numpy as np
import pytest

from solvgeom import symtwist
from solvgeom.symtwist import (
    bracket_table,
    build_sl_nH,
    build_so_nH,
    build_sp_pq,
    paper_twist_sl_nH,
    twist,
)
from cli_battery import SPACES
from oracles import bracket_table_reference
from table_oracle import GOLDEN_SPACES, expected_table

_BUILDERS = {
    "so4h": lambda: build_so_nH(4),
    "so5h": lambda: build_so_nH(5),
    "sl3h": lambda: build_sl_nH(3),
}


def golden_bytes(space):
    ref = resources.files("solvgeom") / "tables" / f"{space}_brackets.tsv"
    return ref.read_bytes()


@pytest.mark.parametrize("space", GOLDEN_SPACES)
def test_matrix_table_matches_golden(space):
    table = bracket_table(_BUILDERS[space]())
    assert table.encode() == golden_bytes(space)


@pytest.mark.parametrize("space", GOLDEN_SPACES)
def test_oracle_rules_match_golden(space):
    assert expected_table(space).encode() == golden_bytes(space)


@pytest.mark.parametrize("space", GOLDEN_SPACES)
def test_table_shape(space):
    text = golden_bytes(space).decode()
    lines = text.splitlines()
    header = lines[0].split("\t")
    assert header[0] == ""
    labels = header[1:]
    assert len(lines) == len(labels) + 1
    for line in lines[1:]:
        cells = line.split("\t")
        assert cells[0] in labels
        assert len(cells) == len(labels) + 1
    assert text.endswith("\n")


def test_table_antisymmetry():
    text = golden_bytes("so4h").decode()
    lines = [l.split("\t") for l in text.splitlines()]
    labels = lines[0][1:]
    grid = {
        (row[0], labels[t]): cell
        for row in lines[1:]
        for t, cell in enumerate(row[1:])
    }

    def negate(cell):
        if not cell:
            return cell
        return cell[1:] if cell.startswith("-") else "-" + cell

    for a in labels:
        assert grid[(a, a)] == ""
        for b in labels:
            assert grid[(a, b)] == negate(grid[(b, a)])


def test_twisted_table_differs_only_by_primes_and_signs():
    rda = build_sl_nH(3)
    tw = twist(rda, paper_twist_sl_nH(rda))
    base_table = bracket_table(rda)
    tw_table = bracket_table(tw)
    assert tw_table != base_table
    # stripping primes and signs recovers the same cell skeleton
    strip = lambda s: s.replace("'", "").replace("-", "")
    assert strip(tw_table) == strip(base_table)


def test_bracket_table_deterministic():
    a = bracket_table(build_so_nH(4))
    b = bracket_table(build_so_nH(4))
    assert a == b


_RENDERED = list(dict.fromkeys(
    [(space, args) for space, _, args in SPACES]
    + [("sp_pq", (p, q)) for p, q in ((2, 3), (2, 4), (3, 3), (3, 4))]))


@pytest.mark.parametrize("space, args", _RENDERED,
                         ids=[space + "".join(map(str, args)) for space, args in _RENDERED])
def test_every_builder_renders(space, args):
    # sp(p,q) with p >= 2 has bracket coefficients +-1/sqrt(2)
    table = bracket_table(symtwist.SPACES[space][0](*args))
    assert table.endswith("\n")


def test_battery_covers_every_space():
    # a space missing from the battery would escape its byte-for-byte lock
    assert set(symtwist.SPACES) <= {space for space, _, _ in SPACES}


_COEFF = {"": 1.0, "-": -1.0, "r2": math.sqrt(2), "-r2": -math.sqrt(2),
          "r2/2": math.sqrt(0.5), "-r2/2": -math.sqrt(0.5)}


def test_sp23_table_parses_back_to_structure_constants():
    rda = build_sp_pq(2, 3)
    alg = rda.base
    table = bracket_table(rda)
    assert "r2/2 " in table
    lines = [line.split("\t") for line in table.splitlines()]
    labels = lines[0][1:]
    assert labels == [alg.labels[i] for i in alg.n_indices]
    index = {lab: t for t, lab in enumerate(labels)}
    parsed = np.zeros((len(labels),) * 3)
    for row in lines[1:]:
        for x, cell in enumerate(row[1:]):
            if cell:
                head, _, lab = cell.rpartition(" ")
                if not head and lab.startswith("-"):
                    head, lab = "-", lab[1:]
                parsed[x, index[row[0]], index[lab]] = _COEFF[head]
    n = list(alg.n_indices)
    assert np.max(np.abs(parsed - alg.c[np.ix_(n, n, n)])) <= 1e-12


def test_one_pass_table_equals_the_per_cell_reference():
    # every space and twist the CLI battery renders: the build and its paper
    # and rh:0 twists
    for space, _, args in SPACES:
        rda = symtwist.SPACES[space][0](*args)
        rdas = [rda, twist(rda, symtwist.restricted_height_twist(rda, [0]))]
        try:
            rdas.append(twist(rda, symtwist.paper_twist(rda)))
        except ValueError:      # sl(n,R) and the Grassmannians with q - p < 2
            pass
        for r in rdas:
            assert bracket_table(r) == bracket_table_reference(r), r.tag


def _with_constants(rda, *changes):
    c = rda.base.c.copy()
    for (i, j, k), v in changes:
        c[i, j, k], c[j, i, k] = v, -v
    return dataclasses.replace(rda, base=dataclasses.replace(rda.base, c=c))


def _table_or_refusal(render, rda):
    try:
        return render(rda)
    except ValueError as exc:
        return f"ValueError: {exc}"


def test_one_pass_table_refuses_as_the_reference_does():
    rda = build_so_nH(4)
    alg, n = rda.base, rda.base.n_indices
    # cell (row Y, column X) holds [X, Y]: its first and last nonzero cells in
    # (row, column) order, as (X, Y, k) of their one constant
    cells = [(x, y, int(np.flatnonzero(alg.c[x, y])[0]))
             for y in n for x in n if alg.c[x, y].any()]
    (x0, y0, k0), (x1, y1, k1) = cells[0], cells[-1]
    other0, other1 = ((x, y, n[0] if k != n[0] else n[1]) for x, y, k in (cells[0], cells[-1]))
    cases = {
        "is not a basis monomial": [
            _with_constants(rda, (other0, 0.5)),
            _with_constants(rda, (other0, 0.5), ((x1, y1, k1), 1.5)),
            _with_constants(rda, (other1, 1.0))],
        "is not in the snap set": [
            _with_constants(rda, ((x1, y1, k1), 1.5)),
            _with_constants(rda, ((x0, y0, k0), 1.5), (other1, 1.0)),
            _with_constants(rda, ((x0, y0, k0), np.inf))],
        # a NaN is not above the cut-off: the cell reads as empty
        "\t": [_with_constants(rda, ((x0, y0, k0), np.nan))],
    }
    for expected, rdas in cases.items():
        for case in rdas:
            got = _table_or_refusal(bracket_table, case)
            assert got == _table_or_refusal(bracket_table_reference, case)
            assert expected in got
