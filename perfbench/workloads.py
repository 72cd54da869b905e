"""The benchmark's three workloads: inputs from a seed, rounds of items, oracles.

A workload's setup turns the seed into inputs, probes what must be probed
outside the timed phase, and warms up.  A round is a fixed list of items run
in order by one closed-loop client.  The kinds of items in a round do not
depend on the seed, only their contents and order do, so rates and latency
percentiles from different seeds measure the same mix.

An item is verified when every check on its output agrees with its oracle.
All library calls go through module attributes (``carnot.search_uniform``,
not a bound name), so the traced run's wrappers see them.
"""

import hashlib
import io
import itertools
import json
import math
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import solvgeom
from solvgeom import algebra, carnot, cli, curvature, so6family, symtwist

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DIR = ROOT / "src" / "solvgeom" / "tables"
MODULES = {
    "solvgeom": solvgeom,
    "algebra": algebra,
    "carnot": carnot,
    "cli": cli,
    "curvature": curvature,
    "so6family": so6family,
    "symtwist": symtwist,
}

# tolerances of tests/test_acceptance.py
TOL_EXACT = 1e-10
TOL_EINSTEIN = 1e-9
TOL_WITNESS = 1e-6
TOL_BRACKET_ANGLE = 1e-6
NONEXISTENCE_RESIDUAL = 0.05


@dataclass
class Item:
    kind: str
    ok: bool
    latency_s: float
    error: str = ""


@dataclass
class Setup:
    """Generated inputs of one workload: the round, plus what setup probed."""

    round: list                 # [(kind, zero-argument check returning bool)]
    digest: str                 # hash of the generated inputs
    probe_calls: int = 0
    probe_failed: int = 0
    probe_errors: list = field(default_factory=list)


def run_item(kind, check):
    t0 = time.perf_counter()
    try:
        ok, error = bool(check()), ""
    except Exception as exc:  # an item that raises is a failed operation; the loop goes on
        ok, error = False, f"{type(exc).__name__}: {exc}"
    if not ok and not error:
        error = "oracle disagrees"
    return Item(kind, ok, time.perf_counter() - t0, error)


def run_round(setup):
    return [run_item(kind, check) for kind, check in setup.round]


def _digest(*parts):
    h = hashlib.sha256()
    for part in parts:
        h.update(repr(part).encode())
    return h.hexdigest()[:16]


# --- verify-stream -------------------------------------------------------------
#
# Requests are `solvgeom verify <document>` calls, made in-process.  The pool
# holds every Carnot kind below twice (orthonormal basis, and a random basis
# of the same algebra with a non-identity Gram matrix) and every small
# symmetric space untwisted and twisted: 52 rank-one requests and 24 of rank
# two or three per round.

_RANDOM_RS = ((2, 1), (3, 1), (3, 2), (4, 2), (5, 3), (6, 2), (7, 4), (8, 3),
              (2, 0), (5, 0), (8, 0))
_FAMILY_POINTS = 2

# (label, builder, builder args, how the twisted copy is twisted)
_DECORATED = (
    ("so(2,2)", "build_so_pq", (2, 2), "enumerated"),
    ("so(2,3)", "build_so_pq", (2, 3), "enumerated"),
    ("sl(3,R)", "build_sl_nR", (3,), "enumerated"),
    ("sl(4,R)", "build_sl_nR", (4,), "enumerated"),
    ("so(3,3)", "build_so_pq", (3, 3), "enumerated"),
    ("so(2,4)", "build_so_pq", (2, 4), "paper"),
    ("su(2,2)", "build_su_pq", (2, 2), "height"),
    ("su(2,3)", "build_su_pq", (2, 3), "height"),
    ("so(3,4)", "build_so_pq", (3, 4), "height"),
    ("sl(3,C)", "build_type_iv_sl", (3,), "paper"),
    ("so(4,H)", "build_so_nH", (4,), "paper"),
    ("sl(3,H)", "build_sl_nH", (3,), "paper"),
)


def _orthogonal(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def _rotated(triple, rng):
    """The same triple up to isometry: J_a -> sum_b M_ab Q J_b Q^T."""
    if triple.s == 0:
        return triple
    q = _orthogonal(rng, triple.r)
    m = _orthogonal(rng, triple.s)
    j = np.einsum("ab,bij->aij", m, q @ triple.j_mats @ q.T)
    return carnot.DataTriple(triple.r, triple.s, 0.5 * (j - np.transpose(j, (0, 2, 1))))


def _einstein_triples():
    """Triples satisfying both Einstein conditions, from closed forms."""
    left, _ = carnot.so4_split_basis()
    z4, i4 = np.zeros((4, 4)), np.eye(4)
    l8 = np.array([np.block([[a, z4], [z4, a]]) for a in left])
    c8 = np.array([np.block([[a, z4], [z4, -a]]) for a in left]
                  + [np.block([[z4, -i4], [i4, z4]])])
    b3 = carnot.so_basis(3)
    z3 = np.zeros((3, 3))
    b6 = np.array([np.block([[b, z3], [z3, b]]) for b in b3])
    DT = carnot.DataTriple
    return [carnot.complex_hyperbolic_triple(n) for n in (2, 3, 4, 5)] + [
        DT(4, 2, left[:2]), DT(4, 3, left), DT(8, 2, l8[:2]), DT(8, 3, l8),
        DT(8, 4, c8), DT(3, 3, b3), DT(6, 3, b6),
    ]


def _generating_triples(rng):
    triples = []
    for r, s in _RANDOM_RS:
        triples.append(carnot.random_triple(r, s, rng) if s else
                       carnot.real_hyperbolic_triple(r + 1))
    triples += _einstein_triples()
    for _ in range(_FAMILY_POINTS):
        v = rng.standard_normal(3)
        triples.append(so6family.induced_triple(*(v / np.linalg.norm(v))))
    # near misses of Einstein triples
    for base, eps in ((carnot.DataTriple(4, 3, carnot.so4_split_basis()[0]), 1e-3),
                      (carnot.complex_hyperbolic_triple(4), 0.3)):
        noise = rng.standard_normal(base.j_mats.shape)
        triples.append(carnot.DataTriple(
            base.r, base.s, base.j_mats + eps * (noise - np.transpose(noise, (0, 2, 1)))))
    return [_rotated(t, rng) for t in triples]


def _change_basis(alg, rng):
    """The same metric algebra in a random basis that keeps the A, X and Z blocks.

    New basis vectors are the columns of a block-diagonal P, so the
    nilradical stays an ideal and ad(A) stays symmetric.
    """
    n = alg.dim
    p = np.zeros((n, n))
    p[0, 0] = 0.5 + rng.random()
    x_idx = [i for i in range(1, n) if abs(alg.c[0, i, i] - 0.5) <= 1e-12]
    z_idx = [i for i in range(1, n) if abs(alg.c[0, i, i] - 1.0) <= 1e-12]
    for block in (x_idx, z_idx):
        if block:
            k = len(block)
            p[np.ix_(block, block)] = np.eye(k) + 0.25 * rng.standard_normal((k, k))
    p_inv = np.linalg.inv(p)
    c = np.einsum("pi,qj,pqm,km->ijk", p, p, alg.c, p_inv)
    entries = [(i, j, k, float(c[i, j, k]))
               for i, j, k in zip(*np.nonzero(c)) if i < j]
    return algebra.from_sparse(
        n, entries, gram=p.T @ alg.gram @ p, labels=alg.labels,
        a_indices=alg.a_indices, n_indices=alg.n_indices,
    )


def _fmt(x):
    return format(float(x), ".17g")


def write_document(alg):
    """The JSON algebra document documented in solvgeom/algebra.py.

    Written here, not by ``algebra.serialize``, so that serialize can be
    probed against it.
    """
    n = alg.dim
    parts = [f'"dim": {n}', '"labels": ' + json.dumps([str(lab) for lab in alg.labels])]
    if np.array_equal(alg.gram, np.eye(n)):
        parts.append('"gram": "identity"')
    else:
        parts.append('"gram": [' + ", ".join(_fmt(v) for v in alg.gram.ravel()) + "]")
    rows = [f"[{i}, {j}, {k}, {_fmt(alg.c[i, j, k])}]"
            for i, j, k in zip(*np.nonzero(alg.c)) if i < j]
    parts.append('"structure": [' + ", ".join(rows) + "]")
    if alg.decorated:
        dec = {"a_indices": [int(i) for i in alg.a_indices],
               "n_indices": [int(i) for i in alg.n_indices]}
        if any(r is not None for r in alg.roots):
            dec["roots"] = [None if r is None else [int(v) for v in r] for r in alg.roots]
        parts.append('"decoration": ' + json.dumps(dec))
    return "{\n  " + ",\n  ".join(parts) + "\n}\n"


def _document_fields(text):
    doc = json.loads(text)
    doc["structure"] = sorted(tuple(row) for row in doc.get("structure", []))
    return doc


def _twist_for(rda, how, rng):
    if how == "paper":
        return _paper_twist(rda)
    if how == "height":
        k = len(rda.simple_roots)
        subset = [i for i in range(k) if rng.random() < 0.5] or [int(rng.integers(k))]
        return symtwist.restricted_height_twist(rda, subset)
    closed = [a for a in symtwist.enumerate_twists(rda) if any(a.parities)]
    return closed[int(rng.integers(len(closed)))]


def _paper_twist(rda):
    family = rda.params["family"]
    if family == "so_nH":
        return symtwist.paper_twist_so_nH(rda)
    if family == "sl_nH":
        return symtwist.paper_twist_sl_nH(rda)
    if family == "type_iv":
        return symtwist.type_iv_twist(rda)
    return symtwist.wa_twist(rda, 1)


def _verify_check(path, expect_einstein):
    def check():
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            rc = cli.main(["verify", path])
        status = {}
        for line in out.getvalue().splitlines():
            if line and not line.startswith("#"):
                fields = line.split("\t")
                status[fields[0]] = fields[1]
        return (status.get("einstein") == ("pass" if expect_einstein else "fail")
                and status.get("jacobi") == "pass"
                and rc == (0 if expect_einstein else 1))
    return check


def verify_documents(seed):
    """[(kind, algebra, expected Einstein verdict)] for one seed."""
    rng = np.random.default_rng(seed)
    docs = []
    for triple in _generating_triples(rng):
        # the oracle: the two algebraic conditions on the generating triple
        expect = carnot.einstein_conditions(triple).max_residual <= TOL_EINSTEIN
        alg = carnot.build_solvmanifold(triple)
        kind = f"carnot({triple.r},{triple.s})"
        docs.append((kind, alg, expect))
        docs.append((kind + "+gram", _change_basis(alg, rng), expect))
    for label, builder, args, how in _DECORATED:
        rda = getattr(symtwist, builder)(*args)
        # symmetric spaces and their closed twists are Einstein
        docs.append((label, rda.base, True))
        docs.append((label + " twisted", symtwist.twist(rda, _twist_for(rda, how, rng)).base, True))
    order = rng.permutation(len(docs))
    return [docs[i] for i in order]


def setup_verify_stream(seed, workdir):
    docs = verify_documents(seed)
    texts = [write_document(alg) for _, alg, _ in docs]
    paths = []
    for n, text in enumerate(texts):
        path = Path(workdir) / f"doc{n:03d}.json"
        path.write_text(text)
        paths.append(str(path))
    setup = Setup(
        round=[(kind, _verify_check(path, expect))
               for (kind, _, expect), path in zip(docs, paths)],
        digest=_digest(texts),
    )
    # serialize must reproduce each generated document
    for (kind, alg, _), text in zip(docs, texts):
        setup.probe_calls += 1
        try:
            same = _document_fields(algebra.serialize(alg)) == _document_fields(text)
            error = "" if same else "output differs from the document"
        except Exception as exc:  # a raise is a counted failure, not a crash
            same, error = False, f"{type(exc).__name__}: {exc}"
        if not same:
            setup.probe_failed += 1
            setup.probe_errors.append(f"serialize {kind}: {error}")
    for kind, check in setup.round[:4]:  # warm-up
        run_item(kind, check)
    return setup


# --- symmetric-battery -----------------------------------------------------------
#
# One item per classical space.  sl(4,H) (dim 27) is the large algebra: each
# of its MetricLieAlgebra constructions is a dim^6 frame transform.

# (label, builder, args, twist, golden table key, has a positive-curvature pair)
_BATTERY = (
    ("so(1,3)", "build_so_pq", (1, 3), "paper", None, False),
    ("su(1,3)", "build_su_pq", (1, 3), "paper", None, False),
    ("so(2,4)", "build_so_pq", (2, 4), "paper", None, True),
    ("su(2,4)", "build_su_pq", (2, 4), "paper", None, True),
    ("so(4,H)", "build_so_nH", (4,), "paper", "so4h", False),
    ("so(5,H)", "build_so_nH", (5,), "paper", "so5h", False),
    ("sl(3,H)", "build_sl_nH", (3,), "paper", "sl3h", True),
    ("sl(4,H)", "build_sl_nH", (4,), "paper", None, True),
    ("sl(3,C)", "build_type_iv_sl", (3,), "paper", None, True),
    ("sl(3,R)", "build_sl_nR", (3,), "enumerated", None, False),
    ("so(2,2)", "build_so_pq", (2, 2), "enumerated", None, False),
    ("so(2,3)", "build_so_pq", (2, 3), "enumerated", None, False),
    ("so(3,3)", "build_so_pq", (3, 3), "enumerated", None, False),
)


def _root_spaces_one_dimensional(rda):
    roots = [rda.root_of(i) for i in rda.n_indices]
    return len(set(roots)) == len(roots)


def _height_twist_parities(rda):
    k = len(rda.simple_roots)
    return {symtwist.restricted_height_twist(rda, subset).parities
            for size in range(k + 1)
            for subset in itertools.combinations(range(k), size)}


def _battery_check(builder, args, how, golden, witness, pick):
    def check():
        rda = getattr(symtwist, builder)(*args)
        ok = True
        if golden is not None:
            ok &= symtwist.bracket_table(rda).encode() == golden
        if how == "enumerated":
            # one-dimensional root spaces: every closed twist is a height twist
            closed = symtwist.enumerate_twists(rda)
            ok &= _root_spaces_one_dimensional(rda)
            ok &= {a.parities for a in closed} == _height_twist_parities(rda)
            nontrivial = [a for a in closed if any(a.parities)]
            assignment = nontrivial[pick % len(nontrivial)]
        else:
            assignment = _paper_twist(rda)
        twisted = symtwist.twist(rda, assignment)
        back = symtwist.twist(twisted, assignment)
        ok &= np.array_equal(back.base.c, rda.base.c) and back.labels == rda.labels
        for alg in (rda.base, twisted.base):
            rep = algebra.validate(alg)
            ok &= rep.ok and rep.jacobi_residual <= TOL_EXACT
        before = curvature.einstein_verdict(rda.base)
        after = curvature.einstein_verdict(twisted.base)
        ok &= before.is_einstein and after.is_einstein
        drift = np.max(np.abs(curvature.ricci(twisted.base) - curvature.ricci(rda.base)))
        ok &= drift <= TOL_EXACT
        if witness:
            x, y = symtwist.positive_curvature_witness(twisted)
            commutator = np.max(np.abs(np.einsum("i,j,ijk->k", x, y, twisted.base.c)))
            ok &= commutator <= TOL_EXACT
            ok &= curvature.sectional(twisted.base, x, y) > TOL_WITNESS
        if len(rda.a_indices) >= 2:
            reduced = curvature.einstein_verdict(curvature.rank_one_reduction(rda.base))
            ok &= reduced.is_einstein and abs(reduced.lam - before.lam) <= TOL_EINSTEIN
        return bool(ok)
    return check


def read_goldens():
    keys = {golden for *_, golden, _ in _BATTERY if golden}
    return {key: (GOLDEN_DIR / f"{key}_brackets.tsv").read_bytes() for key in keys}


def setup_symmetric_battery(seed, workdir, goldens=None):
    if goldens is None:
        goldens = read_goldens()
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(_BATTERY))
    picks = rng.integers(0, 1 << 16, size=len(_BATTERY))
    round_ = []
    for n in order:
        label, builder, args, how, golden, witness = _BATTERY[n]
        round_.append((label, _battery_check(builder, args, how, goldens.get(golden),
                                             witness, int(picks[n]))))
    run_item("warm-up", _battery_check("build_so_pq", (2, 2), "enumerated", None, False, 0))
    return Setup(round=round_, digest=_digest(order.tolist(), picks.tolist()))


# --- family-scan ------------------------------------------------------------------

REPORT_POINTS = 16
REPORT_SAMPLES = 200
MARGIN_SAMPLES = 2000
MARGIN_DESCENTS = 20
SECTIONAL_SAMPLES = 2000
SECTIONAL_ITEMS = 2      # the slowest kind, and more than 5 % of a round: p95
# the rarest so(4) class turns up in about 4 % of trials (s = 3), so 300
# trials miss it with probability below 1e-5
CLASSIFY_TRIALS = 300
SEARCH_RESTARTS = 50
SO4_CLASS_COUNTS = {1: 1, 2: 2, 3: 2, 4: 2, 5: 1, 6: 1}
NONEXISTENT = ((3, 1), (3, 2), (5, 1), (5, 2))


def bracket_cos_closed_form(r, s, t):
    """|r| sqrt((r^2+s^2) / (r^2+s^2+4t^2 + 4c or -2c)), c = t^2 + sqrt(2) s t."""
    num = r * r + s * s
    if num <= 1e-30:
        return math.nan
    c = t * t + math.sqrt(2.0) * s * t
    return abs(r) * math.sqrt(num / (num + 4 * t * t + (4 * c if c < 0 else -2 * c)))


# Each item draws fresh inputs from its own seeded stream on every call, so
# the seed-dependent cost of the random searches averages over the rounds of
# a run instead of repeating one draw.

def _unit_point(rng):
    v = rng.standard_normal(3)
    return tuple(float(x) for x in v / np.linalg.norm(v))


def _report_check(rng):
    def check():
        point = _unit_point(rng)
        r, s, t = point
        (row,) = so6family.family_report(points=[point], samples=REPORT_SAMPLES,
                                         seed=int(rng.integers(2 ** 31)))
        closed = bracket_cos_closed_form(r, s, t)
        if math.isnan(closed):
            bracket_ok = math.isnan(row.cos_angle_bracket)
        else:
            bracket_ok = abs(row.cos_angle_bracket - closed) <= TOL_BRACKET_ANGLE
        return (row.einstein_residual <= TOL_EINSTEIN
                and abs(row.cos_angle_centralizer - abs(t)) <= TOL_EINSTEIN
                and bracket_ok
                and math.isfinite(row.min_sectional)
                and row.min_sectional <= row.max_sectional)
    return check


def _margin_check(rng):
    def check():
        triple = so6family.induced_triple(1.0, 0.0, 0.0)
        return so6family.negative_curvature_margin(
            triple, samples=MARGIN_SAMPLES, descents=MARGIN_DESCENTS,
            seed=int(rng.integers(2 ** 31))) > 0.0
    return check


def _sectional_check(rng):
    def check():
        pairs = rng.standard_normal((SECTIONAL_SAMPLES, 2, 10))
        alg = carnot.build_solvmanifold(so6family.induced_triple(1.0, 0.0, 0.0))
        return all(curvature.sectional(alg, x, y) < 0.0 for x, y in pairs)
    return check


def _classify_check(s, rng):
    def check():
        classes = carnot.classify_uniform_so4(s, trials=CLASSIFY_TRIALS,
                                              seed=int(rng.integers(2 ** 31)))
        return len(classes) == SO4_CLASS_COUNTS[s]
    return check


def _search_check(r, s, rng):
    def check():
        best = carnot.search_uniform(r, s, restarts=SEARCH_RESTARTS,
                                     seed=int(rng.integers(2 ** 31)))
        return best.residual >= NONEXISTENCE_RESIDUAL
    return check


def setup_family_scan(seed, workdir):
    rng = np.random.default_rng(seed)
    n_items = (REPORT_POINTS + 1 + SECTIONAL_ITEMS + len(SO4_CLASS_COUNTS)
               + len(NONEXISTENT))
    item_seeds = rng.integers(0, 2 ** 31, size=n_items).tolist()
    streams = [np.random.default_rng(s) for s in item_seeds]
    round_ = [("report", _report_check(streams.pop())) for _ in range(REPORT_POINTS)]
    round_.append(("margin", _margin_check(streams.pop())))
    round_ += [("sectionals", _sectional_check(streams.pop())) for _ in range(SECTIONAL_ITEMS)]
    round_ += [(f"classify s={s}", _classify_check(s, streams.pop()))
               for s in SO4_CLASS_COUNTS]
    round_ += [(f"search ({r},{s})", _search_check(r, s, streams.pop()))
               for r, s in NONEXISTENT]
    order = rng.permutation(n_items)
    # warm-up: lazy imports (scipy.optimize) and first calls of every layer
    triple = so6family.induced_triple(1.0, 0.0, 0.0)
    so6family.family_report(points=[(1.0, 0.0, 0.0)], samples=2, seed=0)
    so6family.negative_curvature_margin(triple, samples=10, descents=1, seed=0)
    carnot.classify_uniform_so4(1, trials=2, seed=0)
    carnot.search_uniform(3, 1, restarts=1, seed=0)
    return Setup(round=[round_[i] for i in order],
                 digest=_digest(item_seeds, order.tolist()))


SETUPS = {
    "verify-stream": setup_verify_stream,
    "symmetric-battery": setup_symmetric_battery,
    "family-scan": setup_family_scan,
}
