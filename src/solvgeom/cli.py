"""Command-line front end: build the algebras, run the checks, emit reports.

Reports are plain text: two comment lines echoing the command and the seed,
then one tab-separated record per check with fields

    name  status  value  tolerance  claim

where status is "pass", "fail", or "evidence" (search and sampling outputs
that support a claim without proving it) and claim is a stable slug naming
the property being checked ("plumbing" for infrastructure records).
Identical invocations with the same --seed produce byte-identical reports.

Exit codes: 0 = every check passed, 1 = at least one check failed,
2 = usage or input error.
"""

import argparse
import math
import sys

import numpy as np

from . import __version__
from .algebra import TOL_EXACT, bracket, deserialize, iwasawa_check, validate
from .carnot import (
    UNIFORM_TOL,
    DataTriple,
    build_solvmanifold,
    classify_uniform_so4,
    complex_hyperbolic_triple,
    einstein_conditions,
    is_uniform,
    real_hyperbolic_triple,
    search_uniform,
    so4_criterion,
)
from .curvature import einstein_verdict, eigenvalue_type, ricci, sectional
from .so6family import (
    bracket_angle_closed_form,
    family_grid,
    family_report,
    induced_triple,
    negative_curvature_margin,
)
from .symtwist import (
    SPACES,
    bracket_table,
    enumerate_twists,
    mask_twist,
    paper_twist,
    positive_curvature_witness,
    restricted_height_parities,
    restricted_height_twist,
    twist,
    twist_closure_check,
    wa_twist,
)

DEFAULT_SEED = 0xE15731  # 14767921

_SO4_EXPECTED_COUNTS = {1: 1, 2: 2, 3: 2, 4: 2, 5: 1, 6: 1}


def _fmt(v):
    if v is None:
        return "-"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


class Report:
    def __init__(self, command, seed):
        self.command = command
        self.seed = seed
        self.records = []

    def add(self, name, status, value=None, tolerance=None, claim="plumbing"):
        if status not in ("pass", "fail", "evidence"):
            raise ValueError(f"bad status {status!r}")
        self.records.append((name, status, value, tolerance, claim))

    def check(self, name, ok, value=None, tolerance=None, claim="plumbing"):
        self.add(name, "pass" if ok else "fail", value, tolerance, claim)

    @property
    def failed(self):
        return any(r[1] == "fail" for r in self.records)

    def render(self):
        lines = [f"# command: {self.command}", f"# seed: {self.seed}"]
        for name, status, value, tol, claim in self.records:
            lines.append("\t".join([name, status, _fmt(value), _fmt(tol), claim]))
        return "\n".join(lines) + "\n"

    def emit(self, out_path=None):
        text = self.render()
        sys.stdout.write(text)
        if out_path:
            with open(out_path, "w") as fh:
                fh.write(text)
        return 1 if self.failed else 0


# --- shared check batteries ---------------------------------------------------


def _algebra_records(rep, alg):
    val = validate(alg)
    rep.check("antisymmetry", val.antisym_residual <= TOL_EXACT,
              val.antisym_residual, TOL_EXACT, "jacobi-identity")
    rep.check("jacobi", val.jacobi_residual <= TOL_EXACT,
              val.jacobi_residual, TOL_EXACT, "jacobi-identity")
    rep.check("metric-positive", val.gram_min_eig > 0,
              val.gram_min_eig, None, "plumbing")
    if alg.decorated:
        iwa = iwasawa_check(alg)
        rep.check("iwasawa-abelian-a", iwa.cond_i,
                  iwa.abelian_residual, TOL_EXACT, "iwasawa-type")
        rep.check("iwasawa-symmetric-ad", iwa.cond_ii,
                  iwa.symmetry_residual, TOL_EXACT, "iwasawa-type")
        rep.check("iwasawa-positive-direction", iwa.cond_iii,
                  iwa.min_positive_eig, TOL_EXACT, "iwasawa-type")
    verdict = einstein_verdict(alg, tol=TOL_EXACT)
    rep.check("einstein", verdict.is_einstein,
              verdict.residual, TOL_EXACT, "einstein-criterion")
    rep.add("einstein-constant", "pass" if verdict.is_einstein else "evidence",
            verdict.lam, None, "einstein-constant")
    if alg.decorated:
        # computed first, so its refusals exit 2, but read only of an Iwasawa algebra
        et, type_str = eigenvalue_type(alg), None
        if iwa.cond_i and iwa.cond_ii and iwa.cond_iii:
            type_str = "(" + ",".join(str(m) for m in et.eigenvalues) + ";" + \
                ",".join(str(d) for d in et.multiplicities) + ")"
        rep.add("eigenvalue-type", "pass" if type_str else "fail", type_str, None,
                "eigenvalue-type")


def _resolve_twist(rda, spec):
    if spec in (None, "", "none"):
        return None
    if spec == "enumerate":
        return "enumerate"
    if spec == "paper":
        return paper_twist(rda)
    if spec.startswith("wa:"):
        return wa_twist(rda, int(spec[3:]))
    if spec.startswith("rh:"):
        rest = spec[3:]
        subset = [int(tok) for tok in rest.split(",") if tok != ""]
        return restricted_height_twist(rda, subset)
    if spec.startswith("bits:"):
        mask, nn = int(spec[5:], 0), len(rda.base.n_indices)
        if mask < 0 or mask >= (1 << nn):
            raise ValueError(f"bit mask {spec[5:]} out of range for {nn} vectors")
        return mask_twist(rda, mask)
    raise ValueError(f"unknown twist spec {spec!r}")


def _twist_records(rep, rda, assignment):
    closure = twist_closure_check(rda, assignment)
    rep.check("twist-closed", closure.ok, len(closure.violations), None,
              "twist-closure")
    rep.add("twist-monomial", "pass" if closure.monomial else "evidence",
            closure.monomial, None, "twist-closure")
    if not closure.ok:
        return
    twisted = twist(rda, assignment)
    back = twist(twisted, assignment)
    invol = float(np.max(np.abs(back.base.c - rda.base.c)))
    rep.check("twist-involution", invol == 0.0, invol, 0.0, "twist-involution")
    before = einstein_verdict(rda.base, tol=TOL_EXACT)
    after = einstein_verdict(twisted.base, tol=TOL_EXACT)
    for when, verdict, claim in (("before", before, "einstein-criterion"),
                                 ("after", after, "einstein-preservation")):
        rep.check(f"einstein-{when}-twist", verdict.is_einstein, verdict.residual,
                  TOL_EXACT, claim)
        rep.add(f"einstein-constant-{when}-twist",
                "pass" if verdict.is_einstein else "evidence", verdict.lam, None,
                "einstein-constant")
    drift = abs(before.lam - after.lam)
    rep.check("lambda-drift", drift <= TOL_EXACT, drift, TOL_EXACT,
              "einstein-preservation")
    ricci_drift = float(np.max(np.abs(ricci(twisted.base) - ricci(rda.base))))
    rep.check("ricci-drift", ricci_drift <= TOL_EXACT, ricci_drift, TOL_EXACT,
              "einstein-preservation")
    try:
        x, y = positive_curvature_witness(twisted)
    except ValueError:
        pass
    else:
        lie_xy = float(np.max(np.abs(bracket(twisted.base, x, y))))
        rep.check("witness-commutes", lie_xy <= TOL_EXACT, lie_xy, TOL_EXACT,
                  "positive-curvature-witness")
        k = sectional(twisted.base, x, y)
        rep.check("witness-positive-curvature", k > 1e-6, k, 1e-6,
                  "positive-curvature-witness")


def _carnot_triple(rep, r, s, matrices, so4=False):
    """The DataTriple of the search's orthonormal family, with the so(4)
    criterion (when asked for) and the Einstein conditions recorded on it."""
    triple = DataTriple(r=r, s=s, j_mats=matrices)
    if so4:
        crit_res, crit_ok = so4_criterion(triple.j_mats)
        rep.check("so4-criterion", crit_ok, crit_res, None, "so4-quaternion-criterion")
    cond = einstein_conditions(triple)
    rep.check("einstein-conditions", cond.max_residual <= 1e-9,
              cond.max_residual, 1e-9, "einstein-criterion")
    return triple


def _table_files(rep, table, args):
    """Write the table to --out and check it against --golden, each if given."""
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(table)
    if args.golden:
        with open(args.golden) as fh:
            golden = fh.read()
        rep.check("golden-table-match", table == golden,
                  len(table), len(golden), "golden-table")


def _enumerate_records(rep, rda):
    sols = enumerate_twists(rda)
    rep.add("twist-solutions", "pass", len(sols), None, "twist-closure")
    rh = restricted_height_parities(rda)
    sol_set = {s.parities for s in sols}
    extra = len(sol_set - rh)
    missing = len(rh - sol_set)
    roots = [rda.root_of(i) for i in rda.n_indices]
    normal = len(set(roots)) == len(roots)     # one-dimensional root spaces
    status = ("pass" if extra == 0 and missing == 0 else "fail") if normal \
        else "evidence"
    rep.add("rh-span-match", status, f"{len(sol_set)}:{len(rh)}+{extra}",
            None, "rh-rigidity")


def _build_space(args):
    builder, sizes = SPACES[args.space]
    values = [getattr(args, name) for name in sizes]
    if None in values:
        needs = " and ".join(f"--{name}" for name in sizes)
        raise ValueError(f"--space {args.space} needs {needs}")
    return builder(*values)


# --- commands -----------------------------------------------------------------


def cmd_verify(args):
    rep = Report(_echo(args), args.seed)
    target = args.target
    if target == "complex-hyperbolic":
        n = args.n if args.n is not None else 2
        alg = build_solvmanifold(complex_hyperbolic_triple(n))
    elif target == "real-hyperbolic":
        dim = args.dim if args.dim is not None else 4
        alg = build_solvmanifold(real_hyperbolic_triple(dim))
    elif target == "carnot":
        if args.r is None or args.s is None:
            raise ValueError("builtin carnot needs --r and --s")
        cand = search_uniform(args.r, args.s, restarts=args.trials, seed=args.seed)
        found = cand.residual <= UNIFORM_TOL
        rep.add("uniform-search", "pass" if found else "evidence",
                cand.residual, UNIFORM_TOL, "uniform-subspace")
        alg = build_solvmanifold(_carnot_triple(rep, args.r, args.s, cand.matrices))
    else:
        with open(target) as fh:
            alg = deserialize(fh.read())
    _algebra_records(rep, alg)
    return rep.emit(args.out)


def cmd_carnot_search(args):
    rep = Report(_echo(args), args.seed)
    cand = search_uniform(args.r, args.s, restarts=args.trials, seed=args.seed)
    found = cand.residual <= UNIFORM_TOL
    rep.add("best-residual", "pass" if found else "evidence",
            cand.residual, UNIFORM_TOL, "uniform-subspace" if found
            else "uniform-nonexistence-evidence")
    if found:
        rep.check("is-uniform", is_uniform(cand.matrices), None, None,
                  "uniform-subspace")
        _carnot_triple(rep, args.r, args.s, cand.matrices, so4=args.r == 4)
    return rep.emit(args.out)


def cmd_classify_so4(args):
    rep = Report(_echo(args), args.seed)
    wanted = [args.s] if args.s is not None else list(range(1, 7))
    for s in wanted:
        classes = classify_uniform_so4(s, trials=args.trials, seed=args.seed)
        expected = _SO4_EXPECTED_COUNTS[s]
        rep.check(f"so4-classes-s{s}", len(classes) == expected,
                  len(classes), expected, "so4-class-counts")
    return rep.emit(args.out)


def cmd_family_report(args):
    rep = Report(_echo(args), args.seed)
    if args.grid is not None:
        points = family_grid(n_lat=args.grid, n_az=4 * args.grid)
    else:
        points = family_grid()
    rows = family_report(points=points, samples=args.samples, seed=args.seed)

    rep.add("grid-points", "pass", len(rows), None, "plumbing")
    eres = max(r.einstein_residual for r in rows)
    rep.check("einstein-residual-max", eres <= 1e-9, eres, 1e-9,
              "einstein-criterion")
    cdev = max(abs(r.cos_angle_centralizer - abs(r.t)) for r in rows)
    rep.check("centralizer-angle-dev", cdev <= 1e-9, cdev, 1e-9,
              "centralizer-angle")
    bdev = 0.0
    for r in rows:
        closed = bracket_angle_closed_form(r.r, r.s, r.t)
        if math.isnan(closed) or math.isnan(r.cos_angle_bracket):
            if math.isnan(closed) != math.isnan(r.cos_angle_bracket):
                bdev = math.inf
            continue
        bdev = max(bdev, abs(r.cos_angle_bracket - closed))
    rep.check("bracket-angle-dev", bdev <= 1e-6, bdev, 1e-6, "bracket-angle")
    cdim_max = max((r.centralizer_dim for r in rows if max(abs(r.r), abs(r.s)) > 1e-9),
                   default=0)
    rep.check("centralizer-dim-generic", cdim_max == 1, cdim_max, 1,
              "centralizer-dimension")
    kmin = min(r.min_sectional for r in rows)
    kmax = max(r.max_sectional for r in rows)
    rep.add("sectional-range", "evidence", f"{kmin:.12g}:{kmax:.12g}",
            None, "sectional-sign")

    if args.out:
        header = ("r,s,t,einstein_residual,cos_angle_centralizer,"
                  "cos_angle_bracket,min_sectional,max_sectional")
        lines = [header]
        for r in rows:
            lines.append(",".join(_fmt(v) for v in (
                r.r, r.s, r.t, r.einstein_residual, r.cos_angle_centralizer,
                r.cos_angle_bracket, r.min_sectional, r.max_sectional)))
        with open(args.out, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        rep.add("csv-written", "pass", args.out, None, "plumbing")
    return rep.emit(None)


def cmd_family_margin(args):
    rep = Report(_echo(args), args.seed)
    triple = induced_triple(args.r, args.s, args.t)
    margin = negative_curvature_margin(triple, samples=args.samples,
                                       descents=args.descents, seed=args.seed)
    rep.add("min-margin", "evidence", margin, None, "curvature-margin")
    return rep.emit(args.out)


def cmd_symmetric_build(args):
    rep = Report(_echo(args), args.seed)
    rda = _build_space(args)
    rep.add("space", "pass", rda.tag, None, "plumbing")
    rep.add("dim", "pass", rda.dim, None, "plumbing")
    _algebra_records(rep, rda.base)
    assignment = _resolve_twist(rda, args.twist)
    if assignment == "enumerate":
        _enumerate_records(rep, rda)
    elif assignment is not None:
        _twist_records(rep, rda, assignment)
    if args.out:
        # reported only if the write below succeeds, since errors exit 2
        rep.add("table-written", "pass", args.out, None, "plumbing")
    if args.golden or args.out:
        # the table of the build itself; `symmetric table` renders twisted ones
        _table_files(rep, bracket_table(rda), args)
    return rep.emit(None)


def cmd_symmetric_twist(args):
    rep = Report(_echo(args), args.seed)
    rda = _build_space(args)
    rep.add("space", "pass", rda.tag, None, "plumbing")
    assignment = _resolve_twist(rda, args.twist or "paper")
    if assignment == "enumerate":
        _enumerate_records(rep, rda)
    elif assignment is None:
        raise ValueError("nothing to do: twist spec resolved to none")
    else:
        rep.add("twist", "pass", assignment.tag, None, "plumbing")
        _twist_records(rep, rda, assignment)
    return rep.emit(args.out)


def cmd_symmetric_table(args):
    rep = Report(_echo(args), args.seed)
    rda = _build_space(args)
    assignment = _resolve_twist(rda, args.twist)
    if assignment == "enumerate":
        raise ValueError("table needs a single twist, not enumerate")
    if assignment is not None:
        rda = twist(rda, assignment)
    table = bracket_table(rda)
    _table_files(rep, table, args)
    if args.golden or args.out:
        return rep.emit(None)
    sys.stdout.write(table)
    return 0


# --- argument plumbing ----------------------------------------------------------


def _echo(args):
    return " ".join(args._argv)


def _add_common(p):
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--out", default=None, help="also write the report/output here")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="solvgeom",
        description="Constructions and curvature checks for metric solvable "
                    "Lie algebras.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("verify", help="validate an algebra and its Einstein "
                                       "property (builtin name or JSON path)")
    pv.add_argument("target",
                    help="complex-hyperbolic | real-hyperbolic | carnot | path")
    pv.add_argument("--n", type=int, default=None)
    pv.add_argument("--dim", type=int, default=None)
    pv.add_argument("--r", type=int, default=None)
    pv.add_argument("--s", type=int, default=None)
    pv.add_argument("--trials", type=int, default=200)
    _add_common(pv)
    pv.set_defaults(func=cmd_verify)

    pc = sub.add_parser("carnot", help="uniform subspace search and so(4) classes")
    csub = pc.add_subparsers(dest="subcommand", required=True)
    ps = csub.add_parser("search")
    ps.add_argument("--r", type=int, required=True)
    ps.add_argument("--s", type=int, required=True)
    ps.add_argument("--trials", type=int, default=200)
    _add_common(ps)
    ps.set_defaults(func=cmd_carnot_search)
    pk = csub.add_parser("classify-so4")
    pk.add_argument("--s", type=int, default=None, choices=range(1, 7))
    pk.add_argument("--trials", type=int, default=200)
    _add_common(pk)
    pk.set_defaults(func=cmd_classify_so4)
    pcv = csub.add_parser("verify")
    pcv.add_argument("--r", type=int, required=True)
    pcv.add_argument("--s", type=int, required=True)
    pcv.add_argument("--trials", type=int, default=200)
    _add_common(pcv)
    pcv.set_defaults(func=cmd_verify, target="carnot", n=None, dim=None)

    pf = sub.add_parser("family", help="the so(6) two-parameter family")
    fsub = pf.add_subparsers(dest="subcommand", required=True)
    pr = fsub.add_parser("report")
    pr.add_argument("--grid", type=int, default=None)
    pr.add_argument("--samples", type=int, default=200)
    _add_common(pr)
    pr.set_defaults(func=cmd_family_report)
    pm = fsub.add_parser("margin")
    pm.add_argument("--r", type=float, default=1.0)
    pm.add_argument("--s", type=float, default=0.0)
    pm.add_argument("--t", type=float, default=0.0)
    pm.add_argument("--samples", type=int, default=10000)
    pm.add_argument("--descents", type=int, default=100)
    _add_common(pm)
    pm.set_defaults(func=cmd_family_margin)

    py = sub.add_parser("symmetric", help="Iwasawa algebras and sign twists")
    ysub = py.add_subparsers(dest="subcommand", required=True)

    def _space_args(p):
        p.add_argument("--space", required=True, choices=SPACES)
        p.add_argument("--p", type=int, default=None)
        p.add_argument("--q", type=int, default=None)
        p.add_argument("--n", type=int, default=None)
        p.add_argument("--twist", default=None,
                       help="paper | wa:A | rh:I,J | bits:MASK | enumerate")

    pb = ysub.add_parser("build")
    _space_args(pb)
    pb.add_argument("--golden", default=None)
    _add_common(pb)
    pb.set_defaults(func=cmd_symmetric_build)
    pt = ysub.add_parser("twist")
    _space_args(pt)
    _add_common(pt)
    pt.set_defaults(func=cmd_symmetric_twist)
    pg = ysub.add_parser("table")
    _space_args(pg)
    pg.add_argument("--golden", default=None)
    _add_common(pg)
    pg.set_defaults(func=cmd_symmetric_table)

    return parser


PARSER = build_parser()


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    args = PARSER.parse_args(argv)
    args._argv = list(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        return 0
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
