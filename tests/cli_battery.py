"""A fixed battery of CLI commands, run in process through `solvgeom.cli.main`.

Prints one line per command: the sha256 of what the command printed (stdout,
then stderr) and of every file it read or wrote (or of its absence), its exit
code, and its argv.
Running the battery on two trees and diffing the two outputs shows whether any
CLI output, document or table moved:

    PYTHONPATH=src python tests/cli_battery.py > battery.txt

The battery covers every `symmetric` space with the paper, enumerate and
restricted-height twists and the shipped goldens; `verify` on the builtin
targets, on the serialized documents of every builder, on CH^2 with its Gram
matrix rescaled to s * Id, on a non-Einstein extension, sl(4,H) and a random
antisymmetric tensor with their constants rescaled, on CH^2 with an ad(a) that
is not symmetric, on CH^3 with its constants rescaled by 1e-9, on CH^2 with a
Gram matrix that couples a and n (refused: its mean curvature leaves a), on a
rank-6 diagonal extension with 0 in the hull of its roots (refused by the
eigenvalue type: ad(A)|n has a non-positive eigenvalue), and
on the benchmark's verify-stream documents of seeds 1 and 2; small `family` and `carnot`
commands, the default `family report` and one whose 5000 samples a point
cross a 4096-row block, the default `family margin` at W(1,0,0) (the value
the README quotes); the exit-2 refusals; and, last, the `--out` writes of
`verify`, `family report` and `symmetric build`, a `carnot search` at (4, 2)
that prints the so4-criterion record, a structure constant given as a JSON
string and `family margin` at W(1e-13,0,0); then `carnot classify-so4` at
s = 2..5 with 300 trials and `carnot search` at (5, 1) and (5, 2) with 50
trials, the descents at the sizes the family-scan benchmark runs; a document
whose labels are `false`, a document nested past the recursion limit and one
with roots but no decoration, each refused; and a `verify --out` into a
missing directory, refused before any report.  The temporary directory's path
is written as TMP in argv, hashed output and hashed files, so the lines do
not depend on where it is.
pytest does not collect this file.
"""

import contextlib
import dataclasses
import hashlib
import io
import shutil
import sys
import tempfile
from importlib import resources
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from documents import ch2_gram_coupled, rank6_opposite_roots  # noqa: E402
from perfbench.workloads import verify_documents  # noqa: E402
from solvgeom import symtwist  # noqa: E402
from solvgeom.algebra import MetricLieAlgebra, serialize  # noqa: E402
from solvgeom.carnot import (  # noqa: E402
    build_solvmanifold,
    complex_hyperbolic_triple,
    random_triple,
    real_hyperbolic_triple,
)
from solvgeom.cli import main  # noqa: E402

import numpy as np  # noqa: E402

# (space, size arguments, builder arguments)
SPACES = (
    [("so_pq", ["--p", str(p), "--q", str(q)], (p, q))
     for p, q in ((1, 2), (1, 3), (2, 2), (2, 3), (2, 4), (2, 6), (3, 3), (3, 4))]
    + [("su_pq", ["--p", str(p), "--q", str(q)], (p, q))
       for p, q in ((1, 3), (2, 2), (2, 3), (2, 4), (3, 3))]
    + [("sp_pq", ["--p", str(p), "--q", str(q)], (p, q))
       for p, q in ((1, 2), (1, 3), (2, 2), (2, 3), (2, 4), (3, 3))]
    + [("so_nH", ["--n", str(n)], (n,)) for n in (4, 5, 6, 7)]
    + [("sl_nH", ["--n", str(n)], (n,)) for n in (2, 3, 4, 5)]
    + [("type4_sl", ["--n", str(n)], (n,)) for n in (2, 3, 4, 7)]
    + [("sl_nR", ["--n", str(n)], (n,)) for n in (2, 3, 4, 5, 9)]
)
TWISTS = (None, "paper", "enumerate", "rh:0", "rh:0,1", "bits:0x1")
GOLDENS = (("so_nH", "4", "so4h"), ("so_nH", "5", "so5h"), ("sl_nH", "3", "sl3h"))

REFUSALS = (
    ["symmetric", "build", "--space", "so_pq", "--p", "1", "--q", "1"],
    ["symmetric", "build", "--space", "sl_nR", "--n", "40"],
    ["symmetric", "build", "--space", "so_nH", "--n", "3"],
    ["symmetric", "build", "--space", "so_nH", "--n", "8"],
    ["symmetric", "build", "--space", "so_pq", "--p", "2"],
    ["symmetric", "twist", "--space", "so_nH", "--n", "4", "--twist", "wa:1"],
    ["symmetric", "twist", "--space", "so_nH", "--n", "4", "--twist", "bits:0x999999999"],
    ["symmetric", "twist", "--space", "so_nH", "--n", "4", "--twist", "nonsense"],
    ["symmetric", "twist", "--space", "sl_nR", "--n", "3", "--twist", "rh:7"],
    ["symmetric", "table", "--space", "sl_nH", "--n", "3", "--twist", "enumerate"],
    ["symmetric", "table", "--space", "sl_nH", "--n", "3", "--print-table"],
    ["verify", "TMP/missing.json"],
    ["verify", "TMP/bad.json"],
    ["verify", "TMP/big.json"],
    ["verify", "TMP/frame.json"],
    ["verify", "TMP/frame-decorated.json"],
    ["verify", "TMP/frame-bound.json"],
    ["verify", "TMP/frame-bound-3.json"],
    ["verify", "carnot"],
    ["carnot", "search", "--r", "1", "--s", "1"],
    ["carnot", "classify-so4", "--s", "1", "--trials", "0"],
    ["family", "margin", "--samples", "0", "--descents", "0"],
    ["family", "margin", "--r", "nan"],
    ["family", "report", "--grid", "1"],
    ["carnot"],
    ["symmetric", "build"],
)


def battery(tmp):
    """[(argv, files)]: each command, and the files whose bytes it is judged by."""
    cmds = []
    for space, size, args in SPACES:
        base = ["--space", space] + size
        for spec in TWISTS:
            twist = ["--twist", spec] if spec else []
            cmds.append((["symmetric", "build"] + base + twist, []))
            if spec:
                cmds.append((["symmetric", "twist"] + base + twist, []))
            if spec in (None, "paper", "rh:0"):
                cmds.append((["symmetric", "table"] + base + twist, []))
        out = f"{tmp}/{space}{''.join(size)}.tsv"
        cmds.append((["symmetric", "table"] + base + ["--twist", "paper", "--out", out], [out]))
        # the serialized documents of the build and of its rh:0 and paper twists
        rda = symtwist.SPACES[space][0](*args)
        docs = [rda.base, symtwist.twist(rda, symtwist.restricted_height_twist(rda, [0])).base]
        try:
            docs.append(symtwist.twist(rda, symtwist.paper_twist(rda)).base)
        except ValueError:      # sl(n,R) and the Grassmannians with q - p < 2
            pass
        for t, alg in enumerate(docs):
            cmds.append(_document(tmp, f"{space}{''.join(size)}-{t}", alg))
    for space, n, name in GOLDENS:
        golden = f"{tmp}/{name}_brackets.tsv"
        for command in ("build", "table"):
            cmds.append((["symmetric", command, "--space", space, "--n", n,
                          "--golden", golden], [golden]))
    rng = np.random.default_rng(1)
    carnot_algs = [build_solvmanifold(complex_hyperbolic_triple(n)) for n in (2, 3)]
    carnot_algs += [build_solvmanifold(real_hyperbolic_triple(d)) for d in (3, 5)]
    carnot_algs += [build_solvmanifold(random_triple(r, s, rng)) for r, s in ((3, 1), (4, 3))]
    for t, alg in enumerate(carnot_algs):
        cmds.append(_document(tmp, f"carnot-{t}", alg))
    for scale in (1e10, 1e20, 1e30):
        alg = dataclasses.replace(carnot_algs[0], gram=scale * np.eye(carnot_algs[0].dim))
        cmds.append(_document(tmp, f"ch2-gram-{scale:g}", alg))
    generic = build_solvmanifold(random_triple(4, 2, np.random.default_rng(8)))
    for scale in (1e-8, 1e-6):
        alg = dataclasses.replace(generic, c=scale * generic.c)
        cmds.append(_document(tmp, f"generic-c-{scale:g}", alg))
    # the Jacobi verdict under c -> s c, on a Lie algebra and on a random tensor
    sl4h = symtwist.build_sl_nH(4).base
    cmds.append(_document(tmp, "sl_nH4-c-1e+04", dataclasses.replace(sl4h, c=1e4 * sl4h.c)))
    noise = np.random.default_rng(0).standard_normal((6,) * 3)
    noise = MetricLieAlgebra(c=1e-6 * (noise - noise.transpose(1, 0, 2)), gram=np.eye(6))
    cmds.append(_document(tmp, "noise-c-1e-06", noise))
    # CH^2 with ad(e0) off symmetric by 1e-8: fails at the fixed Iwasawa tolerance
    c = carnot_algs[0].c.copy()
    c[0, 1, 2] += 1e-8
    c[1, 0, 2] -= 1e-8
    cmds.append(_document(tmp, "ch2-asymmetric-ad", dataclasses.replace(carnot_algs[0], c=c)))
    # CH^3 with c -> 1e-9 c: ad stays injective on a, the rank cut-off is relative
    ch3 = carnot_algs[1]
    cmds.append(_document(tmp, "ch3-c-1e-09", dataclasses.replace(ch3, c=1e-9 * ch3.c)))
    cmds.append(_document(tmp, "ch2-gram-coupled", ch2_gram_coupled()))
    cmds.append(_document(tmp, "rank6-opposite-roots", rank6_opposite_roots()))
    for seed in (1, 2):
        for t, (_, alg, _) in enumerate(verify_documents(seed)):
            cmds.append(_document(tmp, f"stream{seed}-{t}", alg))
    cmds += [(argv, []) for argv in (
        ["verify", "complex-hyperbolic"], ["verify", "complex-hyperbolic", "--n", "3"],
        ["verify", "real-hyperbolic"], ["verify", "real-hyperbolic", "--dim", "6"],
        ["verify", "carnot", "--r", "3", "--s", "3", "--trials", "40"],
        ["carnot", "verify", "--r", "4", "--s", "3", "--trials", "40"],
        ["carnot", "search", "--r", "3", "--s", "2", "--trials", "20"],
        ["carnot", "search", "--r", "5", "--s", "4", "--trials", "4"],
        ["carnot", "classify-so4", "--s", "1", "--trials", "20"],
        ["family", "report", "--grid", "2", "--samples", "20"],
        ["family", "report", "--grid", "3", "--samples", "5000"],
        ["family", "report"],
        ["family", "margin", "--samples", "200", "--descents", "3"],
        ["family", "margin", "--r", "1", "--s", "0", "--t", "0"],
        ["family", "margin", "--r", "0.6", "--s", "0.64", "--t", "0.48",
         "--samples", "200", "--descents", "3"],
    )]
    cmds += [(argv, []) for argv in REFUSALS]
    # the --out writes of a report, a family CSV and a build's table; a carnot search
    # that hits, so it prints the so4-criterion record; a constant that is a JSON
    # string, refused; and a direction whose squares are tiny, which W(1,0,0) answers
    report, csv, table = f"{tmp}/ch2-report.txt", f"{tmp}/family.csv", f"{tmp}/sl_nH3.tsv"
    cmds += [
        (["verify", "complex-hyperbolic", "--out", report], [report]),
        (["family", "report", "--grid", "2", "--samples", "20", "--out", csv], [csv]),
        (["symmetric", "build", "--space", "sl_nH", "--n", "3", "--out", table], [table]),
        (["carnot", "search", "--r", "4", "--s", "2", "--trials", "20"], []),
        (["verify", "TMP/string-constant.json"], []),
        (["family", "margin", "--r", "1e-13", "--s", "0", "--t", "0",
          "--samples", "200", "--descents", "3"], []),
    ]
    # the descents at the sizes the family-scan benchmark runs them
    cmds += [(["carnot", "classify-so4", "--s", str(s), "--trials", "300"], [])
             for s in (2, 3, 4, 5)]
    cmds += [(["carnot", "search", "--r", "5", "--s", str(s), "--trials", "50"], [])
             for s in (1, 2)]
    # a falsy field of the wrong type, refused rather than read as absent
    cmds.append((["verify", "TMP/labels-false.json"], []))
    # a document nested past the recursion limit and roots without a decoration, each
    # refused; and an --out path that cannot be written, refused before any report
    cmds += [(["verify", "TMP/nested.json"], []), (["verify", "TMP/roots-undecorated.json"], []),
             (["verify", "complex-hyperbolic", "--out", "TMP/missing/report.txt"], [])]
    return cmds


def _document(tmp, name, alg):
    path = f"{tmp}/{name}.json"
    Path(path).write_text(serialize(alg))
    return ["verify", path], [path]


def run(argv, files, tmp):
    out, err = io.StringIO(), io.StringIO()
    argv = [a.replace("TMP", tmp) for a in argv]
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    digest = hashlib.sha256()
    for text in (out.getvalue(), err.getvalue()):
        digest.update(text.replace(tmp, "TMP").encode() + b"\0")
    for path in map(Path, files):
        data = path.read_bytes().replace(tmp.encode(), b"TMP") if path.exists() else b"absent"
        digest.update(data + b"\0")
    shown = " ".join(a.replace(tmp, "TMP") for a in argv)
    return f"{digest.hexdigest()}  {code}  {shown}"


def main_battery():
    with tempfile.TemporaryDirectory() as tmp:
        tables = resources.files("solvgeom") / "tables"
        for _, _, name in GOLDENS:
            shutil.copyfile(tables / f"{name}_brackets.tsv", f"{tmp}/{name}_brackets.tsv")
        Path(f"{tmp}/bad.json").write_text('{"dim": 3, "structure": [[0, 1, 3, 1.0]]}')
        Path(f"{tmp}/big.json").write_text('{"dim": 3, "structure": [[0, 1, 2, 1e160]]}')
        frame = '{"dim": 2, "gram": [1e-300, 0, 0, 1e-300], "structure": [[0, 1, 1, 1e10]]'
        Path(f"{tmp}/frame.json").write_text(frame + "}")
        Path(f"{tmp}/frame-decorated.json").write_text(
            frame + ', "decoration": {"a_indices": [0], "n_indices": [1]}}')
        Path(f"{tmp}/frame-bound.json").write_text(
            '{"dim": 2, "gram": [1e-300, 0, 0, 1e-300], "structure": [[0, 1, 1, 1e5]]}')
        Path(f"{tmp}/frame-bound-3.json").write_text(
            '{"dim": 3, "gram": [1e-300, 0, 0, 0, 1e-300, 0, 0, 0, 1e-300], '
            '"structure": [[0, 1, 2, 1e5]]}')
        Path(f"{tmp}/string-constant.json").write_text(
            '{"dim": 2, "structure": [[0, 1, 1, "1.0"]]}')
        Path(f"{tmp}/labels-false.json").write_text('{"dim": 2, "labels": false}')
        Path(f"{tmp}/nested.json").write_text("[" * 200000)
        Path(f"{tmp}/roots-undecorated.json").write_text(
            '{"dim": 3, "decoration": {"roots": [null, [1, -2], [3, 0]]}}')
        for argv, files in battery(tmp):
            print(run(argv, files, tmp), flush=True)


if __name__ == "__main__":
    main_battery()
