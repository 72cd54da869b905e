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
matrix rescaled to s * Id, and on the benchmark's verify-stream documents of
seeds 1 and 2; small `family` and `carnot`
commands, the default `family report` and one whose 5000 samples a point
cross a 4096-row block; and the exit-2 refusals.  The temporary directory's
path is written as TMP in argv and hashed output, so the lines do not depend
on where it is.
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

from perfbench.workloads import verify_documents  # noqa: E402
from solvgeom import symtwist  # noqa: E402
from solvgeom.algebra import serialize  # noqa: E402
from solvgeom.carnot import (  # noqa: E402
    build_solvmanifold,
    complex_hyperbolic_triple,
    random_triple,
    real_hyperbolic_triple,
)
from solvgeom.cli import _paper_twist, main  # noqa: E402

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
BUILDERS = {"so_pq": symtwist.build_so_pq, "su_pq": symtwist.build_su_pq,
            "sp_pq": symtwist.build_sp_pq, "so_nH": symtwist.build_so_nH,
            "sl_nH": symtwist.build_sl_nH, "type4_sl": symtwist.build_type_iv_sl,
            "sl_nR": symtwist.build_sl_nR}
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
    ["verify", "TMP/missing.json"],
    ["verify", "TMP/bad.json"],
    ["verify", "TMP/big.json"],
    ["verify", "TMP/frame.json"],
    ["verify", "TMP/frame-decorated.json"],
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
        rda = BUILDERS[space](*args)
        docs = [rda.base, symtwist.twist(rda, symtwist.restricted_height_twist(rda, [0])).base]
        try:
            docs.append(symtwist.twist(rda, _paper_twist(rda)).base)
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
        ["family", "margin", "--r", "0.6", "--s", "0.64", "--t", "0.48",
         "--samples", "200", "--descents", "3"],
    )]
    cmds += [(argv, []) for argv in REFUSALS]
    return cmds


def _document(tmp, name, alg):
    path = f"{tmp}/{name}.json"
    Path(path).write_text(serialize(alg))
    return ["verify", path], [path]


def run(argv, files, tmp):
    out, err = io.StringIO(), io.StringIO()
    argv = [a.replace("TMP", tmp) for a in argv]
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    digest = hashlib.sha256()
    for text in (out.getvalue(), err.getvalue()):
        digest.update(text.replace(tmp, "TMP").encode() + b"\0")
    for path in map(Path, files):
        digest.update((path.read_bytes() if path.exists() else b"absent") + b"\0")
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
        for argv, files in battery(tmp):
            print(run(argv, files, tmp), flush=True)


if __name__ == "__main__":
    main_battery()
