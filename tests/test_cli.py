"""Command line interface: exit codes, report format, determinism, goldens."""

import io
import contextlib
import dataclasses
import json
import os
import subprocess
import sys
import time
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from solvgeom import algebra, cli, symtwist
from solvgeom.algebra import serialize
from solvgeom.carnot import build_solvmanifold, complex_hyperbolic_triple, random_triple
from solvgeom.cli import DEFAULT_SEED, main
from solvgeom.curvature import einstein_verdict

from conftest import SEED, NoNumpy
from documents import ch2_gram_coupled, rank6_opposite_roots


def run(argv):
    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def records(text):
    rows = {}
    for line in text.splitlines():
        if line.startswith("#") or not line.strip():
            continue
        name, status, value, tol, claim = line.split("\t")
        rows[name] = (status, value, tol, claim)
    return rows


def test_default_seed_constant():
    assert DEFAULT_SEED == 0xE15731 == 14767921


def test_verify_complex_hyperbolic():
    code, out, _ = run(["verify", "complex-hyperbolic", "--n", "2"])
    assert code == 0
    rows = records(out)
    assert rows["einstein"][0] == "pass"
    assert rows["einstein-constant"][1] == "-1.5"
    assert rows["eigenvalue-type"][1] == "(1,2;2,1)"
    assert out.startswith("# command: verify complex-hyperbolic --n 2\n")
    assert "# seed: 14767921" in out


def test_iwasawa_positive_direction_prints_its_cut_off():
    # condition (iii) holds when the least eigenvalue is above TOL_EXACT
    _, out, _ = run(["verify", "complex-hyperbolic", "--n", "2"])
    assert records(out)["iwasawa-positive-direction"] == \
        ("pass", "0.5", "1e-10", "iwasawa-type")


def test_verify_real_hyperbolic():
    code, out, _ = run(["verify", "real-hyperbolic", "--dim", "4"])
    assert code == 0
    rows = records(out)
    assert rows["einstein"][0] == "pass"
    assert rows["einstein-constant"][1] == "-0.75"


def test_verify_carnot_target():
    code, out, _ = run(["verify", "carnot", "--r", "3", "--s", "3", "--trials", "40"])
    assert code == 0
    rows = records(out)
    assert rows["uniform-search"][0] == "pass"
    assert rows["einstein"][0] == "pass"


def test_verify_serialized_file(tmp_path):
    path = tmp_path / "alg.json"
    path.write_text(serialize(build_solvmanifold(complex_hyperbolic_triple(2))))
    code, out, _ = run(["verify", str(path)])
    assert code == 0
    assert records(out)["einstein-constant"][1] == "-1.5"


def test_verify_non_einstein_file_exits_1(tmp_path):
    rng = np.random.default_rng(SEED)
    path = tmp_path / "alg.json"
    path.write_text(serialize(build_solvmanifold(random_triple(3, 1, rng))))
    code, out, _ = run(["verify", str(path)])
    assert code == 1
    assert records(out)["einstein"][0] == "fail"


def test_verify_corrupted_file_exits_2(tmp_path):
    path = tmp_path / "broken.json"
    for text in (
        "{this is not json",
        '{"dim": 3, "structure": [[0, 1, 2]]}',               # three fields
        '{"dim": 3, "structure": [[0, 1, 3, 1.0]]}',          # k outside the basis
        '{"dim": 3, "labels": ["A", "B"], "structure": []}',  # labels too short
        '{"dim": 3, "structure": [], "decoration": {"a_indices": [0], '
        '"n_indices": [1, 2], "roots": [null, [1]]}}',        # roots too short
    ):
        path.write_text(text)
        code, out, err = run(["verify", str(path)])
        assert code == 2, text
        assert out == ""
        assert err.startswith("error:")
        assert len(err.splitlines()) == 1


@pytest.mark.parametrize("text", [
    # decoration indices that are not JSON integers, or an empty nilradical
    '{"dim": 2, "structure": [[0, 1, 1, 1.0]], '
    '"decoration": {"a_indices": ["x"], "n_indices": [1]}}',
    '{"dim": 2, "structure": [[0, 1, 1, 1.0]], '
    '"decoration": {"a_indices": [0.0], "n_indices": [1]}}',
    '{"dim": 2, "structure": [], "decoration": {"a_indices": [0, 1], "n_indices": []}}',
    # structure constants above MAX_CONSTANT (Jacobi 0 at 1e160, Ricci overflows), ad(A) = 0
    '{"dim": 2, "structure": [[0, 1, 1, 1e308]], '
    '"decoration": {"a_indices": [0], "n_indices": [1]}}',
    '{"dim": 2, "structure": [[0, 1, 1, 1e200]], '
    '"decoration": {"a_indices": [0], "n_indices": [1]}}',
    '{"dim": 3, "structure": [[0, 1, 2, 1e160]]}',
    '{"dim": 3, "structure": [[0, 1, 2, 1e160]], '
    '"decoration": {"a_indices": [0], "n_indices": [1, 2]}}',
    '{"dim": 2, "structure": [], "decoration": {"a_indices": [0], "n_indices": [1]}}',
    # repeated rows whose sum overflows, and a constant above the bound with a tiny
    # Gram: refused before the sum or the frame transform can overflow
    '{"dim": 2, "structure": [[0, 1, 1, 1e308], [0, 1, 1, 1e308]]}',
    '{"dim": 2, "gram": [1e-20, 0, 0, 1e-20], "structure": [[0, 1, 1, 1e300]]}',
    # a non-symmetric Gram matrix, one whose defect overflows, an indefinite one,
    # and a fractional structure index
    '{"dim": 2, "gram": [1, 0.5, 0, 1], "structure": []}',
    '{"dim": 2, "gram": [1.7e308, 1e308, -1e308, 1.7e308], "structure": []}',
    '{"dim": 2, "gram": [1, 2, 2, 1], "structure": []}',
    '{"dim": 3, "structure": [[0.5, 1, 2, 1.0]]}',
    # symmetric within 1e-10, with an indefinite symmetric part but a positive-definite
    # triangle (either one); and singular to working precision, though Cholesky passes
    '{"dim": 2, "gram": [1e-12, 5e-11, 0, 1e-12], "structure": []}',
    '{"dim": 2, "gram": [1e-12, 0, 5e-11, 1e-12], "structure": []}',
    '{"dim": 2, "gram": [0.1, 1, 1, 10], "structure": []}',
    # refused before anything of size dim is allocated
    '{"dim": 100000}',
    # constants inside the bound whose transform into the frame of a tiny Gram overflows
    '{"dim": 2, "gram": [1e-300, 0, 0, 1e-300], "structure": [[0, 1, 1, 1e10]]}',
    '{"dim": 2, "gram": [1e-300, 0, 0, 1e-300], "structure": [[0, 1, 1, 1e10]], '
    '"decoration": {"a_indices": [0], "n_indices": [1]}}',
    # frame constants near 1e155: the transform is finite, but the Ricci form overflows
    '{"dim": 2, "gram": [1e-300, 0, 0, 1e-300], "structure": [[0, 1, 1, 1e5]]}',
    '{"dim": 3, "gram": [1e-300, 0, 0, 0, 1e-300, 0, 0, 0, 1e-300], '
    '"structure": [[0, 1, 2, 1e5]]}',
    # constants and Gram entries that are not JSON numbers, or too large for a float;
    # a label that is not a string and a Gram that is not one flat list
    '{"dim": 2, "structure": [[0, 1, 1, "1.0"]]}',
    '{"dim": 2, "structure": [[0, 1, 1, true]]}',
    '{"dim": 2, "gram": ["1", "0", "0", "1"], "structure": []}',
    '{"dim": 2, "gram": [true, false, false, true], "structure": []}',
    '{"dim": 2, "structure": [[0, 1, 1, 1' + "0" * 400 + ']]}',
    '{"dim": 2, "gram": [1' + "0" * 400 + ', 0, 0, 1], "structure": []}',
    '{"dim": 2, "labels": ["A", 2], "structure": []}',
    '{"dim": 2, "gram": [[1, 0], [0, 1]], "structure": []}',
    # falsy fields of the wrong type, which are not absent ones
    '{"dim": 2, "labels": false, "structure": []}',
    '{"dim": 2, "labels": "", "structure": []}',
    '{"dim": 2, "structure": {}}',
    '{"dim": 2, "structure": [], "decoration": 0}',
    '{"dim": 2, "structure": [[0, 1, 1, 1.0]], '
    '"decoration": {"a_indices": [0], "n_indices": [1], "roots": false}}',
], ids=["a-str", "a-float", "n-empty", "c-1e308", "c-1e200", "c-1e160", "c-1e160-decorated",
        "ad-zero", "c-rows-overflow", "c-tiny-gram", "gram-nonsymmetric",
        "gram-defect-overflow", "gram-indefinite", "row-float", "gram-upper-triangle",
        "gram-lower-triangle", "gram-singular", "dim-huge", "frame-overflow",
        "frame-overflow-decorated", "frame-above-bound", "frame-above-bound-dim3",
        "c-string", "c-bool", "gram-strings", "gram-bools", "c-huge-int", "gram-huge-int",
        "label-number", "gram-nested", "labels-false", "labels-empty-string",
        "structure-object", "decoration-zero", "roots-false"])
@pytest.mark.filterwarnings("error::RuntimeWarning")  # a warning is a second stderr line
def test_verify_bad_document_exits_2_with_one_error_line(tmp_path, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    code, out, err = run(["verify", str(path)])
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("alg, message", [
    (ch2_gram_coupled, "mean-curvature vector does not lie in a"),
    (rank6_opposite_roots, "ad(A)|n has a non-positive eigenvalue; not of Iwasawa type"),
], ids=["ch2-gram-coupled", "rank6-opposite-roots"])
def test_verify_refuses_a_valid_lie_algebra_it_cannot_decide(tmp_path, alg, message):
    path = tmp_path / "alg.json"
    path.write_text(serialize(alg()))
    start = time.perf_counter()
    code, out, err = run(["verify", str(path)])
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {message}") and len(err.splitlines()) == 1


@pytest.mark.parametrize("shift, code, record", [
    (0.0, 0, "pass\t(1,2;2,1)"),
    (1e-8, 1, "fail\t-"),
    (0.3, 1, "fail\t-"),       # printed the artefact (7,13,20;1,1,1)
])
def test_eigenvalue_type_passes_only_when_the_iwasawa_conditions_do(
        tmp_path, shift, code, record):
    # CH^2 with [A, X1] shifted by `shift` along X2: a shift makes ad(A) not
    # symmetric, so (ii) fails and the type of its symmetric part is not read
    alg = build_solvmanifold(complex_hyperbolic_triple(2))
    c = alg.c.copy()
    c[0, 1, 2] += shift
    c[1, 0, 2] -= shift
    path = tmp_path / "alg.json"
    path.write_text(serialize(dataclasses.replace(alg, c=c)))
    got, out, err = run(["verify", str(path)])
    assert (got, err) == (code, "")
    assert out.endswith(f"\neigenvalue-type\t{record}\t-\teigenvalue-type\n")


@pytest.mark.parametrize("text", [
    '{"dim": 3, "structure": [[0, 1, 2, 1e150]]}',
    '{"dim": 2, "gram": [1e308, 0, 0, 1e308], "structure": []}',
    # c_frame at the bound along one long axis: the Ricci form is finite in the frame,
    # though not in the document's basis, where one entry is about 1e599
    '{"dim": 3, "gram": [1, 0, 0, 0, 1, 0, 0, 0, 1e300], "structure": [[0, 1, 2, 1.0]]}',
], ids=["c-1e150", "gram-1e308", "gram-1e300-one-axis"])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_verify_document_at_the_bounds_gives_a_report(tmp_path, text):
    """The largest constant accepted (MAX_CONSTANT) and a Gram entry near the
    largest double are verified with a report and nothing on stderr."""
    path = tmp_path / "edge.json"
    path.write_text(text)
    code, out, err = run(["verify", str(path)])
    assert code in (0, 1)
    assert err == ""
    assert out.startswith("# command: verify ")


@pytest.mark.parametrize("scale", [1e-20, 1e-10, 1.0, 1e10, 1e20, 1e30])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_verify_rescaled_complex_hyperbolic_keeps_its_type(tmp_path, scale):
    """CH^2 with its Gram matrix replaced by scale * Id is still Einstein, of
    eigenvalue type (1,2;2,1): no cut-off depends on the scale of the metric."""
    doc = json.loads(serialize(build_solvmanifold(complex_hyperbolic_triple(2))))
    doc["gram"] = (scale * np.eye(doc["dim"])).ravel().tolist()
    path = tmp_path / "ch2.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(["verify", str(path)])
    assert (code, err) == (0, "")
    assert "eigenvalue-type\tpass\t(1,2;2,1)\t" in out


def test_verify_document_validates_once(tmp_path, monkeypatch):
    path = tmp_path / "alg.json"
    path.write_text(serialize(build_solvmanifold(complex_hyperbolic_triple(2))))
    calls, validate = [], algebra.validate

    def counting(alg, *args, **kwargs):
        calls.append(alg)
        return validate(alg, *args, **kwargs)

    monkeypatch.setattr(cli, "validate", counting)
    monkeypatch.setattr(algebra, "validate", counting)
    code, _, _ = run(["verify", str(path)])
    assert code == 0
    assert len(calls) == 1


def _fuzz_base_document():
    doc = json.loads(serialize(build_solvmanifold(complex_hyperbolic_triple(2))))
    doc["gram"] = np.eye(doc["dim"]).ravel().tolist()
    return doc


_FUZZ_PATHS = [
    ("dim",), ("labels",), ("labels", 0), ("gram",), ("gram", 0), ("structure",),
    ("structure", 0), ("structure", 0, 0), ("structure", 0, 1), ("structure", 0, 2),
    ("structure", 0, 3), ("decoration",), ("decoration", "a_indices"),
    ("decoration", "a_indices", 0), ("decoration", "n_indices"),
    ("decoration", "n_indices", 0), ("decoration", "roots"),
]
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 6) | st.text(max_size=3)
    | st.floats(allow_nan=True, allow_infinity=True),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@given(st.sampled_from(_FUZZ_PATHS), _JSON_VALUES)
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_fuzzed_document_exits_cleanly(tmp_path, where, value):
    """A document with one field replaced by an arbitrary JSON value is either
    verified with a report and no stderr, or refused with exit 2 and one line."""
    doc = _fuzz_base_document()
    target = doc
    for key in where[:-1]:
        target = target[key]
    target[where[-1]] = value
    path = tmp_path / "fuzzed.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(["verify", str(path)])
    if code == 2:
        assert out == ""
        assert err.startswith("error:")
        assert len(err.splitlines()) == 1
    else:
        assert code in (0, 1)
        assert err == ""
        assert out.startswith("# command: verify ")


def test_verify_missing_file_exits_2(tmp_path):
    code, _, err = run(["verify", str(tmp_path / "nope.json")])
    assert code == 2
    assert "error:" in err


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        run(["carnot"])  # missing subcommand
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run(["symmetric", "build"])  # missing required --space
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run(["no-such-command"])
    assert exc.value.code == 2
    # the tolerances are fixed: no subcommand takes --tol; nor --print-table
    for argv in (["verify", "complex-hyperbolic", "--tol", "1e-3"],
                 ["symmetric", "build", "--space", "sl_nH", "--n", "3", "--tol", "1"],
                 ["symmetric", "table", "--space", "sl_nH", "--n", "3", "--print-table"]):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        run(["--version"])
    assert exc.value.code == 0


def test_carnot_verify_matches_verify_carnot():
    flags = ["--r", "4", "--s", "2", "--trials", "10", "--seed", "3"]
    code_a, out_a, _ = run(["carnot", "verify"] + flags)
    code_b, out_b, _ = run(["verify", "carnot"] + flags)
    assert code_a == code_b == 0
    assert out_a.startswith("# command: carnot verify ")
    assert out_a.splitlines()[1:] == out_b.splitlines()[1:]
    assert records(out_a)["einstein"][0] == "pass"


def test_carnot_search_finds_uniform_pair():
    code, out, _ = run(["carnot", "search", "--r", "4", "--s", "2", "--trials", "25"])
    assert code == 0
    rows = records(out)
    assert rows["best-residual"][0] == "pass"
    assert rows["best-residual"][3] == "uniform-subspace"
    assert rows["is-uniform"][0] == "pass"
    assert rows["so4-criterion"][3] == "so4-quaternion-criterion"
    assert rows["einstein-conditions"][0] == "pass"


def test_carnot_search_nonexistence_is_evidence():
    code, out, _ = run(["carnot", "search", "--r", "3", "--s", "1", "--trials", "50"])
    assert code == 0
    rows = records(out)
    status, value, _, claim = rows["best-residual"]
    assert status == "evidence"
    assert claim == "uniform-nonexistence-evidence"
    assert float(value) >= 0.05


def test_carnot_classify_single_s():
    code, out, _ = run(
        ["carnot", "classify-so4", "--s", "1", "--trials", "30"]
    )
    assert code == 0
    rows = records(out)
    assert rows["so4-classes-s1"] == ("pass", "1", "1", "so4-class-counts")


def test_family_report_small_grid(tmp_path):
    csv = tmp_path / "rows.csv"
    code, out, _ = run(
        ["family", "report", "--grid", "3", "--samples", "15", "--out", str(csv)]
    )
    assert code == 0
    rows = records(out)
    assert rows["einstein-residual-max"][0] == "pass"
    assert rows["centralizer-angle-dev"][0] == "pass"
    assert rows["bracket-angle-dev"][0] == "pass"
    assert rows["centralizer-dim-generic"] == ("pass", "1", "1", "centralizer-dimension")
    assert rows["sectional-range"][0] == "evidence"
    lines = csv.read_text().splitlines()
    assert lines[0] == (
        "r,s,t,einstein_residual,cos_angle_centralizer,"
        "cos_angle_bracket,min_sectional,max_sectional"
    )
    assert len(lines) == int(rows["grid-points"][1]) + 1


def test_family_margin_reference_point():
    code, out, _ = run(
        ["family", "margin", "--r", "1", "--s", "0", "--t", "0",
         "--samples", "400", "--descents", "5"]
    )
    assert code == 0
    rows = records(out)
    status, value, _, claim = rows["min-margin"]
    assert status == "evidence"
    assert claim == "curvature-margin"
    assert float(value) > 0.0


def test_family_margin_loads_no_scipy():
    # a fresh process: the margin's descents need numpy only (scipy.optimize
    # alone took about 0.4 s and 42 MB to import)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    script = ("import sys\n"
              "from solvgeom import cli\n"
              "code = cli.main(['family', 'margin', '--samples', '50', '--descents', '3'])\n"
              "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 []"


def test_family_margin_huge_parameters_name_the_same_point():
    # r^2 + s^2 overflows: the point is still (1, 1, 0)/sqrt(2), not J = 0
    margins = []
    for r, s in (("1e308", "1e308"), ("1", "1")):
        code, out, _ = run(["family", "margin", "--r", r, "--s", s, "--t", "0",
                            "--samples", "300", "--descents", "3"])
        assert code == 0
        margins.append(records(out)["min-margin"][1])
    assert margins[0] == margins[1]
    assert abs(float(margins[0]) - 0.25) > 0.1


def test_reports_byte_identical_for_fixed_seed(tmp_path):
    args = ["family", "report", "--grid", "2", "--samples", "10", "--seed", "7"]
    code1, out1, _ = run(args)
    code2, out2, _ = run(args)
    assert code1 == code2 == 0
    assert out1 == out2
    # and the csv side channel is reproducible too
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run(args + ["--out", str(a)])
    run(args + ["--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_search_reports_differ_across_seeds():
    args = ["carnot", "search", "--r", "4", "--s", "3", "--trials", "4"]
    _, out1, _ = run(args + ["--seed", "1"])
    _, out2, _ = run(args + ["--seed", "2"])
    v1 = records(out1)["best-residual"][1]
    v2 = records(out2)["best-residual"][1]
    assert v1 != v2  # different random starts give different optima


def test_symmetric_build_with_twist_battery():
    code, out, _ = run(
        ["symmetric", "build", "--space", "so_pq", "--p", "2", "--q", "4",
         "--twist", "wa:1"]
    )
    assert code == 0
    rows = records(out)
    assert rows["einstein-constant"][1] == "-2"
    assert rows["twist-involution"] == ("pass", "0", "0", "twist-involution")
    assert rows["lambda-drift"][0] == "pass"
    assert rows["ricci-drift"][0] == "pass"
    assert rows["witness-positive-curvature"][0] == "pass"


def test_symmetric_build_golden_match(tmp_path):
    golden = resources.files("solvgeom") / "tables" / "sl3h_brackets.tsv"
    local = tmp_path / "golden.tsv"
    local.write_bytes(golden.read_bytes())
    code, out, _ = run(
        ["symmetric", "build", "--space", "sl_nH", "--n", "3",
         "--twist", "paper", "--golden", str(local)]
    )
    assert code == 0
    assert records(out)["golden-table-match"][0] == "pass"


def test_symmetric_build_golden_mismatch_fails(tmp_path):
    wrong = tmp_path / "wrong.tsv"
    wrong.write_text("not the table\n")
    code, out, _ = run(
        ["symmetric", "build", "--space", "sl_nH", "--n", "3",
         "--golden", str(wrong)]
    )
    assert code == 1
    assert records(out)["golden-table-match"][0] == "fail"


def test_symmetric_build_enumerate_rigidity():
    code, out, _ = run(
        ["symmetric", "build", "--space", "so_pq", "--p", "2", "--q", "3",
         "--twist", "enumerate"]
    )
    assert code == 0
    rows = records(out)
    assert rows["twist-solutions"][1] == "4"
    status, value, _, claim = rows["rh-span-match"]
    assert status == "pass"
    assert value == "4:4+0"
    assert claim == "rh-rigidity"


def test_symmetric_twist_default_paper():
    code, out, _ = run(["symmetric", "twist", "--space", "sl_nH", "--n", "3"])
    assert code == 0
    rows = records(out)
    assert rows["twist"][1] == "paper"
    assert rows["einstein-after-twist"][0] == "pass"


def test_twist_einstein_records_print_the_deciding_residual():
    # the residual beside the tolerance it was compared with, and λ on its own
    code, out, _ = run(["symmetric", "twist", "--space", "sl_nH", "--n", "3"])
    assert code == 0
    rows = records(out)
    rda = symtwist.build_sl_nH(3)
    twisted = symtwist.twist(rda, symtwist.paper_twist(rda))
    for when, alg in (("before", rda.base), ("after", twisted.base)):
        verdict = einstein_verdict(alg, tol=algebra.TOL_EXACT)
        assert rows[f"einstein-{when}-twist"][:3] == \
            ("pass", cli._fmt(verdict.residual), "1e-10")
        assert rows[f"einstein-constant-{when}-twist"] == \
            ("pass", "-12", "-", "einstein-constant")


def test_symmetric_table_writes_golden_bytes(tmp_path):
    out_file = tmp_path / "table.tsv"
    code, _, _ = run(
        ["symmetric", "table", "--space", "so_nH", "--n", "4",
         "--out", str(out_file)]
    )
    assert code == 0
    golden = resources.files("solvgeom") / "tables" / "so4h_brackets.tsv"
    assert out_file.read_bytes() == golden.read_bytes()


def test_symmetric_table_prints_to_stdout():
    code, out, _ = run(["symmetric", "table", "--space", "sl_nH", "--n", "3"])
    assert code == 0
    golden = resources.files("solvgeom") / "tables" / "sl3h_brackets.tsv"
    assert out == golden.read_text()


def test_bad_twist_spec_exits_2():
    code, _, err = run(
        ["symmetric", "twist", "--space", "so_pq", "--p", "2", "--q", "4",
         "--twist", "bogus:1"]
    )
    assert code == 2
    assert "error:" in err


def test_invalid_wa_index_exits_2():
    code, _, err = run(
        ["symmetric", "twist", "--space", "so_pq", "--p", "2", "--q", "4",
         "--twist", "wa:7"]
    )
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("argv", [
    ["symmetric", "build", "--space", "so_pq", "--p", "1", "--q", "1"],
    ["carnot", "search", "--r", "4", "--s", "2", "--trials", "0"],
    ["carnot", "verify", "--r", "4", "--s", "2", "--trials", "0"],
    ["verify", "carnot", "--r", "4", "--s", "2", "--trials", "0"],
    ["family", "report", "--grid", "1"],
    ["family", "report", "--grid", "0"],
    ["family", "report", "--samples", "-3"],
    ["carnot", "classify-so4", "--trials", "0"],
    ["family", "margin", "--samples", "0", "--descents", "0"],
    ["family", "margin", "--samples", "-1", "--descents", "5"],
    ["family", "margin", "--samples", "5", "--descents", "-1"],
    ["family", "margin", "--r", "nan"],
    ["family", "margin", "--r", "inf"],
    ["verify", "carnot", "--r", "-1", "--s", "1"],
    ["carnot", "search", "--r", "-2", "--s", "1"],
    ["verify", "real-hyperbolic", "--dim", "200000"],
    ["verify", "complex-hyperbolic", "--n", "200000"],
])
def test_bad_parameters_exit_2_with_one_error_line(argv):
    code, _, err = run(argv)
    assert code == 2
    assert len(err.splitlines()) == 1
    assert err.startswith("error:")


@pytest.mark.parametrize("command", ["build", "twist", "table"])
@pytest.mark.parametrize("space", [
    ["--space", "sl_nR", "--n", "40"],
    ["--space", "sl_nR", "--n", "10"],
    ["--space", "so_nH", "--n", "8"],
    ["--space", "sl_nH", "--n", "6"],
    ["--space", "type4_sl", "--n", "8"],
    ["--space", "so_pq", "--p", "7", "--q", "7"],
    ["--space", "su_pq", "--p", "2", "--q", "13"],
    ["--space", "sp_pq", "--p", "3", "--q", "5"],
])
def test_oversized_symmetric_space_exits_2(monkeypatch, command, space):
    # the refusal comes before the builder touches numpy
    monkeypatch.setattr(symtwist, "np", NoNumpy())
    code, out, err = run(["symmetric", command] + space)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error:") and "above the largest supported dim" in err


def test_family_report_without_samples_prints_empty_range():
    code, out, _ = run(["family", "report", "--grid", "2", "--samples", "0"])
    assert code == 0
    assert records(out)["sectional-range"][:2] == ("evidence", "inf:-inf")


def test_out_file_matches_stdout(tmp_path):
    path = tmp_path / "report.txt"
    code, out, _ = run(
        ["verify", "complex-hyperbolic", "--n", "3", "--out", str(path)]
    )
    assert code == 0
    assert path.read_text() == out
