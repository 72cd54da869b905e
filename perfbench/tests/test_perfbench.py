"""Tests of the benchmark itself: determinism, oracles that can fail, trace
accounting, and refusal outside a source checkout.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests

The determinism tests run every workload three times at one round per phase,
about three minutes in all.
"""

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from solvgeom import carnot  # noqa: E402

WORKLOADS = ("verify-stream", "symmetric-battery", "family-scan")
SEED, OTHER_SEED = 20261017, 7


@functools.lru_cache(maxsize=None)
def traced(workload, seed, attempt=0):
    """(inputs digest, result object) of a one-round traced run; `attempt`
    tells repeated runs apart."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--trace", "1", "--rounds", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    lines = proc.stdout.strip().splitlines()
    digest = next(l.split()[-1] for l in lines if l.startswith("# workload "))
    return digest, json.loads(lines[-1])


def _counts(result):
    return {name: m["value"] for name, m in result["metrics"].items()
            if name.endswith((".calls", ".failed", ".restarts", ".tensor_mb"))}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_repeats_counts(workload):
    first = traced(workload, SEED)
    again = traced(workload, SEED, attempt=1)
    assert first[0] == again[0]
    assert first[1]["attempted"] == again[1]["attempted"]
    assert _counts(first[1]) == _counts(again[1])
    assert first[1]["correct"] and again[1]["correct"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_other_seed_changes_inputs_not_item_count(workload):
    base = traced(workload, SEED)
    other = traced(workload, OTHER_SEED)
    assert base[0] != other[0]
    assert base[1]["attempted"] == other[1]["attempted"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_self_times_add_up_to_wall_time(workload):
    metrics = traced(workload, SEED)[1]["metrics"]
    self_total = sum(m["value"] for name, m in metrics.items() if name.endswith(".self_s"))
    assert self_total == pytest.approx(metrics["trace.wall_s"]["value"], rel=1e-9)
    assert metrics["trace.overhead_ratio"]["value"] > 0


def test_non_einstein_document_counts_as_failed(tmp_path):
    setup = workloads.setup_verify_stream(SEED, tmp_path)
    docs = workloads.verify_documents(SEED)
    target = next(n for n, (_, _, einstein) in enumerate(docs) if einstein)
    before = workloads.run_round(setup)
    assert all(item.ok for item in before)

    triple = carnot.random_triple(4, 2, np.random.default_rng(0))
    assert carnot.einstein_conditions(triple).max_residual > 1e-3
    bad = workloads.write_document(carnot.build_solvmanifold(triple))
    (tmp_path / f"doc{target:03d}.json").write_text(bad)
    after = workloads.run_round(setup)
    assert [n for n, item in enumerate(after) if not item.ok] == [target]
    assert run.failed_ratio(after, setup) > run.failed_ratio(before, setup)


def test_corrupted_golden_table_counts_as_failed(tmp_path):
    goldens = workloads.read_goldens()
    good = workloads.setup_symmetric_battery(SEED, tmp_path, goldens=goldens)
    corrupt = dict(goldens, sl3h=goldens["sl3h"].replace(b"r2 ", b"-r2 ", 1))
    bad = workloads.setup_symmetric_battery(SEED, tmp_path, goldens=corrupt)

    def sl3h_only(setup):
        setup.round = [(kind, check) for kind, check in setup.round if kind == "sl(3,H)"]
        return setup

    good_items = workloads.run_round(sl3h_only(good))
    bad_items = workloads.run_round(sl3h_only(bad))
    assert [item.ok for item in good_items] == [True]
    assert [item.ok for item in bad_items] == [False]
    assert run.failed_ratio(bad_items, bad) == 1.0


def test_serialize_probe_covers_every_document(tmp_path):
    setup = workloads.setup_verify_stream(SEED, tmp_path)
    assert setup.probe_calls == len(setup.round)
    assert setup.probe_failed == len(setup.probe_errors)
    ratio = run.failed_ratio([], setup)
    assert ratio == setup.probe_failed / setup.probe_calls


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-stream",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
