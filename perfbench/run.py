"""Benchmark of solvgeom: one closed-loop client per workload, in one process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from its
``src`` directory.  Workloads and metrics are listed in BENCHMARK.json at the
root, and perfbench/README.md says what each measures and why.

--trace 0 runs whole rounds of the workload for at least S seconds with
nothing wrapped and reports the end-to-end metrics.  --trace 1 runs an
untraced phase and a traced phase of S/2 seconds each and reports the
per-layer metrics, including the tracing overhead between the two phases.
--rounds N runs exactly N rounds per phase instead, which makes call counts
repeat exactly (the determinism test uses it).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
restate the metrics with sample counts.  The exit code is 0 when a result
was printed, 2 on a usage or checkout error.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import spans

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench_work"

# One BLAS thread in every run: the kernels are small and one client runs at a
# time, and timings moved by up to 30 % between thread settings.
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "SOLVGEOM_THREADS": "1",
}
SETUP_SAMPLES = 5          # this process's own set-up plus four fresh processes
SETUP_PROBE_TIMEOUT_S = 120


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--rounds", type=int, default=None,
                   help="run exactly this many rounds per phase instead of --seconds")
    p.add_argument("--setup-probe", action="store_true",
                   help="time set-up only, print it, and exit (used for setup_s)")
    args = p.parse_args(argv)
    if args.seconds <= 0 or (args.rounds is not None and args.rounds < 1):
        p.error("--seconds and --rounds must be positive")
    return args


def run_phase(workloads, setup, seconds, rounds):
    """Whole rounds until `seconds` have passed (or exactly `rounds` rounds)."""
    items, done = [], 0
    t0 = time.perf_counter()
    while True:
        items += workloads.run_round(setup)
        done += 1
        elapsed = time.perf_counter() - t0
        if (done >= rounds) if rounds else (elapsed >= seconds):
            return items, elapsed


def percentile_ms(latencies_s, q):
    """The smallest sample with at least q % of the samples at or below it.

    No interpolation, so a run of whole copies of one round gives the same
    value however many rounds it ran.
    """
    ordered = sorted(latencies_s)
    return ordered[max((q * len(ordered) + 99) // 100 - 1, 0)] * 1e3


def probe_setup(args):
    """Set-up time of a fresh process: import, input generation and warm-up."""
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=SETUP_PROBE_TIMEOUT_S, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def layer_metrics(spec, tracer, setup, untraced_rate, traced_rate):
    totals = tracer.totals()
    calls = {name: n for name, (n, _) in totals.items()}
    self_s = {name: s for name, (_, s) in totals.items()}
    search_calls = calls.get("carnot.search", 0)
    special = {
        "algebra.construct.tensor_mb": tracer.counts["algebra.construct.tensor_mb"],
        "algebra.serialize.calls": setup.probe_calls,
        "algebra.serialize.failed": setup.probe_failed,
        "carnot.search.restarts": tracer.counts["carnot.search.restarts"],
        "carnot.search.hit_ratio": (tracer.counts["carnot.search.hits"] / search_calls
                                    if search_calls else 0.0),
        "trace.overhead_ratio": untraced_rate / traced_rate if traced_rate else 0.0,
        "trace.wall_s": sum(end - start for name, start, end, _ in tracer.spans
                            if name == spans.ROOT),
    }
    out = {}
    for metric in spec:
        name = metric["name"]
        if name in special:
            value = special[name]
        elif name.endswith(".calls"):
            value = calls.get(name[: -len(".calls")], 0)
        elif name.endswith(".self_s"):
            value = self_s.get(name[: -len(".self_s")], 0.0)
        else:
            raise KeyError(f"no rule for per-layer metric {name!r}")
        out[name] = {"value": value, "unit": metric["unit"]}
    return out


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "solvgeom" / "__init__.py").is_file():
        print(f"error: no solvgeom package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)
    sys.path.insert(0, str(SRC))

    t0 = time.perf_counter()
    import workloads  # numpy and solvgeom load here, inside the set-up time
    WORKDIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=WORKDIR)
    try:
        setup = workloads.SETUPS[args.workload](args.seed, workdir)
        own_setup_s = time.perf_counter() - t0
        if args.setup_probe:
            print(json.dumps({"setup_s": own_setup_s}))
            return 0
        if args.trace:
            report = traced_run(args, spec, workloads, setup)
        else:
            report = untraced_run(args, spec, workloads, setup, own_setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print("# env " + " ".join(f"{k}={v}" for k, v in sorted(THREAD_ENV.items())))
    print(f"# workload {args.workload} seed {args.seed} inputs {setup.digest}")
    for line in setup.probe_errors[:3] + report.pop("notes"):
        print("# " + line)
    for name, m in report["metrics"].items():
        print(f"{args.workload}\t{name}\t{m['value']:.6g}\t{m['unit']}")
    print(json.dumps(report))
    return 0


def failed_ratio(items, setup):
    """Failed over attempted operations: the timed items plus the probes that
    set-up made (the serialize probe of verify-stream)."""
    failed = sum(not i.ok for i in items) + setup.probe_failed
    return failed / (len(items) + setup.probe_calls)


def _failures(items):
    return [f"item {i.kind} failed: {i.error}" for i in items if not i.ok][:3]


def untraced_run(args, spec, workloads, setup, own_setup_s):
    items, elapsed = run_phase(workloads, setup, args.seconds, args.rounds)
    setup_samples = [own_setup_s] + [probe_setup(args) for _ in range(SETUP_SAMPLES - 1)]
    lat = [i.latency_s for i in items]
    verified = sum(i.ok for i in items)
    failed = len(items) - verified
    values = {
        "items_per_s": verified / elapsed,
        "item_p50_ms": percentile_ms(lat, 50),
        "item_p95_ms": percentile_ms(lat, 95),
        "setup_s": statistics.median(setup_samples),
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    beyond = sum(x * 1e3 > values["item_p95_ms"] for x in lat)
    notes = _failures(items) + [
        f"items {len(items)} verified {verified} in {elapsed:.3f} s; "
        f"latency samples {len(lat)}, {beyond} beyond p95",
        f"failed_ratio {failed_ratio(items, setup):.6g} ratio = ({failed} items + "
        f"{setup.probe_failed} serialize probes failed) / ({len(items)} items + "
        f"{setup.probe_calls} probes)",
        "setup_s samples " + " ".join(f"{s:.4f}" for s in setup_samples),
    ]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec["end_to_end"]}
    return {"correct": failed == 0, "attempted": len(items), "failed": failed,
            "metrics": metrics, "notes": notes}


def traced_run(args, spec, workloads, setup):
    half = args.seconds / 2
    plain, plain_s = run_phase(workloads, setup, half, args.rounds)
    tracer = spans.Tracer()
    tracer.install(workloads.MODULES)
    try:
        tracer.open(spans.ROOT)
        try:
            traced, traced_s = run_phase(workloads, setup, half, args.rounds)
        finally:
            tracer.close()
    finally:
        tracer.uninstall()
    items = plain + traced
    failed = sum(not i.ok for i in items)
    metrics = layer_metrics(
        spec["per_layer"], tracer, setup,
        sum(i.ok for i in plain) / plain_s, sum(i.ok for i in traced) / traced_s)
    self_total = sum(s for _, s in tracer.totals().values())
    notes = _failures(items) + [
        f"untraced items {len(plain)} in {plain_s:.3f} s; traced items {len(traced)} "
        f"in {traced_s:.3f} s; self times sum to {self_total:.6f} s",
    ]
    return {"correct": failed == 0, "attempted": len(items), "failed": failed,
            "metrics": metrics, "notes": notes}


if __name__ == "__main__":
    sys.exit(main())
