"""Benchmark of the ieco_mco optimizer, its persistence and its CLI.

Usage (from the repository root):

    python3 perfbench/run.py --workload desk --seed 1 --seconds 25 --trace 0

Workloads: ``desk`` and ``engineering`` run optimization cells through
``harness.run_batch(jobs=1)``; ``analysis`` persists a seeded synthetic
result set and runs five read commands through ``cli.main``. A run repeats
one fixed pass of the workload; the pass count comes from ``--seconds`` and
each workload's pass length at the seed commit, so every commit does the same
work. Every step of a pass is rescaled to reference machine speed by a fixed
probe kernel timed around it (calibrate.py), because the shared cores' speed
drifts. With ``--trace 1`` half of the passes run with the span tracer
installed and the per-layer metrics are reported instead of the end-to-end
ones. The last stdout line is one JSON object; a human-readable table of
every metric and the environment precede it, and the full report and the
spans are written under ``.perfbench_out/``.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before numpy is imported, here and in children.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
os.environ.update(PINNED_ENV)

import argparse
import gc
import json
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".perfbench_out"

# Median seconds one pass of each workload takes at the seed commit (2-core
# shared Xeon, Python 3.11, numpy 2.4); the pass count of a run is
# --seconds / this, so a faster commit does the same work in less time.
PASS_SECONDS = {"desk": 13.8, "engineering": 2.2, "analysis": 5.2}
SETUP_REPEATS = 3

END_TO_END = {"setup_s": "s", "scaled_wall_s": "s", "peak_rss_mb": "MB"}
REPORTED = {  # printed and stored, not part of the JSON result (see README)
    "wall_s": "s", "us_per_eval": "us", "cell_us_per_eval_p50": "us",
    "cell_us_per_eval_tail": "us", "write_s": "s", "read_s": "s",
    "best_gap_log10_median": "log10", "fail_frac": "ratio",
}

_SETUP_CHILD = """
import json, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import ieco_mco.cli
t1 = time.perf_counter()
from ieco_mco.problems import make_problem
for label, dim in json.loads(sys.argv[2]):
    make_problem(label, dim)
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "setup_s": t2 - t0}))
"""


def measure_setup(specs, clock):
    """Median import and set-up time over fresh interpreters, each rescaled
    to reference speed by the probes around it."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.update(PINNED_ENV)
    runs = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", _SETUP_CHILD, str(ROOT / "src"),
             json.dumps(specs)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
            check=True)
        times = json.loads(proc.stdout.strip().splitlines()[-1])
        factor = clock.factor()
        runs.append({k: v * factor for k, v in times.items()})
    return (statistics.median(r["setup_s"] for r in runs),
            statistics.median(r["import_s"] for r in runs))


def environment(seed):
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": "%s %s" % (blas.get("name", "?"), blas.get("version", "?")),
            "blas_threads": PINNED_ENV["OPENBLAS_NUM_THREADS"], "jobs": 1,
            "nproc": os.cpu_count(), "cpu": cpu, "workload_seed": seed}


def med(values):
    return statistics.median(values) if values else 0.0


def tail(values):
    """(percentile, value, count beyond): the highest percentile that has at
    least ten samples beyond it, or None when there are ten or fewer."""
    n = len(values)
    if n <= 10:
        return None
    k = n - 10
    return 100.0 * k / n, sorted(values)[k - 1], n - k


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("desk", "engineering", "analysis"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: small budgets, for the smoke test")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    if not (ROOT / "src" / "ieco_mco" / "__init__.py").is_file():
        print("error: %s holds no src/ieco_mco package to benchmark" % ROOT,
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    for key in [k for k in os.environ if k.startswith("MCO_")]:
        del os.environ[key]

    import calibrate
    import tracing
    import workloads as wl

    size = wl.SIZES[args.size]
    # At least two passes: one of each kind when tracing, and enough desk
    # cells (8 a pass) for the tail percentile.
    passes = max(2, round(args.seconds / PASS_SECONDS[args.workload]))
    clock = calibrate.SpeedClock()
    setup_s, import_s = measure_setup(wl.problem_specs(args.workload), clock)

    # Every cell of a seed the reference covers must match its digest there;
    # other seeds are checked against the run's first pass only.
    known = json.loads((BENCH_DIR / "reference.json").read_text())
    reference = known["cells"] if args.seed < known["seeds"] else None
    first_digests = {}
    synthetic = (wl.synthetic_results(args.seed, size)
                 if args.workload == "analysis" else None)

    def run_pass(i, work):
        if synthetic is not None:
            return wl.analysis_pass(args.seed, synthetic, Path(work) / ("pass%d" % i),
                                    check_round_trip=i == 0, clock=clock)
        return wl.optimization_pass(args.workload, args.seed, size, reference,
                                    first_digests, clock)

    # With --trace 1 traced and untraced passes alternate, untraced first.
    tracer = tracing.Tracer()
    untraced, traced = [], []
    with tempfile.TemporaryDirectory(prefix=".perfbench_work-", dir=ROOT) as work:
        for i in range(passes):
            gc.collect()
            if args.trace and i % 2 == 1:
                with tracer.installed():
                    traced.append(run_pass(i, work))
            else:
                untraced.append(run_pass(i, work))

    results = untraced + traced
    attempted = sum(r.attempted for r in results)
    failures = [f for r in results for f in r.failures]
    failed = sum(r.failed for r in results)
    scaled_wall_s = med([r.scaled_s for r in untraced])
    report = {
        "setup_s": setup_s, "scaled_wall_s": scaled_wall_s,
        "wall_s": med([r.wall_s for r in untraced]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "fail_frac": failed / attempted,
    }
    details = {"pass_walls_untraced": [r.wall_s for r in untraced],
               "pass_walls_traced": [r.wall_s for r in traced],
               "pass_scaled_untraced": [r.scaled_s for r in untraced],
               "pass_scaled_traced": [r.scaled_s for r in traced],
               "probe_s": {"reference": calibrate.REFERENCE_S,
                           "min": min(clock.probes),
                           "median": med(clock.probes),
                           "max": max(clock.probes), "count": len(clock.probes)},
               "evaluations_per_pass": untraced[0].evaluations}
    if args.workload == "analysis":
        report["write_s"] = med([r.write_s for r in untraced])
        report["read_s"] = med([r.read_s for r in untraced])
    else:
        cells = [c for r in untraced for c in r.cells]
        us = [c[1] for c in cells]
        report["us_per_eval"] = med([r.scaled_s * 1e6 / r.evaluations
                                     for r in untraced if r.evaluations])
        report["cell_us_per_eval_p50"] = med(us)
        t = tail(us)
        if t is not None:
            report["cell_us_per_eval_tail"] = t[1]
            details["cell_us_per_eval_tail"] = {
                "percentile": t[0], "cells": len(us), "cells_beyond": t[2]}
        first = untraced[0].cells
        report["best_gap_log10_median"] = med([c[2] for c in first])
        details["reference_cells_checked"] = len(first) if reference else 0
        details["cells_per_pass"] = len(first)

    OUT_DIR.mkdir(exist_ok=True)
    layers = {}
    if args.trace:
        layers = tracing.layer_metrics(
            tracer, [r.wall_s for r in traced],
            [r.scaled_s for r in traced], scaled_wall_s, import_s)
        tracer.save(OUT_DIR / ("%s.spans.npz" % args.workload))
        details["spans"] = len(tracer.name)

    env = environment(args.seed)
    print("environment: " + json.dumps(env, sort_keys=True))
    for f in failures:
        print("FAIL " + f, file=sys.stderr)
    units = dict(END_TO_END, **REPORTED)
    for name in list(END_TO_END) + list(REPORTED):
        if name in report:
            print("%-26s %14.6g %s" % (name, report[name], units[name]))
    if "cell_us_per_eval_tail" in details:
        print("  (tail = p%(percentile).1f of %(cells)d cells, %(cells_beyond)d beyond)"
              % details["cell_us_per_eval_tail"])
    for name, value in layers.items():
        print("%-30s %14.6g %s" % (name, value, tracing.unit_of(name)))
    print("details: " + json.dumps(details, sort_keys=True))

    if args.trace:
        chosen = {name: {"value": value, "unit": tracing.unit_of(name)}
                  for name, value in layers.items()}
    else:
        chosen = {name: {"value": report[name], "unit": unit}
                  for name, unit in END_TO_END.items()}
    full = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "size": args.size, "environment": env, "end_to_end": report,
            "per_layer": layers, "details": details, "failures": failures}
    (OUT_DIR / ("%s-trace%d.json" % (args.workload, args.trace))).write_text(
        json.dumps(full, indent=2, sort_keys=True) + "\n")
    print(json.dumps({"correct": not failed, "attempted": attempted,
                      "failed": failed, "metrics": chosen}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
