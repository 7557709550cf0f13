"""Measure the benchmark's baseline and its run-to-run spread.

    python3 perfbench/baseline.py [--seeds 10] [--workloads desk,analysis]

Runs ``run.py --trace 0`` once per seed (0 .. seeds-1) on each workload, at
the ``run_seconds`` of BENCHMARK.json, then one ``--trace 1`` run at seed 0.
Prints, for every end-to-end metric, the median of the runs and their
spread: the distance between the first and third quartile as a share of the
median, beside the metric's bound. Writes ``baseline.json`` (the median and
quartiles of every end-to-end metric, the per-layer metrics of the traced
run) next to this file. Seed 47 is never used here: it is kept to confirm
claims.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import END_TO_END, REPORTED

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".perfbench_out"
CONFIRM_SEED = 47


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        sys.exit("%s failed:\n%s" % (" ".join(cmd[1:]), proc.stderr))
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"]:
        sys.exit("%s: incorrect outputs:\n%s" % (" ".join(cmd[1:]), proc.stderr))
    report = json.loads((OUT_DIR / ("%s-trace%d.json" % (workload, trace))).read_text())
    return report, result["metrics"]


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--workloads", default="desk,engineering,analysis")
    args = parser.parse_args(argv)
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = config["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    seeds = [s for s in range(args.seeds + 1) if s != CONFIRM_SEED][:args.seeds]

    baseline = {"confirm_seed": CONFIRM_SEED, "run_seconds": seconds,
                "seeds": "%d-%d (one run each, --trace 0)" % (seeds[0], seeds[-1]),
                "per_layer_run": "seed %d, --trace 1, per traced pass" % seeds[0],
                "end_to_end": {}, "per_layer": {}}
    for workload in args.workloads.split(","):
        reports = []
        for seed in seeds:
            reports.append(run(workload, seed, seconds, 0)[0])
            print("%s seed %d: %s" % (workload, seed, json.dumps(
                {k: round(reports[-1]["end_to_end"][k], 4) for k in bounds})),
                flush=True)
        baseline["environment"] = {k: v for k, v in reports[0]["environment"].items()
                                   if k != "workload_seed"}
        rows = baseline["end_to_end"][workload] = {}
        units = dict(END_TO_END, **REPORTED)
        for name in reports[0]["end_to_end"]:
            rows[name] = summary([r["end_to_end"][name] for r in reports])
            rows[name]["unit"] = units[name]
            if name in bounds:
                print("  %-22s median %10.4f  spread %.3f  bound %.2f"
                      % (name, rows[name]["median"], rows[name]["spread"],
                         bounds[name]), flush=True)
        _, layers = run(workload, seeds[0], seconds, 1)
        if "cell_us_per_eval_tail" in rows:
            rows["cell_us_per_eval_tail"]["at"] = \
                reports[0]["details"]["cell_us_per_eval_tail"]
        baseline["per_layer"][workload] = layers
    out = BENCH_DIR / "baseline.json"
    old = json.loads(out.read_text()) if out.is_file() else {}
    for key in ("end_to_end", "per_layer"):
        old.setdefault(key, {}).update(baseline.pop(key))
    old.update(baseline)
    out.write_text(json.dumps(old, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
