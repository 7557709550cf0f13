"""Smoke test of the benchmark itself, at a tiny size.

    python3 -m pytest perfbench/test_smoke.py -q

Every workload must print each of its end-to-end metrics with its unit and
report no failed operation; the traced run must print every per-layer
metric; and the benchmark must refuse to run where there is no package.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

COMMON = {"setup_s": "s", "scaled_wall_s": "s", "wall_s": "s",
          "peak_rss_mb": "MB", "fail_frac": "ratio"}
OPTIMIZATION = dict(COMMON, us_per_eval="us", cell_us_per_eval_p50="us",
                    cell_us_per_eval_tail="us", best_gap_log10_median="log10")
EXPECTED = {
    "desk": OPTIMIZATION,
    "engineering": OPTIMIZATION,
    "analysis": dict(COMMON, write_s="s", read_s="s"),
}
LAYER_METRICS = [
    "rng.self_s", "rng.calls", "stages.self_s", "stages.rule_calls",
    "stages.iterations", "stages.accept_ratio", "covariance.self_s",
    "covariance.estimate_s", "covariance.estimate_calls",
    "covariance.operator_s", "covariance.operator_calls",
    "covariance.archive_dup_share", "problems.batch_s", "problems.batch_rows",
    "problems.scalar_s", "problems.scalar_calls", "handling.self_s",
    "handling.resample_share", "handling.resample_yield",
    "harness.evaluate_s", "harness.run_self_s", "harness.persist_s",
    "harness.bytes_written", "harness.files_written", "harness.load_s",
    "harness.export_trace_s", "stats.self_s", "stats.ranksum_calls",
    "cli.import_s", "cli.self_s", "other.self_s", "trace_overhead_frac",
]


def bench(*args, cwd=ROOT, script=BENCH / "run.py"):
    return subprocess.run([sys.executable, str(script), "--seed", "0",
                           "--seconds", "30", "--size", "tiny", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def table(stdout):
    """metric -> unit from the human-readable lines before the JSON line."""
    rows = {}
    for line in stdout.splitlines()[:-1]:
        parts = line.split()
        if len(parts) >= 3 and parts[0][0].isalpha() and not parts[0].endswith(":"):
            rows[parts[0]] = parts[2]
    return rows


@pytest.mark.parametrize("workload", sorted(EXPECTED))
def test_end_to_end_metrics_and_no_failures(workload):
    proc = bench("--workload", workload, "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, proc.stderr
    assert set(result["metrics"]) == {"setup_s", "scaled_wall_s", "peak_rss_mb"}
    for name, unit in EXPECTED[workload].items():
        assert table(proc.stdout).get(name) == unit, name
    assert float(proc.stdout.split("fail_frac")[1].split()[0]) == 0.0


@pytest.mark.parametrize("workload", sorted(EXPECTED))
def test_traced_run_reports_every_layer_metric(workload):
    proc = bench("--workload", workload, "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"], proc.stderr
    missing = [m for m in LAYER_METRICS if m not in result["metrics"]]
    assert not missing


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("--workload", "desk", "--trace", "0", cwd=tmp_path,
                 script=tmp_path / BENCH.name / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
