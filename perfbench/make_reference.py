"""Regenerate ``reference.json``: the record digest of every optimization cell.

    python3 perfbench/make_reference.py

Runs the ``desk`` and ``engineering`` cells at both sizes for workload seeds
0 .. 63 (about 20 minutes on a 2-core Xeon) and stores one digest per cell
(every RunRecord field except wall_time). Regenerate only when a change to
the random-draw contract is declared; the benchmark counts a cell whose
digest differs as failed.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                   "MKL_NUM_THREADS": "1"})
BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import workloads as wl  # noqa: E402

SEEDS = 64


def main():
    cells = {}
    for seed in range(SEEDS):
        for size in wl.SIZES.values():
            for workload in wl.OPTIMIZATION:
                for alg, prob, dimension in wl.cells_of(workload):
                    rec = wl.run_cell(alg, prob, dimension, seed, size)
                    key = wl.cell_key(rec, size.fes_mult * rec.dimension)
                    cells[key] = wl.record_digest(rec)
        print("seed %d done, %d cells" % (seed, len(cells)), flush=True)
    out = {"seeds": SEEDS, "cells": dict(sorted(cells.items()))}
    (BENCH_DIR / "reference.json").write_text(json.dumps(out, indent=1) + "\n")


if __name__ == "__main__":
    sys.exit(main())
