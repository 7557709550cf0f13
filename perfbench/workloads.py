"""Workload definitions, one timed pass per workload, and the correctness gate.

Every pass of a run repeats the same inputs, so passes can be compared with
each other and their medians reported. Each step of a pass (an optimization
cell, ``persist``, a read command) is timed on its own and rescaled to
reference speed by the speed probes around it (see calibrate.py). A pass
returns its timings and the failures it found; each failure names the
workload, algorithm, problem, run and seed it belongs to.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ieco_mco import cli, harness
from ieco_mco.problems import make_problem

ALGORITHMS = ("ECO", "GECO", "SECO", "DECO", "IECO-MCO")
DESK_LABELS = tuple("f%02d" % i for i in range(1, 13))


@dataclass(frozen=True)
class Batch:
    """One ``run_batch`` call: every algorithm on every problem, one run."""

    algorithms: tuple
    problems: tuple
    dimension: int = 10


@dataclass(frozen=True)
class Size:
    """How much work one pass of each workload does."""

    fes_mult: int          # budget per cell is fes_mult * D
    analysis_runs: int     # runs per (algorithm, problem) in the synthetic set
    trace_points: int      # points per synthetic convergence trace


SIZES = {"full": Size(fes_mult=3000, analysis_runs=10, trace_points=1001),
         "tiny": Size(fes_mult=100, analysis_runs=2, trace_points=51)}
POPULATION = 30

OPTIMIZATION = {
    "desk": (Batch(("ECO", "IECO-MCO"), ("f01", "f05", "f10"), 10),
             Batch(("IECO-MCO",), ("f01", "f10"), 30)),
    "engineering": (Batch(("IECO-MCO",), ("rw01", "rw05", "rw08", "rw10")),),
}


def problem_specs(workload: str):
    """(label, dimension) of every ProblemSpec the workload builds."""
    return [(p, b.dimension) for b in OPTIMIZATION.get(workload, ())
            for p in b.problems]


@dataclass
class PassResult:
    """Times are summed over the pass's steps. ``scaled_s``, ``write_s``,
    ``read_s`` and the cells' us per evaluation are rescaled to reference
    speed (see calibrate.py); ``wall_s`` is not."""

    wall_s: float
    attempted: int
    failures: list         # one message per problem found
    failed: int = 0        # operations with at least one problem
    evaluations: int = 0
    cells: list = field(default_factory=list)   # (key, us_per_eval, log10 gap)
    scaled_s: float = 0.0
    write_s: float = 0.0
    read_s: float = 0.0


# ------------------------------------------------------------ optimization

def cell_key(rec: harness.RunRecord, fes_max: int) -> str:
    """Reference key: every input that determines the record."""
    return "%s|%s|D%d|n%d|fes%d|seed%d" % (rec.algorithm, rec.problem,
                                           rec.dimension, POPULATION, fes_max,
                                           rec.seed)


def record_digest(rec: harness.RunRecord) -> str:
    """Hash of every RunRecord field except wall_time."""
    payload = [rec.algorithm, rec.problem, rec.dimension, rec.run, rec.seed,
               [repr(float(v)) for v in rec.best_position],
               repr(rec.best_fitness), repr(rec.best_objective),
               repr(rec.best_violation), bool(rec.feasible),
               [(int(f), repr(float(b))) for f, b in rec.trace],
               rec.evaluations_used]
    blob = json.dumps(payload, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:20]


def cells_of(workload: str):
    """(algorithm, problem, dimension) of every cell, in run order."""
    return [(alg, prob, b.dimension) for b in OPTIMIZATION[workload]
            for alg in b.algorithms for prob in b.problems]


def run_cell(alg: str, prob: str, dimension: int, seed: int, size: Size):
    """One cell through ``run_batch``; its seed is derive_seed(seed, alg, prob, 0)."""
    rs = harness.run_batch([alg], [prob], runs=1, base_seed=seed,
                           dimension=dimension, n=POPULATION,
                           fes_mult=size.fes_mult, jobs=1)
    (rec,) = rs.records.values()
    return rec


def check_cell(workload, rec, spec, fes_max, reference, first_digests):
    """Failure messages for one cell; empty when the cell is correct."""
    problems = []
    if rec.evaluations_used > fes_max:
        problems.append("used %d evaluations, budget %d"
                        % (rec.evaluations_used, fes_max))
    if not spec.bounds.contains(rec.best_position):
        problems.append("best position outside the box")
    best = [b for _, b in rec.trace]
    if any(later > earlier for earlier, later in zip(best, best[1:])):
        problems.append("trace increases")
    key = cell_key(rec, fes_max)
    digest = record_digest(rec)
    if reference is not None and reference.get(key) != digest:
        problems.append("digest %s differs from reference %s"
                        % (digest, reference.get(key, "(no such cell)")))
    if first_digests.setdefault(key, digest) != digest:
        problems.append("digest differs from the first pass of this run")
    return ["%s %s %s run %d seed %d: %s" % (workload, rec.algorithm,
                                             rec.problem, rec.run, rec.seed, p)
            for p in problems]


def log10_gap(rec, spec) -> float:
    return float(np.log10(max(rec.best_fitness - spec.known_target, 1e-12)))


def optimization_pass(workload, seed, size, reference, first_digests, clock):
    """Every cell of the workload, each timed and rescaled on its own."""
    failures = []
    result = PassResult(0.0, 0, failures)
    for alg, prob, dimension in cells_of(workload):
        result.attempted += 1
        t0 = time.perf_counter()
        try:
            rec = run_cell(alg, prob, dimension, seed, size)
        except Exception as exc:
            failures.append("%s %s %s run 0 seed %d raised %s: %s"
                            % (workload, alg, prob,
                               harness.derive_seed(seed, alg, prob, 0),
                               type(exc).__name__, exc))
            result.failed += 1
            clock.factor()
            continue
        wall = time.perf_counter() - t0
        factor = clock.factor()
        result.wall_s += wall
        result.scaled_s += wall * factor
        fes_max = size.fes_mult * rec.dimension
        spec = make_problem(rec.problem, rec.dimension)
        found = check_cell(workload, rec, spec, fes_max, reference, first_digests)
        failures.extend(found)
        result.failed += bool(found)
        result.evaluations += rec.evaluations_used
        result.cells.append((cell_key(rec, fes_max),
                             rec.wall_time * factor * 1e6 / rec.evaluations_used,
                             log10_gap(rec, spec)))
    return result


# --------------------------------------------------------------- analysis

def synthetic_results(seed: int, size: Size) -> harness.ResultSet:
    """A seeded ResultSet shaped like the desk campaign.

    5 algorithms x 12 problems x ``size.analysis_runs`` runs; every trace has
    ``size.trace_points`` points spaced 30 evaluations apart and never
    increases. Algorithms differ in location so the tests have signal.
    """
    gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    points = size.trace_points
    fes = [30 * i for i in range(points)]
    records = {}
    for j, alg in enumerate(ALGORITHMS):
        for i, prob in enumerate(DESK_LABELS):
            bias = 100.0 * (i + 1)
            for run in range(size.analysis_runs):
                final = bias + 10.0 ** gen.normal(2.0 - 0.3 * j, 0.5)
                steps = gen.exponential(size=points - 1)
                gaps = np.append(np.cumsum(steps[::-1])[::-1], 0.0)
                best = final + (final - bias + 1.0) * gaps / gaps[0]
                records[(alg, prob, run)] = harness.RunRecord(
                    algorithm=alg, problem=prob, dimension=10, run=run,
                    seed=harness.derive_seed(seed, alg, prob, run),
                    best_position=gen.uniform(-100.0, 100.0, 10),
                    best_fitness=float(best[-1]), best_objective=float(best[-1]),
                    best_violation=0.0, feasible=True,
                    trace=list(zip(fes, best.tolist())),
                    evaluations_used=fes[-1],
                    wall_time=float(gen.uniform(0.5, 2.0)))
    meta = {"schema_version": harness.SCHEMA_VERSION,
            "algorithms": list(ALGORITHMS), "problems": list(DESK_LABELS),
            "runs": size.analysis_runs, "base_seed": seed, "dimension": 10}
    meta["config_hash"] = harness.config_hash(meta)
    return harness.ResultSet(records, meta)


def read_commands(seed: int, where: Path):
    """The five read commands as (argv, expected first stdout line prefix)."""
    problem = DESK_LABELS[seed % len(DESK_LABELS)]
    results = ["--results", str(where)]
    return [
        (["compare", *results], "Friedman test:"),
        (["stats", *results, "--test", "friedman"], "Friedman test:"),
        (["stats", *results, "--test", "wilcoxon"], "Win/tie/loss"),
        (["stats", *results, "--test", "kw"], "Kruskal-Wallis:"),
        (["export-trace", *results, "--problem", problem],
         "fes," + ",".join(ALGORITHMS)),
    ]


def analysis_pass(seed, rs, where: Path, check_round_trip: bool, clock):
    """persist, then the five read commands through ``cli.main``."""
    failures = []
    cell = "analysis (all algorithms, problems and runs) seed %d" % seed
    result = PassResult(0.0, 1 + 5, failures)
    t0 = time.perf_counter()
    harness.persist(rs, where)
    wall = time.perf_counter() - t0
    result.wall_s += wall
    result.write_s = wall * clock.factor()
    for argv, header in read_commands(seed, where):
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        wall = time.perf_counter() - t0
        result.wall_s += wall
        result.read_s += wall * clock.factor()
        first = out.getvalue().partition("\n")[0]
        if code != 0 or not first.startswith(header):
            failures.append("%s: `mco %s` exited %d, first line %r, stderr %r"
                            % (cell, " ".join(argv[:1] + argv[3:]), code,
                               first, err.getvalue().strip()))
    result.scaled_s = result.write_s + result.read_s
    if check_round_trip:
        result.attempted += 1
        if harness.load(where) != rs:
            failures.append("%s: persist -> load round trip differs" % cell)
    shutil.rmtree(where)
    result.failed = len(failures)
    return result
