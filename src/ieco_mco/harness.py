"""Experiment harness: budgets, independent runs, batches, persistence.

A run is fully determined by its :class:`RunConfig`. The evaluation budget
is owned by an :class:`Evaluator`, which charges one evaluation per objective
call (constraint resampling included) and never lets the total exceed
``fes_max``. Batches derive one seed per (algorithm, problem, run) cell from
the base seed and a stable 64-bit hash, so cells are reproducible in
isolation and identical whether executed serially or in a process pool.
A run's trace holds one (evaluations used, best-so-far) point after the
initial population and one after every iteration, the last at the
evaluations the run used.

Persisted layout under an output directory:

- ``results.csv``: one row per run, one column per :class:`RunRecord` field
  except ``trace``, named as the field and in field order (``wall_time``
  last)
- ``traces/<i>.npz``: one uncompressed numpy archive per problem, ``i``
  being the problem's index among the set's distinct problem labels,
  sorted. It holds five 1-D arrays, one entry per run of that problem in
  sorted key order for the first three: ``algorithm`` (str), ``run``
  (int64), ``length`` (int64, the trace's point count), then ``fes``
  (int64) and ``best`` (float64), every trace's evaluation counts and
  best-so-far values concatenated in the same order. Read one with
  ``numpy.load(path, allow_pickle=False)``; ``mco export-trace`` gives the
  CSV view. :func:`load` reads only ``meta.json`` and ``results.csv``; a
  loaded record's trace is read on first use, together with the rest of
  its problem's file
- ``summary.csv``: best/mean/std of best_fitness per (algorithm, problem)
- ``meta.json``: the batch (algorithms, problems, runs, base_seed), every
  :class:`RunConfig` setting, the dimension of each problem, schema version,
  config hash (of all the above) and creation date

Record equality ignores wall_time (the only non-deterministic field).
"""

from __future__ import annotations

import collections.abc
import csv
import hashlib
import json
import os
import shutil
import time
import zipfile
from dataclasses import dataclass, fields
from datetime import datetime, timezone
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import covariance as cov
from .problems import (
    VIOLATION_TOL,
    TrialStream,
    constrained_evaluate,
    make_problem,
    penalized_fitness,
    stable_seed,
)
from .problems.core import ProblemSpec
from .rng import BudgetExhaustedError, RngStream, init_population
from .stages import (
    ARCHIVE_ROWS_PER_DIM,
    Population,
    StageContext,
    Variant,
    stage_of,
    step,
)

SCHEMA_VERSION = 4
_MASK64 = (1 << 64) - 1


class SchemaMismatchError(ValueError):
    """Persisted results were written under a different schema version."""


class BrokenResultsError(RuntimeError):
    """A value of ``results.csv`` does not parse, a traces file is not one
    :func:`persist` writes or has no trace for a cell, or a traces file
    changed between loading a set and reading a trace from it."""


def derive_seed(base_seed: int, algorithm: str, problem: str, run: int) -> int:
    """Per-cell seed: base_seed XOR a stable hash of the cell coordinates."""
    return (int(base_seed) ^ stable_seed(algorithm, problem, str(int(run)))) & _MASK64


@dataclass(frozen=True)
class RunConfig:
    """Everything a single run needs; no ambient entropy.

    ``algorithm``, ``problem`` and ``seed`` name one cell; the other fields
    are the run settings, which a batch shares across its cells: the
    dimension, the population size and the two inputs of the budget rule.
    """

    algorithm: str
    problem: str
    seed: int
    dimension: int = 10
    n: int = 30
    fes_max: Optional[int] = None        # None -> fes_mult * dimension
    fes_mult: int = 3000

    def __post_init__(self):
        Variant.from_label(self.algorithm)
        if self.seed < 0:
            raise ValueError("seed must be a non-negative integer")
        if self.n < 5:
            raise ValueError("population size must be at least 5")
        if self.fes_max is not None and self.fes_max < 2 * self.n:
            raise ValueError("fes_max must be at least 2 * n")

    def settings(self) -> dict:
        """The run settings: every field except the cell's coordinates."""
        return {f.name: getattr(self, f.name) for f in fields(self)
                if f.name not in _CELL_FIELDS}

    def resolved_fes_max(self, dimension: int) -> int:
        """The budget rule: ``fes_max``, else ``fes_mult`` * dimension."""
        fes = self.fes_max if self.fes_max is not None else self.fes_mult * dimension
        if fes < 2 * self.n:
            raise ValueError("fes_max must be at least 2 * n")
        return int(fes)


_CELL_FIELDS = ("algorithm", "problem", "seed")


class Evaluator:
    """Budget-charging objective evaluator with constraint handling.

    ``evaluate(X)`` reads the whole block in one ``spec.batch`` call and
    returns (fitness, objective, violation, positions): the ranking value
    and the readings it was computed from. Infeasible rows are first
    resampled inside the box, in row order, on a copy of ``X``; then the
    whole block is ranked at once. Resampling draws come from ``rng``, the
    run's single stream, after the iteration's update draws.

    The infeasible rows share one :class:`TrialStream`, which reads trials
    ahead in blocks (one ``spec.batch`` per block) and consumes only the
    draws the rows used. Draws and results therefore equal resampling one
    trial at a time whenever the problem's block reading equals its point
    reading, as it does for every registry problem with constraints. A
    custom problem whose block reading differs in the last bit, such as one
    that rotates with a BLAS matrix product, can give results that depend on
    the block size.
    """

    def __init__(self, spec: ProblemSpec, fes_max: int, rng: RngStream):
        self.spec = spec
        self.fes_max = int(fes_max)
        self.rng = rng
        self.used = 0

    @property
    def remaining(self) -> int:
        return self.fes_max - self.used

    def evaluate(self, X: np.ndarray):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        n = X.shape[0]
        if self.used + n > self.fes_max:
            raise BudgetExhaustedError(
                "evaluating %d candidates would exceed the budget (%d of %d used)"
                % (n, self.used, self.fes_max))
        objective, violation = self.spec.batch(X)
        self.used += n
        infeasible = np.flatnonzero(violation > VIOLATION_TOL)
        if infeasible.size:
            X = X.copy()
            stream = TrialStream(self.spec, self.rng, rows=infeasible.size,
                                 budget=self.remaining)
            for i in infeasible:
                out = constrained_evaluate(X[i], objective[i], violation[i], stream)
                self.used += out.evaluations - 1
                X[i], objective[i], violation[i] = out.position, out.objective, out.violation
            stream.close()
        return penalized_fitness(objective, violation), objective, violation, X


@dataclass
class RunRecord:
    """Outcome of one independent run.

    Equality ignores ``wall_time``; every other field must match exactly.
    A run's ``trace`` is a list; :func:`load` gives each record a sequence
    that reads the trace from its problem's traces file on first use.
    """

    algorithm: str
    problem: str
    dimension: int
    run: int
    seed: int
    best_position: np.ndarray
    best_fitness: float
    best_objective: float
    best_violation: float
    feasible: bool
    trace: Sequence[Tuple[int, float]]
    evaluations_used: int
    wall_time: float = 0.0

    def __eq__(self, other):
        if not isinstance(other, RunRecord):
            return NotImplemented
        return all(np.array_equal(getattr(self, f.name), getattr(other, f.name))
                   if f.type == "np.ndarray"
                   else getattr(self, f.name) == getattr(other, f.name)
                   for f in fields(self) if f.name != "wall_time")

    __hash__ = None


class ResultSet:
    """Runs indexed by (algorithm, problem, run) plus batch metadata."""

    def __init__(self, records: Dict[Tuple[str, str, int], RunRecord],
                 metadata: Optional[dict] = None):
        self.records = dict(records)
        self.metadata = dict(metadata or {})

    @property
    def algorithms(self) -> List[str]:
        found = sorted({k[0] for k in self.records})
        listed = self.metadata.get("algorithms")
        return list(listed) if listed else found

    @property
    def problems(self) -> List[str]:
        found = sorted({k[1] for k in self.records})
        listed = self.metadata.get("problems")
        return list(listed) if listed else found

    @property
    def run_count(self) -> int:
        runs = {k[2] for k in self.records}
        return (max(runs) + 1) if runs else 0

    def __len__(self):
        return len(self.records)

    def __eq__(self, other):
        if not isinstance(other, ResultSet):
            return NotImplemented
        drop = ("created_at",)
        mine = {k: v for k, v in self.metadata.items() if k not in drop}
        theirs = {k: v for k, v in other.metadata.items() if k not in drop}
        return self.records == other.records and mine == theirs

    __hash__ = None

    def validate_rectangular(self):
        runs = sorted({k[2] for k in self.records})
        expect = list(range(len(runs)))
        if runs != expect:
            raise ValueError("run indices are not contiguous from 0")
        for a in self.algorithms:
            for p in self.problems:
                for r in expect:
                    if (a, p, r) not in self.records:
                        raise ValueError("missing cell (%s, %s, run %d)" % (a, p, r))

    def to_matrix(self) -> np.ndarray:
        """best_fitness array of shape (problems, algorithms, runs)."""
        self.validate_rectangular()
        probs, algs, runs = self.problems, self.algorithms, self.run_count
        out = np.empty((len(probs), len(algs), runs))
        for i, p in enumerate(probs):
            for j, a in enumerate(algs):
                for r in range(runs):
                    out[i, j, r] = self.records[(a, p, r)].best_fitness
        return out

    def summary(self) -> List[dict]:
        """Best/mean/std of best_fitness per (algorithm, problem) cell."""
        cells: Dict[Tuple[str, str], List[float]] = {}
        for (a, p, _), rec in sorted(self.records.items()):
            cells.setdefault((a, p), []).append(rec.best_fitness)
        rows = []
        for a in self.algorithms:
            for p in self.problems:
                if (a, p) not in cells:
                    continue
                vals = np.array(cells[a, p])
                # an infinite best makes std NaN, and inf with -inf the mean;
                # finite bests past half the float range can make either inf
                with np.errstate(invalid="ignore", over="ignore"):
                    mean, std = float(vals.mean()), float(vals.std())
                rows.append({
                    "algorithm": a, "problem": p,
                    "best": float(vals.min()), "mean": mean, "std": std,
                })
        return rows


def run_single(cfg: RunConfig, problem: Optional[ProblemSpec] = None,
               run_index: int = 0) -> RunRecord:
    """Execute one run; deterministic in ``cfg`` alone."""
    t0 = time.perf_counter()
    spec = problem if problem is not None else make_problem(cfg.problem,
                                                            cfg.dimension)
    dim = spec.dimension
    fes_max = cfg.resolved_fes_max(dim)
    variant = Variant.from_label(cfg.algorithm)
    rng = RngStream(cfg.seed)
    ev = Evaluator(spec, fes_max, rng)

    X0 = init_population(cfg.n, spec.bounds, rng)
    fit, obj, vio, X0 = ev.evaluate(X0)
    pop = Population(X0, fit, obj, vio)

    archive = (None if variant is Variant.ECO
               else cov.EliteArchive(ARCHIVE_ROWS_PER_DIM * dim))

    trace: List[Tuple[int, float]] = [(ev.used, float(pop.fitness[0]))]

    iteration = 1
    while ev.used + cfg.n <= fes_max:
        ctx = StageContext.draw(stage_of(iteration), ev.used, fes_max, rng)
        pop = step(pop, variant, ctx, archive, rng, ev, spec.bounds)
        trace.append((ev.used, float(pop.fitness[0])))
        iteration += 1

    best_violation = float(pop.violation[0])
    return RunRecord(
        algorithm=cfg.algorithm, problem=spec.name, dimension=dim,
        run=run_index, seed=cfg.seed,
        best_position=pop.positions[0].copy(),
        best_fitness=float(pop.fitness[0]),
        best_objective=float(pop.objective[0]),
        best_violation=best_violation,
        feasible=best_violation <= VIOLATION_TOL,
        trace=trace, evaluations_used=ev.used,
        wall_time=time.perf_counter() - t0,
    )


def _run_cell(args) -> Tuple[Tuple[str, str, int], RunRecord]:
    cfg, alg, prob, run = args
    try:
        rec = run_single(cfg, run_index=run)
    except Exception as exc:
        raise RuntimeError("run failed in cell algorithm=%s problem=%s run=%d "
                           "seed=%d: %s: %s" % (alg, prob, run, cfg.seed,
                                                type(exc).__name__, exc)) from exc
    return (alg, prob, run), rec


def config_hash(payload: dict) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def run_batch(algorithms: Sequence[str], problems: Sequence[str], runs: int,
              base_seed: int, jobs: int = 1, **settings) -> ResultSet:
    """Independent runs over the (algorithm, problem, run) grid.

    ``settings`` are :class:`RunConfig` settings shared by every cell. Seeds
    come from :func:`derive_seed`, so permuting the grid or switching between
    serial and parallel execution cannot change any record. Labels that name
    the same variant or problem as an earlier label are dropped. Every cell's
    config and budget are checked before the first run.
    """
    for what, names in (("algorithms", algorithms), ("problems", problems)):
        if not names:
            raise ValueError("no %s given" % what)
    if runs < 1:
        raise ValueError("runs must be at least 1")
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    if base_seed < 0:
        raise ValueError("base seed must be a non-negative integer")

    # The cell seeds hash each problem's full name, which depends on the
    # dimension setting, so the settings are read once before any cell.
    shared = RunConfig(algorithm=algorithms[0], problem=problems[0], seed=0,
                       **settings)
    variants: Dict[Variant, str] = {}
    for alg in algorithms:
        variants.setdefault(Variant.from_label(alg), alg)
    algorithms = list(variants.values())
    specs: Dict[str, ProblemSpec] = {}
    for prob in problems:
        spec = make_problem(prob, shared.dimension)
        specs.setdefault(spec.name, spec)
    for spec in specs.values():
        shared.resolved_fes_max(spec.dimension)
    tasks = [(RunConfig(algorithm=alg, problem=prob,
                        seed=derive_seed(base_seed, alg, prob, run),
                        **settings),
              alg, prob, run)
             for alg in algorithms
             for prob in specs
             for run in range(runs)]

    records: Dict[Tuple[str, str, int], RunRecord] = {}
    if jobs == 1:
        for task in tasks:
            key, rec = _run_cell(task)
            records[key] = rec
    else:
        # imported here so that a serial run never loads the process pool
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            for key, rec in pool.map(_run_cell, tasks, chunksize=1):
                records[key] = rec

    payload = {
        "schema_version": SCHEMA_VERSION,
        "algorithms": algorithms,
        "problems": list(specs),
        "runs": runs, "base_seed": base_seed,
        "dimensions": {spec.name: spec.dimension for spec in specs.values()},
        **shared.settings(),
    }
    metadata = dict(payload)
    metadata["config_hash"] = config_hash(payload)
    metadata["created_at"] = datetime.now(timezone.utc).isoformat()
    return ResultSet(records, metadata)


# ------------------------------------------------------------- persistence

# How a value of each RunRecord field type is written to and read from one
# CSV field: floats as repr, so they read back bit for bit.
_CODECS = {
    "str": (str, str),
    "int": (int, int),
    "float": (lambda v: repr(float(v)), float),
    "bool": (int, lambda text: bool(int(text))),
    "np.ndarray": (lambda v: " ".join(repr(float(x)) for x in v),
                   lambda text: np.array([float(x) for x in text.split()])),
}
_COLUMNS = [(f.name, *_CODECS[f.type]) for f in fields(RunRecord)
            if f.name != "trace"]
_RESULTS_HEADER = [name for name, _, _ in _COLUMNS]
# The arrays of a traces file and their dtypes; "U" is a str dtype of any
# length.
_TRACE_ARRAYS = {"algorithm": "U", "run": "<i8", "length": "<i8",
                 "fes": "<i8", "best": "<f8"}


def _write_rows(path: Path, header: List[str], rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def _trace_paths(folder: Path, problems) -> Dict[str, Path]:
    """The traces file of each problem: ``<i>.npz`` under ``folder``, ``i``
    being the problem's index among the distinct labels, sorted."""
    return {p: folder / ("%d.npz" % i) for i, p in enumerate(sorted(set(problems)))}


def _trace_arrays(trace):
    """A trace's evaluation counts and best-so-far values as two arrays, of
    the dtypes a traces file holds them in, read in one pass."""
    points = np.fromiter(trace, dtype=[("fes", "<i8"), ("best", "<f8")],
                         count=len(trace))
    return points["fes"], points["best"]


def persist(results: ResultSet, out_dir) -> Path:
    """Write the result set under ``out_dir``; returns the directory path."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    records = [results.records[key] for key in sorted(results.records)]
    # A loaded set reads its traces from the files about to be replaced on
    # first use, so read them all first.
    traces = [_trace_arrays(r.trace) for r in records]
    _write_rows(out / "results.csv", _RESULTS_HEADER,
                ([encode(getattr(r, name)) for name, encode, _ in _COLUMNS]
                 for r in records))
    shutil.rmtree(out / "traces", ignore_errors=True)
    for stale in ("traces.csv", "solutions.csv"):  # schemas 2 and 1
        (out / stale).unlink(missing_ok=True)
    (out / "traces").mkdir()
    cells: Dict[str, list] = {}
    for r, trace in zip(records, traces):
        cells.setdefault(r.problem, []).append((r.algorithm, r.run, trace))
    for problem, path in _trace_paths(out / "traces", cells).items():
        algorithms, runs, points = zip(*cells[problem])
        np.savez(path, algorithm=np.array(algorithms, dtype=str),
                 run=np.array(runs, dtype="<i8"),
                 length=np.array([len(fes) for fes, _ in points], dtype="<i8"),
                 fes=np.concatenate([fes for fes, _ in points]),
                 best=np.concatenate([best for _, best in points]))
    _write_rows(out / "summary.csv", ["algorithm", "problem", "best", "mean", "std"],
                ([row["algorithm"], row["problem"], repr(row["best"]),
                  repr(row["mean"]), repr(row["std"])]
                 for row in results.summary()))

    meta = dict(results.metadata)
    meta["schema_version"] = SCHEMA_VERSION
    if "config_hash" in meta:
        meta["config_hash"] = config_hash(
            {k: v for k, v in meta.items() if k not in ("config_hash", "created_at")})
    with open(out / "meta.json", "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return out


def _read_rows(path: Path, header: List[str], parse):
    """Yield ``parse(row)`` for each row of a CSV file written by persist.

    A wrong header or a row that does not parse raises
    :class:`BrokenResultsError` naming the file, the line and the cell.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != header:
            raise BrokenResultsError("%s line 1: expected the header %s"
                                     % (path, ",".join(header)))
        for row in reader:
            try:
                parsed = parse(row)
            except ValueError as exc:
                named = dict(zip(header, row))
                cell = tuple(named.get(c, "?") for c in ("algorithm", "problem", "run"))
                raise BrokenResultsError("%s line %d, cell (%s, %s, run %s): %s"
                                         % (path, reader.line_num, *cell, exc)) from None
            yield parsed


def _read_traces(path: Path, problem: str):
    """The traces of ``problem``'s file, by cell.

    Raises :class:`BrokenResultsError` naming the file when it is not a
    numpy archive, lacks an array, holds one of another dtype or shape, or
    its lengths do not split its points.
    """
    try:
        with open(path, "rb") as fh:
            npz = np.load(fh, allow_pickle=False)
            if not isinstance(npz, np.lib.npyio.NpzFile):
                raise ValueError("it holds one array, not an archive")
            with npz:
                arrays = {name: npz[name] for name in _TRACE_ARRAYS}
    except (KeyError, ValueError, EOFError, zipfile.BadZipFile) as exc:
        raise BrokenResultsError("%s is not a traces file: %s" % (path, exc)) from None
    for name, dtype in _TRACE_ARRAYS.items():
        a = arrays[name]
        if a.ndim != 1 or (a.dtype.kind if dtype == "U" else a.dtype.str) != dtype:
            raise BrokenResultsError("%s: array %r is %d-D %s; expected 1-D %s"
                                     % (path, name, a.ndim, a.dtype.str, dtype))
    lengths = arrays["length"].tolist()
    if (not len(arrays["algorithm"]) == len(arrays["run"]) == len(lengths)
            or min(lengths, default=0) < 0
            or not sum(lengths) == len(arrays["fes"]) == len(arrays["best"])):
        raise BrokenResultsError(
            "%s: %d algorithms, %d runs and %d lengths summing to %d do not "
            "split %d evaluation counts and %d best values"
            % (path, len(arrays["algorithm"]), len(arrays["run"]), len(lengths),
               sum(lengths), len(arrays["fes"]), len(arrays["best"])))
    fes, best = arrays["fes"].tolist(), arrays["best"].tolist()
    traces = {}
    end = 0
    for algorithm, run, length in zip(arrays["algorithm"].tolist(),
                                      arrays["run"].tolist(), lengths):
        start, end = end, end + length
        traces[algorithm, problem, run] = list(zip(fes[start:end], best[start:end]))
    return traces


def _stamp(path: Path):
    stat = os.stat(path)
    return stat.st_size, stat.st_mtime_ns


class _TraceReader:
    """The traces files of one loaded set, each read whole on the first use
    of one of its problem's traces. Each file's size and modification time
    are taken at load; a read that finds them changed raises
    :class:`BrokenResultsError`."""

    def __init__(self, folder: Path, problems):
        self.paths = _trace_paths(folder, problems)
        self.stamps = {p: _stamp(path) for p, path in self.paths.items()}
        self.problems: Dict[str, dict] = {}

    def trace(self, key: Tuple[str, str, int]) -> List[Tuple[int, float]]:
        problem = key[1]
        path = self.paths[problem]
        if problem not in self.problems:
            if _stamp(path) != self.stamps[problem]:
                raise BrokenResultsError("%s changed after the results were loaded"
                                         % path)
            self.problems[problem] = _read_traces(path, problem)
        if key not in self.problems[problem]:
            raise BrokenResultsError("%s has no trace for cell (%s, %s, run %d)"
                                     % (path, *key))
        return self.problems[problem][key]


class _LoadedTrace(collections.abc.Sequence):
    """A loaded record's trace, read through its set's :class:`_TraceReader`
    on first use."""

    def __init__(self, reader: _TraceReader, key: Tuple[str, str, int]):
        self._reader = reader
        self._key = key

    def _points(self) -> List[Tuple[int, float]]:
        return self._reader.trace(self._key)

    def __len__(self):
        return len(self._points())

    def __getitem__(self, index):
        return self._points()[index]

    def __iter__(self):
        return iter(self._points())

    def __eq__(self, other):
        if isinstance(other, _LoadedTrace):
            other = other._points()
        return self._points() == other

    def __repr__(self):
        return repr(self._points())


def load(out_dir) -> ResultSet:
    """Rebuild a :class:`ResultSet` persisted by :func:`persist`.

    Reads ``meta.json`` and ``results.csv`` and stats each problem's traces
    file; each record's trace is read on first use, together with the other
    traces of its problem's file. Raises :class:`BrokenResultsError`, naming
    the file and the cell, when a value of ``results.csv`` does not parse;
    the first read of a trace raises it, naming its problem's file, when
    that file is not one :func:`persist` writes, has no trace for the run,
    or changed since the load.
    """
    out = Path(out_dir)
    with open(out / "meta.json") as fh:
        metadata = json.load(fh)
    version = metadata.get("schema_version")
    if version != SCHEMA_VERSION:
        raise SchemaMismatchError(
            "results were written with schema %r; this build reads %d"
            % (version, SCHEMA_VERSION))

    def parse_result(row):
        values = {name: decode(text)
                  for (name, _, decode), text in zip(_COLUMNS, row, strict=True)}
        key = (values["algorithm"], values["problem"], values["run"])
        return key, RunRecord(trace=None, **values)

    records = dict(_read_rows(out / "results.csv", _RESULTS_HEADER, parse_result))
    traces = _TraceReader(out / "traces", (key[1] for key in records))
    for key, rec in records.items():
        rec.trace = _LoadedTrace(traces, key)
    return ResultSet(records, metadata)


def export_trace(results: ResultSet, problem: str,
                 algorithms: Optional[Sequence[str]] = None):
    """Mean-over-runs best-so-far per algorithm on a shared FEs grid.

    Returns (grid, {algorithm: series}); each series is non-increasing and
    the grid spans from the earliest to the latest recorded evaluation count.
    """
    algs = list(algorithms) if algorithms else results.algorithms
    runs = results.run_count
    cells = {}
    for a in algs:
        cell = []
        for r in range(runs):
            key = (a, problem, r)
            if key not in results.records:
                raise KeyError("no record for algorithm %r on problem %r run %d"
                               % (a, problem, r))
            cell.append(_trace_arrays(results.records[key].trace))
        cells[a] = cell

    counts = [fes for cell in cells.values() for fes, _ in cell]
    grid = np.unique(np.concatenate(counts)) if counts else np.array([], dtype=np.int64)
    if not grid.size:
        raise ValueError("no trace data for problem %r" % problem)

    series = {}
    for a in algs:
        acc = np.zeros(len(grid))
        for fes, best in cells[a]:
            idx = np.searchsorted(fes, grid, side="right") - 1
            idx = np.clip(idx, 0, len(fes) - 1)
            acc += best[idx]
        series[a] = acc / runs
    return grid, series
