"""Experiment harness: budgets, independent runs, batches, persistence.

A run is fully determined by its :class:`RunConfig`. The evaluation budget
is owned by an :class:`Evaluator`, which charges one evaluation per objective
call (constraint resampling included) and never lets the total exceed
``fes_max``. Batches derive one seed per (algorithm, problem, run) cell from
the base seed and a stable 64-bit hash, so cells are reproducible in
isolation and identical whether executed serially or in a process pool.

Persisted layout under an output directory:

- ``results.csv``: one row per run, one column per :class:`RunRecord` field
  except ``trace``, named as the field and in field order (``wall_time``
  last)
- ``traces.csv``: one row per run: algorithm, problem, run, then the trace's
  n evaluation counts, then its n best-so-far values. :func:`load` reads
  only ``meta.json`` and ``results.csv``; a loaded record's trace is read
  from this file on first use, one problem's rows at a time
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
import itertools
import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
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

SCHEMA_VERSION = 2
_MASK64 = (1 << 64) - 1
DEFAULT_POPULATION = 30
DEFAULT_FES_MULT = 3000


class SchemaMismatchError(ValueError):
    """Persisted results were written under a different schema version."""


class BrokenResultsError(RuntimeError):
    """A persisted cell's traces row is missing, a value does not parse, or
    traces.csv changed between loading a set and reading a trace from it."""


def derive_seed(base_seed: int, algorithm: str, problem: str, run: int) -> int:
    """Per-cell seed: base_seed XOR a stable hash of the cell coordinates."""
    return (int(base_seed) ^ stable_seed(algorithm, problem, str(int(run)))) & _MASK64


@dataclass(frozen=True)
class RunConfig:
    """Everything a single run needs; no ambient entropy.

    ``algorithm``, ``problem`` and ``seed`` name one cell; the other fields
    are the run settings, which a batch shares across its cells.
    """

    algorithm: str
    problem: str
    seed: int
    dimension: int = 10
    n: int = DEFAULT_POPULATION
    fes_max: Optional[int] = None        # None -> fes_mult * dimension
    fes_mult: int = DEFAULT_FES_MULT
    trace_stride: Optional[int] = None   # None -> n
    instance_seed: int = 0

    def __post_init__(self):
        Variant.from_label(self.algorithm)
        if self.seed < 0:
            raise ValueError("seed must be a non-negative integer")
        if self.n < 5:
            raise ValueError("population size must be at least 5")
        if self.fes_max is not None and self.fes_max < 2 * self.n:
            raise ValueError("fes_max must be at least 2 * n")
        if self.trace_stride is not None and self.trace_stride < 1:
            raise ValueError("trace_stride must be positive")

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
    returns (fitness, objective, feasible, positions). Infeasible rows are
    then resampled inside the box, in row order, so their positions may
    differ from the input. Resampling draws come from ``rng``, the run's
    single stream, after the iteration's update draws.

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
        feasible = violation <= VIOLATION_TOL
        fitness = penalized_fitness(objective, violation, feasible)
        infeasible = np.flatnonzero(~feasible)
        if infeasible.size == 0:
            return fitness, objective, feasible, X
        positions = X.copy()
        stream = TrialStream(self.spec, self.rng, rows=infeasible.size,
                             budget=self.remaining)
        for i in infeasible:
            out = constrained_evaluate(X[i], objective[i], violation[i], stream)
            self.used += out.evaluations - 1
            fitness[i] = out.fitness
            objective[i] = out.objective
            feasible[i] = out.feasible
            positions[i] = out.position
        stream.close()
        return fitness, objective, feasible, positions


@dataclass
class RunRecord:
    """Outcome of one independent run.

    Equality ignores ``wall_time``; every other field must match exactly.
    A run's ``trace`` is a list; :func:`load` gives each record a sequence
    that reads the trace from ``traces.csv`` on first use.
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
        rows = []
        for a in self.algorithms:
            for p in self.problems:
                vals = np.array([rec.best_fitness for (aa, pp, _), rec
                                 in sorted(self.records.items())
                                 if aa == a and pp == p])
                if vals.size == 0:
                    continue
                # an infinite best makes std NaN, and inf with -inf the mean
                with np.errstate(invalid="ignore"):
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
    spec = problem if problem is not None else make_problem(
        cfg.problem, cfg.dimension, cfg.instance_seed)
    dim = spec.dimension
    fes_max = cfg.resolved_fes_max(dim)
    variant = Variant.from_label(cfg.algorithm)
    rng = RngStream(cfg.seed)
    ev = Evaluator(spec, fes_max, rng)

    X0 = init_population(cfg.n, spec.bounds, rng)
    fit, obj, feas, X0 = ev.evaluate(X0)
    pop = Population(X0, fit, obj, feas)

    archive = (None if variant is Variant.ECO
               else cov.EliteArchive(ARCHIVE_ROWS_PER_DIM * dim))

    stride = cfg.trace_stride if cfg.trace_stride is not None else cfg.n
    trace: List[Tuple[int, float]] = [(ev.used, float(pop.fitness[0]))]

    iteration = 1
    while ev.used + cfg.n <= fes_max:
        ctx = StageContext.draw(stage_of(iteration), ev.used, fes_max, rng)
        pop = step(pop, variant, ctx, archive, rng, ev, spec.bounds)
        if ev.used - trace[-1][0] >= stride:
            trace.append((ev.used, float(pop.fitness[0])))
        iteration += 1
    if trace[-1][0] != ev.used:
        trace.append((ev.used, float(pop.fitness[0])))

    best_position = pop.positions[0].copy()
    _, best_violation = spec.evaluate(best_position)
    return RunRecord(
        algorithm=cfg.algorithm, problem=spec.name, dimension=dim,
        run=run_index, seed=cfg.seed,
        best_position=best_position,
        best_fitness=float(pop.fitness[0]),
        best_objective=float(pop.objective[0]),
        best_violation=best_violation,
        feasible=bool(pop.feasible[0]),
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
        spec = make_problem(prob, shared.dimension, shared.instance_seed)
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
    if jobs <= 1:
        for task in tasks:
            key, rec = _run_cell(task)
            records[key] = rec
    else:
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
_TRACES_HEADER = ["algorithm", "problem", "run", "fes...", "best..."]


def _write_rows(path: Path, header: List[str], rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def persist(results: ResultSet, out_dir) -> Path:
    """Write the result set under ``out_dir``; returns the directory path."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    records = [results.records[key] for key in sorted(results.records)]
    # A loaded set reads its traces from its traces.csv on first use, which
    # may be the file about to be rewritten, so read them all first.
    traces = [list(r.trace) for r in records]
    _write_rows(out / "results.csv", _RESULTS_HEADER,
                ([encode(getattr(r, name)) for name, encode, _ in _COLUMNS]
                 for r in records))
    with open(out / "traces.csv", "w", newline="") as fh:
        csv.writer(fh).writerow(_TRACES_HEADER)
        labels = csv.writer(fh, lineterminator="")
        for r, trace in zip(records, traces):
            # What csv.writer would write: numbers never need quoting.
            labels.writerow((r.algorithm, r.problem, r.run))
            fh.write(",".join(["", *[str(fes) for fes, _ in trace],
                               *[str(best) for _, best in trace]]) + "\r\n")
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


def _broken_row(path: Path, line: int, header: List[str], row, exc):
    named = dict(zip(header, row))
    cell = tuple(named.get(c, "?") for c in ("algorithm", "problem", "run"))
    return BrokenResultsError("%s line %d, cell (%s, %s, run %s): %s"
                              % (path, line, *cell, exc))


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
                raise _broken_row(path, reader.line_num, header, row, exc) from None
            yield parsed


def _parse_trace(row):
    algorithm, problem, run, *values = row
    half = len(values) // 2
    return ((algorithm, problem, int(run)),
            list(zip(map(int, values[:half]), map(float, values[half:]),
                     strict=True)))


class _TraceReader:
    """The traces.csv of one loaded set, read one problem at a time.

    The first read walks the file once and notes where each problem's rows
    start; every read then decodes only its problem's rows, from there. The
    file's size and modification time are taken at load; a read that finds
    them changed raises :class:`BrokenResultsError`.
    """

    def __init__(self, path: Path):
        self.path = path
        self.stamp = self._stamp()
        self.problems: Dict[str, dict] = {}
        # problem -> (offset, line number) of each of its rows
        self.starts: Optional[Dict[str, List[Tuple[int, int]]]] = None

    def _stamp(self):
        stat = os.stat(self.path)
        return stat.st_size, stat.st_mtime_ns

    def trace(self, key: Tuple[str, str, int]) -> List[Tuple[int, float]]:
        problem = key[1]
        if problem not in self.problems:
            self.problems[problem] = self._read(problem)
        if key not in self.problems[problem]:
            raise BrokenResultsError("%s has no row for cell (%s, %s, run %d)"
                                     % (self.path, *key))
        return self.problems[problem][key]

    def _read(self, problem: str) -> dict:
        """The traces of ``problem`` by cell."""
        if self._stamp() != self.stamp:
            raise BrokenResultsError("%s changed after the results were loaded"
                                     % self.path)
        found = {}
        # Rows are found and read as bytes, in the encoding text mode would
        # decode them with; only the rows of ``problem`` are decoded.
        with open(self.path, newline="") as text:
            fh, encoding = text.buffer, text.encoding
            if self.starts is None:
                self.starts = self._walk(fh, encoding)
            for offset, number in self.starts.get(problem, ()):
                fh.seek(offset)
                line = fh.readline()
                if b'"' in line:
                    row = next(_quoted_rows(line, fh, encoding))
                else:
                    row = line.decode(encoding).rstrip("\r\n").split(",")
                try:
                    key, points = _parse_trace(row)
                except ValueError as exc:
                    raise _broken_row(self.path, number, _TRACES_HEADER, row,
                                      exc) from None
                found[key] = points
        return found

    def _walk(self, fh, encoding) -> Dict[str, List[Tuple[int, int]]]:
        """Where each problem's rows start in traces.csv, open as ``fh``. Only
        a line that holds a quote can hide its problem field, so only such a
        row goes through csv; another is split only up to its problem."""
        if fh.readline().decode(encoding).rstrip("\r\n") != ",".join(_TRACES_HEADER):
            raise BrokenResultsError("%s line 1: expected the header %s"
                                     % (self.path, ",".join(_TRACES_HEADER)))
        starts: Dict[str, List[Tuple[int, int]]] = {}
        number = 2
        while True:
            offset = fh.tell()
            line = fh.readline()
            if not line:
                return starts
            if b'"' in line:
                reader = _quoted_rows(line, fh, encoding)
                problem = next(reader)[1:2]
                lines = reader.line_num
            else:
                problem = [p.decode(encoding) for p in line.split(b",", 2)[1:2]]
                lines = 1
            if problem:
                starts.setdefault(problem[0], []).append((offset, number))
            number += lines


def _quoted_rows(line: bytes, fh, encoding: str):
    """csv rows from ``line`` on, reading further lines from the binary file
    ``fh`` only as a row needs them, so ``fh`` stays at the end of the last
    row read."""
    lines = itertools.chain([line], iter(fh.readline, b""))
    return csv.reader(raw.decode(encoding) for raw in lines)


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

    Reads ``meta.json`` and ``results.csv``; each record's trace is read from
    ``traces.csv`` on first use, together with the other traces of its
    problem. Raises :class:`BrokenResultsError`, naming the file and the cell,
    when a value of ``results.csv`` does not parse; the first read of a trace
    raises it when the run has no traces row, a value of its problem's rows
    does not parse, or ``traces.csv`` changed since the load.
    """
    out = Path(out_dir)
    with open(out / "meta.json") as fh:
        metadata = json.load(fh)
    version = metadata.get("schema_version")
    if version != SCHEMA_VERSION:
        raise SchemaMismatchError(
            "results were written with schema %r; this build reads %d"
            % (version, SCHEMA_VERSION))

    traces = _TraceReader(out / "traces.csv")

    def parse_result(row):
        values = {name: decode(text)
                  for (name, _, decode), text in zip(_COLUMNS, row, strict=True)}
        key = (values["algorithm"], values["problem"], values["run"])
        return key, RunRecord(trace=_LoadedTrace(traces, key), **values)

    records = dict(_read_rows(out / "results.csv", _RESULTS_HEADER, parse_result))
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
            cell.append(results.records[key].trace)
        cells[a] = cell

    grid = sorted({fes for cell in cells.values()
                   for tr in cell for fes, _ in tr})
    if not grid:
        raise ValueError("no trace data for problem %r" % problem)
    grid = np.array(grid, dtype=int)

    series = {}
    for a in algs:
        acc = np.zeros(len(grid))
        for tr in cells[a]:
            fes = np.array([f for f, _ in tr])
            best = np.array([b for _, b in tr])
            idx = np.searchsorted(fes, grid, side="right") - 1
            idx = np.clip(idx, 0, len(fes) - 1)
            acc += best[idx]
        series[a] = acc / runs
    return grid, series
