"""Experiment harness: budgets, independent runs, batches, persistence.

A run is fully determined by its :class:`RunConfig`. The evaluation budget
is owned by an :class:`Evaluator`, which charges one evaluation per objective
call (constraint resampling included) and never lets the total exceed
``fes_max``. Batches derive one seed per (algorithm, problem, run) cell from
the base seed and a stable 64-bit hash, so cells are reproducible in
isolation and identical whether executed serially or in a process pool.
A run's trace is a :data:`TRACE_DTYPE` array of (evaluations used,
best-so-far) points: one after the initial population and one after every
iteration, the last at the evaluations the run used.

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
  CSV view
- ``summary.csv``: best/mean/std of best_fitness per (algorithm, problem)
- ``meta.json``: the batch (algorithms, problems, runs, base_seed), every
  :class:`RunConfig` setting, the dimension of each problem, schema version,
  config hash (of all the above) and creation date

Record equality ignores wall_time (the only non-deterministic field).
"""

from __future__ import annotations

import csv
import hashlib
import json
import shutil
import time
import zipfile
from dataclasses import dataclass, fields
from datetime import datetime, timezone
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

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
from .stages import Population, algorithm_label, elite_archive, step, variant_of

SCHEMA_VERSION = 4
_MASK64 = (1 << 64) - 1
# A trace's points: evaluations used and best-so-far fitness, the dtypes a
# traces file holds them in.
TRACE_DTYPE = np.dtype([("fes", "<i8"), ("best", "<f8")])


class SchemaMismatchError(ValueError):
    """Persisted results were written under a different schema version."""


class BrokenResultsError(RuntimeError):
    """A persisted set lacks a file, or holds one that :func:`persist` does
    not write."""


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
        variant_of(self.algorithm)
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

    ``evaluate(X)`` reads the whole (n, D) float block in one ``spec.batch``
    call and returns (fitness, objective, violation, positions): the ranking
    value and the readings it was computed from. On a problem without
    constraints every violation is +0.0, so the fitness is a copy of the
    objective and no penalty or resampling pass runs. Otherwise infeasible
    rows are first resampled inside the box, in row order, on a copy of
    ``X``; then the whole block is ranked at once. Resampling draws come
    from ``rng``, the run's single stream, after the iteration's update
    draws.

    The infeasible rows share one :class:`TrialStream` over this evaluator,
    which adds each trial it hands out to ``used`` (so ``used`` counts the
    resamples too), reads trials ahead in blocks (one ``spec.batch`` per
    block) and consumes only the draws the rows used. Draws and results
    therefore equal resampling one trial at a time whenever the problem's
    block reading equals its point reading, as it does for every registry
    problem with constraints. A custom problem whose block reading differs
    in the last bit, such as one that rotates with a BLAS matrix product,
    can give results that depend on the block size.
    """

    def __init__(self, spec: ProblemSpec, fes_max: int, rng: RngStream):
        self.spec = spec
        self.fes_max = int(fes_max)
        self.rng = rng
        self.used = 0

    def evaluate(self, X: np.ndarray):
        n = X.shape[0]
        if self.used + n > self.fes_max:
            raise BudgetExhaustedError(
                "evaluating %d candidates would exceed the budget (%d of %d used)"
                % (n, self.used, self.fes_max))
        objective, violation = self.spec.batch(X)
        self.used += n
        if self.spec.constraints is None:
            return objective.copy(), objective, violation, X
        infeasible = np.flatnonzero(violation > VIOLATION_TOL)
        if infeasible.size:
            X = X.copy()
            stream = TrialStream(self, rows=infeasible.size)
            for i in infeasible:
                out = constrained_evaluate(X[i], objective[i], violation[i], stream)
                X[i], objective[i], violation[i] = out.position, out.objective, out.violation
            stream.close()
        return penalized_fitness(objective, violation), objective, violation, X


@dataclass(frozen=True, eq=False)
class RunRecord:
    """Outcome of one independent run; read-only, so change a record with
    ``dataclasses.replace``.

    Equality ignores ``wall_time``; every other field must match exactly.
    ``trace`` is a 1-D :data:`TRACE_DTYPE` array; a sequence of (fes, best)
    pairs given in its place is converted on construction.
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
    trace: np.ndarray
    evaluations_used: int
    wall_time: float = 0.0

    def __post_init__(self):
        trace = self.trace
        if not (isinstance(trace, np.ndarray) and trace.dtype == TRACE_DTYPE):
            trace = np.array([tuple(p) for p in trace], dtype=TRACE_DTYPE)
        if trace.ndim != 1:
            raise ValueError("a trace is a 1-D array of (fes, best) points, not "
                             "of shape %s" % (trace.shape,))
        object.__setattr__(self, "trace", trace)

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
        return list(self.metadata.get("algorithms") or sorted({k[0] for k in self.records}))

    @property
    def problems(self) -> List[str]:
        return list(self.metadata.get("problems") or sorted({k[1] for k in self.records}))

    @property
    def run_count(self) -> int:
        return max((k[2] + 1 for k in self.records), default=0)

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
                # finite bests past half the float range can make either inf,
                # so those are read again as multiples of the largest one
                with np.errstate(invalid="ignore", over="ignore"):
                    mean, std = float(vals.mean()), float(vals.std())
                if not np.isfinite([mean, std]).all() and np.isfinite(vals).all():
                    scale = np.abs(vals).max()
                    mean = float((vals / scale).mean() * scale)
                    std = float((vals / scale).std() * scale)
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
    variant = variant_of(cfg.algorithm)
    rng = RngStream(cfg.seed)
    ev = Evaluator(spec, fes_max, rng)

    X0 = init_population(cfg.n, spec.bounds, rng)
    fit, obj, vio, X0 = ev.evaluate(X0)
    pop = Population(X0, fit, obj, vio)

    archive = elite_archive(variant, dim)

    # every point after the first is an iteration's, which charges at least n
    trace = np.empty(fes_max // cfg.n + 1, dtype=TRACE_DTYPE)
    trace[0] = ev.used, pop.fitness[0]

    iteration = 1
    while ev.used + cfg.n <= fes_max:
        pop = step(pop, variant, iteration, archive, ev)
        trace[iteration] = ev.used, pop.fitness[0]
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
        trace=trace[:iteration], evaluations_used=ev.used,
        wall_time=time.perf_counter() - t0,
    )


def _run_cell(args) -> Tuple[Tuple[str, str, int], RunRecord]:
    cfg, run = args
    try:
        rec = run_single(cfg, run_index=run)
    except Exception as exc:
        raise RuntimeError("run failed in cell algorithm=%s problem=%s run=%d seed=%d: %s: %s"
                           % (cfg.algorithm, cfg.problem, run, cfg.seed,
                              type(exc).__name__, exc)) from exc
    return (cfg.algorithm, cfg.problem, run), rec


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
    labels: Dict[str, str] = {}
    for alg in algorithms:
        variant_of(alg)
        labels.setdefault(algorithm_label(alg), alg)
    algorithms = list(labels.values())
    specs: Dict[str, ProblemSpec] = {}
    for prob in problems:
        spec = make_problem(prob, shared.dimension)
        specs.setdefault(spec.name, spec)
    for spec in specs.values():
        shared.resolved_fes_max(spec.dimension)
    tasks = [(RunConfig(algorithm=alg, problem=prob,
                        seed=derive_seed(base_seed, alg, prob, run),
                        **settings), run)
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
# The traces files of schemas 2 and 1, which persist deletes.
_STALE_FILES = ("traces.csv", "solutions.csv")


def _write_rows(path: Path, header: List[str], rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def _trace_paths(folder: Path, problems) -> Dict[str, Path]:
    """The traces file of each problem: ``<i>.npz`` under ``folder``, ``i``
    being the problem's index among the distinct labels, sorted."""
    return {p: folder / ("%d.npz" % i) for i, p in enumerate(sorted(set(problems)))}


def check_out_dir(out_dir) -> Path:
    """The path of ``out_dir``, once nothing there would stop :func:`persist`
    part way.

    Raises NotADirectoryError when ``<out_dir>/traces`` is a file or a
    symbolic link, which persist could not replace, and FileExistsError when
    a file it writes or deletes there (``results.csv``, ``summary.csv``,
    ``meta.json``, or the ``traces.csv`` and ``solutions.csv`` of older
    schemas) exists and is not a regular file.
    """
    out = Path(out_dir)
    folder = out / "traces"
    if folder.is_symlink() or folder.exists() and not folder.is_dir():
        raise NotADirectoryError("cannot write results to %s: %s is not a plain directory"
                                 % (out, folder))
    for name in ("results.csv", "summary.csv", "meta.json", *_STALE_FILES):
        path = out / name
        if path.exists() and not path.is_file():
            raise FileExistsError("cannot write results to %s: %s is not a regular file"
                                  % (out, path))
    return out


def persist(results: ResultSet, out_dir) -> Path:
    """Write the result set under ``out_dir``; returns the directory path.

    Raises, before writing anything, ValueError for an algorithm label that
    holds a NUL character (a traces file's str array drops trailing NULs),
    and what :func:`check_out_dir` raises for a path there that persist
    could not replace, so the set there before stays whole.
    """
    records = [results.records[key] for key in sorted(results.records)]
    cells: Dict[str, List[RunRecord]] = {}
    for r in records:
        if "\0" in r.algorithm:
            raise ValueError("algorithm label %r holds a NUL character" % r.algorithm)
        cells.setdefault(r.problem, []).append(r)
    out = check_out_dir(out_dir)
    folder = out / "traces"
    out.mkdir(parents=True, exist_ok=True)
    _write_rows(out / "results.csv", _RESULTS_HEADER,
                ([encode(getattr(r, name)) for name, encode, _ in _COLUMNS]
                 for r in records))
    shutil.rmtree(folder, ignore_errors=True)
    for stale in _STALE_FILES:
        (out / stale).unlink(missing_ok=True)
    folder.mkdir()
    for problem, path in _trace_paths(folder, cells).items():
        rows = cells[problem]
        points = np.concatenate([r.trace for r in rows])
        np.savez(path, algorithm=np.array([r.algorithm for r in rows], dtype=str),
                 run=np.array([r.run for r in rows], dtype="<i8"),
                 length=np.array([len(r.trace) for r in rows], dtype="<i8"),
                 fes=points["fes"], best=points["best"])
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


def _read_results(path: Path) -> Dict[Tuple[str, str, int], dict]:
    """The decoded fields of each row of ``results.csv``, by cell.

    A wrong header, a value that does not parse or a cell an earlier row
    holds raises :class:`BrokenResultsError` naming the file, the line and
    the cell.
    """
    rows = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != _RESULTS_HEADER:
            raise BrokenResultsError("%s line 1: expected the header %s"
                                     % (path, ",".join(_RESULTS_HEADER)))
        for row in reader:
            try:
                values = {name: decode(text)
                          for (name, _, decode), text in zip(_COLUMNS, row, strict=True)}
                cell = (values["algorithm"], values["problem"], values["run"])
                if cell in rows:
                    raise ValueError("listed twice")
            except ValueError as exc:
                named = dict(zip(_RESULTS_HEADER, row))
                cell = tuple(named.get(c, "?") for c in ("algorithm", "problem", "run"))
                raise BrokenResultsError("%s line %d, cell (%s, %s, run %s): %s"
                                         % (path, reader.line_num, *cell, exc)) from None
            rows[cell] = values
    return rows


def _read_traces(path: Path, problem: str) -> Dict[Tuple[str, str, int], np.ndarray]:
    """The traces of ``problem``'s file, by cell, each a slice of one
    :data:`TRACE_DTYPE` array.

    Raises :class:`BrokenResultsError` naming the file when it is not one
    :func:`persist` writes, with the entry and the cell when it lists a
    cell twice.
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
    points = np.empty(len(arrays["fes"]), dtype=TRACE_DTYPE)
    points["fes"], points["best"] = arrays["fes"], arrays["best"]
    traces = {}
    end = 0
    for entry, (algorithm, run) in enumerate(zip(arrays["algorithm"].tolist(),
                                                 arrays["run"].tolist())):
        cell = (algorithm, problem, run)
        if cell in traces:
            raise BrokenResultsError("%s entry %d, cell (%s, %s, run %d): listed twice"
                                     % (path, entry, *cell))
        start, end = end, end + lengths[entry]
        traces[cell] = points[start:end]
    return traces


def load(out_dir) -> ResultSet:
    """Rebuild a :class:`ResultSet` persisted by :func:`persist`.

    Reads ``meta.json``, ``results.csv`` and every problem's traces file;
    each record's trace is a slice of its file's arrays. A folder or
    ``meta.json`` that cannot be opened raises the ``OSError``. Past that, a
    file that is missing or not one :func:`persist` writes raises
    :class:`BrokenResultsError` naming it, with the line or entry and the
    cell where there is one; so does a traces file, or an entry of one,
    that no row of ``results.csv`` accounts for, and a ``meta.json`` that
    lists algorithms or problems other than those its rows hold.
    """
    out = Path(out_dir)
    with open(out / "meta.json") as fh:
        try:
            metadata = json.load(fh)
        except ValueError as exc:
            raise BrokenResultsError("%s is not JSON: %s" % (fh.name, exc)) from None
    if not isinstance(metadata, dict):
        raise BrokenResultsError("%s is not a JSON object" % fh.name)
    version = metadata.get("schema_version")
    if version != SCHEMA_VERSION:
        raise SchemaMismatchError(
            "results were written with schema %r; this build reads %d"
            % (version, SCHEMA_VERSION))

    traces = {}
    try:
        results = out / "results.csv"
        rows = _read_results(results)
        paths = _trace_paths(out / "traces", (key[1] for key in rows))
        for problem, path in paths.items():
            held = _read_traces(path, problem)
            for entry, cell in enumerate(held):  # in entry order
                if cell not in rows:
                    raise BrokenResultsError("%s entry %d, cell (%s, %s, run %d): no row "
                                             "in %s" % (path, entry, *cell, results))
            traces.update(held)
        stray = sorted(set((out / "traces").iterdir()) - set(paths.values()))
        if stray:
            raise BrokenResultsError("%s is the traces file of no problem in %s"
                                     % (stray[0], results))
    except (FileNotFoundError, NotADirectoryError) as exc:
        missing = Path(exc.filename)
        raise BrokenResultsError("%s is missing" % (
            missing if missing.parent.is_dir() else missing.parent)) from None
    for what, column in (("algorithms", 0), ("problems", 1)):
        listed, named = metadata.get(what), sorted({key[column] for key in rows})
        if listed and (not isinstance(listed, list) or sorted(listed, key=str) != named):
            raise BrokenResultsError("%s lists the %s %s; the rows of %s hold %s"
                                     % (fh.name, what, listed, results, named))
    records = {}
    for key, values in rows.items():
        if key not in traces:
            raise BrokenResultsError("%s has no trace for cell (%s, %s, run %d)"
                                     % (paths[key[1]], *key))
        records[key] = RunRecord(trace=traces[key], **values)
    return ResultSet(records, metadata)


def export_trace(results: ResultSet, problem: str,
                 algorithms: Optional[Sequence[str]] = None):
    """Mean-over-runs best-so-far per algorithm on a shared FEs grid.

    Returns (grid, {algorithm: series}); each series is non-increasing and
    the grid spans from the earliest to the latest recorded evaluation count.
    """
    algs = list(algorithms) if algorithms else results.algorithms
    runs = results.run_count
    for a in algs:
        for r in range(runs):
            if (a, problem, r) not in results.records:
                raise KeyError("no record for algorithm %r on problem %r run %d"
                               % (a, problem, r))
    cells = {a: [results.records[a, problem, r].trace for r in range(runs)]
             for a in algs}

    counts = [trace["fes"] for cell in cells.values() for trace in cell]
    grid = np.unique(np.concatenate(counts)) if counts else np.array([], dtype=np.int64)
    if not grid.size:
        raise ValueError("no trace data for problem %r" % problem)

    series = {}
    for a in algs:
        acc = np.zeros(len(grid))
        for trace in cells[a]:
            idx = np.searchsorted(trace["fes"], grid, side="right") - 1
            idx = np.clip(idx, 0, len(trace) - 1)
            acc += trace["best"][idx]
        series[a] = acc / runs
    return grid, series
