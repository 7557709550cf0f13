"""Experiment harness: budgets, independent runs, batches, persistence.

A run is fully determined by its :class:`RunConfig`. The run itself is an
:class:`Evaluator`: it charges one evaluation per objective call (constraint
resampling included) and never lets the total exceed ``fes_max``, and once
started it holds the sorted population, the elite archive, the iteration
number and the trace, which :func:`~ieco_mco.stages.step` advances. Batches
derive one seed per (algorithm, problem, run) cell from the base seed and a
stable 64-bit hash, so cells are reproducible in isolation and identical
whether executed serially or in a process pool.
A run's trace is a :data:`TRACE_DTYPE` array of (evaluations used,
best-so-far) points: one after the initial population and one after every
iteration, the last at the evaluations the run used.

Persisted layout under an output directory:

- ``results.npz``: one uncompressed numpy archive, written whole to
  ``results.npz.part`` and moved into place with ``os.replace``. Rows are
  runs in sorted key order. It holds ``meta``, a 0-d str array of the
  metadata JSON: the batch (algorithms, problems, runs, base_seed), every
  :class:`RunConfig` setting, the dimension of each problem, schema
  version, config hash (of all the above) and creation date. Then one 1-D
  array per :class:`RunRecord` field but the two arrays, named as the
  field: str labels, ``seed`` uint64, the other integers int64, floats
  float64 and ``feasible`` bool. Then ``position_length`` (int64) and
  ``best_position`` (float64), every row's position concatenated, and
  ``length`` (int64) and ``trace`` (:data:`TRACE_DTYPE`), every row's
  trace concatenated. Read it with ``numpy.load(path,
  allow_pickle=False)``; ``mco export-trace`` gives a CSV view of traces
- ``summary.csv``: best/mean/std of best_fitness per (algorithm, problem),
  a view that :func:`load` never reads

Record equality ignores wall_time (the only non-deterministic field).
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import time
import zipfile
import zlib
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
from .covariance import EliteArchive
from .stages import ARCHIVE_ROWS_PER_DIM, algorithm_label, step, variant_of

SCHEMA_VERSION = 5
_MASK64 = (1 << 64) - 1
# A trace's points: evaluations used and best-so-far fitness, the dtypes the
# results file holds them in.
TRACE_DTYPE = np.dtype([("fes", "<i8"), ("best", "<f8")])


class SchemaMismatchError(ValueError):
    """Persisted results were written under a different schema version."""


class BrokenResultsError(RuntimeError):
    """A persisted set lacks its results file, or holds one that
    :func:`persist` does not write."""


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
    """One run: its budget-charging evaluator and, once started, its state.

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
    which scans each row's trials on a block read ahead (one ``spec.batch``
    per block, sized from the feasible yield seen so far), adds the trials
    of each row to ``used`` (so ``used`` counts the resamples too) and
    consumes only the draws the rows used. Draws and results
    therefore equal resampling one trial at a time whenever the problem's
    block reading equals its point reading, as it does for every registry
    problem with constraints. A custom problem whose block reading differs
    in the last bit, such as one that rotates with a BLAS matrix product,
    can give results that depend on the block size.

    :meth:`start` reads the first population; from then on the run holds it
    sorted ascending by fitness as ``positions``, ``fitness`` (the ranking
    value, penalized on a constrained problem), and the ``objective`` and
    ``violation`` it was ranked from, with its ``variant`` row, its elite
    ``archive`` (None without operators), the 1-based ``iteration`` that
    :func:`~ieco_mco.stages.step` runs next and the :data:`TRACE_DTYPE`
    ``trace``, whose first ``iteration`` points are filled.
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

    def start(self, variant, X: np.ndarray):
        """Read the first population ``X`` and hold it, sorted, as the run
        of the variant table's row ``variant``. The sort gathers new arrays,
        so the run shares none with ``X``."""
        self.fitness, self.objective, self.violation, self.positions = self.evaluate(X)
        self.sort()
        self.variant = variant
        self.archive = (None if variant[1] is None
                        else EliteArchive(ARCHIVE_ROWS_PER_DIM * self.spec.dimension))
        # every point after the first is an iteration's, which charges at least n
        self.trace = np.empty(self.fes_max // X.shape[0] + 1, dtype=TRACE_DTYPE)
        self.trace[0] = self.used, self.fitness[0]
        self.iteration = 1

    def sort(self):
        """Order the population by fitness, ties kept in place; gathers new
        arrays."""
        order = np.argsort(self.fitness, kind="stable")
        self.positions = self.positions[order]
        self.fitness = self.fitness[order]
        self.objective = self.objective[order]
        self.violation = self.violation[order]


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
    run = Evaluator(spec, cfg.resolved_fes_max(spec.dimension), RngStream(cfg.seed))
    run.start(variant_of(cfg.algorithm), init_population(cfg.n, spec.bounds, run.rng))
    while run.used + cfg.n <= run.fes_max:
        step(run)

    best_violation = float(run.violation[0])
    return RunRecord(
        algorithm=cfg.algorithm, problem=spec.name, dimension=spec.dimension,
        run=run_index, seed=cfg.seed,
        best_position=run.positions[0].copy(),
        best_fitness=float(run.fitness[0]),
        best_objective=float(run.objective[0]),
        best_violation=best_violation,
        feasible=best_violation <= VIOLATION_TOL,
        trace=run.trace[:run.iteration], evaluations_used=run.used,
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

_RESULTS_FILE = "results.npz"
# The files of schemas 1 to 4, which persist never writes over.
_OLD_FILES = ("meta.json", "results.csv", "traces", "traces.csv", "solutions.csv")
# The arrays of the results file besides ``meta``, with their dtypes: one per
# scalar RunRecord field ("U" being a str dtype of any length; seeds span 64
# bits), then the positions and traces, each concatenated after its rows'
# lengths.
_SCALAR_DTYPES = {"str": "U", "int": "<i8", "float": "<f8", "bool": "|b1"}
_COLUMNS = {f.name: "<u8" if f.name == "seed" else _SCALAR_DTYPES[f.type]
            for f in fields(RunRecord) if f.type != "np.ndarray"}
_ARRAYS = {**_COLUMNS, "position_length": "<i8", "best_position": "<f8",
           "length": "<i8", "trace": TRACE_DTYPE}
# Each length array and the concatenated array whose rows it gives.
_SPLITS = (("position_length", "best_position"), ("length", "trace"))


def check_out_dir(out_dir) -> Path:
    """The path of ``out_dir``, once nothing there would stop :func:`persist`
    part way or be left beside its set.

    Raises FileExistsError, deleting nothing, when the folder holds a file of
    schema 4 or older (``meta.json``, ``results.csv``, ``traces``, or the
    ``traces.csv`` and ``solutions.csv`` of schemas 2 and 1), or a
    ``results.npz``, ``results.npz.part`` or ``summary.csv`` that is not a
    regular file.
    """
    out = Path(out_dir)
    old = [name for name in _OLD_FILES if (out / name).exists()]
    if old:
        raise FileExistsError("cannot write results to %s: it holds %s, written under "
                              "schema 4 or older; move them away first"
                              % (out, ", ".join(old)))
    for name in (_RESULTS_FILE, _RESULTS_FILE + ".part", "summary.csv"):
        path = out / name
        if path.exists() and not path.is_file():
            raise FileExistsError("cannot write results to %s: %s is not a regular file"
                                  % (out, path))
    return out


def persist(results: ResultSet, out_dir) -> Path:
    """Write the result set under ``out_dir``; returns the directory path.

    The set goes to ``results.npz.part``, which ``os.replace`` then makes
    ``results.npz``, so the file there before stays whole until the new one
    is complete, and a write that fails removes the ``.part`` and re-raises;
    ``summary.csv``, a view that :func:`load` never reads, is written last.
    Raises, before writing anything, ValueError for a label holding a NUL
    character (a str array drops trailing NULs), and what
    :func:`check_out_dir` raises.
    """
    records = [results.records[key] for key in sorted(results.records)]
    for r in records:
        for what, label in (("algorithm", r.algorithm), ("problem", r.problem)):
            if "\0" in label:
                raise ValueError("%s label %r holds a NUL character" % (what, label))
    meta = dict(results.metadata)
    meta["schema_version"] = SCHEMA_VERSION
    if "config_hash" in meta:
        meta["config_hash"] = config_hash(
            {k: v for k, v in meta.items() if k not in ("config_hash", "created_at")})
    arrays = {"meta": np.array(json.dumps(meta, sort_keys=True))}
    for name, dtype in _COLUMNS.items():
        arrays[name] = np.array([getattr(r, name) for r in records], dtype=dtype)
    arrays["position_length"] = np.array([len(r.best_position) for r in records],
                                         dtype="<i8")
    arrays["best_position"] = np.concatenate(
        [np.empty(0), *(r.best_position for r in records)], dtype="<f8")
    arrays["length"] = np.array([len(r.trace) for r in records], dtype="<i8")
    out = check_out_dir(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    part = out / (_RESULTS_FILE + ".part")
    try:
        with zipfile.ZipFile(part, "w") as zf:
            for name, array in arrays.items():
                with zf.open(name + ".npy", "w", force_zip64=True) as fh:
                    np.lib.format.write_array(fh, array, allow_pickle=False)
            # one record at a time, so no copy of every trace is made
            with zf.open("trace.npy", "w", force_zip64=True) as fh:
                np.lib.format.write_array_header_1_0(fh, {
                    "descr": np.lib.format.dtype_to_descr(TRACE_DTYPE),
                    "fortran_order": False, "shape": (int(arrays["length"].sum()),)})
                for r in records:
                    fh.write(np.ascontiguousarray(r.trace))
        os.replace(part, out / _RESULTS_FILE)
    except BaseException:
        part.unlink(missing_ok=True)
        raise
    with open(out / "summary.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["algorithm", "problem", "best", "mean", "std"])
        w.writerows([row["algorithm"], row["problem"], repr(row["best"]),
                     repr(row["mean"]), repr(row["std"])] for row in results.summary())
    return out


def _read_members(zf: zipfile.ZipFile, names) -> Dict[str, np.ndarray]:
    """The arrays of the npz archive ``zf`` named in ``names``, each a
    read-only view of its member's bytes, read whole by one ``ZipFile.read``
    (which checks the CRC). Raises ValueError for a member that is
    encrypted, of npy version other than 1.0 or 2.0, of an object dtype, of
    a negative dimension or shorter than its header's shape."""
    arrays = {}
    for member in zf.infolist():
        name = member.filename.removesuffix(".npy")
        if name not in names:
            continue
        if member.flag_bits & 0x1:
            raise ValueError("array %r is encrypted" % name)
        data = zf.read(member)
        header = io.BytesIO(data)
        version = np.lib.format.read_magic(header)
        if version not in ((1, 0), (2, 0)):
            raise ValueError("array %r is npy version %d.%d; this build reads 1.0 "
                             "and 2.0" % (name, *version))
        shape, fortran_order, dtype = (
            np.lib.format.read_array_header_1_0 if version == (1, 0)
            else np.lib.format.read_array_header_2_0)(header)
        if dtype.hasobject:
            raise ValueError("array %r holds objects, which cannot be loaded when "
                             "allow_pickle=False" % name)
        if min(shape, default=0) < 0:
            raise ValueError("array %r declares the shape %s" % (name, shape))
        count, start = math.prod(shape), header.tell()
        if len(data) - start < count * dtype.itemsize:
            raise ValueError("array %r holds %d bytes; its shape %s needs %d"
                             % (name, len(data) - start, shape, count * dtype.itemsize))
        arrays[name] = np.frombuffer(data, dtype, count, start).reshape(
            shape, order="F" if fortran_order else "C")
    return arrays


def load(out_dir) -> ResultSet:
    """Rebuild a :class:`ResultSet` persisted by :func:`persist`.

    Reads ``results.npz`` once; each record's position and trace are slices
    of its arrays, read-only views of the file's bytes. A folder that cannot
    be opened raises the ``OSError``. A folder holding files of schema 4 or
    older and no ``results.npz``, or a file of another schema, raises
    :class:`SchemaMismatchError`. A ``results.npz`` that is missing or not
    one :func:`persist` writes (not a zip archive or one that cannot be
    read, a member that is encrypted or does not decompress, of npy version
    other than 1.0 or 2.0, of an object dtype, of a negative dimension or
    shorter than its header's shape, ``meta`` not a JSON object, an array
    missing or not 1-D of its dtype, lengths that do not add up (naming the
    first row they miss), a cell listed twice, ``meta`` lists other than the
    rows) raises :class:`BrokenResultsError` naming it.
    """
    out = Path(out_dir)
    path = out / _RESULTS_FILE
    try:
        fh = open(path, "rb")
    except FileNotFoundError:
        if not out.is_dir():
            raise
        old = [name for name in _OLD_FILES if (out / name).exists()]
        if old:
            raise SchemaMismatchError("%s holds %s, results written with schema 4 or "
                                      "older; this build reads %d"
                                      % (out, ", ".join(old), SCHEMA_VERSION)) from None
        raise BrokenResultsError("%s is missing" % path) from None
    except IsADirectoryError as exc:
        raise BrokenResultsError("%s is not a results file: %s" % (path, exc)) from None
    # an offset read from a damaged directory can make zipfile seek before
    # the start of the file, which raises OSError
    try:
        with fh, zipfile.ZipFile(fh) as zf:
            arrays = _read_members(zf, {"meta", *_ARRAYS})
    except (OSError, ValueError, EOFError, zipfile.BadZipFile, zlib.error,
            NotImplementedError) as exc:
        raise BrokenResultsError("%s is not a results file: %s" % (path, exc)) from None
    text = arrays.get("meta")
    if text is None or text.ndim or text.dtype.kind != "U":
        raise BrokenResultsError("%s: array 'meta' is missing or not 0-d str" % path)
    try:
        metadata = json.loads(text.item())
    except ValueError as exc:
        raise BrokenResultsError("%s: meta is not JSON: %s" % (path, exc)) from None
    if not isinstance(metadata, dict):
        raise BrokenResultsError("%s: meta is not a JSON object" % path)
    version = metadata.get("schema_version")
    if version != SCHEMA_VERSION:
        raise SchemaMismatchError("%s: results were written with schema %r; this build "
                                  "reads %d" % (path, version, SCHEMA_VERSION))
    for name, dtype in _ARRAYS.items():
        a = arrays.get(name)
        if a is None:
            raise BrokenResultsError("%s: array %r is missing" % (path, name))
        if a.ndim != 1 or not (a.dtype.kind == "U" if dtype == "U" else a.dtype == dtype):
            raise BrokenResultsError("%s: array %r is %d-D %s; expected 1-D %s" % (
                path, name, a.ndim, a.dtype, "str" if dtype == "U" else np.dtype(dtype)))
    rows = len(arrays["algorithm"])
    for name in (*_COLUMNS, *(lengths for lengths, _ in _SPLITS)):
        if len(arrays[name]) != rows:
            raise BrokenResultsError("%s: array %r holds %d rows; array 'algorithm' %d"
                                     % (path, name, len(arrays[name]), rows))
    for lengths, joined in _SPLITS:
        counts, size = arrays[lengths], len(arrays[joined])
        if (counts < 0).any() or counts.sum() != size:
            # the first row whose length is negative or runs past the end
            bad = np.flatnonzero((counts < 0) | (np.cumsum(counts) > size))
            cell = (", first at cell (%s, %s, run %d)" % tuple(
                arrays[name][bad[0]] for name in ("algorithm", "problem", "run"))
                if bad.size else "")
            raise BrokenResultsError("%s: the lengths in array %r do not split the %d "
                                     "entries of array %r%s"
                                     % (path, lengths, size, joined, cell))
    columns = {name: arrays[name].tolist() for name in _COLUMNS}
    keys = list(zip(columns["algorithm"], columns["problem"], columns["run"]))
    if len(set(keys)) != rows:
        seen = set()
        twice = next(key for key in keys if key in seen or seen.add(key))
        raise BrokenResultsError("%s: cell (%s, %s, run %d) is listed twice"
                                 % (path, *twice))
    for what, column in (("algorithms", 0), ("problems", 1)):
        listed, named = metadata.get(what), sorted({key[column] for key in keys})
        if listed and (not isinstance(listed, list) or sorted(listed, key=str) != named):
            raise BrokenResultsError("%s: meta lists the %s %s; the rows hold %s"
                                     % (path, what, listed, named))
    # row i's position and trace run from entry ends[i] to entry ends[i + 1]
    for lengths, joined in _SPLITS:
        ends = [0, *np.cumsum(arrays[lengths]).tolist()]
        columns[joined] = list(map(arrays[joined].__getitem__, map(slice, ends, ends[1:])))
    records = map(RunRecord, *(columns[f.name] for f in fields(RunRecord)))
    return ResultSet(dict(zip(keys, records)), metadata)


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
