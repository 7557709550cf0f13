"""Run execution, budgets, batch determinism, and persistence tests."""

import json
import re
import struct
import tracemalloc
import zipfile
from dataclasses import FrozenInstanceError, fields, replace
from pathlib import Path

import numpy as np
import pytest

from ieco_mco import cli, covariance, harness, stages
from ieco_mco.harness import (
    SCHEMA_VERSION,
    TRACE_DTYPE,
    BrokenResultsError,
    Evaluator,
    ResultSet,
    RunConfig,
    RunRecord,
    SchemaMismatchError,
    config_hash,
    derive_seed,
    export_trace,
    load,
    persist,
    run_batch,
    run_single,
)
from ieco_mco.problems import (MAX_RESAMPLES, VIOLATION_TOL, handling, make_problem,
                               penalized_fitness, stable_seed)
from ieco_mco.problems.core import ProblemSpec
from ieco_mco.rng import Bounds, BudgetExhaustedError, RngStream
from ieco_mco.rng import init_population
from ieco_mco.stages import Population, elite_archive, step, variant_of

from support import (results_arrays, rewrite_meta, rewrite_results, sphere_spec,
                     stable_arrays)

DESK = ["f%02d" % i for i in range(1, 13)]


# ------------------------------------------------------ non-finite objectives


def half_nan_spec(vectorized):
    """Sphere on x0 >= 0, NaN on the other half of the box.

    The block objective is either one array expression or a row-by-row
    Python loop; both must read the same way."""

    def block(X):
        return np.where(X[:, 0] < 0.0, np.nan, (X ** 2).sum(axis=1))

    def rowwise(X):
        return np.array([float("nan") if x[0] < 0.0 else float(x @ x) for x in X])

    return ProblemSpec(
        name="half-nan", bounds=Bounds.cube(-10.0, 10.0, 2),
        objective=block if vectorized else rowwise, category="test")


@pytest.mark.parametrize("vectorized", [True, False])
def test_nan_objective_reads_as_inf_and_gets_replaced(vectorized):
    spec = half_nan_spec(vectorized)
    ev = Evaluator(spec, fes_max=10 ** 6, rng=RngStream(3))
    X = np.array([[-0.5, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 1.0],
                  [0.5, 0.5], [4.0, 4.0]])
    fit, obj, feas, pos = ev.evaluate(X)
    assert fit[0] == np.inf and obj[0] == np.inf
    assert np.all(np.isfinite(fit[1:]))
    assert spec.evaluate(X[0])[0] == np.inf
    pop = Population(pos, fit, obj, feas)
    for it in range(1, 7):
        pop = step(pop, variant_of("ECO"), it, None, ev)
    # the agent that started in the NaN half was replaced by a finite child
    assert np.all(np.isfinite(pop.fitness))
    assert np.all(pop.positions[:, 0] >= 0.0)


# ------------------------------------------------------ degenerate archives


@pytest.mark.parametrize("algorithm", ["GECO", "SECO", "DECO", "IECO-MCO"])
def test_run_on_an_archive_of_one_repeated_row_keeps_budget_box_and_order(
        monkeypatch, algorithm):
    """Every agent starts on one point of a flat objective, so no child is
    ever accepted and every archived elite is that point: the covariance
    model is estimated from one repeated row, with zero scatter."""
    spec = ProblemSpec(
        name="flat", bounds=Bounds.cube(-5.0, 5.0, 4),
        objective=lambda X: np.ones(len(X)), category="test")
    point = np.array([1.0, -2.0, 3.0, 0.5])
    monkeypatch.setattr(harness, "init_population",
                        lambda n, bounds, rng: np.tile(point, (n, 1)))
    archives, real_estimate = [], covariance.estimate

    def estimate(archive):
        archives.append(archive.positions())
        return real_estimate(archive)

    real_step = harness.step

    def checked_step(pop, *args):
        pop = real_step(pop, *args)
        assert np.all((pop.positions >= spec.bounds.lower)
                      & (pop.positions <= spec.bounds.upper))
        assert np.all(pop.fitness[:-1] <= pop.fitness[1:])
        return pop

    monkeypatch.setattr(covariance, "estimate", estimate)
    monkeypatch.setattr(harness, "step", checked_step)
    cfg = RunConfig(algorithm=algorithm, problem="flat", seed=5, dimension=4,
                    n=8, fes_max=400)
    rec = run_single(cfg, spec)
    assert archives
    assert all(np.array_equal(rows, np.tile(point, (len(rows), 1)))
               for rows in archives)
    assert rec.evaluations_used == 400
    assert np.array_equal(rec.best_position, point)


# ---------------------------------------------------------------- run config


def test_run_config_validation():
    with pytest.raises(ValueError):
        RunConfig(algorithm="NOPE", problem="f01", seed=1)
    with pytest.raises(ValueError):
        RunConfig(algorithm="ECO", problem="f01", seed=-1)
    with pytest.raises(ValueError):
        RunConfig(algorithm="ECO", problem="f01", seed=1, n=4)
    with pytest.raises(ValueError):
        RunConfig(algorithm="ECO", problem="f01", seed=1, n=30, fes_max=59)


def test_run_config_default_budget_is_3000_d():
    cfg = RunConfig(algorithm="ECO", problem="f01", seed=1)
    assert cfg.resolved_fes_max(10) == 30000
    assert cfg.resolved_fes_max(50) == 150000
    cfg = RunConfig(algorithm="ECO", problem="f01", seed=1, fes_max=500)
    assert cfg.resolved_fes_max(10) == 500


def test_derive_seed_is_stable_and_cell_specific():
    s = derive_seed(7, "ECO", "f01", 0)
    assert s == derive_seed(7, "ECO", "f01", 0)
    assert s != derive_seed(7, "ECO", "f01", 1)
    assert s != derive_seed(7, "ECO", "f02", 0)
    assert s != derive_seed(7, "IECO-MCO", "f01", 0)
    assert 0 <= s < 2 ** 64
    # base seed enters via xor with the stable cell hash
    assert derive_seed(0, "ECO", "f01", 3) == stable_seed("ECO", "f01", "3")
    assert derive_seed(5, "ECO", "f01", 3) == 5 ^ stable_seed("ECO", "f01", "3")


# ----------------------------------------------------------------- evaluator


def test_evaluator_charges_one_per_candidate():
    ev = Evaluator(sphere_spec(3), fes_max=10, rng=RngStream(3))
    X = np.ones((4, 3))
    fit, obj, vio, pos = ev.evaluate(X)
    assert ev.used == 4
    assert np.array_equal(fit, obj)
    assert np.array_equal(fit, np.full(4, 3.0))
    assert not vio.any()
    assert np.array_equal(pos, X)


def test_evaluator_reads_an_unconstrained_block_without_the_constraint_pass(monkeypatch):
    """With no constraints every violation is +0.0, so the fitness is a copy
    of the objective, bit for bit, and no penalty or resampling pass runs."""
    calls = []
    penalize = harness.penalized_fitness
    monkeypatch.setattr(harness, "penalized_fitness",
                        lambda *a: calls.append(a) or penalize(*a))
    values = np.array([-0.0, np.nan, 1.5, -np.inf])
    spec = ProblemSpec(name="plain", bounds=Bounds.cube(-1.0, 1.0, 2),
                       objective=lambda X: values[:len(X)], category="basic")
    ev = Evaluator(spec, fes_max=10, rng=RngStream(3))
    X = np.linspace(-1.0, 1.0, 8).reshape(4, 2)
    fit, obj, vio, pos = ev.evaluate(X)
    assert calls == []
    assert ev.used == 4
    assert fit is not obj
    assert np.array_equal(fit.view(np.int64), obj.view(np.int64))
    assert np.array_equal(obj, [-0.0, np.inf, 1.5, -np.inf])
    assert np.array_equal(vio.view(np.int64), np.zeros(4, dtype=np.int64))
    assert np.array_equal(pos, np.linspace(-1.0, 1.0, 8).reshape(4, 2))
    constrained = _never_feasible_spec()
    Evaluator(constrained, fes_max=3, rng=RngStream(3)).evaluate(np.full((1, 1), 0.5))
    assert len(calls) == 1


def test_evaluator_refuses_to_exceed_budget():
    ev = Evaluator(sphere_spec(2), fes_max=5, rng=RngStream(3))
    ev.evaluate(np.zeros((3, 2)))
    with pytest.raises(BudgetExhaustedError):
        ev.evaluate(np.zeros((3, 2)))
    assert ev.used == 3      # the refused call charged nothing
    ev.evaluate(np.zeros((2, 2)))
    assert ev.used == ev.fes_max == 5


def _never_feasible_spec():
    return ProblemSpec(
        name="never", bounds=Bounds.cube(0.0, 1.0, 1),
        objective=lambda X: X[:, 0], category="engineering",
        constraints=lambda X: np.ones((len(X), 1)),
    )


def test_evaluator_resampling_respects_hard_budget():
    spec = _never_feasible_spec()
    ev = Evaluator(spec, fes_max=5, rng=RngStream(3))
    ev.evaluate(np.full((2, 1), 0.5))
    # resamples fill whatever budget the remaining candidates do not need
    assert ev.used == 5
    ev = Evaluator(spec, fes_max=2 + 2 * MAX_RESAMPLES + 7, rng=RngStream(3))
    ev.evaluate(np.full((2, 1), 0.5))
    # each row stops at the cap while budget remains
    assert ev.used == 2 + 2 * MAX_RESAMPLES


def test_evaluator_constrained_reports_penalised_fitness():
    spec = _never_feasible_spec()
    ev = Evaluator(spec, fes_max=3, rng=RngStream(3))
    fit, obj, vio, pos = ev.evaluate(np.full((1, 1), 0.5))
    assert vio[0] == 1.0
    assert fit[0] == penalized_fitness(obj[0], vio[0]) > 1e14
    assert obj[0] <= 1.0


@pytest.mark.parametrize("problem", ["rw05", "rw08"])
def test_evaluator_builds_one_handled_point_per_resampled_row(monkeypatch, problem):
    """A resampled row keeps its best trial in locals and builds its record
    once, after its last trial, however many trials improved on the best."""
    built = []

    class Spy(handling.HandledPoint):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(handling, "HandledPoint", Spy)
    spec = make_problem(problem)
    bounds = spec.bounds
    X = bounds.lower + bounds.span * RngStream(7).uniform(size=(30, bounds.dimension))
    rows = np.count_nonzero(spec.batch(X)[1] > VIOLATION_TOL)
    ev = Evaluator(spec, fes_max=30 + 30 * MAX_RESAMPLES, rng=RngStream(11))
    ev.evaluate(X)
    assert rows > 0
    assert len(built) == rows
    # the records carry every resample the evaluator charged
    assert ev.used == 30 + sum(args[3] - 1 for args in built)


@pytest.mark.parametrize("problem", ["f01", "rw03", "rw05"])
def test_a_run_reads_no_point_after_its_budget(monkeypatch, problem):
    """The record keeps the readings that ranked the best agent; no single
    point is read again after the budget is spent."""
    def evaluate(self, x):
        raise AssertionError("ProblemSpec.evaluate called")

    monkeypatch.setattr(ProblemSpec, "evaluate", evaluate)
    rs = run_batch(["ECO", "IECO-MCO"], [problem], runs=2, base_seed=3,
                   dimension=5, n=6, fes_max=120)
    for rec in rs.records.values():
        assert rec.best_fitness == penalized_fitness(rec.best_objective,
                                                     rec.best_violation)
        assert rec.feasible == (rec.best_violation <= VIOLATION_TOL)


def test_worst_constraint_of_minus_zero_reads_as_plus_zero(tmp_path):
    spec = ProblemSpec(
        name="minus-zero", bounds=Bounds.cube(-1.0, 1.0, 2),
        objective=lambda X: (X ** 2).sum(axis=1), category="test",
        constraints=lambda X: np.column_stack([np.full(len(X), -0.0),
                                               np.full(len(X), -1.0)]),
    )
    assert repr(spec.evaluate(np.zeros(2))[1]) == "0.0"
    assert not np.signbit(spec.batch(np.zeros((3, 2)))[1]).any()
    cfg = RunConfig(algorithm="ECO", problem="minus-zero", seed=1, dimension=2,
                    n=5, fes_max=20)
    rec = run_single(cfg, spec)
    assert rec.feasible and repr(rec.best_violation) == "0.0"
    persist(ResultSet({("ECO", spec.name, 0): rec}), tmp_path)
    assert not np.signbit(results_arrays(tmp_path)["best_violation"]).any()
    assert repr(load(tmp_path).records[("ECO", spec.name, 0)].best_violation) == "0.0"


# ---------------------------------------------------------------- run_single


def test_run_single_is_deterministic():
    cfg = RunConfig(algorithm="IECO-MCO", problem="f03", seed=42,
                    dimension=5, n=8, fes_max=400)
    a = run_single(cfg)
    b = run_single(cfg)
    assert a == b                      # equality ignores wall_time
    assert a.wall_time >= 0.0


def test_run_single_differs_across_seeds():
    base = dict(algorithm="IECO-MCO", problem="f03", dimension=5, n=8,
                fes_max=400)
    a = run_single(RunConfig(seed=1, **base))
    b = run_single(RunConfig(seed=2, **base))
    assert a != b


def test_run_single_consumes_exactly_divisible_budget():
    cfg = RunConfig(algorithm="ECO", problem="f01", seed=9, dimension=4,
                    n=10, fes_max=200)
    rec = run_single(cfg)
    assert rec.evaluations_used == 200
    assert rec.dimension == 4
    assert rec.seed == 9


def test_run_single_never_exceeds_budget():
    for fes_max in (95, 101, 137):
        cfg = RunConfig(algorithm="IECO-MCO", problem="f04", seed=3,
                        dimension=5, n=10, fes_max=fes_max)
        rec = run_single(cfg)
        assert rec.evaluations_used <= fes_max
        # the leftover is smaller than one iteration
        assert fes_max - rec.evaluations_used < 10


def test_run_single_trace_is_monotone_and_anchored():
    cfg = RunConfig(algorithm="IECO-MCO", problem="f05", seed=11,
                    dimension=5, n=10, fes_max=600)
    rec = run_single(cfg)
    fes = [f for f, _ in rec.trace]
    best = [b for _, b in rec.trace]
    assert fes[0] == 10                      # after initialization
    assert fes[-1] == rec.evaluations_used
    assert fes == sorted(fes)
    assert all(b2 <= b1 for b1, b2 in zip(best, best[1:]))
    assert best[-1] == rec.best_fitness


@pytest.mark.parametrize("problem", ["f01", "rw03"])
def test_run_single_records_one_trace_point_per_iteration(monkeypatch, problem):
    # rw03 resamples infeasible rows, so its iterations charge uneven counts
    used_before_step = []

    def counted(pop, variant, iteration, archive, ev):
        used_before_step.append(ev.used)
        return step(pop, variant, iteration, archive, ev)

    monkeypatch.setattr(harness, "step", counted)
    n = 10
    rec = run_single(RunConfig(algorithm="IECO-MCO", problem=problem, seed=2,
                               dimension=5, n=n, fes_max=900))
    fes = [f for f, _ in rec.trace]
    assert len(rec.trace) == len(used_before_step) + 1
    # the first point is the initial population's, each later one a step's
    assert fes[:-1] == used_before_step
    assert all(g >= n for g in np.diff(fes))
    assert fes[-1] == rec.evaluations_used
    if problem == "rw03":
        assert fes[0] > n and len(set(np.diff(fes))) > 1


@pytest.mark.parametrize("problem", ["f01", "rw08"])
def test_stepping_by_hand_reproduces_run_single(problem):
    # step takes the stage, the P draw, the box and the budget from the
    # iteration number and the evaluator, so this loop is the whole run; on
    # rw08 resampling draws from the same stream between the P draws
    cfg = RunConfig(algorithm="IECO-MCO", problem=problem, seed=7,
                    dimension=5, n=10, fes_max=900)
    spec = harness.make_problem(problem, cfg.dimension)
    ev = Evaluator(spec, cfg.fes_max, RngStream(cfg.seed))
    fit, obj, vio, X = ev.evaluate(init_population(cfg.n, spec.bounds, ev.rng))
    pop = Population(X, fit, obj, vio)
    variant = variant_of(cfg.algorithm)
    archive = elite_archive(variant, spec.dimension)
    trace = [(ev.used, pop.fitness[0])]
    iteration = 1
    while ev.used + cfg.n <= ev.fes_max:
        pop = step(pop, variant, iteration, archive, ev)
        trace.append((ev.used, pop.fitness[0]))
        iteration += 1
    if problem == "rw08":
        assert len(set(np.diff([fes for fes, _ in trace]))) > 1
    rec = run_single(cfg)
    assert rec == RunRecord(
        algorithm=cfg.algorithm, problem=spec.name, dimension=spec.dimension,
        run=0, seed=cfg.seed, best_position=pop.positions[0],
        best_fitness=pop.fitness[0], best_objective=pop.objective[0],
        best_violation=pop.violation[0],
        feasible=pop.violation[0] <= VIOLATION_TOL, trace=trace,
        evaluations_used=ev.used)


def test_run_single_improves_on_sphere():
    rec = run_single(RunConfig(algorithm="IECO-MCO", problem="f01", seed=5,
                               dimension=2, n=20, fes_max=6000),
                     problem=sphere_spec(2))
    assert rec.trace[-1][1] < rec.trace[0][1]


def test_run_single_sphere_reaches_calibrated_quality():
    # oracle calibration over 12 seeds put the worst run at 1.7e-21,
    # so the documented 1e-2 envelope has enormous slack and even a
    # per-seed 1e-12 bound is 9 orders of magnitude above observation
    finals = []
    for seed in (0, 1, 2, 3, 4):
        rec = run_single(RunConfig(algorithm="IECO-MCO", problem="f01",
                                   seed=seed, dimension=2, n=20, fes_max=6000),
                         problem=sphere_spec(2))
        assert rec.evaluations_used <= 6000
        finals.append(rec.best_fitness)
    assert np.median(finals) <= 1e-2
    assert max(finals) <= 1e-12


def test_run_single_constrained_returns_feasible_best():
    cfg = RunConfig(algorithm="IECO-MCO", problem="rw03", seed=7, n=20,
                    fes_max=2000)
    rec = run_single(cfg)
    assert rec.feasible
    assert rec.best_violation <= 1e-8
    assert rec.best_fitness == rec.best_objective
    assert abs(rec.best_objective - 263.8958) < 1.0


def test_resolved_budget_rejects_undersized_default():
    cfg = RunConfig(algorithm="ECO", problem="rw03", seed=1, n=30,
                    fes_max=None, dimension=2)
    with pytest.raises(ValueError):
        cfg.resolved_fes_max(0)   # 3000 * 0 < 2 * n


# ----------------------------------------------------------------- run_batch


def _tiny_batch(jobs=1, base_seed=77, problems=("f01", "f02"), runs=3):
    return run_batch(["ECO", "IECO-MCO"], list(problems), runs=runs,
                     base_seed=base_seed, dimension=5, n=6, fes_max=60,
                     jobs=jobs)


def test_run_batch_cardinality():
    rs = run_batch(["ECO", "IECO-MCO"], DESK, runs=30, base_seed=5,
                   dimension=5, n=6, fes_max=60)
    assert len(rs) == 2 * 12 * 30
    rs.validate_rectangular()
    assert rs.run_count == 30
    assert rs.to_matrix().shape == (12, 2, 30)


def test_run_batch_cells_do_not_depend_on_grid_order():
    fwd = _tiny_batch(problems=("f01", "f02"))
    rev = _tiny_batch(problems=("f02", "f01"))
    for key, rec in fwd.records.items():
        assert rev.records[key] == rec


def test_run_batch_serial_and_parallel_agree():
    serial = _tiny_batch(jobs=1)
    parallel = _tiny_batch(jobs=2)
    assert serial == parallel


def test_run_batch_base_seed_changes_results():
    a = _tiny_batch(base_seed=1)
    b = _tiny_batch(base_seed=2)
    assert a != b
    assert a.metadata["config_hash"] != b.metadata["config_hash"]


def test_run_batch_metadata_is_the_batch_plus_run_config_settings():
    rs = _tiny_batch()
    settings = {f.name for f in fields(RunConfig)} - {"algorithm", "problem",
                                                       "seed"}
    batch = {"schema_version", "algorithms", "problems", "runs", "base_seed",
             "dimensions", "config_hash", "created_at"}
    assert set(rs.metadata) == settings | batch
    assert {k: rs.metadata[k] for k in settings} == {
        "dimension": 5, "n": 6, "fes_max": 60, "fes_mult": 3000}


def test_run_batch_checks_the_budget_of_every_problem_first(monkeypatch):
    calls = []
    monkeypatch.setattr(harness, "run_single",
                        lambda *a, **k: calls.append(a))
    with pytest.raises(ValueError, match="fes_max"):
        # rw03 has D = 2, so 50 * 2 < 2 * 60 while f01 at D = 10 is fine
        run_batch(["ECO"], ["f01", "rw03"], runs=1, base_seed=1, n=60,
                  fes_mult=50)
    assert calls == []


def test_run_batch_validation():
    with pytest.raises(ValueError):
        run_batch(["ECO"], ["f01"], runs=0, base_seed=1)
    with pytest.raises(ValueError):
        run_batch(["NOPE"], ["f01"], runs=1, base_seed=1)


@pytest.mark.parametrize("argument,message", [
    ({"jobs": 0}, "jobs must be at least 1"),
    ({"jobs": -3}, "jobs must be at least 1"),
    ({"base_seed": -1}, "base seed must be a non-negative integer"),
])
def test_run_batch_refuses_no_jobs_and_a_negative_base_seed(monkeypatch,
                                                            argument, message):
    calls = []
    monkeypatch.setattr(harness, "run_single",
                        lambda *a, **k: calls.append(a))
    with pytest.raises(ValueError, match=message):
        run_batch(**{"algorithms": ["ECO"], "problems": ["f01"], "runs": 1,
                     "base_seed": 1, **argument})
    assert calls == []


def test_run_batch_drops_labels_that_name_an_earlier_variant_or_problem():
    rs = run_batch(["ECO", "eco"], ["f01", "f01-zakharov-d5"], runs=2,
                   base_seed=4, dimension=5, n=6, fes_max=60)
    assert rs.algorithms == ["ECO"]
    assert rs.problems == ["f01-zakharov-d5"]
    assert rs.to_matrix().shape == (1, 1, 2)
    single = run_batch(["ECO"], ["f01"], runs=2, base_seed=4, dimension=5, n=6,
                       fes_max=60)
    assert rs.records == single.records


def test_a_row_added_to_the_variant_table_runs_everywhere(monkeypatch):
    # The table is the only declaration of a variant: one new row runs
    # through RunConfig, run_single and run_batch, with its own operators.
    operators = ("shift_operator", "gaussian_operator", "gaussian_operator")
    monkeypatch.setitem(stages._VARIANTS, "SGECO", ((0.3, 0.5, 0.5), operators))
    called = []

    def count(name):
        fn = getattr(covariance, name)
        monkeypatch.setattr(covariance, name, lambda *args: called.append(name) or fn(*args))

    for name in set(operators):
        count(name)
    settings = dict(dimension=2, n=6, fes_max=300)
    rs = run_batch(["sgeco", "SGECO", "ECO"], ["f01"], runs=2, base_seed=3, **settings)
    assert rs.algorithms == ["sgeco", "ECO"]
    assert {"shift_operator", "gaussian_operator"} <= set(called)
    problem = rs.problems[0]
    for run in range(2):
        cfg = RunConfig(algorithm=" Sgeco", problem=problem,
                        seed=derive_seed(3, "sgeco", problem, run), **settings)
        rec = run_single(cfg, run_index=run)
        assert replace(rec, algorithm="sgeco") == rs.records["sgeco", problem, run]


def test_result_set_rejects_missing_cells():
    rs = _tiny_batch()
    del rs.records[("ECO", rs.problems[0], 1)]
    with pytest.raises(ValueError):
        rs.validate_rectangular()


def test_result_set_rejects_non_contiguous_run_indices():
    rs = _tiny_batch()
    for key in [k for k in rs.records if k[2] == 1]:
        del rs.records[key]
    with pytest.raises(ValueError, match="not contiguous"):
        rs.validate_rectangular()


# --------------------------------------------------------------- persistence


def test_persist_load_round_trip(tmp_path):
    rs = _tiny_batch()
    persist(rs, tmp_path / "out")
    back = load(tmp_path / "out")
    assert back == rs
    assert back.metadata["config_hash"] == rs.metadata["config_hash"]


@pytest.mark.parametrize("rewrite", ["savez_compressed", "fortran_order"])
def test_a_set_numpy_load_reads_loads_equal(tmp_path, rewrite):
    """numpy.load reads a set rewritten compressed, or with each 1-D array's
    header declaring Fortran order, and so does load."""
    rs = _tiny_batch()
    out = persist(rs, tmp_path / "out")
    if rewrite == "savez_compressed":
        np.savez_compressed(out / "results.npz", **results_arrays(out))
    else:
        _rewrite_members(out, lambda fh, a: _write_npy(fh, a, fortran_order=a.ndim == 1))
    assert load(out) == rs


def test_loaded_arrays_are_read_only_and_persist_again(tmp_path):
    rs = _tiny_batch()
    out = persist(rs, tmp_path / "out")
    rec = load(out).records["ECO", "f01-zakharov-d5", 0]
    with pytest.raises(ValueError, match="read-only"):
        rec.trace["best"][0] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        rec.best_position[0] = 0.0
    assert load(persist(load(out), tmp_path / "again")) == rs


def test_persist_load_round_trip_constrained(tmp_path):
    rs = run_batch(["IECO-MCO"], ["rw03"], runs=2, base_seed=3, n=6,
                   fes_max=120)
    persist(rs, tmp_path / "out")
    back = load(tmp_path / "out")
    assert back == rs
    rec = back.records[("IECO-MCO", "rw03-three-bar-truss", 0)]
    assert isinstance(rec.feasible, bool)


def test_empty_result_set_round_trips(tmp_path):
    rs = ResultSet({}, {"schema_version": SCHEMA_VERSION})
    persist(rs, tmp_path / "out")
    back = load(tmp_path / "out")
    assert back == rs
    assert len(back) == 0


def test_persist_labels_what_it_writes_with_the_current_schema(tmp_path):
    rs = _tiny_batch()
    rs.metadata["schema_version"] = 1
    back = load(persist(rs, tmp_path / "out"))
    assert back.records == rs.records
    assert back.metadata["schema_version"] == SCHEMA_VERSION


def _schema_999_directory(out):
    persist(_tiny_batch(), out)
    rewrite_meta(out, lambda meta: {**meta, "schema_version": 999})
    return out


def _schema_1_directory(out):
    """One run as schema 1 laid it out: solutions.csv and traces/."""
    (out / "traces").mkdir(parents=True)
    (out / "meta.json").write_text(json.dumps(
        {"schema_version": 1, "algorithms": ["ECO"], "problems": ["f01"],
         "runs": 1}))
    (out / "results.csv").write_text(
        "algorithm,problem,D,run,seed,best_fitness,evaluations_used,wall_time\n"
        "ECO,f01,2,0,7,0.5,12,0.01\n")
    (out / "solutions.csv").write_text(
        "algorithm,problem,run,best_objective,best_violation,feasible,"
        "best_position\nECO,f01,0,0.5,0.0,1,0.5 0.5\n")
    (out / "summary.csv").write_text(
        "algorithm,problem,best,mean,std\nECO,f01,0.5,0.5,0.0\n")
    (out / "traces" / "ECO__f01__r000.txt").write_text("6 1.5\n12 0.5\n")
    return out


def _schema_2_directory(out):
    """One run as schema 2 laid it out: every trace in one traces.csv."""
    out.mkdir(parents=True)
    (out / "meta.json").write_text(json.dumps(
        {"schema_version": 2, "algorithms": ["ECO"], "problems": ["f01"],
         "runs": 1}))
    (out / "results.csv").write_text(
        ",".join(f.name for f in fields(RunRecord) if f.name != "trace")
        + "\nECO,f01,2,0,7,0.5 0.5,0.5,0.5,0.0,1,12,0.01\n")
    (out / "traces.csv").write_text(
        "algorithm,problem,run,fes...,best...\nECO,f01,0,6,12,1.5,0.5\n")
    (out / "summary.csv").write_text(
        "algorithm,problem,best,mean,std\nECO,f01,0.5,0.5,0.0\n")
    return out


def _schema_3_directory(out):
    """One run as schema 3 laid it out: each problem's traces in a CSV file."""
    (out / "traces").mkdir(parents=True)
    (out / "meta.json").write_text(json.dumps(
        {"schema_version": 3, "algorithms": ["ECO"], "problems": ["f01"],
         "runs": 1}))
    (out / "results.csv").write_text(
        ",".join(f.name for f in fields(RunRecord) if f.name != "trace")
        + "\nECO,f01,2,0,7,0.5 0.5,0.5,0.5,0.0,1,12,0.01\n")
    (out / "traces" / "0.csv").write_text(
        "algorithm,problem,run,fes...,best...\nECO,f01,0,6,12,1.5,0.5\n")
    (out / "summary.csv").write_text(
        "algorithm,problem,best,mean,std\nECO,f01,0.5,0.5,0.0\n")
    return out


def _schema_4_directory(out):
    """One run as schema 4 laid it out: results.csv, meta.json and each
    problem's traces in a numpy archive."""
    (out / "traces").mkdir(parents=True)
    (out / "meta.json").write_text(json.dumps(
        {"schema_version": 4, "algorithms": ["ECO"], "problems": ["f01"],
         "runs": 1}))
    (out / "results.csv").write_text(
        ",".join(f.name for f in fields(RunRecord) if f.name != "trace")
        + "\nECO,f01,2,0,7,0.5 0.5,0.5,0.5,0.0,1,12,0.01\n")
    np.savez(out / "traces" / "0.npz", algorithm=np.array(["ECO"]), run=np.array([0]),
             length=np.array([2]), fes=np.array([6, 12]), best=np.array([1.5, 0.5]))
    (out / "summary.csv").write_text(
        "algorithm,problem,best,mean,std\nECO,f01,0.5,0.5,0.0\n")
    return out


# Each folder of an older schema and the files of it that load and persist
# name.
_OLDER_SCHEMAS = {
    _schema_1_directory: "meta.json, results.csv, traces, solutions.csv",
    _schema_2_directory: "meta.json, results.csv, traces.csv",
    _schema_3_directory: "meta.json, results.csv, traces",
    _schema_4_directory: "meta.json, results.csv, traces",
}


@pytest.mark.parametrize("make", [_schema_999_directory, *_OLDER_SCHEMAS])
def test_load_rejects_schema_mismatch(tmp_path, capsys, make):
    out = make(tmp_path / "out")
    if make in _OLDER_SCHEMAS:
        message = "%s holds %s, results written with schema 4 or older; this build reads %d" % (
            out, _OLDER_SCHEMAS[make], SCHEMA_VERSION)
    else:
        message = "schema 999; this build reads %d" % SCHEMA_VERSION
    with pytest.raises(SchemaMismatchError, match=re.escape(message)):
        load(out)
    assert cli.main(["compare", "--results", str(out)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("make", _OLDER_SCHEMAS)
def test_persist_refuses_a_folder_of_an_older_schema_and_deletes_nothing(
        tmp_path, capsys, monkeypatch, make):
    out = make(tmp_path / "out")
    before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
    expected = ("cannot write results to %s: it holds %s, written under schema 4 or "
                "older; move them away first" % (out, _OLDER_SCHEMAS[make]))
    with pytest.raises(FileExistsError, match="^%s$" % re.escape(expected)):
        persist(_tiny_batch(), out)
    monkeypatch.setattr(harness, "run_single", None)   # no run may start
    capsys.readouterr()
    assert cli.main(["run", "--algorithms", "ECO", "--problems", "f01", "--runs", "1",
                     "--n", "6", "--fes-max", "60", "--dim", "5", "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", "error: %s\n" % expected)
    assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before


# The last row of _tiny_batch's results file.
LAST_CELL = "cell (IECO-MCO, f02-rosenbrock-d5, run 2)"


def _drop_last_trace(out):
    """The last row keeps its length but loses its points."""
    kept = 120 - results_arrays(out)["length"][-1]
    rewrite_results(out, lambda a: {**a, "trace": a["trace"][:kept]})
    return ["%s: " % (out / "results.npz"), "do not split the %d entries of array "
            "'trace', first at %s" % (kept, LAST_CELL)]


def _add_a_trace_value(out):
    """A point after the last row's, which no row holds."""
    rewrite_results(out, lambda a: {**a, "trace": np.append(a["trace"], a["trace"][-1])})
    return ["%s: " % (out / "results.npz"), "do not split the 121 entries of array "
            "'trace'"]


def _bad_position(out):
    """The last row's position is one coordinate short."""
    rewrite_results(out, lambda a: {**a, "best_position": a["best_position"][:-1]})
    return ["%s: " % (out / "results.npz"), "do not split the 59 entries of array "
            "'best_position', first at %s" % LAST_CELL]


@pytest.mark.parametrize("corrupt", [_drop_last_trace, _add_a_trace_value,
                                     _bad_position])
def test_load_names_the_file_and_cell_it_cannot_read(tmp_path, corrupt):
    rs = _tiny_batch()
    out = persist(rs, tmp_path / "out")
    expected = corrupt(out)
    with pytest.raises(BrokenResultsError) as err:
        load(out)
    for text in expected:
        assert text in str(err.value)


def _truncate(out):
    path = out / "results.npz"
    path.write_bytes(path.read_bytes()[:-100])


def _save_one_array(out):
    with open(out / "results.npz", "wb") as fh:
        np.save(fh, np.arange(3))


def _flip_a_byte(out):
    path = out / "results.npz"
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    path.write_bytes(bytes(blob))


def _deflated_trace(patch):
    """Rewrite the results file as ``numpy.savez_compressed`` does, then
    ``patch(blob, local, central)`` its bytes, given the offsets of the trace
    member's local header and of its central directory entry."""
    def corrupt(out):
        path = out / "results.npz"
        np.savez_compressed(path, **results_arrays(out))
        with zipfile.ZipFile(path) as zf:
            local = zf.getinfo("trace.npy").header_offset
        blob = bytearray(path.read_bytes())
        patch(blob, local, blob.rindex(b"trace.npy") - 46)
        path.write_bytes(bytes(blob))
    return corrupt


def _invalid_block_type(blob, local, central):
    """Set the BTYPE bits of the first deflate block to 11, which no block
    type has."""
    name_length, extra_length = struct.unpack_from("<HH", blob, local + 26)
    blob[local + 30 + name_length + extra_length] |= 0b110


def _method_99(blob, local, central):
    """Name the compression method 99, which zipfile does not know."""
    struct.pack_into("<H", blob, local + 8, 99)
    struct.pack_into("<H", blob, central + 10, 99)


def _change(**changes):
    """Rewrite the results file with each named array replaced by
    ``change(old array)``, or dropped where ``change`` is None."""
    def corrupt(out):
        rewrite_results(out, lambda a: {
            name: changes[name](old) if name in changes else old
            for name, old in a.items() if changes.get(name, True) is not None})
    return corrupt


def _write_npy(fh, array, fortran_order=False, shape=None):
    """Write ``array`` as an npy 1.0 member whose header declares
    ``fortran_order`` and ``shape`` (by default the array's)."""
    np.lib.format.write_array_header_1_0(fh, {
        "descr": np.lib.format.dtype_to_descr(array.dtype),
        "fortran_order": fortran_order,
        "shape": array.shape if shape is None else shape})
    fh.write(array.tobytes(order="F" if fortran_order else "C"))


def _rewrite_members(out, default=_write_npy, **writers):
    """Rewrite the results file under ``out``, each array written by
    ``writers[name](fh, array)``, else by ``default``; ``zipfile`` gives
    each member its CRC."""
    arrays = results_arrays(out)
    with zipfile.ZipFile(out / "results.npz", "w") as zf:
        for name, array in arrays.items():
            with zf.open(name + ".npy", "w") as fh:
                writers.get(name, default)(fh, array)


# Each way the results file can be broken, and what the error says about it.
_BROKEN_TRACES = {
    "truncated": (_truncate, "is not a results file"),
    "empty": (lambda out: (out / "results.npz").write_bytes(b""),
              "is not a results file"),
    "csv text": (lambda out: (out / "results.npz").write_text("algorithm,problem,run\n"),
                 "is not a results file"),
    "one array": (_save_one_array, "is not a results file: File is not a zip file"),
    "flipped byte": (_flip_a_byte, "is not a results file"),
    "missing array": (_change(length=None), "array 'length' is missing"),
    "missing meta": (_change(meta=None), "array 'meta' is missing or not 0-d str"),
    "object array": (_change(algorithm=lambda a: a.astype(object)),
                     "is not a results file"),
    "int32 runs": (_change(run=lambda a: a.astype(np.int32)),
                   "array 'run' is 1-D int32; expected 1-D int64"),
    "int64 seeds": (_change(seed=lambda a: a.astype(np.int64)),
                    "array 'seed' is 1-D int64; expected 1-D uint64"),
    "float counts": (_change(length=lambda a: a.astype(float)),
                     "array 'length' is 1-D float64; expected 1-D int64"),
    "float trace": (_change(trace=lambda a: a["best"]),
                    "array 'trace' is 1-D float64; expected 1-D [('fes', '<i8')"),
    "2-D best": (_change(best_fitness=lambda a: a.reshape(2, -1)),
                 "array 'best_fitness' is 2-D"),
    "bytes labels": (_change(algorithm=lambda a: a.astype("S")),
                     "array 'algorithm' is 1-D |S8; expected 1-D str"),
    "1-D meta": (_change(meta=lambda a: a.reshape(1)),
                 "array 'meta' is missing or not 0-d str"),
    "lengths short": (_change(length=lambda a: a - 1),
                      "the lengths in array 'length' do not split the 120 entries"),
    "positions short": (_change(best_position=lambda a: a[:-1]),
                        "the lengths in array 'position_length' do not split the 59"),
    "a run too many": (_change(run=lambda a: np.append(a, 7)),
                       "array 'run' holds 13 rows; array 'algorithm' 12"),
    "a run too few": (_change(run=lambda a: a[:-1]),
                      "array 'run' holds 11 rows; array 'algorithm' 12"),
    "negative length": (_change(length=lambda a: a * np.r_[-1, 1, 1, 1, 1, 3, [1] * 6]),
                        "the lengths in array 'length' do not split"),
    "npy version 3.0": (lambda out: _rewrite_members(out, run=lambda fh, a: (
        np.lib.format.write_array(fh, a, version=(3, 0)))),
        "is not a results file: array 'run' is npy version 3.0"),
    "trace an entry short": (lambda out: _rewrite_members(out, trace=lambda fh, a: (
        _write_npy(fh, a, shape=(len(a) + 1,)))),
        "is not a results file: array 'trace' holds 1920 bytes; its shape (121,) needs 1936"),
    "negative shape": (lambda out: _rewrite_members(out, length=lambda fh, a: (
        _write_npy(fh, a, shape=(-1,)))),
        "is not a results file: array 'length' declares the shape (-1,)"),
    "invalid deflate block": (_deflated_trace(_invalid_block_type),
                              "is not a results file: Error -3 while decompressing"),
    "compression method 99": (_deflated_trace(_method_99),
                              "is not a results file: That compression method is not"),
}


@pytest.mark.parametrize("broken", _BROKEN_TRACES)
def test_a_broken_traces_file_is_named_and_fails_the_cli(tmp_path, capsys,
                                                         broken):
    """The results file holds every trace, so a broken one fails every
    command that reads the set, whichever problem it reports on."""
    corrupt, message = _BROKEN_TRACES[broken]
    out = persist(_tiny_batch(), tmp_path / "out")
    path = out / "results.npz"
    corrupt(out)
    with pytest.raises(BrokenResultsError, match="^%s" % re.escape(str(path))) as err:
        load(out)
    assert message in str(err.value)
    for argv in (["export-trace", "--problem", "f01"], ["compare"], ["stats"]):
        capsys.readouterr()
        assert cli.main(argv + ["--results", str(out)]) == 1
        assert capsys.readouterr().err == "failed: %s\n" % err.value


@pytest.mark.parametrize("change", ["append a row", "delete"])
def test_a_loaded_set_does_not_read_its_traces_files_again(tmp_path, change):
    rs = _tiny_batch()
    out = persist(rs, tmp_path / "out")
    back = load(out)
    if change == "delete":
        (out / "results.npz").unlink()
    else:
        rewrite_results(out, lambda a: {
            **a, **{name: np.append(a[name], a[name][-1]) for name in (
                *(f.name for f in fields(RunRecord) if f.type != "np.ndarray"),
                "position_length", "length")},
            "best_position": np.append(a["best_position"], np.zeros(5)),
            "trace": np.append(a["trace"], a["trace"][-a["length"][-1]:])})
    assert back == rs
    assert export_trace(back, "f01-zakharov-d5")[0][0] == 6


def test_each_problems_traces_file_is_opened_once(tmp_path, monkeypatch):
    """Loading a set opens the one file that holds every problem's traces
    once, also when the labels hold a quote, a comma or a line break;
    comparing its traces opens nothing."""
    labels = {"f01-zakharov-d5": 'f01 "a,\r\nb"', "f02-rosenbrock-d5": "f02"}
    rs = _tiny_batch()
    meta = {k: v for k, v in rs.metadata.items() if k != "config_hash"}
    meta["problems"] = [labels[p] for p in meta["problems"]]
    rs = ResultSet({(a, labels[p], r): replace(rec, problem=labels[p])
                    for (a, p, r), rec in rs.records.items()}, meta)
    out = persist(rs, tmp_path / "out")
    opened = []

    def spy(path, *args, **kwargs):
        opened.append(Path(path))
        return open(path, *args, **kwargs)

    monkeypatch.setattr(harness, "open", spy, raising=False)
    back = load(out)
    assert back == rs
    assert back == rs
    assert opened == [out / "results.npz"]


def test_results_file_with_a_wrong_header_is_a_runtime_failure(tmp_path,
                                                                capsys):
    """The first bytes are the header of the archive's first member."""
    out = persist(_tiny_batch(), tmp_path / "out")
    path = out / "results.npz"
    blob = bytearray(path.read_bytes())
    blob[0:4] = b"PK\x05\x09"
    path.write_bytes(bytes(blob))
    with pytest.raises(BrokenResultsError, match="is not a results file"):
        load(out)
    assert cli.main(["compare", "--results", str(out)]) == 1
    assert "failed: %s is not a results file: " % path in capsys.readouterr().err


def _repeat_row_0(a):
    """Row 1 repeats row 0 whole, position and trace included, as a repeated
    line of results.csv did before schema 5."""
    rows = np.r_[0, 0, 2:len(a["run"])]
    changed = {name: a[name][rows] for name in a
               if name not in ("meta", "best_position", "trace")}
    for lengths, joined in (("position_length", "best_position"), ("length", "trace")):
        starts = np.r_[0, np.cumsum(a[lengths])]
        changed[joined] = np.concatenate([a[joined][starts[i]:starts[i + 1]]
                                          for i in rows])
    return {**a, **changed}


@pytest.mark.parametrize("repeat", [
    _repeat_row_0, lambda a: {**a, "run": np.r_[0, 0, a["run"][2:]]}],
    ids=["whole row", "run label"])
def test_a_cell_listed_twice_in_results_npz_is_named(tmp_path, capsys, repeat):
    """Row 1 repeats the cell of row 0, whole or by its run label alone, so
    run 1 of ECO on f01 is lost."""
    out = persist(_tiny_batch(), tmp_path / "out")
    rewrite_results(out, repeat)
    expected = "%s: cell (ECO, f01-zakharov-d5, run 0) is listed twice" % (
        out / "results.npz")
    with pytest.raises(BrokenResultsError) as err:
        load(out)
    assert str(err.value) == expected
    assert cli.main(["compare", "--results", str(out)]) == 1
    assert capsys.readouterr().err == "failed: %s\n" % expected


@pytest.mark.parametrize("blocker", ["missing", "a directory"])
def test_a_missing_results_file_is_a_broken_set(tmp_path, capsys, blocker):
    out = persist(_tiny_batch(), tmp_path / "out")
    path = out / "results.npz"
    path.unlink()
    if blocker == "missing":
        expected = "%s is missing" % path
    else:
        path.mkdir()
        expected = "%s is not a results file: [Errno 21] Is a directory: %r" % (
            path, str(path))
    with pytest.raises(BrokenResultsError, match="^%s$" % re.escape(expected)):
        load(out)
    for argv in (["compare"], ["stats"], ["export-trace", "--problem", "f01"]):
        capsys.readouterr()
        assert cli.main(argv + ["--results", str(out)]) == 1
        assert capsys.readouterr().err == "failed: %s\n" % expected


# The arrays of the results file that hold what results.csv and traces/
# held before schema 5.
_MEMBERS_OF = {
    "results.csv": (*(f.name for f in fields(RunRecord) if f.type != "np.ndarray"),
                    "position_length", "best_position"),
    "traces": ("length", "trace"),
}


@pytest.mark.parametrize("missing", _MEMBERS_OF)
def test_a_file_missing_after_meta_json_is_a_broken_set(tmp_path, capsys, missing):
    """A results file holding its ``meta`` but not the arrays of one former
    file is a broken set, not one of another schema."""
    out = persist(_tiny_batch(), tmp_path / "out")
    rewrite_results(out, lambda a: {name: v for name, v in a.items()
                                    if name not in _MEMBERS_OF[missing]})
    expected = "%s: array %r is missing" % (out / "results.npz", _MEMBERS_OF[missing][0])
    with pytest.raises(BrokenResultsError, match="^%s$" % re.escape(expected)):
        load(out)
    for argv in (["compare"], ["stats"], ["export-trace", "--problem", "f01"]):
        capsys.readouterr()
        assert cli.main(argv + ["--results", str(out)]) == 1
        assert capsys.readouterr().err == "failed: %s\n" % expected


def _cut_last_row(a):
    return {name: a[name][:-1] for name in ("algorithm", "problem", "run")}


def _cut_every_f01_row(a):
    keep = a["problem"] != "f01-zakharov-d5"
    return {name: a[name][keep] for name in ("algorithm", "problem", "run")}


# Rows cut from the label and run arrays but not from the rest, and what load
# then says about the arrays that still hold the cut cells' values.
_CUT_RESULTS = {
    "last row": (_cut_last_row, "array 'dimension' holds 12 rows; array 'algorithm' 11"),
    "a problem's rows": (_cut_every_f01_row,
                         "array 'dimension' holds 12 rows; array 'algorithm' 6"),
}


@pytest.mark.parametrize("cut", _CUT_RESULTS)
def test_a_traces_entry_without_a_results_row_is_a_broken_set(tmp_path, capsys, cut):
    keep, message = _CUT_RESULTS[cut]
    out = persist(_tiny_batch(), tmp_path / "out")
    rewrite_results(out, lambda a: {**a, **keep(a)})
    with pytest.raises(BrokenResultsError) as err:
        load(out)
    assert str(err.value) == "%s: %s" % (out / "results.npz", message)
    for argv in (["compare"], ["stats", "--test", "kw"],
                 ["export-trace", "--problem", "f02"]):
        capsys.readouterr()
        assert cli.main(argv + ["--results", str(out)]) == 1
        assert capsys.readouterr().err == "failed: %s\n" % err.value


@pytest.mark.parametrize("text, problem", [
    ("{not json", "is not JSON: Expecting property name"),
    ("", "is not JSON: Expecting value"),
    ("[1, 2]", "is not a JSON object"),
    ('"schema 4"', "is not a JSON object"),
])
def test_a_broken_meta_json_names_itself(tmp_path, capsys, text, problem):
    out = persist(_tiny_batch(), tmp_path / "out")
    path = out / "results.npz"
    rewrite_results(out, lambda a: {**a, "meta": np.array(text)})
    with pytest.raises(BrokenResultsError, match="^%s: meta %s" % (re.escape(str(path)),
                                                                    problem)):
        load(out)
    assert cli.main(["stats", "--results", str(out)]) == 1
    assert capsys.readouterr().err.startswith("failed: %s: meta %s" % (path, problem))


def test_a_results_path_that_is_no_set_directory_is_a_usage_error(tmp_path, capsys):
    out = persist(_tiny_batch(), tmp_path / "out")
    for where in (out / "results.npz", out / "results.npz" / "deeper", tmp_path / "none"):
        assert cli.main(["compare", "--results", str(where)]) == 2
        assert capsys.readouterr().err.startswith("error: cannot read results: ")


def test_two_loaded_sets_compare_equal_trace_by_trace(tmp_path):
    rs = _tiny_batch()
    a, b = (load(persist(rs, tmp_path / name)) for name in ("a", "b"))
    key = ("ECO", "f01-zakharov-d5", 0)
    assert np.array_equal(a.records[key].trace, b.records[key].trace)
    assert a == b
    b.records[key] = replace(b.records[key], trace=b.records[key].trace[:-1])
    assert a != b


def test_persist_over_the_set_it_loaded_gives_it_back(tmp_path):
    rs = _tiny_batch()
    out = persist(rs, tmp_path / "out")
    written = stable_arrays(out)
    persist(load(out), out)
    assert load(out) == rs
    assert stable_arrays(out) == written


def test_persist_replaces_the_traces_of_the_set_there_before(tmp_path):
    out = persist(_tiny_batch(problems=("f01", "f02", "f03")), tmp_path / "out")
    rs = _tiny_batch(problems=("f04",))
    persist(rs, out)
    assert sorted(p.name for p in out.iterdir()) == ["results.npz", "summary.csv"]
    assert load(out) == rs


def test_a_persist_that_fails_part_way_leaves_the_set_there_before(tmp_path,
                                                                     monkeypatch):
    """The new set is written to results.npz.part and moved into place only
    once whole; a failed persist removes its .part, load ignores a .part a
    killed process leaves, and the next persist writes over it."""
    rs = _tiny_batch()
    out = persist(rs, tmp_path / "out")
    before = (out / "results.npz").read_bytes()

    def fail(*args):
        raise OSError("No space left on device")

    with monkeypatch.context() as patch:
        patch.setattr(np.lib.format, "write_array_header_1_0", fail)
        with pytest.raises(OSError, match="No space left"):
            persist(_tiny_batch(problems=("f03",)), out)
    assert (out / "results.npz").read_bytes() == before
    assert not (out / "results.npz.part").exists()
    (out / "results.npz.part").write_bytes(before[:len(before) // 2])
    assert load(out) == rs
    other = _tiny_batch(problems=("f03",))
    persist(other, out)
    assert sorted(p.name for p in out.iterdir()) == ["results.npz", "summary.csv"]
    assert load(out) == other


def test_persist_and_load_keep_no_second_copy_of_the_traces(tmp_path):
    """persist streams each record's trace into the file, and load makes
    each record's trace a slice of the one array it reads."""
    fes = np.arange(1001, dtype=np.int64) * 30
    records = {}
    for i in range(600):
        trace = np.empty(1001, dtype=TRACE_DTYPE)
        trace["fes"], trace["best"] = fes, np.linspace(1.0, 0.0, 1001) + i
        records[("A%d" % (i % 5), "p%02d" % (i // 50), i % 50 // 5)] = RunRecord(
            algorithm="A%d" % (i % 5), problem="p%02d" % (i // 50), dimension=10,
            run=i % 50 // 5, seed=i, best_position=np.zeros(10), best_fitness=float(i),
            best_objective=float(i), best_violation=0.0, feasible=True, trace=trace,
            evaluations_used=30000, wall_time=1.0)
    rs = ResultSet(records, {"schema_version": SCHEMA_VERSION})
    nbytes = sum(rec.trace.nbytes for rec in records.values())
    tracemalloc.start()
    try:
        persist(rs, tmp_path / "out")
        persist_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        back = load(tmp_path / "out")
        load_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert back == rs
    assert persist_peak < 0.25 * nbytes
    assert load_peak < 1.5 * nbytes


def test_persist_writes_the_hash_of_the_written_payload(tmp_path):
    rs = _tiny_batch()
    # A set written under schema 1 carries the hash of its schema-1 payload.
    rs.metadata["schema_version"] = 1
    rs.metadata["config_hash"] = config_hash(
        {k: v for k, v in rs.metadata.items() if k not in ("config_hash", "created_at")})
    meta = json.loads(results_arrays(persist(rs, tmp_path / "out"))["meta"].item())
    assert meta["schema_version"] == SCHEMA_VERSION
    assert meta["config_hash"] == config_hash(
        {k: v for k, v in meta.items() if k not in ("config_hash", "created_at")})


def test_summary_matches_recomputation(tmp_path):
    rs = _tiny_batch()
    for row in rs.summary():
        vals = np.array([rec.best_fitness for (a, p, _), rec in rs.records.items()
                         if a == row["algorithm"] and p == row["problem"]])
        assert (row["best"], row["mean"], row["std"]) == (
            vals.min(), vals.mean(), vals.std())


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bests,mean", [((np.inf,), np.inf),
                                        ((np.inf, -np.inf), np.nan)])
def test_summary_of_a_non_finite_best_has_nan_std_and_no_warning(tmp_path, bests, mean):
    rs = _tiny_batch()
    keys = sorted(rs.records)
    for key, best in zip(keys, bests):
        rs.records[key] = replace(rs.records[key], best_fitness=best)
    row = next(r for r in rs.summary()
               if (r["algorithm"], r["problem"]) == keys[0][:2])
    assert np.array_equal(row["mean"], mean, equal_nan=True)
    assert np.isnan(row["std"])
    persist(rs, tmp_path / "out")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bests", [(1.7e308, 1.7e308), (1.7e308, -1.7e308)])
def test_summary_of_bests_near_the_float_limit_warns_nothing(tmp_path, bests):
    """The sum or the squared deviations of such bests overflow; the mean
    and std are still the finite ones."""
    rs = _tiny_batch(runs=2)
    keys = sorted(rs.records)
    for key, best in zip(keys, bests):
        rs.records[key] = replace(rs.records[key], best_fitness=best)
    rows = rs.summary()
    assert len(rows) == 4
    expected = {(1.7e308, 1.7e308): (1.7e308, 0.0),
                (1.7e308, -1.7e308): (0.0, 1.7e308)}[bests]
    assert (rows[0]["mean"], rows[0]["std"]) == expected
    assert all(np.isfinite([row["mean"], row["std"]]).all() for row in rows)
    out = persist(rs, tmp_path / "out")
    assert "ECO,%s,%r,%r,%r\n" % (keys[0][1], min(bests), *expected) in (
        out / "summary.csv").read_text()


def _assert_nul_label_refused(tmp_path, field):
    """A str array drops a trailing NUL, so the label would not load back;
    persist refuses it before it writes anything."""
    out = persist(_tiny_batch(), tmp_path / "out")
    before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
    rs = _tiny_batch(problems=("f03",))
    key = ("ECO", rs.problems[0], 1)
    label = getattr(rs.records[key], field) + "\0"
    rs.records[key] = replace(rs.records[key], **{field: label})
    for where in (out, tmp_path / "new"):
        with pytest.raises(ValueError, match=re.escape(repr(label))):
            persist(rs, where)
    assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before
    assert not (tmp_path / "new").exists()


def test_persist_refuses_a_nul_in_an_algorithm_label_before_writing(tmp_path):
    _assert_nul_label_refused(tmp_path, "algorithm")


def test_persist_refuses_a_nul_in_a_problem_label_before_writing(tmp_path):
    _assert_nul_label_refused(tmp_path, "problem")


def _run_into(out):
    return cli.main(["run", "--algorithms", "ECO", "--problems", "f01", "--runs", "1",
                     "--n", "6", "--fes-max", "60", "--dim", "5", "--out", str(out)])


@pytest.mark.parametrize("blocker", ["file", "symlink"])
def test_persist_refuses_a_traces_path_it_cannot_replace_before_writing(
        tmp_path, capsys, blocker):
    """A traces folder, file or symbolic link is what schema 4 left there;
    persist and ``mco run`` leave it and the set beside it alone."""
    out = persist(_tiny_batch(), tmp_path / "out")
    if blocker == "file":
        (out / "traces").write_text("keep\n")
    else:
        (tmp_path / "elsewhere").mkdir()
        (tmp_path / "elsewhere" / "mine.txt").write_text("keep\n")
        (out / "traces").symlink_to(tmp_path / "elsewhere", target_is_directory=True)
    before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
    expected = "it holds traces, written under schema 4 or older"
    with pytest.raises(FileExistsError, match=re.escape(expected)):
        persist(_tiny_batch(problems=("f03",)), out)
    assert _run_into(out) == 2
    assert expected in capsys.readouterr().err
    assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before


@pytest.mark.parametrize("name", ["results.npz", "results.npz.part", "summary.csv",
                                  "results.csv", "meta.json", "traces.csv"])
def test_persist_refuses_a_file_path_it_cannot_replace_before_writing(
        tmp_path, capsys, monkeypatch, name):
    """A directory where persist writes a file would stop it part way, and
    one named as a file of an older schema would be left beside the set.
    Neither persist nor ``mco run`` writes anything, and ``mco run`` exits
    2 before its first run."""
    out = persist(_tiny_batch(), tmp_path / "out")
    (out / name).unlink(missing_ok=True)
    (out / name).mkdir()
    (out / name / "mine.txt").write_text("keep\n")
    before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
    if name.startswith(("results.npz", "summary")):
        reason = "%s is not a regular file" % (out / name)
    else:
        reason = "it holds %s, written under schema 4 or older; move them away first" % name
    expected = "cannot write results to %s: %s" % (out, reason)
    with pytest.raises(FileExistsError, match="^%s$" % re.escape(expected)):
        persist(_tiny_batch(problems=("f03",)), out)
    monkeypatch.setattr(harness, "run_single", None)   # no run may start
    capsys.readouterr()
    assert _run_into(out) == 2
    assert capsys.readouterr() == ("", "error: %s\n" % expected)
    assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before


# meta lists that do not name the cells of the rows, by the list that load
# then names.
_OTHER_LISTS = {
    "a problem no row holds": ("problems", ["f01-zakharov-d5", "f02-rosenbrock-d5",
                                            "f03-rastrigin-d5"]),
    "a problem short": ("problems", ["f02-rosenbrock-d5"]),
    "a problem twice": ("problems", ["f01-zakharov-d5", "f02-rosenbrock-d5",
                                     "f02-rosenbrock-d5"]),
    "another algorithm": ("algorithms", ["ECO", "GECO"]),
    "a label, not a list": ("algorithms", "ECO"),
}


@pytest.mark.parametrize("other", _OTHER_LISTS)
def test_a_meta_json_listing_other_cells_than_the_rows_is_a_broken_set(
        tmp_path, capsys, other):
    what, listed = _OTHER_LISTS[other]
    out = persist(_tiny_batch(), tmp_path / "out")
    rewrite_meta(out, lambda meta: {**meta, what: listed})
    named = {"algorithms": ["ECO", "IECO-MCO"],
             "problems": ["f01-zakharov-d5", "f02-rosenbrock-d5"]}[what]
    expected = "%s: meta lists the %s %s; the rows hold %s" % (
        out / "results.npz", what, listed, named)
    with pytest.raises(BrokenResultsError, match="^%s$" % re.escape(expected)):
        load(out)
    for argv in (["compare"], ["stats"], ["export-trace", "--problem", "f01"]):
        capsys.readouterr()
        assert cli.main(argv + ["--results", str(out)]) == 1
        assert capsys.readouterr() == ("", "failed: %s\n" % expected)
    # the cells of the rows, in any order, load
    rewrite_meta(out, lambda meta: {**meta, what: named[::-1]})
    assert getattr(load(out), what) == named[::-1]


def test_a_record_is_read_only_and_its_trace_a_1d_array(tmp_path):
    """A trace cannot be replaced after construction, so each record that
    reaches persist or export_trace holds the array its constructor made."""
    rs = _tiny_batch(problems=("f03", "f04"))
    key = ("IECO-MCO", rs.problems[1], 2)
    rec = rs.records[key]
    trace = rec.trace
    with pytest.raises(FrozenInstanceError):
        rec.trace = trace.tolist()
    assert rec.trace is trace
    assert replace(rec, trace=trace.tolist()) == rec
    with pytest.raises(ValueError, match=re.escape("not of shape (1, %d)" % len(trace))):
        replace(rec, trace=trace[None])
    assert load(persist(rs, tmp_path / "out")) == rs


def test_persisted_bytes_are_reproducible(tmp_path):
    """Two writes of one batch hold equal arrays apart from wall_time, and
    metadata apart from the timestamp."""
    a = persist(_tiny_batch(), tmp_path / "a")
    b = persist(_tiny_batch(), tmp_path / "b")
    assert stable_arrays(a) == stable_arrays(b)
    assert (a / "summary.csv").read_bytes() == (b / "summary.csv").read_bytes()
    assert sorted(p.name for p in a.iterdir()) == ["results.npz", "summary.csv"]


def test_config_hash_sensitivity():
    payload = {"algorithms": ["ECO"], "runs": 3, "base_seed": 0}
    h = config_hash(payload)
    assert h == config_hash(dict(payload))
    for key, val in (("runs", 4), ("base_seed", 1), ("algorithms", ["X"])):
        changed = dict(payload)
        changed[key] = val
        assert config_hash(changed) != h


# -------------------------------------------------------------- trace export


def test_export_trace_shape_and_monotonicity():
    rs = _tiny_batch()
    grid, series = export_trace(rs, rs.problems[0])
    assert set(series) == {"ECO", "IECO-MCO"}
    assert grid[0] == 6                 # population size
    assert grid[-1] == 60               # fes_max
    for vals in series.values():
        assert len(vals) == len(grid)
        assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))


def test_export_trace_unknown_cell():
    rs = _tiny_batch()
    with pytest.raises(KeyError):
        export_trace(rs, "no-such-problem")
    with pytest.raises(KeyError):
        export_trace(rs, rs.problems[0], algorithms=["ECO", "GECO"])


def test_export_trace_without_trace_data():
    rs = _tiny_batch()
    rs.records = {key: replace(rec, trace=[]) for key, rec in rs.records.items()}
    with pytest.raises(ValueError, match="no trace data for problem"):
        export_trace(rs, rs.problems[0])
