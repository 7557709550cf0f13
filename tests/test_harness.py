"""Run execution, budgets, batch determinism, and persistence tests."""

import csv
import json
import re
import shutil
from dataclasses import FrozenInstanceError, fields, replace
from pathlib import Path

import numpy as np
import pytest

from ieco_mco import cli, covariance, harness, stages
from ieco_mco.harness import (
    SCHEMA_VERSION,
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

from support import drop_last_trace, rewrite_traces, sphere_spec, traces_bytes

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
    with open(tmp_path / "results.csv", newline="") as fh:
        assert next(csv.DictReader(fh))["best_violation"] == "0.0"
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
    meta = json.loads((out / "meta.json").read_text())
    meta["schema_version"] = 999
    (out / "meta.json").write_text(json.dumps(meta))
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


@pytest.mark.parametrize("make", [_schema_999_directory, _schema_1_directory,
                                  _schema_2_directory, _schema_3_directory])
def test_load_rejects_schema_mismatch(tmp_path, capsys, make):
    out = make(tmp_path / "out")
    version = json.loads((out / "meta.json").read_text())["schema_version"]
    message = "schema %d; this build reads %d" % (version, SCHEMA_VERSION)
    with pytest.raises(SchemaMismatchError, match=message):
        load(out)
    assert cli.main(["compare", "--results", str(out)]) == 2
    assert message in capsys.readouterr().err


def _rewrite_last_row(path, change):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    change(rows[0], rows[-1])
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    return "%s line %d" % (path, len(rows))


# The traces files of _tiny_batch: f01-zakharov-d5 is 0.npz, f02-rosenbrock-d5
# is 1.npz; each file's last trace is IECO-MCO's run 2.
LAST_CELL = "cell (IECO-MCO, f02-rosenbrock-d5, run 2)"


def _drop_last_trace(out):
    path = out / "traces" / "1.npz"
    drop_last_trace(path)
    return ["%s has no trace for %s" % (path, LAST_CELL)]


def _add_a_trace_value(out):
    path = out / "traces" / "1.npz"
    rewrite_traces(path, lambda a: {**a, "fes": np.append(a["fes"], 120)})
    return ["%s: " % path, "do not split 61 evaluation counts and 60 best values"]


def _bad_position(out):
    def change(header, row):
        row[header.index("best_position")] = "nan-ish 1.0"
    return [_rewrite_last_row(out / "results.csv", change), LAST_CELL]


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


def _truncate(path):
    path.write_bytes(path.read_bytes()[:-100])


def _save_one_array(path):
    with open(path, "wb") as fh:
        np.save(fh, np.arange(3))


def _flip_a_byte(path):
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    path.write_bytes(bytes(blob))


# Each way a traces file can be broken, and what the error says about it.
_BROKEN_TRACES = {
    "truncated": (_truncate, "is not a traces file"),
    "empty": (lambda path: path.write_bytes(b""), "is not a traces file"),
    "csv text": (lambda path: path.write_text("algorithm,problem,run\n"),
                 "is not a traces file"),
    "one array": (_save_one_array, "not an archive"),
    "flipped byte": (_flip_a_byte, "is not a traces file"),
    "missing array": (lambda path: rewrite_traces(path, lambda a: {
        k: v for k, v in a.items() if k != "length"}), "length"),
    "object array": (lambda path: rewrite_traces(path, lambda a: {
        **a, "algorithm": a["algorithm"].astype(object)}), "is not a traces file"),
    "int32 runs": (lambda path: rewrite_traces(path, lambda a: {
        **a, "run": a["run"].astype(np.int32)}), "array 'run' is 1-D <i4"),
    "float counts": (lambda path: rewrite_traces(path, lambda a: {
        **a, "fes": a["fes"].astype(float)}), "array 'fes' is 1-D <f8"),
    "2-D best": (lambda path: rewrite_traces(path, lambda a: {
        **a, "best": a["best"].reshape(2, -1)}), "array 'best' is 2-D"),
    "bytes labels": (lambda path: rewrite_traces(path, lambda a: {
        **a, "algorithm": a["algorithm"].astype("S")}), "array 'algorithm'"),
    "lengths short": (lambda path: rewrite_traces(path, lambda a: {
        **a, "length": a["length"] - 1}), "do not split"),
    "a run too many": (lambda path: rewrite_traces(path, lambda a: {
        **a, "run": np.append(a["run"], 7)}), "do not split"),
    "negative length": (lambda path: rewrite_traces(path, lambda a: {
        **a, "length": a["length"] * np.array([-1, 1, 1, 1, 1, 3])}),
        "do not split"),
}


@pytest.mark.parametrize("broken", _BROKEN_TRACES)
def test_a_broken_traces_file_is_named_and_fails_the_cli(tmp_path, capsys,
                                                         broken):
    corrupt, message = _BROKEN_TRACES[broken]
    out = persist(_tiny_batch(), tmp_path / "out")
    path = out / "traces" / "1.npz"
    corrupt(path)
    with pytest.raises(BrokenResultsError, match="^%s" % re.escape(str(path))) as err:
        load(out)
    assert message in str(err.value)
    # load reads every traces file, so each command fails on this one, also
    # when it exports the other problem's traces.
    for argv in (["export-trace", "--problem", "f01"], ["compare"], ["stats"]):
        capsys.readouterr()
        assert cli.main(argv + ["--results", str(out)]) == 1
        assert str(path) in capsys.readouterr().err


@pytest.mark.parametrize("change", ["append a row", "delete"])
def test_a_loaded_set_does_not_read_its_traces_files_again(tmp_path, change):
    rs = _tiny_batch()
    out = persist(rs, tmp_path / "out")
    back = load(out)
    path = out / "traces" / "0.npz"
    if change == "delete":
        path.unlink()
    else:
        rewrite_traces(path, lambda a: {
            "algorithm": np.append(a["algorithm"], "ECO"),
            "run": np.append(a["run"], 9), "length": np.append(a["length"], 1),
            "fes": np.append(a["fes"], 6), "best": np.append(a["best"], 1.5)})
    assert back == rs
    assert export_trace(back, "f01-zakharov-d5")[0][0] == 6


def test_each_problems_traces_file_is_opened_once(tmp_path, monkeypatch):
    """Loading a set opens each problem's traces file once, also when the
    labels hold a quote, a comma or a line break; comparing its traces
    opens nothing."""
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
    # sorted labels: 'f01 "a,\r\nb"' is 0.npz, "f02" is 1.npz
    assert sorted(opened) == [out / name for name in (
        "meta.json", "results.csv", "traces/0.npz", "traces/1.npz")]


def test_results_file_with_a_wrong_header_is_a_runtime_failure(tmp_path,
                                                                capsys):
    out = persist(_tiny_batch(), tmp_path / "out")
    path = out / "results.csv"
    path.write_text(path.read_text().replace("best_fitness", "fitness", 1))
    with pytest.raises(BrokenResultsError, match="line 1: expected the header"):
        load(out)
    assert cli.main(["compare", "--results", str(out)]) == 1
    assert "%s line 1: expected the header" % path in capsys.readouterr().err


def test_a_cell_listed_twice_in_results_csv_is_named(tmp_path, capsys):
    out = persist(_tiny_batch(), tmp_path / "out")
    path = out / "results.csv"
    lines = path.read_text().splitlines()
    lines[2] = lines[1]   # line 3 repeats line 2; run 1 of ECO on f01 is lost
    path.write_text("\n".join(lines) + "\n")
    expected = "%s line 3, cell (ECO, f01-zakharov-d5, run 0): listed twice" % path
    with pytest.raises(BrokenResultsError) as err:
        load(out)
    assert str(err.value) == expected
    assert cli.main(["compare", "--results", str(out)]) == 1
    assert capsys.readouterr().err == "failed: %s\n" % expected


def test_a_cell_listed_twice_in_a_traces_file_is_named(tmp_path, capsys):
    out = persist(_tiny_batch(), tmp_path / "out")
    path = out / "traces" / "1.npz"
    # a seventh entry, after the six runs, holds ECO's run 0 again
    rewrite_traces(path, lambda a: {
        "algorithm": np.append(a["algorithm"], "ECO"),
        "run": np.append(a["run"], 0), "length": np.append(a["length"], 1),
        "fes": np.append(a["fes"], 6), "best": np.append(a["best"], 1.5)})
    expected = "%s entry 6, cell (ECO, f02-rosenbrock-d5, run 0): listed twice" % path
    with pytest.raises(BrokenResultsError) as err:
        load(out)
    assert str(err.value) == expected
    assert cli.main(["compare", "--results", str(out)]) == 1
    assert capsys.readouterr().err == "failed: %s\n" % expected


@pytest.mark.parametrize("missing", ["results.csv", "traces", "traces/1.npz"])
def test_a_file_missing_after_meta_json_is_a_broken_set(tmp_path, capsys, missing):
    out = persist(_tiny_batch(), tmp_path / "out")
    path = out / missing
    if path.is_dir():
        shutil.rmtree(path)
    else:
        path.unlink()
    with pytest.raises(BrokenResultsError, match="^%s is missing$" % re.escape(str(path))):
        load(out)
    for argv in (["compare"], ["stats"], ["export-trace", "--problem", "f01"]):
        capsys.readouterr()
        assert cli.main(argv + ["--results", str(out)]) == 1
        assert capsys.readouterr().err == "failed: %s is missing\n" % path


def _cut_last_row(lines):
    return lines[:-1]


def _cut_every_f01_row(lines):
    return [line for line in lines if ",f01-zakharov-d5," not in line]


# A results.csv cut short and what load then says about the traces file
# that still holds the cut cells. Without its f01 rows the set has one
# problem, f02, whose traces file would be 0.npz: f01's traces, which the
# f02 rows would otherwise read without an error.
_CUT_RESULTS = {
    "last row": (_cut_last_row, " entry 5, cell (IECO-MCO, f02-rosenbrock-d5, "
                                "run 2): no row in "),
    "a problem's rows": (_cut_every_f01_row, " is the traces file of no problem in "),
}


@pytest.mark.parametrize("cut", _CUT_RESULTS)
def test_a_traces_entry_without_a_results_row_is_a_broken_set(tmp_path, capsys, cut):
    keep, message = _CUT_RESULTS[cut]
    out = persist(_tiny_batch(), tmp_path / "out")
    results = out / "results.csv"
    results.write_text("".join(keep(results.read_text().splitlines(keepends=True))))
    path = out / "traces" / "1.npz"
    with pytest.raises(BrokenResultsError) as err:
        load(out)
    assert str(err.value) == "%s%s%s" % (path, message, results)
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
    path = out / "meta.json"
    path.write_text(text)
    with pytest.raises(BrokenResultsError, match="^%s %s" % (re.escape(str(path)), problem)):
        load(out)
    assert cli.main(["stats", "--results", str(out)]) == 1
    assert capsys.readouterr().err.startswith("failed: %s %s" % (path, problem))


def test_a_results_path_that_is_no_set_directory_is_a_usage_error(tmp_path, capsys):
    out = persist(_tiny_batch(), tmp_path / "out")
    for where in (out / "results.csv", out / "results.csv" / "deeper"):
        assert cli.main(["compare", "--results", str(where)]) == 2
        assert capsys.readouterr().err.startswith("error: cannot read results: ")
    (out / "meta.json").unlink()
    assert cli.main(["compare", "--results", str(out)]) == 2
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
    written = traces_bytes(out)
    persist(load(out), out)
    assert load(out) == rs
    assert traces_bytes(out) == written


def test_persist_replaces_the_traces_of_the_set_there_before(tmp_path):
    out = persist(_tiny_batch(problems=("f01", "f02", "f03")), tmp_path / "out")
    rs = _tiny_batch(problems=("f04",))
    persist(rs, out)
    assert sorted(traces_bytes(out)) == ["0.npz"]
    assert load(out) == rs


def test_persist_deletes_the_traces_and_solutions_files_of_older_schemas(tmp_path):
    out = _schema_2_directory(tmp_path / "out")  # plants traces.csv
    (out / "solutions.csv").write_text((tmp_path / "out" / "traces.csv").read_text())
    rs = _tiny_batch()
    persist(rs, out)
    assert sorted(p.name for p in out.iterdir()) == [
        "meta.json", "results.csv", "summary.csv", "traces"]
    assert load(out) == rs


def test_persist_writes_the_hash_of_the_written_payload(tmp_path):
    rs = _tiny_batch()
    # A set written under schema 1 carries the hash of its schema-1 payload.
    rs.metadata["schema_version"] = 1
    rs.metadata["config_hash"] = config_hash(
        {k: v for k, v in rs.metadata.items() if k not in ("config_hash", "created_at")})
    meta = json.loads((persist(rs, tmp_path / "out") / "meta.json").read_text())
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


def test_persist_refuses_a_nul_in_an_algorithm_label_before_writing(tmp_path):
    """A traces file's str array would drop a trailing NUL, so the label
    would not load back."""
    out = persist(_tiny_batch(), tmp_path / "out")
    before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
    rs = _tiny_batch(problems=("f03",))
    key = ("ECO", rs.problems[0], 1)
    rs.records[key] = replace(rs.records[key], algorithm="ECO\0")
    for where in (out, tmp_path / "new"):
        with pytest.raises(ValueError, match=re.escape(repr("ECO\0"))):
            persist(rs, where)
    assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before
    assert not (tmp_path / "new").exists()


@pytest.mark.parametrize("blocker", ["file", "symlink"])
def test_persist_refuses_a_traces_path_it_cannot_replace_before_writing(
        tmp_path, capsys, blocker):
    """A regular file or a symbolic link named traces would stop persist
    after it wrote results.csv; the set there before stays whole."""
    out = persist(_tiny_batch(), tmp_path / "out")
    shutil.rmtree(out / "traces")
    if blocker == "file":
        (out / "traces").write_text("keep\n")
    else:
        (tmp_path / "elsewhere").mkdir()
        (tmp_path / "elsewhere" / "mine.txt").write_text("keep\n")
        (out / "traces").symlink_to(tmp_path / "elsewhere", target_is_directory=True)
    before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
    expected = "%s is not a plain directory" % (out / "traces")
    with pytest.raises(NotADirectoryError, match=re.escape(expected)):
        persist(_tiny_batch(problems=("f03",)), out)
    assert cli.main(["run", "--algorithms", "ECO", "--problems", "f01", "--runs", "1",
                     "--n", "6", "--fes-max", "60", "--dim", "5", "--out", str(out)]) == 2
    assert expected in capsys.readouterr().err
    assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before


@pytest.mark.parametrize("name", ["results.csv", "summary.csv", "meta.json",
                                  "traces.csv"])
def test_persist_refuses_a_file_path_it_cannot_replace_before_writing(
        tmp_path, capsys, monkeypatch, name):
    """A directory where persist writes or deletes a file would stop it part
    way: with summary.csv, after the new results.csv and traces/ were
    written under the old meta.json. Neither persist nor ``mco run`` writes
    anything, and ``mco run`` exits 2 before its first run."""
    out = persist(_tiny_batch(), tmp_path / "out")
    (out / name).unlink(missing_ok=True)
    (out / name).mkdir()
    (out / name / "mine.txt").write_text("keep\n")
    before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
    expected = "cannot write results to %s: %s is not a regular file" % (out, out / name)
    with pytest.raises(FileExistsError, match="^%s$" % re.escape(expected)):
        persist(_tiny_batch(problems=("f03",)), out)
    monkeypatch.setattr(harness, "run_single", None)   # no run may start
    capsys.readouterr()
    assert cli.main(["run", "--algorithms", "ECO", "--problems", "f01", "--runs", "1",
                     "--n", "6", "--fes-max", "60", "--dim", "5", "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", "error: %s\n" % expected)
    assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before


def _meta_listing(out, **lists):
    """Rewrite ``out``'s meta.json with ``lists`` in place of its own."""
    path = out / "meta.json"
    path.write_text(json.dumps({**json.loads(path.read_text()), **lists}))
    return path


# meta.json lists that do not name the cells of results.csv, by the list
# that load then names.
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
    path = _meta_listing(out, **{what: listed})
    named = {"algorithms": ["ECO", "IECO-MCO"],
             "problems": ["f01-zakharov-d5", "f02-rosenbrock-d5"]}[what]
    expected = "%s lists the %s %s; the rows of %s hold %s" % (
        path, what, listed, out / "results.csv", named)
    with pytest.raises(BrokenResultsError, match="^%s$" % re.escape(expected)):
        load(out)
    for argv in (["compare"], ["stats"], ["export-trace", "--problem", "f01"]):
        capsys.readouterr()
        assert cli.main(argv + ["--results", str(out)]) == 1
        assert capsys.readouterr() == ("", "failed: %s\n" % expected)
    # the cells of the rows, in any order, load
    _meta_listing(out, **{what: named[::-1]})
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
    a = persist(_tiny_batch(), tmp_path / "a")
    b = persist(_tiny_batch(), tmp_path / "b")

    # identical apart from the wall_time column
    rows_a = (a / "results.csv").read_text().splitlines()
    rows_b = (b / "results.csv").read_text().splitlines()
    assert [r.rsplit(",", 1)[0] for r in rows_a] == \
           [r.rsplit(",", 1)[0] for r in rows_b]

    assert traces_bytes(a) == traces_bytes(b)
    assert (a / "summary.csv").read_bytes() == (b / "summary.csv").read_bytes()
    assert sorted(p.name for p in a.iterdir()) == [
        "meta.json", "results.csv", "summary.csv", "traces"]
    assert sorted(traces_bytes(a)) == ["0.npz", "1.npz"]

    # metadata differs only in the timestamp
    meta_a = json.loads((a / "meta.json").read_text())
    meta_b = json.loads((b / "meta.json").read_text())
    meta_a.pop("created_at"), meta_b.pop("created_at")
    assert meta_a == meta_b


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
