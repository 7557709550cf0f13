"""Benchmark families, transforms, engineering problems, constraint handling."""

import importlib

import numpy as np
import pytest

from ieco_mco.harness import Evaluator
from ieco_mco.problems import (
    DESK_SUITE,
    ENGINEERING,
    INFEASIBLE_BASE,
    MAX_RESAMPLES,
    VIOLATION_TOL,
    HandledPoint,
    ProblemSpec,
    TransformSpec,
    TrialStream,
    constrained_evaluate,
    desk_problem,
    generate_transform,
    list_problems,
    make_benchmark,
    make_problem,
    penalized_fitness,
    problem_label,
    stable_seed,
)
from ieco_mco.problems.benchmarks import (
    BASE_FUNCTIONS,
    COMPOSITION_FAMILIES,
    _component_shifts,
    _elliptic_scale,
    _griewank_idx,
    _zakharov_idx,
    rosenbrock,
    schwefel,
    sphere,
)
from ieco_mco.rng import Bounds, RngStream

from support import ScriptedRng, reference_composition


# ---------------------------------------------------------------- transforms


def test_identity_transform_shape():
    ts = TransformSpec(np.zeros(4), np.eye(4), 2.5)
    assert ts.dimension == 4
    assert np.array_equal(ts.shift, np.zeros(4))
    assert np.array_equal(ts.rotation, np.eye(4))
    assert ts.f_bias == 2.5


def test_transform_rejects_non_orthogonal_rotation():
    with pytest.raises(ValueError):
        TransformSpec(np.zeros(2), np.array([[1.0, 0.5], [0.0, 1.0]]))


def test_transform_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        TransformSpec(np.zeros(3), np.eye(2))


def test_generate_transform_same_seed_is_identical():
    a = generate_transform(6, seed=991)
    b = generate_transform(6, seed=991)
    assert np.array_equal(a.shift, b.shift)
    assert np.array_equal(a.rotation, b.rotation)


def test_generate_transform_different_seeds_differ():
    a = generate_transform(6, seed=991)
    b = generate_transform(6, seed=992)
    assert not np.array_equal(a.shift, b.shift)


def test_generate_transform_rotation_preserves_norms():
    ts = generate_transform(8, seed=17)
    gen = np.random.default_rng(23)
    for _ in range(20):
        x = gen.normal(size=8)
        assert abs(np.linalg.norm(ts.rotation @ x) - np.linalg.norm(x)) < 1e-10


def test_generate_transform_shift_strictly_interior():
    for seed in (0, 1, 2, 3, 4):
        ts = generate_transform(10, seed=seed)
        assert np.all(ts.shift > -100.0)
        assert np.all(ts.shift < 100.0)
        # a middle-of-the-box construction stays out of the outer 10%
        assert np.all(np.abs(ts.shift) <= 90.0)


def test_generate_transform_rejects_bad_dimension():
    with pytest.raises(ValueError):
        generate_transform(0, seed=1)


def test_stable_seed_is_deterministic_and_distinct():
    assert stable_seed("a", 1, "b") == stable_seed("a", 1, "b")
    assert stable_seed("a", 1, "b") != stable_seed("a", 1, "c")
    assert stable_seed("x") != stable_seed("y")
    s = stable_seed("range-check", 42)
    assert 0 <= s < 2 ** 64


# ------------------------------------------------------------ base functions


def test_sphere_at_origin_is_zero():
    assert sphere(np.zeros((1, 4)))[0] == 0.0


def test_sphere_benchmark_optimum_identity():
    spec = make_benchmark("sphere", TransformSpec(np.zeros(3), np.eye(3)))
    assert spec.evaluate(np.zeros(3))[0] == 0.0
    assert (spec.name, spec.bounds.dimension) == ("sphere-d3", 3)  # D of the transform


def test_rosenbrock_standard_formula_values():
    # the classical formulation: minimum 0 at the all-ones point and
    # value 1 at the origin; an all-ones shift reproduces it exactly
    ts = TransformSpec(np.ones(2), np.eye(2), 0.0)
    spec = make_benchmark("rosenbrock", ts)
    assert spec.evaluate(np.array([1.0, 1.0]))[0] == 0.0
    assert spec.evaluate(np.array([0.0, 0.0]))[0] == 1.0


def test_rosenbrock_base_matches_classical_formula():
    gen = np.random.default_rng(7)
    X = gen.uniform(-2.0, 2.0, size=(50, 3))
    w = X + 1.0
    classic = (100.0 * (w[:, 1:] - w[:, :-1] ** 2) ** 2
               + (w[:, :-1] - 1.0) ** 2).sum(axis=1)
    assert np.array_equal(rosenbrock(X), classic)


def test_rastrigin_at_shift_equals_bias_exactly():
    ts = generate_transform(2, seed=55, f_bias=7.5)
    spec = make_benchmark("rastrigin", ts)
    assert spec.evaluate(ts.shift)[0] == 7.5


def test_all_base_functions_vanish_at_origin():
    for name, fn in BASE_FUNCTIONS.items():
        val = fn(np.zeros((1, 5)))[0]
        assert abs(val) < 1e-12, name


def test_schwefel_nonnegative_even_far_outside_classical_domain():
    gen = np.random.default_rng(11)
    Z = gen.uniform(-1500.0, 1500.0, size=(4000, 6))
    vals = schwefel(Z)
    assert np.all(np.isfinite(vals))
    assert vals.min() >= 0.0


def test_sphere_rotation_invariance():
    ts_rot = generate_transform(6, seed=77, f_bias=0.0)
    ts_id = TransformSpec(ts_rot.shift, np.eye(6), 0.0)
    rotated = make_benchmark("sphere", ts_rot)
    plain = make_benchmark("sphere", ts_id)
    gen = np.random.default_rng(78)
    X = gen.uniform(-100.0, 100.0, size=(200, 6))
    assert np.allclose(rotated.batch(X)[0], plain.batch(X)[0], rtol=1e-12, atol=1e-8)


# ----------------------------------------------------------- benchmark builds


def test_make_benchmark_unknown_family():
    with pytest.raises(KeyError):
        make_benchmark("nosuch", TransformSpec(np.zeros(3), np.eye(3)))


def test_hybrid_rejects_dimension_below_block_count():
    # hybrid3 splits across five base functions
    with pytest.raises(ValueError):
        make_benchmark("hybrid3", TransformSpec(np.zeros(4), np.eye(4)))


def test_hybrid_blocks_cover_all_coordinates():
    spec = make_benchmark("hybrid2", TransformSpec(np.zeros(10), np.eye(10)))
    assert spec.evaluate(np.zeros(10))[0] == 0.0
    # moving any single coordinate off the optimum must change the value
    for j in range(10):
        x = np.zeros(10)
        x[j] = 3.0
        assert spec.evaluate(x)[0] > 0.0, "coordinate %d ignored" % j


def test_desk_suite_layout():
    suite = [make_problem(label, 10) for label in DESK_SUITE]
    assert [s.name for s in suite] == ["%s-%s-d10" % (l, f)
                                       for l, (f, _) in DESK_SUITE.items()]
    cats = {s.category for s in suite}
    assert "hybrid" in cats and "composition" in cats
    assert all(s.dimension == 10 for s in suite)
    assert all(s.constraints is None for s in suite)


def test_desk_problem_unknown_label():
    with pytest.raises(KeyError, match="unknown problem 'f99'"):
        make_problem("f99", 10)
    with pytest.raises(KeyError):
        desk_problem("f99", 10)


def test_desk_suite_value_at_shift_is_bias_exactly():
    for label, (_, bias) in DESK_SUITE.items():
        spec = make_problem(label, 10)
        assert spec.evaluate(spec.known_point)[0] == bias, label


@pytest.mark.slow
def test_desk_suite_bias_is_statistical_lower_bound():
    gen = np.random.default_rng(1009)
    X = gen.uniform(-100.0, 100.0, size=(100000, 10))
    for label, (_, bias) in DESK_SUITE.items():
        vals, _ = make_problem(label, 10).batch(X)
        assert np.all(np.isfinite(vals)), label
        assert vals.min() >= bias, label


def test_composition_value_at_secondary_components_stays_above_bias():
    spec = make_problem("f09", 10)
    gen = np.random.default_rng(5)
    X = spec.known_point + gen.normal(scale=30.0, size=(2000, 10))
    X = np.clip(X, -100.0, 100.0)
    vals, _ = spec.batch(X)
    assert np.all(np.isfinite(vals))
    assert vals.min() >= 2300.0


@pytest.mark.parametrize("dim", [2, 10, 30])
@pytest.mark.parametrize("label", ["f09", "f10", "f11", "f12"])
def test_composition_reads_the_bits_of_the_per_component_reference(label, dim):
    """The stacked components give every bit the per-component reading
    gives, on random blocks and on rows sitting exactly on a shift."""
    family, bias = DESK_SUITE[label]
    ts = generate_transform(dim, stable_seed("desk", label, dim, 0), f_bias=bias)
    objective = desk_problem(label, dim).objective
    reference = reference_composition(family, ts)
    shifts = _component_shifts(family, ts, len(COMPOSITION_FAMILIES[family]))
    gen = np.random.default_rng(dim)
    blocks = [gen.uniform(-100.0, 100.0, size=(n, dim)) for n in (1, 2, 13, 30, 60)]
    for c, shift in enumerate(shifts):
        block = gen.uniform(-100.0, 100.0, size=(13, dim))
        block[c] = shift
        blocks += [shift[None], block]
    for X in blocks:
        got, want = objective(X), reference(X)
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), X.shape


def test_base_function_constants_are_cached_read_only():
    for cached in (_zakharov_idx, _griewank_idx, _elliptic_scale):
        for d in (1, 2, 10):
            arr = cached(d)
            assert arr is cached(d) and arr.shape == (d,)
            assert not arr.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1.0


# ------------------------------------------------------ engineering problems


def test_engineering_registry_complete():
    assert list(ENGINEERING) == ["rw%02d" % i for i in range(1, 11)]
    dims = [make_problem(pid).dimension for pid in ENGINEERING]
    assert dims == [3, 4, 2, 4, 7, 4, 10, 5, 5, 5]


def test_make_problem_unknown_engineering_id():
    with pytest.raises(KeyError, match="unknown problem 'rw11'"):
        make_problem("rw11")


def test_recorded_best_values():
    assert make_problem("rw01").known_target == 1.2667e-2
    assert make_problem("rw03").known_target == 2.6389e2
    assert make_problem("rw06").known_target == 2.7009e-12


def test_known_points_are_feasible_and_in_bounds():
    for pid in ENGINEERING:
        spec = make_problem(pid)
        if spec.known_point is None:
            continue
        assert spec.bounds.contains(spec.known_point), pid
        assert spec.evaluate(spec.known_point)[1] == 0.0, pid


def test_known_point_objectives_match_documented_values():
    expected = {
        "rw01": (1.2665e-2, 1e-6),
        "rw02": (5885.33, 0.01),
        "rw03": (263.8959, 1e-3),
        "rw04": (1.724856, 1e-5),
        "rw05": (2994.471, 1e-2),
        "rw07": (-81859.5, 0.1),
        "rw08": (1.339956, 1e-5),
        "rw09": (0.313657, 1e-5),
    }
    for pid, (value, tol) in expected.items():
        spec = make_problem(pid)
        obj, _ = spec.evaluate(spec.known_point)
        assert abs(obj - value) <= tol, (pid, obj)


def test_gear_train_best_is_reproduced_exactly():
    spec = make_problem("rw06")
    obj, vio = spec.evaluate(np.array([19.0, 16.0, 43.0, 49.0]))
    assert obj == 2.7008571488865134e-12
    assert vio == 0.0


def test_gear_train_rounds_to_integer_tooth_counts():
    spec = make_problem("rw06")
    rounded, _ = spec.evaluate(np.array([19.2, 16.4, 42.8, 49.1]))
    exact, _ = spec.evaluate(np.array([19.0, 16.0, 43.0, 49.0]))
    assert rounded == exact
    batch = spec.batch(np.array([[19.2, 16.4, 42.8, 49.1]]))[0][0]
    assert batch == exact


def test_engineering_finite_over_random_box_samples():
    gen = np.random.default_rng(2024)
    for pid in ENGINEERING:
        spec = make_problem(pid)
        X = spec.bounds.lower + spec.bounds.span * gen.uniform(
            size=(2000, spec.dimension))
        for x in X[:200]:
            obj, vio = spec.evaluate(x)
            assert np.isfinite(obj), pid
            assert np.isfinite(vio), pid
        vals, _ = spec.batch(X)
        assert np.all(np.isfinite(vals)), pid


@pytest.mark.parametrize("pid", list(ENGINEERING) + ["f01"])
def test_empty_block_reads_as_two_empty_arrays(pid):
    spec = make_problem(pid)
    f, v = spec.batch(np.empty((0, spec.dimension)))
    assert f.shape == v.shape == (0,)


def test_step_cone_pulley_has_folded_equalities():
    spec = make_problem("rw10")
    g = spec.constraints(np.array([[0.04, 0.045, 0.05, 0.06, 0.05]]))[0]
    assert g.shape == (11,)   # 3 folded equalities + 8 inequalities
    assert np.all(np.isfinite(g))
    # mismatched belt lengths trip the folded equalities, matched ones do not
    assert g[:3].max() > 0.0
    matched = spec.constraints(spec.known_point[None, :])[0]
    assert np.all(matched[:3] <= 0.0)


# --------------------------------------------------------- penalty handling


def test_penalized_fitness_orders_feasible_before_infeasible():
    assert penalized_fitness(123.0, 0.0) == 123.0
    assert penalized_fitness(123.0, VIOLATION_TOL) == 123.0
    bad = penalized_fitness(0.0, 2.5)
    assert bad == INFEASIBLE_BASE + 2.5
    assert penalized_fitness(1e12, 0.0) < penalized_fitness(0.0, 2 * VIOLATION_TOL)


def _line_spec():
    """1-D toy problem on [0, 10]: objective x, feasible iff x <= 2."""
    return ProblemSpec(
        name="line", bounds=Bounds.cube(0.0, 10.0, 1),
        objective=lambda X: X[:, 0], category="engineering",
        constraints=lambda X: X[:, :1] - 2.0,
    )


def _handle(spec, x, rng, budget=MAX_RESAMPLES):
    """constrained_evaluate fed with the start point's own reading and a
    one-row stream over an evaluator with ``budget`` evaluations left (at
    most MAX_RESAMPLES are used), closed afterwards; the evaluator is
    charged the row's resamples."""
    ev = Evaluator(spec, fes_max=budget, rng=rng)
    stream = TrialStream(ev, rows=1)
    out = constrained_evaluate(x, *spec.evaluate(x), stream)
    stream.close()
    assert ev.used == out.evaluations - 1
    return out


def _never_feasible():
    """1-D toy problem on [0, 1] that violates by 1 everywhere."""
    return ProblemSpec(
        name="never", bounds=Bounds.cube(0.0, 1.0, 1),
        objective=lambda X: X[:, 0], category="engineering",
        constraints=lambda X: np.ones((len(X), 1)),
    )


def test_a_stream_charges_the_evaluator_one_evaluation_per_trial():
    """Driven by hand, a stream adds each row's trials to the evaluator's
    ``used``, and a row's cap is min(MAX_RESAMPLES, fes_max - used) when the
    row starts, whatever the rows before it spent."""
    fresh = RngStream(5).uniform(size=(120, 1))[:, 0].tolist()
    # the k-th uniform violates by 1000 - k, so a row's best is its last
    # trial, but the 5th is feasible and ends the first row
    table = {u: 1000.0 - k for k, u in enumerate(fresh)}
    table[fresh[4]] = 0.0
    spec = ProblemSpec(
        name="table", bounds=Bounds.cube(0.0, 1.0, 1),
        objective=lambda X: X[:, 0], category="engineering",
        constraints=lambda X: np.array([[table.get(x, 2000.0)] for x in X[:, 0].tolist()]),
    )
    ev = Evaluator(spec, fes_max=150, rng=RngStream(5))
    ev.used = 40
    stream = TrialStream(ev, rows=3)
    caps, spent, positions = [], [], []
    for _ in range(3):
        start = ev.used
        caps.append(min(MAX_RESAMPLES, ev.fes_max - ev.used))
        x, objective, violation, trials = stream.resample(np.array([0.5]), 0.5, 5000.0)
        assert ev.used == start + trials
        assert objective == x[0] and violation == table[x[0]]
        spent.append(trials)
        positions.append(x[0])
    stream.close()
    assert caps == [100, 100, 5]
    assert spent == [5, 100, 5] and ev.used == ev.fes_max
    # each row ends on the stream's 5th, 105th and 110th uniform, so the
    # trials are the stream's next 110 uniforms, and only those are consumed
    assert positions == [fresh[4], fresh[104], fresh[109]]
    assert ev.rng.uniform(size=3).tolist() == fresh[110:113]


def test_constrained_evaluate_takes_the_start_reading_as_given():
    calls = []
    spec = ProblemSpec(
        name="counted", bounds=Bounds.cube(0.0, 10.0, 1),
        objective=lambda X: calls.append(len(X)) or X[:, 0], category="test",
        constraints=lambda X: X[:, :1] - 2.0,
    )
    stream = TrialStream(Evaluator(spec, fes_max=100, rng=RngStream(3)), rows=1)
    out = constrained_evaluate(np.array([1.0]), 7.0, 0.0, stream)
    assert calls == []          # the start point is not read again
    assert out.objective == 7.0 and out.feasible and out.evaluations == 1
    stream = TrialStream(Evaluator(spec, fes_max=100, rng=ScriptedRng(uniforms=[0.05])),
                         rows=1)
    out = constrained_evaluate(np.array([9.0]), 9.0, 7.0, stream)
    assert calls == [1]         # one reading per resample
    assert out.objective == 0.5 and out.evaluations == 2


def test_constrained_evaluate_keeps_feasible_point_unchanged():
    spec = _line_spec()
    x = np.array([1.25])
    out = _handle(spec, x, RngStream(3))
    assert out.feasible
    assert np.array_equal(out.position, x)
    assert out.objective == 1.25
    assert out.violation <= VIOLATION_TOL
    assert out.evaluations == 1
    assert penalized_fitness(out.objective, out.violation) == 1.25


def test_constrained_evaluate_replaces_with_stubbed_feasible_draw():
    spec = _line_spec()
    rng = ScriptedRng(uniforms=[0.05])   # maps to x = 0.5
    out = _handle(spec, np.array([9.0]), rng)
    assert out.feasible
    assert np.allclose(out.position, [0.5])
    assert out.objective == 0.5
    assert out.evaluations == 2


def test_constrained_evaluate_keeps_least_violating_draw():
    spec = _line_spec()
    # three infeasible draws at x = 8, 4, 6; the best seen is x = 4
    rng = ScriptedRng(uniforms=[0.8, 0.4, 0.6])
    out = _handle(spec, np.array([9.0]), rng, budget=3)
    assert not out.feasible
    assert np.allclose(out.position, [4.0])
    assert out.violation == 2.0
    assert out.evaluations == 4
    assert penalized_fitness(out.objective, out.violation) == INFEASIBLE_BASE + 2.0


def test_constrained_evaluate_extra_cap_zero_spends_one_evaluation():
    spec = _line_spec()
    out = _handle(spec, np.array([9.0]), RngStream(3), budget=0)
    assert not out.feasible
    assert np.array_equal(out.position, [9.0])
    assert out.evaluations == 1


def test_constrained_evaluate_counts_one_evaluation_per_resample():
    spec = _never_feasible()
    out = _handle(spec, np.array([0.5]), RngStream(5), budget=7)
    assert out.evaluations == 1 + 7
    assert not out.feasible
    out = _handle(spec, np.array([0.5]), RngStream(5), budget=4)
    assert out.evaluations == 1 + 4
    out = _handle(spec, np.array([0.5]), RngStream(5), budget=MAX_RESAMPLES + 50)
    # the cap is a constant of the method: 100 resamples after the own reading
    assert out.evaluations == 1 + MAX_RESAMPLES == 101


def test_a_violation_of_exactly_the_tolerance_is_feasible():
    point = np.zeros(1)
    assert HandledPoint(point, 0.0, VIOLATION_TOL, 1).feasible
    assert not HandledPoint(point, 0.0, np.nextafter(VIOLATION_TOL, 1.0), 1).feasible
    # and a start point read at the tolerance is kept without a resample
    spec = ProblemSpec(
        name="edge", bounds=Bounds.cube(0.0, 10.0, 1),
        objective=lambda X: X[:, 0], category="engineering",
        constraints=lambda X: np.full((len(X), 1), VIOLATION_TOL),
    )
    out = _handle(spec, np.array([3.0]), ScriptedRng())
    assert out.feasible and out.evaluations == 1
    assert np.array_equal(out.position, [3.0])


def test_on_a_violation_tie_the_earlier_trial_wins():
    spec = ProblemSpec(
        name="flat-violation", bounds=Bounds.cube(0.0, 10.0, 1),
        objective=lambda X: X[:, 0], category="engineering",
        constraints=lambda X: np.full((len(X), 1), 0.5),
    )
    # trials at x = 3 and x = 7 both violate by 0.5, less than the start's 1.0
    stream = TrialStream(Evaluator(spec, fes_max=2, rng=ScriptedRng(uniforms=[0.3, 0.7])),
                         rows=1)
    out = constrained_evaluate(np.array([9.0]), 9.0, 1.0, stream)
    stream.close()
    assert out.violation == 0.5 and out.evaluations == 3
    assert np.array_equal(out.position, [3.0]) and out.objective == 3.0


def test_constrained_evaluate_stops_at_first_feasible_draw():
    spec = _line_spec()
    rng = ScriptedRng(uniforms=[0.7, 0.15, 0.01])
    out = _handle(spec, np.array([9.0]), rng)
    assert out.feasible
    assert np.allclose(out.position, [1.5])
    assert out.evaluations == 3
    assert len(rng._uniforms) == 1   # the third draw was never requested


def test_constrained_evaluate_stays_inside_bounds():
    spec = make_problem("rw03")
    rng = RngStream(17)
    for _ in range(25):
        x = spec.bounds.lower + spec.bounds.span * rng.uniform(size=spec.dimension)
        out = _handle(spec, x, rng, budget=10)
        assert spec.bounds.contains(out.position)


def test_constrained_evaluate_truss_known_point_is_feasible():
    spec = make_problem("rw03")
    out = _handle(spec, spec.known_point, RngStream(23))
    assert out.feasible
    assert np.array_equal(out.position, spec.known_point)
    assert abs(out.objective - 263.8959) < 1e-3


# ---------------------------------------------------------------- registry


# registry order: the desk suite, then the engineering designs
LABELS = ["f%02d" % i for i in range(1, 13)] + ["rw%02d" % i for i in range(1, 11)]


def test_list_problems_covers_both_suites():
    assert list(DESK_SUITE) + list(ENGINEERING) == LABELS
    rows = list_problems(dimension=10)
    names = [r[0] for r in rows]
    assert [problem_label(name) for name in names] == LABELS
    assert "f01-zakharov-d10" in names
    assert "rw06-gear-train" in names
    cats = {r[1] for r in rows}
    assert "engineering" in cats


@pytest.mark.parametrize("dimension", [10, 30])
@pytest.mark.parametrize("label", LABELS)
def test_every_label_resolves_back_from_its_full_name(label, dimension):
    name = make_problem(label, dimension).name
    assert problem_label(name) == label
    for full in (name, name.upper(), " %s " % name):
        assert make_problem(full, dimension).name == name


def test_make_problem_resolves_short_and_full_names():
    spec = make_problem("f05", dimension=10)
    assert spec.name == "f05-levy-d10"
    spec = make_problem("rw03-three-bar-truss")
    assert spec.name == "rw03-three-bar-truss"
    spec = make_problem("F07", dimension=5)
    assert spec.dimension == 5


def test_make_problem_unknown_name():
    with pytest.raises(KeyError):
        make_problem("f13")
    with pytest.raises(KeyError):
        make_problem("wibble")


@pytest.mark.parametrize("module", ["ieco_mco", "ieco_mco.problems"])
def test_every_public_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []
    assert len(set(mod.__all__)) == len(mod.__all__)
    namespace = {}
    exec("from %s import *" % module, namespace)
    assert set(mod.__all__) <= set(namespace)
