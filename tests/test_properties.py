"""Property checks of the problem reading and the budgeted Evaluator.

Every registry problem is read through one path: ``ProblemSpec.batch`` for
a block and ``ProblemSpec.evaluate`` for one point. Hypothesis draws blocks
inside the box with many entries pinned to a box face, so faces and corners
(rw03's lower corner reads as an infinite violation) are covered as often as
the interior. The hybrid desk functions f06-f08 need at least 3, 4 and 5
coordinates, so they are drawn at D=10 only.

The engineering formulas read a block by column and compute each element
of a column on its own, so a block reading equals the point readings bit
for bit. The column reading equals the per-point formulas of
``support.reference_problem`` bit for bit, or raises the same exception
type, both when those are read on Python floats (a row on which floats
raise or turn complex is read again as numpy scalars) and when they are
read on numpy float64 scalars: in the box, on its faces and corners, and
outside it. The one exception is an rw07 row with a zero ball diameter,
outside the box, which the reference's row reading raises on and the
columns read as inf or NaN (see ``_zero_ball``). A seeded sweep of 20,000 in-box rows plus every box corner
checks each problem against the Python-float reading, and a pinned point
where ``x * x`` differs from the C library's ``pow(x, 2.0)`` checks that a
power reads ``pow``, not numpy's array square. The desk functions
rotate the block with a BLAS matrix product, whose summation order depends
on the number of rows; their block and point readings agree to a relative
1e-12 (5e-14 is the worst seen on random blocks), and the Evaluator's
reading is checked against a re-read of the same block, which is exact.
On rw01-rw10 every row the Evaluator returns, resampled or not, is ranked
by ``penalized_fitness`` of the reading returned with it.

Resampling reads its trials ahead in blocks and scans each row's trials on
them; on problems whose block and point readings agree, the Evaluator must
give what the one-draw-at-a-time rule in ``support.sequential_evaluate``
gives, and leave the RNG stream where that rule leaves it. Besides the
registry problems, a toy problem whose violation is a lookup table of the
drawn uniform makes ties, the tolerance, the float above it and +inf
common, with rows that span blocks and budgets that end part way through a
row.

Persisting a result set and loading it back gives equal records, whatever
the floats (infinities, -0.0, subnormals, a penalized 1e15 + violation
best), however long the traces (up to 20,000 points), whatever seed up to
2**64 - 1 and whatever commas, quotes and line breaks the labels hold. The
arrays of the results file hold the records' fields, positions and traces
bit for bit, read by ``numpy.load`` with pickles refused. A small set whose
bytes are overwritten, deleted, inserted into or cut short either loads
equal or is refused with an error naming its file, by ``load`` and by
``mco compare``.

A whole run, drawn over variant, population size, dimension, budget,
registry problem, seed and a share of the box that reads as inf or NaN,
keeps its budget, keeps every position in the box, keeps the population
sorted with no order statistic of its fitness rising, records a trace
that never rises, and persists and loads back.
"""

import contextlib
import dataclasses
import functools
import io
import itertools
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ieco_mco import cli, harness
from ieco_mco.harness import (BrokenResultsError, Evaluator, ResultSet, RunConfig,
                              RunRecord, SchemaMismatchError, load, persist, run_batch,
                              run_single)
from ieco_mco.problems import (
    DESK_SUITE,
    ENGINEERING,
    INFEASIBLE_BASE,
    MAX_RESAMPLES,
    VIOLATION_TOL,
    make_problem,
    penalized_fitness,
)
from ieco_mco.problems.core import ProblemSpec
from ieco_mco.rng import Bounds, RngStream
from ieco_mco.stages import _VARIANTS
from support import (REFERENCE_FORMULAS, reference_problem, results_arrays,
                     sequential_evaluate, stable_arrays)

# (name, D); an engineering problem carries its own dimension and ignores D.
ENGINEERING_CASES = [(pid, 10) for pid in ENGINEERING]
PROBLEMS = (ENGINEERING_CASES
            + [("f%02d" % i, d) for d in (2, 10) for i in range(1, 13)
               if d >= 5 or i not in (6, 7, 8)])


@functools.lru_cache(maxsize=None)
def problem(name, dim):
    return make_problem(name, dim)


# An entry is a box face (0 or 1) or an interior fraction.
_fractions = st.one_of(st.sampled_from([0.0, 1.0]),
                       st.floats(0.0, 1.0, allow_nan=False))


@st.composite
def problem_and_block(draw, max_rows=8, problems=PROBLEMS):
    name, dim = draw(st.sampled_from(problems))
    spec = problem(name, dim)
    n = draw(st.integers(1, max_rows))
    u = np.array(draw(st.lists(_fractions, min_size=n * spec.dimension,
                               max_size=n * spec.dimension)))
    u = u.reshape(n, spec.dimension)
    lo, hi = spec.bounds.lower, spec.bounds.upper
    X = np.where(u == 1.0, hi, np.where(u == 0.0, lo, lo + (hi - lo) * u))
    return spec, np.minimum(X, hi)


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


@settings(max_examples=300, deadline=None)
@given(problem_and_block())
def test_block_reading_matches_point_reading(case):
    spec, X = case
    objective, violation = spec.batch(X)
    assert objective.shape == violation.shape == (X.shape[0],)
    assert not np.isnan(objective).any() and not np.isnan(violation).any()
    for i, x in enumerate(X):
        obj, vio = spec.evaluate(x)
        if spec.category == "engineering":
            assert _bits(obj) == _bits(objective[i]), (spec.name, x)
        else:
            assert abs(obj - objective[i]) <= 1e-12 * abs(obj), (spec.name, x)
        assert _bits(vio) == _bits(violation[i]), (spec.name, x)
        assert vio >= 0.0 and not np.signbit(vio)


@functools.lru_cache(maxsize=None)
def reference(pid, numpy_scalars=False):
    return reference_problem(pid, numpy_scalars)


# Python floats raise or turn complex where numpy scalars give inf or NaN:
# rw03 divides by zero at a = 0, a box face; outside the box, rw07 takes
# fractional powers of negative bases, and ``**`` overflows.
_ENTRIES = {
    "box": st.floats(0.0, 1.0),
    "faces": _fractions,
    "outside": st.one_of(st.floats(-3.0, 4.0), st.sampled_from([-1e200, 1e200])),
}


@st.composite
def engineering_blocks(draw):
    pid = draw(st.sampled_from(list(REFERENCE_FORMULAS)))
    spec = problem(pid, 10)
    n = draw(st.integers(1, 8))
    u = np.array(draw(st.lists(_ENTRIES[draw(st.sampled_from(list(_ENTRIES)))],
                               min_size=n * spec.dimension,
                               max_size=n * spec.dimension)))
    u = u.reshape(n, spec.dimension)
    lo, hi = spec.bounds.lower, spec.bounds.upper
    return pid, np.where(u == 1.0, hi, lo + (hi - lo) * u)


def _values(spec, X):
    """The objective and the constraint block ``spec.batch`` reads from
    ``X``, NaN as +inf, as it reads them."""
    with np.errstate(all="ignore"):
        return [np.fmin(fn(X), np.inf, dtype=float)
                for fn in (spec.objective, spec.constraints)]


def _reading(spec, X):
    """The bits of ``_values(spec, X)``, or the type of what it raised; a
    ``math`` call out of its domain raises on either reading."""
    try:
        return tuple(_bits(a).tolist() for a in _values(spec, X))
    except (ArithmeticError, ValueError) as exc:
        return type(exc)


def _zero_ball(pid, X):
    """The rows of an rw07 block whose ball diameter is zero, outside the box.
    There the reference divides the Python floats that ``math.acos`` and
    ``math.asin`` return, which raises ZeroDivisionError even when the row
    is read again as numpy scalars; by column the division reads as inf or
    NaN, as every other division by zero does."""
    return X[:, 1] == 0.0 if pid == "rw07" else np.zeros(X.shape[0], bool)


@settings(max_examples=300, deadline=None)
@given(engineering_blocks())
@example(("rw03", np.array([[0.0, 0.5], [0.0, 0.0], [0.7, 0.4]])))
@example(("rw07", np.array([[125.0, 21.0, 11.0, 0.515, 0.4, 0.4, 0.6, 0.3, 0.02, 0.6],
                            [-125.0, 21.0, -11.0, 0.2, 0.515, 0.4, 0.6, 0.3, 0.02, 0.6]])))
@example(("rw08", np.array([[1e200, 5.0, 4.0, 3.0, 2.0], [6.0, 5.0, 4.0, 3.0, 2.0]])))
# rw07's cosine argument is inf - inf over -inf, NaN, which its clamps read
# as -1.0, as Python's max(-1.0, nan) does; a ball of 25.4 takes the first
# capacity branch
@example(("rw07", np.array([[1e200, 1e200, 11.0, 0.515, 0.515, 0.4, 0.6, 0.3, 0.02, 0.6],
                            [130.0, 25.4, 11.0, 0.515, 0.515, 0.4, 0.6, 0.3, 0.02, 0.6]])))
# rw04's shear stress is the root of a sum that rounds below zero here
@example(("rw04", np.array([[3.445453456274187, -16.799999966539218,
                             -3.445453456274187, 1.0]])))
def test_column_reading_equals_the_per_point_reference(case):
    pid, X = case
    zero = _zero_ball(pid, X)
    if zero.any():
        assert isinstance(_reading(problem(pid, 10), X[zero]), tuple)
        X = X[~zero]
    got = _reading(problem(pid, 10), X)
    assert got == _reading(reference(pid), X)
    assert got == _reading(reference(pid, numpy_scalars=True), X)


@pytest.mark.parametrize("pid", list(REFERENCE_FORMULAS))
def test_column_reading_equals_the_reference_on_a_seeded_sweep(pid):
    spec = problem(pid, 10)
    lo, hi = spec.bounds.lower, spec.bounds.upper
    u = np.random.default_rng(int(pid[2:])).uniform(size=(20000, spec.dimension))
    corners = np.array(list(itertools.product(*zip(lo, hi))))
    X = np.vstack([lo + (hi - lo) * u, corners])
    for got, want in zip(_values(spec, X), _values(reference(pid), X)):
        rows = np.flatnonzero((_bits(got) != _bits(want)).reshape(X.shape[0], -1).any(axis=1))
        assert rows.size == 0, (pid, X[rows[:3]])


# The C library's pow(D_SQUARED, 2.0) rounds away from D_SQUARED * D_SQUARED,
# which is what numpy's array power and square give.
D_SQUARED = 0.9824052744668997


def test_a_power_reads_the_c_library_pow_not_the_array_square():
    assert D_SQUARED * D_SQUARED != pow(D_SQUARED, 2.0), "the pin no longer separates them"
    x = np.array([D_SQUARED, 0.5, 10.0])   # rw01: (n + 2) * dm * d ** 2
    obj, _ = problem("rw01", 10).evaluate(x)
    assert obj == reference("rw01").evaluate(x)[0] == 6.0 * pow(D_SQUARED, 2.0)
    assert obj != 6.0 * (D_SQUARED * D_SQUARED)


@settings(max_examples=150, deadline=None)
@given(problem_and_block(), st.integers(0, 250), st.integers(0, 2 ** 32 - 1))
def test_evaluator_keeps_budget_box_and_penalty_rule(case, spare, seed):
    spec, X = case
    n = X.shape[0]
    ev = Evaluator(spec, fes_max=n + spare, rng=RngStream(seed))
    fitness, objective, violation, positions = ev.evaluate(X)
    assert n <= ev.used <= ev.fes_max
    obj, vio = spec.batch(positions)
    for i in range(n):
        assert spec.bounds.contains(positions[i]), (spec.name, positions[i])
        assert _bits(objective[i]) == _bits(obj[i])
        assert _bits(violation[i]) == _bits(vio[i])
        expected = obj[i] if vio[i] <= VIOLATION_TOL else INFEASIBLE_BASE + vio[i]
        assert _bits(fitness[i]) == _bits(expected), (spec.name, i)


@settings(max_examples=150, deadline=None)
@given(problem_and_block(problems=ENGINEERING_CASES), st.integers(0, 250),
       st.integers(0, 2 ** 32 - 1))
@example((problem("rw03", 10), np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 0.0]])), 40, 0)
def test_evaluator_ranks_each_row_by_the_reading_it_returns(case, spare, seed):
    """Resampled rows included: rw03's lower corner reads as an infinite
    violation and is resampled."""
    spec, X = case
    ev = Evaluator(spec, fes_max=X.shape[0] + spare, rng=RngStream(seed))
    (fitness, objective, violation, _), handled = _evaluate_recorded(ev, X)
    assert len(handled) == np.count_nonzero(spec.batch(X)[1] > VIOLATION_TOL)
    assert _bits(fitness).tolist() == _bits(penalized_fitness(objective, violation)).tolist()


# Elementwise formulas only, so block and point readings agree bit for bit.
NEVER_FEASIBLE = ProblemSpec(
    name="never-feasible", bounds=Bounds.cube(-1.0, 1.0, 2),
    objective=lambda X: X[:, 0] - X[:, 1], category="test",
    constraints=lambda X: np.stack([0.5 + X[:, 0] * X[:, 0],
                                    0.25 + np.abs(X[:, 1])], axis=1),
)
# Feasible on a cube of side 0.27 inside the unit cube: about 2% of draws.
RARELY_FEASIBLE = ProblemSpec(
    name="rarely-feasible", bounds=Bounds.cube(0.0, 1.0, 3),
    objective=lambda X: X[:, 0] + 2.0 * X[:, 1] - X[:, 2], category="test",
    constraints=lambda X: np.abs(X - np.array([0.3, 0.6, 0.5])) - 0.135,
)
RESAMPLED = [problem(name, 10) for name in ENGINEERING] + [
    NEVER_FEASIBLE, RARELY_FEASIBLE]


def _draw_prefix(rng, kind):
    """Move the stream off a fresh state; ``integers`` leaves half of a
    64-bit draw buffered in the bit generator."""
    if kind == "integers":
        rng._gen.integers(29)
    elif kind == "normal":
        rng.normal(size=3)


def _evaluate_recorded(ev, X):
    """``ev.evaluate(X)`` plus the HandledPoint of each resampled row."""
    handled = []
    real = harness.constrained_evaluate

    def record(*args, **kwargs):
        handled.append(real(*args, **kwargs))
        return handled[-1]

    with mock.patch.object(harness, "constrained_evaluate", record):
        return ev.evaluate(X), handled


def _assert_block_equals_sequential(spec, X, fes_max, seed, prefix):
    """Evaluate ``X`` block-wise and one trial at a time; return the
    HandledPoint of each resampled row."""
    block_rng, seq_rng = RngStream(seed), RngStream(seed)
    _draw_prefix(block_rng, prefix)
    _draw_prefix(seq_rng, prefix)
    ev = Evaluator(spec, fes_max=fes_max, rng=block_rng)
    got, handled = _evaluate_recorded(ev, X)
    *want, used, want_handled = sequential_evaluate(spec, X, seq_rng, fes_max)
    for g, w in zip(got, want):
        assert np.array_equal(_bits(g), _bits(w)), spec.name
    assert ev.used == used
    assert len(handled) == len(want_handled)
    for g, w in zip(handled, want_handled):
        assert _bits(g.position).tolist() == _bits(w.position).tolist()
        assert (_bits(g.objective), _bits(g.violation), g.feasible, g.evaluations) \
            == (_bits(w.objective), _bits(w.violation), w.feasible, w.evaluations)
    assert np.array_equal(block_rng.normal(size=20), seq_rng.normal(size=20))
    assert np.array_equal(block_rng.uniform(size=20), seq_rng.uniform(size=20))
    for _ in range(20):
        assert block_rng.distinct_pair(29) == seq_rng.distinct_pair(29)
    return handled


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(RESAMPLED), st.integers(1, 8),
       st.one_of(st.just(0), st.just(1), st.integers(2, 400)),
       st.sampled_from(["none", "integers", "normal"]),
       st.integers(0, 2 ** 32 - 1))
def test_block_resampling_equals_sequential_rule(spec, n, spare, prefix, seed):
    X = spec.bounds.lower + spec.bounds.span * RngStream(seed + 1).uniform(
        size=(n, spec.dimension))
    _assert_block_equals_sequential(spec, X, n + spare, seed, prefix)


def test_block_resampling_stops_each_row_at_the_cap():
    """Three never-feasible rows with 350 trials to spare: each row stops at
    MAX_RESAMPLES while budget remains, and the next row carries on in the
    read-ahead block the previous one left part-used."""
    bounds = NEVER_FEASIBLE.bounds
    X = bounds.lower + bounds.span * RngStream(8).uniform(size=(3, bounds.dimension))
    handled = _assert_block_equals_sequential(NEVER_FEASIBLE, X, 3 + 350, 7, "none")
    assert [h.evaluations for h in handled] == [1 + MAX_RESAMPLES] * 3


def test_block_resampling_keeps_a_buffered_half():
    """Skipping the used draws with ``PCG64.advance`` would drop the buffered
    32-bit half that ``integers`` leaves behind and shift every later
    ``distinct_pair`` draw."""
    rng = RngStream(5)
    _draw_prefix(rng, "integers")
    assert rng._gen.bit_generator.state["has_uint32"] == 1
    bounds = RARELY_FEASIBLE.bounds
    X = bounds.lower + bounds.span * RngStream(6).uniform(size=(6, bounds.dimension))
    _assert_block_equals_sequential(RARELY_FEASIBLE, X, 6 + 300, 5, "integers")


# Violations of the table problem: feasible ones, the tolerance and the next
# float above it, and +inf; a table ties wherever a value repeats.
_TABLE_VIOLATIONS = [0.0, VIOLATION_TOL, float(np.nextafter(VIOLATION_TOL, 1.0)),
                     0.5, 2.0, float("inf")]


def table_problem(values):
    """1-D toy problem on [0, 1] that violates by ``values[k]`` on the k-th
    of ``len(values)`` equal slices: a lookup table of the drawn uniform,
    read the same on a block and on a point."""
    table, k = np.array(values), len(values)
    return ProblemSpec(
        name="table", bounds=Bounds.cube(0.0, 1.0, 1),
        objective=lambda X: 1.0 - X[:, 0], category="test",
        constraints=lambda X: table[np.minimum(X[:, 0] * k, k - 1).astype(np.intp), None])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(_TABLE_VIOLATIONS), min_size=1, max_size=60),
       st.integers(1, 30), st.one_of(st.integers(0, 8), st.integers(9, 600)),
       st.sampled_from(["none", "integers", "normal"]), st.integers(0, 2 ** 32 - 1))
@example([2.0] * 59 + [VIOLATION_TOL], 20, 500, "none", 3)
def test_resampling_equals_the_one_trial_loop_on_a_violation_table(values, n, spare,
                                                                   prefix, seed):
    """Positions, objectives, violations, evaluations per row, the budget
    used and the stream's next draws all equal the one-trial-at-a-time rule,
    on tables of ties, the tolerance and the float above it, +inf and
    feasible values."""
    X = RngStream(seed + 1).uniform(size=(n, 1))
    _assert_block_equals_sequential(table_problem(values), X, n + spare, seed, prefix)


def test_table_rows_span_blocks_and_run_out_of_budget_part_way():
    """What the property above covers: a row whose trials span several
    blocks, and one that the budget stops part way."""
    spec = table_problem([2.0] * 9 + [VIOLATION_TOL])
    X = np.array([[0.05], [0.15], [0.25], [0.35]])   # each violates by 2.0
    handled = _assert_block_equals_sequential(spec, X, 4 + 40, 3, "none")
    assert [(h.evaluations, h.feasible) for h in handled] == [
        (17, True), (7, True), (13, True), (7, False)]
    reads, read = [], spec.constraints
    spec.constraints = lambda X: reads.append(len(X)) or read(X)
    Evaluator(spec, fes_max=4 + 40, rng=RngStream(3)).evaluate(X)
    # the block's own reading, then its trials: the first row's 16 run past
    # the first block of them
    assert len(reads) > 2 and reads[1] < 16


# ---------------------------------------------------------- persist and load

_edge_floats = st.sampled_from([float("inf"), float("-inf"), -0.0, 5e-324,
                                2.2250738585072014e-308, INFEASIBLE_BASE + 0.375])
_floats = st.one_of(_edge_floats, st.floats(allow_nan=False))
_labels = st.one_of(st.sampled_from(["f01", 'rw,03 "bar"', '"', ",", "a\r\nb"]),
                    st.text(alphabet='ab,"\' ;\n\r', min_size=1, max_size=6))


@st.composite
def run_records(draw, algorithm, problem, run):
    points = draw(st.one_of(st.integers(1, 40), st.integers(10_000, 20_000)))
    gen = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    fes = np.cumsum(gen.integers(1, 10 ** 6, points)).tolist()
    edges = draw(st.lists(_floats, max_size=min(points, 4)))
    best = edges + gen.uniform(-1e6, 1e6, points - len(edges)).tolist()
    return RunRecord(
        algorithm=algorithm, problem=problem,
        dimension=draw(st.integers(0, 6)), run=run,
        seed=draw(st.integers(0, 2 ** 64 - 1)),
        best_position=np.array(draw(st.lists(_floats, max_size=6))),
        best_fitness=draw(_floats), best_objective=draw(_floats),
        best_violation=draw(_floats), feasible=draw(st.booleans()),
        trace=list(zip(fes, best)),
        evaluations_used=draw(st.integers(0, 2 ** 63 - 1)),
        wall_time=draw(st.floats(0.0, 1e4)))


@st.composite
def result_sets(draw):
    cells = draw(st.lists(st.tuples(_labels, _labels, st.integers(0, 3)),
                          min_size=1, max_size=4, unique=True))
    return ResultSet({cell: draw(run_records(*cell)) for cell in cells},
                     {"schema_version": harness.SCHEMA_VERSION,
                      "algorithms": sorted({a for a, _, _ in cells})})


@settings(max_examples=40, deadline=None)
@given(result_sets())
def test_persist_then_load_gives_equal_records(rs):
    with tempfile.TemporaryDirectory() as tmp:
        first = persist(rs, Path(tmp) / "first")
        back = load(first)
        assert back == rs
        for key, rec in rs.records.items():
            assert repr(back.records[key].best_fitness) == repr(rec.best_fitness)
            assert back.records[key].best_position.tobytes() == rec.best_position.tobytes()
        for key, rec in back.records.items():
            back.records[key] = dataclasses.replace(rec, wall_time=rec.wall_time + 1.0)
        again = persist(back, Path(tmp) / "again")
        assert stable_arrays(again) == stable_arrays(first)


@settings(max_examples=40, deadline=None)
@given(result_sets())
def test_traces_file_arrays_hold_the_records_traces_bit_for_bit(rs):
    """The results file holds every record's traces, fields and position,
    one row per record in sorted key order."""
    records = [rs.records[key] for key in sorted(rs.records)]
    scalars = [f for f in dataclasses.fields(RunRecord) if f.type != "np.ndarray"]
    with tempfile.TemporaryDirectory() as tmp:
        arrays = results_arrays(persist(rs, Path(tmp)))
    assert list(arrays) == ["meta", *(f.name for f in scalars), "position_length",
                            "best_position", "length", "trace"]
    for f in scalars:
        assert arrays[f.name].ndim == 1
        assert arrays[f.name].tolist() == [getattr(r, f.name) for r in records]
    assert arrays["algorithm"].dtype.kind == arrays["problem"].dtype.kind == "U"
    assert arrays["seed"].dtype == np.dtype("<u8")
    assert arrays["feasible"].dtype == np.dtype("?")
    for name in ("best_fitness", "best_objective", "best_violation", "wall_time"):
        assert arrays[name].dtype == np.dtype("<f8")
        assert arrays[name].tobytes() == np.array(
            [getattr(r, name) for r in records], dtype="<f8").tobytes()
    assert arrays["length"].tolist() == [len(r.trace) for r in records]
    assert arrays["trace"].dtype == harness.TRACE_DTYPE
    assert arrays["trace"].tobytes() == b"".join(r.trace.tobytes() for r in records)
    assert arrays["position_length"].tolist() == [len(r.best_position) for r in records]
    assert arrays["best_position"].tobytes() == np.concatenate(
        [np.empty(0), *(r.best_position for r in records)]).tobytes()


@functools.lru_cache(maxsize=None)
def _small_set():
    """The bytes of a small persisted set and the set they load as: ECO and
    IECO-MCO on f01 and rw03, 2 runs each, at D=5, n=6 and fes_max 120. The
    wall times and the creation date are fixed, so the 9,078 bytes are too."""
    rs = run_batch(["ECO", "IECO-MCO"], ["f01", "rw03"], runs=2, base_seed=0,
                   dimension=5, n=6, fes_max=120)
    rs = ResultSet({key: dataclasses.replace(rec, wall_time=0.0)
                    for key, rec in rs.records.items()},
                   {**rs.metadata, "created_at": "2026-01-01T00:00:00.000001+00:00"})
    with tempfile.TemporaryDirectory() as tmp:
        raw = (persist(rs, tmp) / "results.npz").read_bytes()
        return raw, load(tmp)


@st.composite
def corruptions(draw):
    """One overwrite (1-4 bytes), deletion (1-16), insertion (1-8) or
    truncation of the small set, as (offset, bytes cut there, bytes put in
    their place)."""
    raw = _small_set()[0]
    at = draw(st.integers(0, len(raw) - 1))
    kind = draw(st.sampled_from(("overwrite", "delete", "insert", "truncate")))
    if kind == "overwrite":
        payload = draw(st.binary(min_size=1, max_size=4))
        return at, len(payload), payload
    if kind == "delete":
        return at, draw(st.integers(1, 16)), b""
    if kind == "insert":
        return at, 0, draw(st.binary(min_size=1, max_size=8))
    return at, len(raw), b""


@settings(max_examples=300, deadline=None)
@given(corruptions())
# a damaged central directory makes zipfile seek before the start of the file
@example((6890, 2, b""))
# the central directory sets the encryption flag of evaluations_used.npy
@example((8699, 4, b"\x00\x01\x00\x00"))
def test_a_corrupted_set_loads_equal_or_is_refused_naming_its_file(corruption):
    raw, original = _small_set()
    at, cut, payload = corruption
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "results.npz"
        path.write_bytes(raw[:at] + payload + raw[at + cut:])
        try:
            loaded = load(tmp)
        except (BrokenResultsError, SchemaMismatchError) as exc:
            assert str(path) in str(exc)
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = cli.main(["compare", "--results", tmp])
            assert code in (1, 2) and str(path) in err.getvalue()
        else:
            assert loaded == original


# ------------------------------------------------------------------ whole runs

# The hybrid desk functions split the coordinates into 3, 4 and 5 blocks.
_LEAST_DIMENSION = {"f06": 3, "f07": 4, "f08": 5}


@st.composite
def run_configs(draw):
    name = draw(st.sampled_from(list(DESK_SUITE) + list(ENGINEERING)))
    n = draw(st.integers(5, 60))
    return RunConfig(algorithm=draw(st.sampled_from(list(_VARIANTS))), problem=name,
                     seed=draw(st.integers(0, 2 ** 32 - 1)), n=n,
                     dimension=draw(st.integers(_LEAST_DIMENSION.get(name, 1), 30)),
                     fes_max=draw(st.integers(2 * n, 20 * n)))


def with_nonfinite_region(spec, share, value):
    """``spec`` with its objective read as ``value`` (inf or NaN) on the
    lowest ``share`` of its first coordinate's range."""
    edge = spec.bounds.lower[0] + share * spec.bounds.span[0]

    def objective(X):
        return np.where(X[:, 0] < edge, value, spec.objective(X))

    return dataclasses.replace(spec, objective=objective)


@settings(max_examples=200, deadline=None)
@given(run_configs(), st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
       st.sampled_from([np.inf, np.nan]))
def test_whole_run_keeps_budget_box_order_and_records(cfg, share, value):
    """After every step the population lies in the box, is sorted and has no
    order statistic of its fitness above the one before; the run stays in
    budget, its trace never rises, its best fitness is the penalty rule's
    value of its best readings, and its record survives persist/load.
    A drawn share of the box reads as a non-finite objective."""
    spec = with_nonfinite_region(make_problem(cfg.problem, cfg.dimension),
                                 share, value)
    lower, upper = spec.bounds.lower, spec.bounds.upper
    real_step, steps = harness.step, []

    def checked_step(run):
        before = run.fitness.copy()
        real_step(run)
        assert np.all((run.positions >= lower) & (run.positions <= upper))
        assert np.all(run.fitness[:-1] <= run.fitness[1:])
        assert np.all(run.fitness <= before)
        steps.append(run.fitness[0])

    with mock.patch.object(harness, "step", checked_step):
        rec = run_single(cfg, spec)
    # resampling can spend a constrained run's budget before its first step
    assert steps or spec.constraints is not None
    assert not steps or rec.best_fitness == steps[-1]
    assert rec.best_fitness == penalized_fitness(rec.best_objective,
                                                 rec.best_violation)
    assert rec.evaluations_used <= cfg.fes_max
    best = [b for _, b in rec.trace]
    assert all(b <= a for a, b in zip(best, best[1:]))
    rs = ResultSet({(rec.algorithm, rec.problem, 0): rec},
                   {"schema_version": harness.SCHEMA_VERSION})
    with tempfile.TemporaryDirectory() as tmp:
        assert load(persist(rs, tmp)).records == rs.records
