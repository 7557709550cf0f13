"""Property checks of the problem reading and the budgeted Evaluator.

Every registry problem is read through one path: ``ProblemSpec.batch`` for
a block and ``ProblemSpec.evaluate`` for one point. Hypothesis draws blocks
inside the box with many entries pinned to a box face, so faces and corners
(rw03's lower corner reads as an infinite violation) are covered as often as
the interior. The hybrid desk functions f06-f08 need at least 3, 4 and 5
coordinates, so they are drawn at D=10 only.

The engineering formulas are applied row by row, so a block reading equals
the point readings bit for bit. The desk functions rotate the block with a
BLAS matrix product, whose summation order depends on the number of rows;
their block and point readings agree to a relative 1e-12 (5e-14 is the
worst seen on random blocks), and the Evaluator's reading is checked
against a re-read of the same block, which is exact.
"""

import functools

import numpy as np
from hypothesis import given, settings, strategies as st

from ieco_mco.harness import Evaluator
from ieco_mco.problems import (
    ENGINEERING_NAMES,
    INFEASIBLE_BASE,
    PenaltyPolicy,
    make_problem,
)
from ieco_mco.rng import RngStream

# (name, D); an engineering problem carries its own dimension and ignores D.
PROBLEMS = ([(pid, 10) for pid in ENGINEERING_NAMES]
            + [("f%02d" % i, d) for d in (2, 10) for i in range(1, 13)
               if d >= 5 or i not in (6, 7, 8)])


@functools.lru_cache(maxsize=None)
def problem(name, dim):
    return make_problem(name, dim)


# An entry is a box face (0 or 1) or an interior fraction.
_fractions = st.one_of(st.sampled_from([0.0, 1.0]),
                       st.floats(0.0, 1.0, allow_nan=False))


@st.composite
def problem_and_block(draw, max_rows=8):
    name, dim = draw(st.sampled_from(PROBLEMS))
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


@settings(max_examples=150, deadline=None)
@given(problem_and_block(), st.integers(0, 40), st.integers(0, 12),
       st.integers(0, 2 ** 32 - 1))
def test_evaluator_keeps_budget_box_and_penalty_rule(case, spare, resamples, seed):
    spec, X = case
    n = X.shape[0]
    policy = PenaltyPolicy(max_resamples=resamples)
    ev = Evaluator(spec, fes_max=n + spare, policy=policy, rng=RngStream(seed))
    fitness, objective, feasible, positions = ev.evaluate(X)
    assert n <= ev.used <= ev.fes_max
    obj, vio = spec.batch(positions)
    for i in range(n):
        assert spec.bounds.contains(positions[i]), (spec.name, positions[i])
        assert _bits(objective[i]) == _bits(obj[i])
        assert feasible[i] == (vio[i] <= policy.violation_tolerance)
        expected = obj[i] if feasible[i] else INFEASIBLE_BASE + vio[i]
        assert _bits(fitness[i]) == _bits(expected), (spec.name, i)
