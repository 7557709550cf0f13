"""Constraint handling by penalized fitness and bounded reinitialization.

A candidate is feasible when its worst constraint value is at or below
``VIOLATION_TOL``. Infeasible candidates are replaced by fresh uniform
samples from the box, up to ``MAX_RESAMPLES`` attempts, stopping at the first
feasible draw; if none is found the least-violating draw seen (including the
original point) is kept. Every resample costs one objective evaluation, which
is charged against the run budget: a row may spend at most
``min(MAX_RESAMPLES, budget left)`` resamples. Both are fixed constants of
the method, not settings.

Trials are drawn and read ahead in blocks (:class:`TrialStream`): a block of
uniforms is peeked from the RNG stream and read with one ``spec.batch``, the
rule above is applied to its rows one at a time, and only the uniforms of
the trials actually used are consumed. The draws and the results therefore
equal those of drawing and reading one trial at a time whenever the
problem's block reading equals its single-point reading, which holds for
every registry problem that has constraints. A custom problem whose block
reading differs in the last bit (a BLAS matrix product sums in an order that
depends on the row count) can give results that depend on the block size.

Ranking uses a scalar fitness: the raw objective when feasible, otherwise a
large constant plus the violation, so any feasible point outranks every
infeasible one and infeasible points sort by violation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..rng import RngStream
from .core import ProblemSpec

INFEASIBLE_BASE = 1e15
MAX_RESAMPLES = 100
VIOLATION_TOL = 1e-8


def penalized_fitness(objective, violation, feasible):
    """The ranking value: the objective where feasible, otherwise
    ``INFEASIBLE_BASE`` plus the violation. Takes scalars or (n,) arrays."""
    return np.where(feasible, objective, INFEASIBLE_BASE + violation)


@dataclass
class HandledPoint:
    """Outcome of evaluating one candidate under the resampling rule."""

    position: np.ndarray
    objective: float
    violation: float
    feasible: bool
    evaluations: int  # total objective evaluations spent, >= 1

    @property
    def fitness(self) -> float:
        return float(penalized_fitness(self.objective, self.violation, self.feasible))


class TrialStream:
    """Uniform box samples for the resampling rule, read ahead in blocks.

    One stream serves the infeasible rows of one block reading, in row
    order, as the one-at-a-time loop would draw for them. ``rows`` is how
    many rows it will serve and ``budget`` how many trials they may spend
    in all; each row gets ``min(MAX_RESAMPLES, budget left)`` trials. The
    first block has one trial per row, and each later one is twice the size
    of the one before, never more than the remaining rows could use. Call
    :meth:`close` after the last row to consume the used uniforms.
    """

    def __init__(self, spec: ProblemSpec, rng: RngStream, rows: int, budget: int):
        self.spec = spec
        self.rng = rng
        self._rows = rows
        self._budget = budget  # trials not yet handed out
        self._size = max(1, rows)
        self._X = None
        self._objective = self._violation = []
        self._used = 0  # trials of the current block handed out

    def trials(self):
        """Yield (position, objective, violation) for the next row's trials."""
        self._rows -= 1
        for left in range(min(MAX_RESAMPLES, self._budget), 0, -1):
            if self._used == len(self._objective):
                self._read_block(left + self._rows * MAX_RESAMPLES)
            i = self._used
            self._used += 1
            self._budget -= 1
            yield self._X[i], self._objective[i], self._violation[i]

    def _read_block(self, most: int):
        """Consume the spent block and peek the next one, of at most ``most``
        trials (the most the remaining rows could use)."""
        self.close()
        size = max(1, min(self._size, most, self._budget))
        self._size *= 2
        bounds = self.spec.bounds
        self._X = bounds.lower + bounds.span * self.rng.peek_uniform(
            size=(size, bounds.dimension))
        objective, violation = self.spec.batch(self._X)
        self._objective, self._violation = objective.tolist(), violation.tolist()

    def close(self):
        """Consume exactly the uniforms of the trials handed out so far and
        drop the rest of the block."""
        if self._used:
            self.rng.uniform(size=(self._used, self.spec.dimension))
        self._objective = self._violation = []
        self._used = 0


def constrained_evaluate(x: np.ndarray, objective: float, violation: float,
                         stream: TrialStream) -> HandledPoint:
    """Resample ``x`` inside the box while it is infeasible.

    ``objective`` and ``violation`` are the reading of ``x`` itself, already
    taken by the caller; it counts as the first evaluation. Trials come from
    ``stream``, shared by the rows of one block reading, which also caps how
    many of them this row may spend. Inside the loop ``best`` is infeasible,
    so a feasible trial always violates less than it.
    """
    spent = 1
    best = HandledPoint(np.array(x, dtype=float), float(objective),
                        float(violation), bool(violation <= VIOLATION_TOL), spent)
    if best.feasible:
        return best
    for trial, obj, vio in stream.trials():
        spent += 1
        if vio < best.violation:
            best = HandledPoint(trial, obj, vio, vio <= VIOLATION_TOL, spent)
            if best.feasible:
                break
    best.evaluations = spent
    return best
