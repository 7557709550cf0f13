"""Constraint handling by penalized fitness and bounded reinitialization.

A candidate is feasible when its worst constraint value is at or below
``VIOLATION_TOL``. Infeasible candidates are replaced by fresh uniform
samples from the box, up to ``MAX_RESAMPLES`` attempts, stopping at the first
feasible draw; if none is found the least-violating draw seen (including the
original point) is kept. Every resample costs one objective evaluation, which
the stream charges to the run's evaluator as it hands the trial out: a row
may spend at most ``min(MAX_RESAMPLES, budget left)`` resamples. Both are
fixed constants of the method, not settings.

Trials are drawn and read ahead in blocks (:class:`TrialStream`): a block of
uniforms is peeked from the run's stream and read with one ``spec.batch``, the
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

INFEASIBLE_BASE = 1e15
MAX_RESAMPLES = 100
VIOLATION_TOL = 1e-8


def penalized_fitness(objective, violation):
    """The ranking value: the objective where the violation is at most
    ``VIOLATION_TOL``, otherwise ``INFEASIBLE_BASE`` plus the violation.
    Takes scalars or (n,) arrays."""
    return np.where(violation <= VIOLATION_TOL, objective,
                    INFEASIBLE_BASE + violation)


@dataclass
class HandledPoint:
    """Outcome of evaluating one candidate under the resampling rule, built
    once, after the candidate's last trial."""

    position: np.ndarray
    objective: float
    violation: float
    evaluations: int  # total objective evaluations spent, >= 1

    @property
    def feasible(self) -> bool:
        return self.violation <= VIOLATION_TOL


class TrialStream:
    """Uniform box samples for the resampling rule, read ahead in blocks.

    One stream serves the infeasible rows of one block reading, in row
    order, as the one-at-a-time loop would draw for them. ``rows`` is how
    many rows it will serve; it reads the problem, stream and budget from
    the run's ``evaluator``. Each row gets ``min(MAX_RESAMPLES, fes_max - used)``
    trials, and each trial handed out adds one to ``evaluator.used``. The
    first block has one trial per row, and each later one is twice the size
    of the one before, never more than the remaining rows could use. Call
    :meth:`close` after the last row to consume the used uniforms.
    """

    def __init__(self, evaluator, rows: int):
        self.evaluator = evaluator
        self._rows = rows
        self._size = max(1, rows)
        self._X = None
        self._objective = self._violation = []
        self._used = 0  # trials of the current block handed out

    def trials(self):
        """Yield (position, objective, violation) for the next row's trials."""
        ev = self.evaluator
        self._rows -= 1
        for left in range(min(MAX_RESAMPLES, ev.fes_max - ev.used), 0, -1):
            if self._used == len(self._objective):
                self._read_block(left + self._rows * MAX_RESAMPLES)
            i = self._used
            self._used += 1
            ev.used += 1
            yield self._X[i], self._objective[i], self._violation[i]

    def _read_block(self, most: int):
        """Consume the spent block and peek the next one, of at most ``most``
        trials (the most the remaining rows could use)."""
        self.close()
        ev = self.evaluator
        size = max(1, min(self._size, most, ev.fes_max - ev.used))
        self._size *= 2
        bounds = ev.spec.bounds
        self._X = bounds.lower + bounds.span * ev.rng.peek_uniform(
            size=(size, bounds.dimension))
        objective, violation = ev.spec.batch(self._X)
        self._objective, self._violation = objective.tolist(), violation.tolist()

    def close(self):
        """Consume exactly the uniforms of the trials handed out so far and
        drop the rest of the block."""
        if self._used:
            self.evaluator.rng.uniform(size=self._X[:self._used].shape)
        self._objective = self._violation = []
        self._used = 0


def constrained_evaluate(x: np.ndarray, objective: float, violation: float,
                         stream: TrialStream) -> HandledPoint:
    """Resample ``x`` inside the box while it is infeasible.

    ``objective`` and ``violation`` are the reading of ``x`` itself, already
    taken by the caller; it counts as the first evaluation. Trials come from
    ``stream``, shared by the rows of one block reading, which also caps how
    many of them this row may spend and charges each one to the run's
    evaluator. The best reading so far is kept in ``x``, ``objective`` and
    ``violation``; inside the loop it is infeasible, so a feasible trial
    always violates less than it. The row's one :class:`HandledPoint` is
    built from it after the loop.
    """
    spent = 1
    if violation > VIOLATION_TOL:
        for trial, obj, vio in stream.trials():
            spent += 1
            if vio < violation:
                x, objective, violation = trial, obj, vio
                if vio <= VIOLATION_TOL:
                    break
    return HandledPoint(np.array(x, dtype=float), float(objective),
                        float(violation), spent)
