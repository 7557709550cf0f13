"""Constraint handling by penalized fitness and bounded reinitialization.

A candidate is feasible when its worst constraint value is at or below
``VIOLATION_TOL``. Infeasible candidates are replaced by fresh uniform
samples from the box, up to ``MAX_RESAMPLES`` attempts, stopping at the first
feasible draw; if none is found the least-violating draw seen (including the
original point) is kept, the earliest of equal ones. Every resample costs one
objective evaluation, which the stream charges to the run's evaluator: a row
may spend at most ``min(MAX_RESAMPLES, budget left)`` resamples. Both are
fixed constants of the method, not settings.

Trials are drawn and read ahead in blocks (:class:`TrialStream`): a block of
uniforms is peeked from the run's stream and read with one ``spec.batch``,
each row's trials are scanned on the block's violations in order, a row
running past the block goes on in the next one, and only the uniforms of
the trials actually used are consumed. Blocks are sized from the feasible
yield seen so far, and any size gives the same draws and results. These
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
    trials, which :meth:`resample` scans on the block and charges to
    ``evaluator.used`` together. A block holds, for each row left, as many
    trials as the stream has so far spent per feasible find,
    ``ceil((trials + 1) / (found + 1))`` but at most ``MAX_RESAMPLES``, so
    the first block has one trial per row; it is never more than the
    remaining rows could use or the budget left. Call :meth:`close` after
    the last row to consume the used uniforms.
    """

    def __init__(self, evaluator, rows: int):
        self.evaluator = evaluator
        self._rows = rows
        self._trials = self._found = 0  # trials handed out, rows made feasible
        self._X = None
        self._objective = self._violation = []
        self._used = 0  # trials of the current block handed out

    def resample(self, x, objective, violation):
        """Apply the rule to the next row's trials: scan them in order, keep
        the earliest of the least violating readings, better than the row's
        own (``x``, ``objective``, ``violation``), and stop at the first
        feasible one. Returns the best reading and the trials spent."""
        ev = self.evaluator
        self._rows -= 1
        cap = left = min(MAX_RESAMPLES, ev.fes_max - ev.used)
        violation = float(violation)  # floats compare faster than numpy scalars
        while left and violation > VIOLATION_TOL:
            if self._used == len(self._violation):
                self._read_block(left)
            vio = self._violation
            start, best = self._used, -1
            stop = min(len(vio), start + left)
            for i in range(start, stop):
                if vio[i] < violation:
                    violation, best = vio[i], i
                    if violation <= VIOLATION_TOL:
                        stop = i + 1
                        break
            if best >= 0:
                x, objective = self._X[best], self._objective[best]
            self._used, taken = stop, stop - start
            left -= taken
            self._trials += taken
            ev.used += taken
        self._found += violation <= VIOLATION_TOL
        return x, objective, violation, cap - left

    def _read_block(self, left: int):
        """Consume the spent block and peek the next one; the current row
        has ``left`` trials to go."""
        self.close()
        ev = self.evaluator
        per_row = min(MAX_RESAMPLES, -(-(self._trials + 1) // (self._found + 1)))
        size = min((self._rows + 1) * per_row, left + self._rows * MAX_RESAMPLES,
                   ev.fes_max - ev.used)
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
    many of them this row may spend, scans them (:meth:`TrialStream.resample`)
    and charges them to the run's evaluator. The row's one
    :class:`HandledPoint` is built from the best reading it returns.
    """
    spent = 1
    if violation > VIOLATION_TOL:
        x, objective, violation, trials = stream.resample(x, objective, violation)
        spent += trials
    return HandledPoint(np.array(x, dtype=float), float(objective),
                        float(violation), spent)
