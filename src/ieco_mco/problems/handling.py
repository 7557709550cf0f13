"""Constraint handling by penalized fitness and bounded reinitialization.

A candidate is feasible when its worst constraint value is at or below
``violation_tolerance``. Infeasible candidates are replaced by fresh uniform
samples from the box, up to ``max_resamples`` attempts, stopping at the first
feasible draw; if none is found the least-violating draw seen (including the
original point) is kept. Every resample costs one objective evaluation, which
is charged against the run budget, so callers pass ``extra_cap`` to bound how
many replacement evaluations may still be spent.

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
DEFAULT_VIOLATION_TOL = 1e-8


@dataclass(frozen=True)
class PenaltyPolicy:
    """Knobs for the resampling constraint handler."""

    max_resamples: int = 100
    violation_tolerance: float = DEFAULT_VIOLATION_TOL

    def __post_init__(self):
        if self.max_resamples < 0:
            raise ValueError("max_resamples must be >= 0")
        if self.violation_tolerance < 0:
            raise ValueError("violation_tolerance must be >= 0")


def penalized_fitness(objective, violation, feasible):
    """The ranking value: the objective where feasible, otherwise
    ``INFEASIBLE_BASE`` plus the violation. Takes scalars or (n,) arrays."""
    return np.where(feasible, objective, INFEASIBLE_BASE + violation)


@dataclass
class HandledPoint:
    """Outcome of evaluating one candidate under the penalty policy."""

    position: np.ndarray
    objective: float
    violation: float
    feasible: bool
    evaluations: int  # total objective evaluations spent, >= 1

    @property
    def fitness(self) -> float:
        return float(penalized_fitness(self.objective, self.violation, self.feasible))


def constrained_evaluate(spec: ProblemSpec, x: np.ndarray, objective: float,
                         violation: float, policy: PenaltyPolicy, rng: RngStream,
                         extra_cap: int | None = None) -> HandledPoint:
    """Resample ``x`` inside the box while it is infeasible.

    ``objective`` and ``violation`` are the reading of ``x`` itself, already
    taken by the caller; it counts as the first evaluation. ``extra_cap``
    limits how many evaluations beyond it may be spent (None means the
    policy's full resample allowance).
    """
    tol = policy.violation_tolerance
    spent = 1
    best = HandledPoint(np.array(x, dtype=float), float(objective),
                        float(violation), bool(violation <= tol), spent)
    if best.feasible:
        return best

    allowance = policy.max_resamples
    if extra_cap is not None:
        allowance = min(allowance, max(0, int(extra_cap)))
    for _ in range(allowance):
        trial = spec.bounds.sample_uniform(rng)
        obj, vio = spec.evaluate(trial)
        spent += 1
        if vio < best.violation or (vio <= tol and not best.feasible):
            best = HandledPoint(trial, obj, vio, vio <= tol, spent)
            if best.feasible:
                break
    best.evaluations = spent
    return best
