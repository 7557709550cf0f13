"""Problem registry: seeded benchmark functions and engineering designs."""

from __future__ import annotations

from .benchmarks import (
    BASE_FUNCTIONS,
    DESK_SUITE_LAYOUT,
    DESK_SUITE_NAMES,
    desk_problem,
    desk_suite,
    make_benchmark,
)
from .core import (
    ProblemSpec,
    TransformSpec,
    generate_transform,
    identity_transform,
    stable_seed,
)
from .engineering import ENGINEERING_NAMES, make_engineering
from .handling import (
    DEFAULT_VIOLATION_TOL,
    INFEASIBLE_BASE,
    HandledPoint,
    PenaltyPolicy,
    TrialStream,
    constrained_evaluate,
    penalized_fitness,
)

__all__ = [
    "BASE_FUNCTIONS", "DESK_SUITE_LAYOUT", "DESK_SUITE_NAMES",
    "ENGINEERING_NAMES",
    "ProblemSpec", "TransformSpec",
    "PenaltyPolicy", "HandledPoint", "TrialStream", "constrained_evaluate",
    "penalized_fitness", "INFEASIBLE_BASE", "DEFAULT_VIOLATION_TOL",
    "desk_problem", "desk_suite", "make_benchmark", "make_engineering",
    "make_problem", "list_problems", "generate_transform",
    "identity_transform", "stable_seed",
]


def list_problems(dimension: int = 10, instance_seed: int = 0):
    """Names and categories of everything the registry can build."""
    rows = []
    for label in DESK_SUITE_NAMES:
        spec = desk_problem(label, dimension, instance_seed)
        rows.append((spec.name, spec.category, spec.dimension))
    for pid in ENGINEERING_NAMES:
        spec = make_engineering(pid)
        rows.append((spec.name, spec.category, spec.dimension))
    return rows


def make_problem(name: str, dimension: int = 10, instance_seed: int = 0) -> ProblemSpec:
    """Build a problem by short label (f01 .. f12) or id (rw01 .. rw10).

    Full registry names like ``rw03-three-bar-truss`` or ``f05-levy-d10``
    resolve through their leading token as well.
    """
    key = name.strip().lower()
    head = key.split("-")[0]
    if head in DESK_SUITE_NAMES:
        return desk_problem(head, dimension, instance_seed)
    if head in ENGINEERING_NAMES:
        return make_engineering(head)
    raise KeyError("unknown problem %r; try f01..f12 or rw01..rw10" % name)
