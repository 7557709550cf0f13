"""Problem registry: seeded benchmark functions and engineering designs.

``make_problem`` builds from one ordered table: the desk suite f01 .. f12
(``DESK_SUITE``), then the engineering designs rw01 .. rw10
(``ENGINEERING``). ``problem_label`` is the one name rule.
"""

from __future__ import annotations

from functools import partial

from .benchmarks import BASE_FUNCTIONS, DESK_SUITE, desk_problem, make_benchmark
from .core import ProblemSpec, TransformSpec, generate_transform, stable_seed
from .engineering import ENGINEERING
from .handling import (
    INFEASIBLE_BASE,
    MAX_RESAMPLES,
    VIOLATION_TOL,
    HandledPoint,
    TrialStream,
    constrained_evaluate,
    penalized_fitness,
)

__all__ = [
    "BASE_FUNCTIONS", "DESK_SUITE", "ENGINEERING",
    "ProblemSpec", "TransformSpec",
    "HandledPoint", "TrialStream", "constrained_evaluate",
    "penalized_fitness", "INFEASIBLE_BASE", "MAX_RESAMPLES", "VIOLATION_TOL",
    "desk_problem", "make_benchmark", "make_problem", "problem_label",
    "list_problems", "generate_transform", "stable_seed",
]

# label -> builder(dimension); an engineering design has its own dimension
_REGISTRY = {
    **{label: partial(desk_problem, label) for label in DESK_SUITE},
    **{label: (lambda dimension, build=build: build())
       for label, build in ENGINEERING.items()},
}


def problem_label(name: str) -> str:
    """The registry label a problem name resolves by: its leading token."""
    return name.strip().lower().split("-")[0]


def list_problems(dimension: int = 10):
    """Names and categories of everything the registry can build, in order."""
    return [(spec.name, spec.category, spec.dimension)
            for spec in (make_problem(label, dimension) for label in _REGISTRY)]


def make_problem(name: str, dimension: int = 10) -> ProblemSpec:
    """Build a problem by label (f01 .. f12, rw01 .. rw10) or by the full name
    of what that label builds, like ``rw03-three-bar-truss`` or
    ``f05-levy-d10`` at dimension 10; case is ignored."""
    label = problem_label(name)
    if label not in _REGISTRY:
        raise KeyError("unknown problem %r; try f01..f12 or rw01..rw10" % name)
    spec = _REGISTRY[label](dimension)
    if name.strip().lower() not in (label, spec.name.lower()):
        raise KeyError("problem %r is not the name of what its label builds, %s"
                       % (name, spec.name))
    return spec
