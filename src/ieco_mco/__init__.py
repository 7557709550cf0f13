"""Population-based optimizer with covariance-guided learning operators.

The package bundles the three-stage base optimizer and its archive-guided
variants, a seeded benchmark suite, ten constrained engineering design
problems, a reproducible experiment harness, and the nonparametric tests
used to compare algorithms.
"""

from . import covariance, harness, problems, rng, stages, stats
from .harness import (
    Evaluator,
    ResultSet,
    RunConfig,
    RunRecord,
    derive_seed,
    export_trace,
    load,
    persist,
    run_batch,
    run_single,
)
from .stages import Population, Variant

__version__ = "0.1.0"

__all__ = [
    "Evaluator", "Population", "ResultSet", "RunConfig",
    "RunRecord", "Variant", "covariance", "derive_seed", "export_trace",
    "harness", "load", "persist", "problems", "rng", "run_batch",
    "run_single", "stages", "stats",
]
