"""Population-based optimizer with covariance-guided learning operators.

The package bundles the three-stage base optimizer and its archive-guided
variants, a seeded benchmark suite, ten constrained engineering design
problems, a reproducible experiment harness, and the nonparametric tests
used to compare algorithms. Each name is imported from its submodule.
"""

from . import covariance, harness, problems, rng, stages, stats

__version__ = "0.1.0"

__all__ = ["covariance", "harness", "problems", "rng", "stages", "stats"]
