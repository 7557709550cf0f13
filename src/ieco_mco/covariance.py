"""Elite archive, covariance estimation, and the three school-update operators.

The archive keeps a FIFO window of elite positions together with the fitness
each position had when it was pushed. From the archive a Gaussian search
model is estimated:

    mean_better = sum_i w_i * X_(i)          (rank-weighted mean)
    C           = (1/m) * sum_i (X_i - mean_better)(X_i - mean_better)^T

where X_(i) is the archive sorted ascending by stored fitness and the weights
decay log-linearly with rank,

    w_i = ln((m + 1) / i) / sum_j ln((m + 1) / j),   i = 1 .. m,

so better entries pull the mean harder. Three operators then propose new
school positions from the model: a plain Gaussian resample, a mean-shifted
resample, and a differencing resample that adds scaled pairwise differences.
Each iteration pushes the k agents with the highest elite score, which
weighs fitness and distance from the best agent equally (``ELITE_WEIGHT``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

# ``clamp`` is not called here (``stages.step`` clamps the whole proposal
# block once), but the benchmark tracer rebinds ``covariance.clamp``.
from .rng import RngStream, clamp

# Weight of fitness against distance from the best in the elite score.
ELITE_WEIGHT = 0.5


class ArchiveTooSmallError(ValueError):
    """Raised when a covariance model is requested from fewer than 2 entries."""


def min_model_entries(dim: int) -> int:
    """Archive size below which the operators fall back to the plain rules."""
    return max(2, dim // 2 + 1)


class EliteArchive:
    """FIFO store of elite (position, fitness-at-insertion) pairs."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("archive capacity must be at least 1")
        self.capacity = int(capacity)
        self._positions = np.empty((0, 0))
        self._fitness = np.empty(0)

    def __len__(self):
        return self._fitness.shape[0]

    def push(self, positions, fitnesses):
        """Append entries in order; evict oldest while above capacity."""
        positions = np.atleast_2d(np.asarray(positions, dtype=float))
        fitnesses = np.atleast_1d(np.asarray(fitnesses, dtype=float))
        if positions.shape[0] != fitnesses.shape[0]:
            raise ValueError("positions and fitnesses must have matching lengths")
        old = self._positions.reshape(-1, positions.shape[1])
        self._positions = np.concatenate((old, positions))[-self.capacity:]
        self._fitness = np.concatenate((self._fitness, fitnesses))[-self.capacity:]

    def positions(self) -> np.ndarray:
        return self._positions.copy()

    def fitnesses(self) -> np.ndarray:
        return self._fitness.copy()


def rank_weights(m: int) -> np.ndarray:
    """Log-rank weights for m archive entries, best rank first, sum 1."""
    if m < 1:
        raise ValueError("m must be positive")
    ranks = np.arange(1, m + 1, dtype=float)
    raw = np.log((m + 1) / ranks)
    return raw / raw.sum()


@dataclass
class CovModel:
    """Gaussian search model estimated from the elite archive."""

    mean_better: np.ndarray
    cov: np.ndarray
    _factor: Optional[np.ndarray] = field(default=None, repr=False)
    _diag_fallback: Optional[np.ndarray] = field(default=None, repr=False)

    @property
    def dim(self):
        return self.mean_better.shape[0]

    def _ensure_factor(self):
        if self._factor is not None or self._diag_fallback is not None:
            return
        if not np.all(np.isfinite(self.cov)):
            raise ValueError("covariance matrix holds non-finite entries")
        d = self.dim
        eye = np.eye(d)
        eps = 1e-12 * (np.trace(self.cov) / d + 1.0)
        for _ in range(9):  # initial attempt plus at most 8 escalations
            try:
                self._factor = np.linalg.cholesky(self.cov + eps * eye)
                return
            except np.linalg.LinAlgError:
                eps *= 10.0
        self._diag_fallback = np.sqrt(np.maximum(np.diag(self.cov), 0.0) + eps)

    def sample(self, rng: RngStream, size=None, mean=None):
        """Draw from N(mean, C) with jittered factorization; z then scaled."""
        center = self.mean_better if mean is None else np.asarray(mean, dtype=float)
        self._ensure_factor()
        shape = self.dim if size is None else (size, self.dim)
        z = rng.normal(size=shape)
        if self._factor is not None:
            return center + z @ self._factor.T
        return center + z * self._diag_fallback


def estimate(archive: EliteArchive) -> CovModel:
    """Rank-weighted mean and scatter matrix of the current archive."""
    m = len(archive)
    if m < 2:
        raise ArchiveTooSmallError("covariance estimation needs at least 2 entries, have %d" % m)
    X = archive.positions()
    f = archive.fitnesses()
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(f))):
        raise ValueError("archive holds non-finite entries")
    order = np.argsort(f, kind="stable")
    mean = rank_weights(m) @ X[order]
    dev = X - mean
    cov = dev.T @ dev / m
    return CovModel(mean_better=mean, cov=cov)


def elite_indices(fitnesses, positions, best_position, k):
    """Indices of the k highest elite scores, ties to the lower index.

    The score is ELITE_WEIGHT * fitness_norm + (1 - ELITE_WEIGHT) *
    distance_norm. fitness_norm rescales the finite fitnesses so the best
    maps to 1 and the worst to 0 (all 1 when they are flat); a non-finite
    fitness gets 0. distance_norm is the distance from the current best
    position rescaled to [0, 1] (all 0 when every agent sits on the best).
    """
    f = np.asarray(fitnesses, dtype=float)
    if not 1 <= k <= f.shape[0]:
        raise ValueError("k must lie in [1, population size]")
    pos = np.asarray(positions, dtype=float)
    best = np.asarray(best_position, dtype=float)
    finite = np.isfinite(f)
    ranked = f if finite.all() else f[finite]
    f_min, f_max = (ranked.min(), ranked.max()) if ranked.size else (0.0, 0.0)
    if f_max > f_min:
        fitness_norm = (f_max - f) / (f_max - f_min)
    else:
        fitness_norm = np.ones_like(f)
    fitness_norm[~finite] = 0.0
    d = np.linalg.norm(pos - best, axis=1)
    d_max = d.max()
    distance_norm = d / d_max if d_max > 0 else np.zeros_like(d)
    scores = ELITE_WEIGHT * fitness_norm + (1.0 - ELITE_WEIGHT) * distance_norm
    order = np.argsort(-scores, kind="stable")
    return order[:k]


def gaussian_operator(position, model: CovModel, rng: RngStream):
    """Resample around the rank-weighted mean plus a pull toward it.

    X_new = N(mean_better, C) + r * (mean_better - X), r ~ U(0, 1).
    Draw order: Gaussian vector first, then the uniform scalar.
    """
    position = np.asarray(position, dtype=float)
    g = model.sample(rng)
    r = float(rng.uniform())
    return g + r * (model.mean_better - position)


def shift_operator(position, model: CovModel, best_position, rng: RngStream):
    """Gaussian resample around the shifted mean (mean_better + best + X)/3.

    X_new = N((mean_better + X_best + X)/3, C) + r * (mean_better - X).
    Draw order: Gaussian vector first, then the uniform scalar.
    """
    position = np.asarray(position, dtype=float)
    best_position = np.asarray(best_position, dtype=float)
    center = (model.mean_better + best_position + position) / 3.0
    g = model.sample(rng, mean=center)
    r = float(rng.uniform())
    return g + r * (model.mean_better - position)


def differential_operator(position, model: CovModel, others, best_position,
                          worst_position, rng: RngStream):
    """Gaussian resample plus two scaled difference vectors.

    X_new = N(mean_better, C) + r1 * (X_ran1 - X_best) + r2 * (X_ran2 - X_worst)

    with X_ran1, X_ran2 two distinct agents drawn from ``others`` (the
    population excluding the updating agent). Draw order: Gaussian vector,
    the distinct index pair, then r1 and r2.
    """
    others = np.atleast_2d(np.asarray(others, dtype=float))
    if others.shape[0] < 2:
        raise ValueError("differencing needs at least 2 other agents (population of 3)")
    best_position = np.asarray(best_position, dtype=float)
    worst_position = np.asarray(worst_position, dtype=float)
    g = model.sample(rng)
    i1, i2 = rng.distinct_pair(others.shape[0])
    r1 = float(rng.uniform())
    r2 = float(rng.uniform())
    return g + r1 * (others[i1] - best_position) + r2 * (others[i2] - worst_position)
