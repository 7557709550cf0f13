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

Each operator takes the sorted (n, D) population and the school count k,
and proposes the whole school block X[:k] of an iteration. It draws school
by school, in the order one school at a time would draw: the school's
Gaussian vector, then (differencing only) its index pair, then its uniform
or uniforms. All arithmetic then runs once on the block, with every
addition in the per-school order, and ``CovModel.sample`` scales the normal
block row by row, so the block gives the bits of a per-school loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    """Gaussian search model estimated from the elite archive. ``factor``,
    made on construction, is the Cholesky factor of ``cov`` under the first
    jitter of a tenfold ladder that works, else a diagonal scale matrix."""

    mean_better: np.ndarray
    cov: np.ndarray
    factor: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if not np.all(np.isfinite(self.cov)):
            raise ValueError("covariance matrix holds non-finite entries")
        d = self.cov.shape[0]
        eye = np.eye(d)
        eps = 1e-12 * (np.trace(self.cov) / d + 1.0)
        for _ in range(9):  # initial attempt plus at most 8 escalations
            try:
                self.factor = np.linalg.cholesky(self.cov + eps * eye)
                return
            except np.linalg.LinAlgError:
                eps *= 10.0
        self.factor = np.diag(np.sqrt(np.maximum(np.diag(self.cov), 0.0) + eps))

    def sample(self, z, mean=None):
        """Map a (k, D) block of standard normals to draws from N(mean, C).

        The stacked vector-matrix product gives each row the bits of its own
        ``z_i @ L.T``; a plain ``z @ L.T`` can differ in the last bits.
        """
        center = self.mean_better if mean is None else np.asarray(mean, dtype=float)
        return center + np.matmul(z[:, None, :], self.factor.T)[:, 0]


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


def _school_draws(rng: RngStream, k: int, d: int):
    """Each school's Gaussian vector, then its uniform, school after school:
    a (k, D) normal block and a (k, 1) uniform column."""
    z, r = [], []
    for _ in range(k):
        z.append(rng.normal(size=d))
        r.append(rng.uniform())
    return np.array(z), np.array(r)[:, None]


def gaussian_operator(X, k, model: CovModel, rng: RngStream):
    """Resample each school around the rank-weighted mean plus a pull toward it.

    X_new = N(mean_better, C) + r * (mean_better - X), r ~ U(0, 1), for each
    school X[i], i < k, of the sorted (n, D) population ``X``. Draw order,
    school by school: the Gaussian vector, then the uniform scalar.
    """
    schools = np.asarray(X, dtype=float)[:k]
    z, r = _school_draws(rng, *schools.shape)
    return model.sample(z) + r * (model.mean_better - schools)


def shift_operator(X, k, model: CovModel, rng: RngStream):
    """Gaussian resample of each school around the shifted mean (mean_better + best + X)/3.

    X_new = N((mean_better + X_best + X)/3, C) + r * (mean_better - X), for
    each school X[i], i < k, of the sorted (n, D) population ``X``, with best
    X[0]. Draw order, school by school: the Gaussian vector, then the
    uniform scalar.
    """
    X = np.asarray(X, dtype=float)
    schools = X[:k]
    z, r = _school_draws(rng, *schools.shape)
    center = (model.mean_better + X[0] + schools) / 3.0
    return model.sample(z, mean=center) + r * (model.mean_better - schools)


def differential_operator(X, k, model: CovModel, rng: RngStream):
    """Gaussian resample of the first k agents plus two scaled difference vectors.

    X_new = N(mean_better, C) + r1 * (X_ran1 - X_best) + r2 * (X_ran2 - X_worst)

    for each school X[i], i < k, of the sorted (n, D) population ``X``, with
    best X[0] and worst X[-1]. X_ran1 and X_ran2 are two distinct agents
    other than X[i]: the pair j drawn from range(n - 1) maps to the row
    j + (j >= i). Draw order, school by school: the Gaussian vector, the
    distinct index pair, then r1 and r2.
    """
    X = np.asarray(X, dtype=float)
    n, d = X.shape
    if n < 3:
        raise ValueError("differencing needs at least 2 other agents (population of 3)")
    z, pairs, r = [], [], []
    for _ in range(k):
        z.append(rng.normal(size=d))
        pairs.append(rng.distinct_pair(n - 1))
        r.append(rng.uniform(size=2))
    pairs = np.array(pairs)
    pairs += pairs >= np.arange(k)[:, None]
    r = np.array(r)
    return (model.sample(np.array(z)) + r[:, :1] * (X[pairs[:, 0]] - X[0])
            + r[:, 1:] * (X[pairs[:, 1]] - X[-1]))
