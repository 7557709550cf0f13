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

The archive keeps what ``estimate`` needs, so that nothing a push did not
change is derived again: its window in place and in FIFO row order, so
every sum adds as before; finite, as ``push`` refuses non-finite rows; and
in stable rank order, as ``push`` merges its rows in. ``rank_weights`` and
the identity of each D are cached.

Each operator takes the sorted (n, D) population and the school count k,
and proposes the whole school block X[:k] of an iteration. It draws school
by school, in the order one school at a time would draw: the school's
Gaussian vector, then (differencing only) its index pair, then its uniform
or uniforms. All arithmetic then runs once on the block, with every
addition in the per-school order, and ``CovModel.sample`` scales the normal
block row by row, so the block gives the bits of a per-school loop.
"""

from __future__ import annotations

import functools
import math
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
    """FIFO store of elite (position, fitness-at-insertion) pairs.

    The window is rows ``[_start, _stop)`` of a ``(2 * capacity, D)``
    buffer, oldest first; it moves to the front only when a push would run
    past the end. ``_order`` holds the window's buffer rows in stable rank
    order of fitness, as ``np.argsort(fitnesses(), kind="stable")`` would
    give them; each push merges its rows into it.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("archive capacity must be at least 1")
        self.capacity = int(capacity)
        self._rows = np.empty((0, 0))  # sized at the first push
        self._ranked = np.empty((0, 0))  # estimate's scratch block
        self._fitness = np.empty(2 * self.capacity)
        self._start = self._stop = 0
        self._order = np.empty(0, dtype=np.intp)

    def __len__(self):
        return self._stop - self._start

    def push(self, positions, fitnesses):
        """Append entries in order; evict oldest while above capacity.

        Raises ValueError, leaving the archive as it was, for mismatched
        lengths, a row of another width, or an entry that is not finite.
        """
        positions = np.atleast_2d(np.asarray(positions, dtype=float))
        fitnesses = np.atleast_1d(np.asarray(fitnesses, dtype=float))
        r, d = positions.shape
        if r != fitnesses.shape[0]:
            raise ValueError("positions and fitnesses must have matching lengths")
        if not (np.isfinite(positions).all() and np.isfinite(fitnesses).all()):
            raise ValueError("archive entries must be finite")
        if self._rows.shape[1] != d:
            if len(self):
                raise ValueError("positions must have %d columns, not %d"
                                 % (self._rows.shape[1], d))
            self._rows = np.empty((2 * self.capacity, d))
            self._ranked = np.empty((self.capacity, d))
        if r == 0:
            return
        if r > self.capacity:
            r = self.capacity
            positions, fitnesses = positions[-r:], fitnesses[-r:]
        start = self._start + max(0, len(self) + r - self.capacity)
        stop, order = self._stop, self._order
        if start > self._start:
            order = order[order >= start]
        if stop + r > self._rows.shape[0]:  # move the window to the front
            self._rows[:stop - start] = self._rows[start:stop]
            self._fitness[:stop - start] = self._fitness[start:stop]
            order = order - start
            start, stop = 0, stop - start
        self._rows[stop:stop + r] = positions
        self._fitness[stop:stop + r] = fitnesses
        # The kept rows in rank order, then the new rows in window order: a
        # stable sort of them by fitness is the stable argsort of the window,
        # and the sort merges the long sorted run with the few new rows.
        rows = np.concatenate((order, np.arange(stop, stop + r)))
        self._order = rows[np.argsort(self._fitness[rows], kind="stable")]
        self._start, self._stop = start, stop + r

    def positions(self) -> np.ndarray:
        return self._rows[self._start:self._stop].copy()

    def fitnesses(self) -> np.ndarray:
        return self._fitness[self._start:self._stop].copy()


@functools.lru_cache(maxsize=None)
def rank_weights(m: int) -> np.ndarray:
    """Log-rank weights for m archive entries, best rank first, sum 1.

    Cached per m, so the array is read-only."""
    if m < 1:
        raise ValueError("m must be positive")
    ranks = np.arange(1, m + 1, dtype=float)
    raw = np.log((m + 1) / ranks)
    weights = raw / raw.sum()
    weights.flags.writeable = False
    return weights


@functools.lru_cache(maxsize=None)
def _identity(d: int) -> np.ndarray:
    eye = np.eye(d)
    eye.flags.writeable = False
    return eye


@dataclass
class CovModel:
    """Gaussian search model estimated from the elite archive. ``factor``,
    made on construction, is the Cholesky factor of ``cov`` under the first
    jitter of a tenfold ladder that works, else a diagonal scale matrix."""

    mean_better: np.ndarray
    cov: np.ndarray
    factor: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if not np.isfinite(self.cov).all():
            raise ValueError("covariance matrix holds non-finite entries")
        d = self.cov.shape[0]
        eye = _identity(d)
        eps = 1e-12 * (self.cov.trace() / d + 1.0)
        for _ in range(9):  # initial attempt plus at most 8 escalations
            try:
                self.factor = np.linalg.cholesky(self.cov + eps * eye)
                return
            except np.linalg.LinAlgError:
                eps *= 10.0
        self.factor = np.diag(np.sqrt(np.maximum(np.diag(self.cov), 0.0) + eps))

    def sample(self, z, mean=None):
        """Map a (k, D) block of standard normals to draws from N(mean, C),
        ``mean`` a float (D,) or (k, D) array, ``mean_better`` by default.

        The stacked vector-matrix product gives each row the bits of its own
        ``z_i @ L.T``; a plain ``z @ L.T`` can differ in the last bits.
        """
        center = self.mean_better if mean is None else mean
        return center + np.matmul(z[:, None, :], self.factor.T)[:, 0]


def estimate(archive: EliteArchive) -> CovModel:
    """Rank-weighted mean and scatter matrix of the current archive.

    Reads the archive's own window and rank order; its scratch block holds
    the ranked rows, then the deviations."""
    m = len(archive)
    if m < 2:
        raise ArchiveTooSmallError("covariance estimation needs at least 2 entries, have %d" % m)
    X = archive._rows[archive._start:archive._stop]
    # push keeps every index of _order in range; the default mode="raise"
    # would gather through a temporary before copying into ``out``
    ranked = np.take(archive._rows, archive._order, axis=0, out=archive._ranked[:m],
                     mode="clip")
    mean = rank_weights(m) @ ranked
    dev = np.subtract(X, mean, out=ranked)
    cov = dev.T @ dev
    cov /= m
    return CovModel(mean_better=mean, cov=cov)


def elite_indices(f, positions, k):
    """Indices of the k highest elite scores of the float fitnesses ``f`` of
    the (n, D) fitness-sorted ``positions``, ties to the lower index.

    The score is ELITE_WEIGHT * fitness_norm + (1 - ELITE_WEIGHT) *
    distance_norm. fitness_norm rescales the finite fitnesses so the best
    maps to 1 and the worst to 0 (all 1 when they are flat); a non-finite
    fitness gets 0. distance_norm is the distance from the best, ``positions[0]``
    as the operators read X[0], rescaled to [0, 1] (all 0 when all sit on it).
    """
    if not 1 <= k <= f.shape[0]:
        raise ValueError("k must lie in [1, population size]")
    f_min, f_max = f.min(), f.max()
    all_finite = math.isfinite(f_min) and math.isfinite(f_max)  # NaN and inf show here
    if not all_finite:
        ranked = f[np.isfinite(f)]
        f_min, f_max = (ranked.min(), ranked.max()) if ranked.size else (0.0, 0.0)
    if f_max > f_min:
        fitness_norm = (f_max - f) / (f_max - f_min)
    else:
        fitness_norm = np.ones_like(f)
    if not all_finite:
        fitness_norm[~np.isfinite(f)] = 0.0
    # the row norms as np.linalg.norm(diff, axis=1) computes them
    diff = positions - positions[0]
    d = np.sqrt(np.add.reduce(np.multiply(diff, diff, out=diff), axis=1))
    d_max = d.max()
    distance_norm = d / d_max if d_max > 0 else np.zeros_like(d)
    scores = ELITE_WEIGHT * fitness_norm + (1.0 - ELITE_WEIGHT) * distance_norm
    order = np.argsort(-scores, kind="stable")
    return order[:k]


def _school_draws(rng: RngStream, k: int, d: int):
    """Each school's Gaussian vector, then its uniform, school after school:
    a (k, D) normal block and a (k, 1) uniform column."""
    z, r = np.empty((k, d)), np.empty((k, 1))
    for j in range(k):
        z[j] = rng.normal(size=d)
        r[j] = rng.uniform()
    return z, r


def gaussian_operator(X, k, model: CovModel, rng: RngStream):
    """Resample each school around the rank-weighted mean plus a pull toward it.

    X_new = N(mean_better, C) + r * (mean_better - X), r ~ U(0, 1), for each
    school X[i], i < k, of the sorted (n, D) population ``X``. Draw order,
    school by school: the Gaussian vector, then the uniform scalar.
    """
    schools = X[:k]
    z, r = _school_draws(rng, *schools.shape)
    return model.sample(z) + r * (model.mean_better - schools)


def shift_operator(X, k, model: CovModel, rng: RngStream):
    """Gaussian resample of each school around the shifted mean (mean_better + best + X)/3.

    X_new = N((mean_better + X_best + X)/3, C) + r * (mean_better - X), for
    each school X[i], i < k, of the sorted (n, D) population ``X``, with best
    X[0]. Draw order, school by school: the Gaussian vector, then the
    uniform scalar.
    """
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
    n, d = X.shape
    if n < 3:
        raise ValueError("differencing needs at least 2 other agents (population of 3)")
    z, pairs, r = np.empty((k, d)), np.empty((k, 2), dtype=np.intp), np.empty((k, 2))
    for j in range(k):
        z[j] = rng.normal(size=d)
        pairs[j] = rng.distinct_pair(n - 1)
        r[j] = rng.uniform(size=2)
    pairs += pairs >= np.arange(k)[:, None]
    return (model.sample(z) + r[:, :1] * (X[pairs[:, 0]] - X[0])
            + r[:, 1:] * (X[pairs[:, 1]] - X[-1]))
