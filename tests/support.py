"""Shared helpers for the test suite: scripted RNG playback, tiny specs, the
one-draw-at-a-time resampling rule kept as a reference, and the covariance
model and elite scores derived from scratch on every call, as they were
before the archive kept its window and rank order."""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

from ieco_mco.covariance import ELITE_WEIGHT
from ieco_mco.rng import LEVY_BETA, Bounds, RngStream, mantegna_sigma
from ieco_mco.problems import (MAX_RESAMPLES, VIOLATION_TOL, HandledPoint,
                               penalized_fitness)
from ieco_mco.problems.core import ProblemSpec


class ScriptedRng:
    """Plays back queued draws so hand-computed examples are exact.

    Only the methods the update rules actually call are implemented. A queue
    underrun raises IndexError, which makes an unexpected extra draw visible.
    """

    def __init__(self, normals=(), uniforms=(), pairs=()):
        self._normals = list(normals)
        self._uniforms = list(uniforms)
        self._pairs = list(pairs)

    def normal(self, size=None):
        if size is None:
            return float(self._normals.pop(0))
        vals = [float(self._normals.pop(0)) for _ in range(int(np.prod(size)))]
        return np.asarray(vals).reshape(size)

    def uniform(self, size=None):
        if size is None:
            return float(self._uniforms.pop(0))
        vals = [float(self._uniforms.pop(0)) for _ in range(int(np.prod(size)))]
        return np.asarray(vals).reshape(size)

    def peek_uniform(self, size):
        count = int(np.prod(size))
        if count > len(self._uniforms):
            raise IndexError("peek past the scripted uniforms")
        return np.asarray(self._uniforms[:count], dtype=float).reshape(size)

    def distinct_pair(self, n):
        return tuple(self._pairs.pop(0))


def levy_script(values):
    """Normal-draw queue that makes levy_sample emit ``values`` (v fixed at 1).

    levy_sample draws the u vector first, then the v vector; with v = 1 the
    output is (value / sigma) * sigma, exact to one ulp.
    """
    sigma = mantegna_sigma(LEVY_BETA)
    values = np.atleast_1d(np.asarray(values, dtype=float))
    return [v / sigma for v in values] + [1.0] * values.size


class CountingEvaluator:
    """Minimal evaluator for driving step() directly: reads ``fn`` on the box
    ``bounds`` with no constraint handling, holds the run's stream, seeded
    with ``seed``, and counts evaluations against the budget ``fes_max``."""

    def __init__(self, fn, bounds, seed, fes_max=10 ** 6):
        self.fn = fn
        self.spec = SimpleNamespace(bounds=bounds)
        self.rng = RngStream(seed)
        self.fes_max = fes_max
        self.used = 0

    def evaluate(self, X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        self.used += X.shape[0]
        f = np.asarray(self.fn(X), dtype=float)
        return f, f.copy(), np.zeros(X.shape[0]), X.copy()


def sphere_spec(dim, low=-100.0, high=100.0, name="sphere-plain"):
    """Unconstrained sphere with no shift, for harness-level tests."""

    def batch(X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return (X ** 2).sum(axis=1)

    return ProblemSpec(
        name=name, bounds=Bounds.cube(low, high, dim),
        objective=batch,
        category="unimodal", known_target=0.0,
        target_note="analytic optimum at the origin",
        known_point=np.zeros(dim),
    )


def sequential_resample(spec, x, objective, violation, rng, extra_cap):
    """Reference resampling rule: draw one uniform point, read it, compare,
    until a draw is feasible or the allowance is spent."""
    tol = VIOLATION_TOL
    spent = 1
    best = HandledPoint(np.array(x, dtype=float), float(objective),
                        float(violation), spent)
    if best.feasible:
        return best
    for _ in range(min(MAX_RESAMPLES, max(0, int(extra_cap)))):
        trial = spec.bounds.lower + spec.bounds.span * rng.uniform(size=spec.dimension)
        obj, vio = spec.evaluate(trial)
        spent += 1
        if vio < best.violation or (vio <= tol and not best.feasible):
            best = HandledPoint(trial, obj, vio, spent)
            if best.feasible:
                break
    best.evaluations = spent
    return best


def sequential_evaluate(spec, X, rng, fes_max, used=0):
    """Reference ``Evaluator.evaluate``: read the block, then resample each
    infeasible row in row order with :func:`sequential_resample`.

    Returns (fitness, objective, violation, positions, used, handled), where
    ``handled`` lists the HandledPoint of each infeasible row.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    objective, violation = spec.batch(X)
    used += X.shape[0]
    fitness = penalized_fitness(objective, violation)
    positions = X.copy()
    handled = []
    for i in np.flatnonzero(violation > VIOLATION_TOL):
        out = sequential_resample(spec, X[i], objective[i], violation[i], rng,
                                  fes_max - used)
        used += out.evaluations - 1
        objective[i], violation[i] = out.objective, out.violation
        fitness[i] = penalized_fitness(out.objective, out.violation)
        positions[i] = out.position
        handled.append(out)
    return fitness, objective, violation, positions, used, handled


def traces_bytes(out):
    """The bytes of each file under a persisted set's traces folder, by name."""
    return {p.name: p.read_bytes() for p in (out / "traces").iterdir()}


def rewrite_traces(path, change):
    """Write ``change(arrays)`` over the traces file at ``path``, ``arrays``
    being its arrays by name."""
    with np.load(path, allow_pickle=False) as npz:
        arrays = {name: npz[name] for name in npz.files}
    np.savez(path, **change(arrays))


def drop_last_trace(path):
    """Rewrite the traces file at ``path`` without its last trace."""
    def drop(a):
        end = len(a["fes"]) - a["length"][-1]
        return {"algorithm": a["algorithm"][:-1], "run": a["run"][:-1],
                "length": a["length"][:-1], "fes": a["fes"][:end],
                "best": a["best"][:end]}
    rewrite_traces(path, drop)


def reference_estimate(X, f):
    """Reference covariance model of an archive holding rows ``X`` (oldest
    first) with stored fitnesses ``f``: sort, gather, weigh and factor from
    scratch. Returns (mean_better, cov, factor)."""
    m, d = X.shape
    order = np.argsort(f, kind="stable")
    ranks = np.arange(1, m + 1, dtype=float)
    raw = np.log((m + 1) / ranks)
    mean = (raw / raw.sum()) @ X[order]
    dev = X - mean
    cov = dev.T @ dev / m
    eye = np.eye(d)
    eps = 1e-12 * (np.trace(cov) / d + 1.0)
    for _ in range(9):
        try:
            return mean, cov, np.linalg.cholesky(cov + eps * eye)
        except np.linalg.LinAlgError:
            eps *= 10.0
    return mean, cov, np.diag(np.sqrt(np.maximum(np.diag(cov), 0.0) + eps))


def reference_elite_indices(fitnesses, positions, best_position, k):
    """Reference elite selection: the k highest elite scores, ties to the
    lower index, with the non-finite mask and ``np.linalg.norm`` always
    built."""
    f = np.asarray(fitnesses, dtype=float)
    finite = np.isfinite(f)
    ranked = f if finite.all() else f[finite]
    f_min, f_max = (ranked.min(), ranked.max()) if ranked.size else (0.0, 0.0)
    if f_max > f_min:
        fitness_norm = (f_max - f) / (f_max - f_min)
    else:
        fitness_norm = np.ones_like(f)
    fitness_norm[~finite] = 0.0
    d = np.linalg.norm(np.asarray(positions, dtype=float) - best_position, axis=1)
    d_max = d.max()
    distance_norm = d / d_max if d_max > 0 else np.zeros_like(d)
    scores = ELITE_WEIGHT * fitness_norm + (1.0 - ELITE_WEIGHT) * distance_norm
    return np.argsort(-scores, kind="stable")[:k]
