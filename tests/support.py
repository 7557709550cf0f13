"""Shared helpers for the test suite: scripted RNG playback, tiny specs, the
one-draw-at-a-time resampling rule kept as a reference, reading and
rewriting a persisted set's results file, and the covariance model and
elite scores derived from scratch on every call, as they were before the
archive kept its window and rank order."""

from __future__ import annotations

import json
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


def results_arrays(out):
    """The arrays of the results file of the set under ``out``, by name."""
    with np.load(out / "results.npz", allow_pickle=False) as npz:
        return {name: npz[name] for name in npz.files}


def stable_arrays(out):
    """The arrays of the set under ``out`` that a rerun writes again: every
    array but ``wall_time`` as bytes, and ``meta`` without ``created_at``."""
    arrays = results_arrays(out)
    meta = json.loads(arrays.pop("meta").item())
    meta.pop("created_at", None)
    del arrays["wall_time"]
    return {name: (a.dtype.str, a.tobytes()) for name, a in arrays.items()}, meta


def rewrite_results(out, change):
    """Write ``change(arrays)`` over the results file under ``out``,
    ``arrays`` being its arrays by name."""
    np.savez(out / "results.npz", **change(results_arrays(out)))


def rewrite_meta(out, change):
    """Write ``change(meta)`` over the metadata of the set under ``out``."""
    rewrite_results(out, lambda a: {**a, "meta": np.array(json.dumps(
        change(json.loads(a["meta"].item()))))})


def drop_last_trace(out):
    """Rewrite the results file under ``out`` without its last row's trace:
    its length and its points."""
    rewrite_results(out, lambda a: {**a, "length": a["length"][:-1],
                                    "trace": a["trace"][:len(a["trace"]) - a["length"][-1]]})


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


def _reference_bases():
    """The base functions, with the three that take constants building them
    again on every call."""
    from ieco_mco.problems.benchmarks import BASE_FUNCTIONS

    def zakharov(Z):
        s = Z @ (0.5 * np.arange(1, Z.shape[1] + 1))
        return (Z ** 2).sum(axis=1) + s ** 2 + s ** 4

    def griewank(Z):
        idx = np.sqrt(np.arange(1, Z.shape[1] + 1))
        return 1.0 + (Z ** 2).sum(axis=1) / 4000.0 - np.cos(Z / idx).prod(axis=1)

    def elliptic(Z):
        d = Z.shape[1]
        expo = np.zeros(d) if d == 1 else 6.0 * np.arange(d) / (d - 1)
        return (10.0 ** expo * Z ** 2).sum(axis=1)

    return dict(BASE_FUNCTIONS, zakharov=zakharov, griewank=griewank,
                elliptic=elliptic)


def reference_composition(family, transform):
    """Reference composition objective: each component shifts, measures,
    rotates and weighs the block in numpy calls of its own."""
    from ieco_mco.problems.benchmarks import (COMPOSITION_FAMILIES,
                                              _component_shifts)
    parts = COMPOSITION_FAMILIES[family]
    bases = _reference_bases()
    d = transform.dimension
    funcs = [bases[p[0]] for p in parts]
    sigmas = np.array([p[1] for p in parts])
    lams = np.array([p[2] for p in parts])
    biases = np.array([p[3] for p in parts])
    shifts = _component_shifts(family, transform, len(parts))
    rot_t = transform.rotation.T
    norms = np.array([float(fn(np.zeros((1, d)))[0]) for fn in funcs])

    def batch(X):
        n = X.shape[0]
        vals = np.empty((n, len(funcs)))
        d2 = np.empty((n, len(funcs)))
        for k, fn in enumerate(funcs):
            diff = X - shifts[k]
            d2[:, k] = (diff ** 2).sum(axis=1)
            Z = diff @ rot_t
            vals[:, k] = lams[k] * (fn(Z) - norms[k]) + biases[k]
        with np.errstate(divide="ignore"):
            w = np.exp(-d2 / (2.0 * d * sigmas ** 2)) / np.sqrt(d2)
        exact = d2 <= 1e-24
        for i in np.flatnonzero(exact.any(axis=1)):
            hit = np.flatnonzero(exact[i])
            w[i] = 0.0
            w[i, hit[0]] = 1.0
        wsum = w.sum(axis=1, keepdims=True)
        flat = wsum[:, 0] <= 0
        if flat.any():
            w[flat] = 1.0 / len(funcs)
            wsum[flat] = 1.0
        return (w / wsum * vals).sum(axis=1) + transform.f_bias

    return batch
