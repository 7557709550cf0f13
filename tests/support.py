"""Shared helpers for the test suite: scripted RNG playback, tiny specs and
the one-draw-at-a-time resampling rule kept as a reference."""

from __future__ import annotations

import numpy as np

from ieco_mco.rng import Bounds, mantegna_sigma
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

    def integers(self, low, high=None, size=None):
        raise NotImplementedError("scripted integers not needed")

    def distinct_pair(self, n):
        return tuple(self._pairs.pop(0))


def levy_script(values, beta=1.5):
    """Normal-draw queue that makes levy_sample emit ``values`` (v fixed at 1).

    levy_sample draws the u vector first, then the v vector; with v = 1 the
    output is (value / sigma) * sigma, exact to one ulp.
    """
    sigma = mantegna_sigma(beta)
    values = np.atleast_1d(np.asarray(values, dtype=float))
    return [v / sigma for v in values] + [1.0] * values.size


class CountingEvaluator:
    """Minimal evaluator for driving step() directly; counts evaluations."""

    def __init__(self, fn):
        self.fn = fn
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
