"""Shared helpers for the test suite: scripted RNG playback, tiny specs, the
one-draw-at-a-time resampling rule kept as a reference, reading and
rewriting a persisted set's results file, the covariance model and
elite scores derived from scratch on every call, as they were before the
archive kept its window and rank order, and the engineering formulas as
per-point functions read row by row, as they were before they were read
by column."""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np

from ieco_mco.covariance import ELITE_WEIGHT
from ieco_mco.harness import Evaluator
from ieco_mco.rng import LEVY_BETA, Bounds, RngStream, mantegna_sigma
from ieco_mco.problems import (ENGINEERING, MAX_RESAMPLES, VIOLATION_TOL,
                               HandledPoint, penalized_fitness)
from ieco_mco.problems.core import ProblemSpec
from ieco_mco.problems.engineering import EQUALITY_EPS


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


def counting_run(fn, bounds, seed, fes_max=10 ** 6):
    """An unstarted run for driving step() directly: an ``Evaluator`` of the
    unconstrained problem whose objective is ``fn`` on the box ``bounds``,
    with its stream seeded with ``seed`` and the budget ``fes_max``."""
    spec = ProblemSpec(name="counted", bounds=bounds, objective=fn, category="test")
    return Evaluator(spec, fes_max, RngStream(seed))


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


# The engineering formulas rw01-rw05 and rw07-rw10 as per-point functions of
# one row ``x``, the reference for the column formulas of
# ``ieco_mco.problems.engineering`` (rw06 was a block formula already).

def _reference_rw01():
    def f(x):
        return (x[2] + 2.0) * x[1] * x[0] ** 2

    def g(x):
        d, dm, n = x
        return [
            1.0 - dm ** 3 * n / (71785.0 * d ** 4),
            (4.0 * dm ** 2 - d * dm) / (12566.0 * (dm * d ** 3 - d ** 4))
            + 1.0 / (5108.0 * d ** 2) - 1.0,
            1.0 - 140.45 * d / (dm ** 2 * n),
            (d + dm) / 1.5 - 1.0,
        ]

    return f, g


def _reference_rw02():
    def f(x):
        return (0.6224 * x[0] * x[2] * x[3] + 1.7781 * x[1] * x[2] ** 2
                + 3.1661 * x[0] ** 2 * x[3] + 19.84 * x[0] ** 2 * x[2])

    def g(x):
        return [
            -x[0] + 0.0193 * x[2],
            -x[1] + 0.00954 * x[2],
            -math.pi * x[2] ** 2 * x[3] - (4.0 / 3.0) * math.pi * x[2] ** 3 + 1296000.0,
            x[3] - 240.0,
        ]

    return f, g


def _reference_rw03():
    L, P, SIGMA = 100.0, 2.0, 2.0

    def f(x):
        return (2.0 * math.sqrt(2.0) * x[0] + x[1]) * L

    def g(x):
        a, b = x
        den = math.sqrt(2.0) * a ** 2 + 2.0 * a * b
        return [
            (math.sqrt(2.0) * a + b) / den * P - SIGMA,
            b / den * P - SIGMA,
            1.0 / (math.sqrt(2.0) * b + a) * P - SIGMA,
        ]

    return f, g


def _reference_rw04():
    P, L, E, G = 6000.0, 14.0, 30e6, 12e6
    TAU_MAX, SIGMA_MAX, DELTA_MAX = 13600.0, 30000.0, 0.25

    def f(x):
        return 1.10471 * x[0] ** 2 * x[1] + 0.04811 * x[2] * x[3] * (14.0 + x[1])

    def g(x):
        h, l, t, b = x
        tau_p = P / (math.sqrt(2.0) * h * l)
        m = P * (L + l / 2.0)
        r = math.sqrt(l ** 2 / 4.0 + ((h + t) / 2.0) ** 2)
        j = 2.0 * (math.sqrt(2.0) * h * l * (l ** 2 / 12.0 + ((h + t) / 2.0) ** 2))
        tau_pp = m * r / j
        tau = math.sqrt(tau_p ** 2 + 2.0 * tau_p * tau_pp * l / (2.0 * r) + tau_pp ** 2)
        sigma = 6.0 * P * L / (b * t ** 2)
        delta = 4.0 * P * L ** 3 / (E * t ** 3 * b)
        p_c = (4.013 * E * math.sqrt(t ** 2 * b ** 6 / 36.0) / L ** 2
               * (1.0 - t / (2.0 * L) * math.sqrt(E / (4.0 * G))))
        return [
            tau - TAU_MAX,
            sigma - SIGMA_MAX,
            h - b,
            0.10471 * h ** 2 + 0.04811 * t * b * (14.0 + l) - 5.0,
            0.125 - h,
            delta - DELTA_MAX,
            P - p_c,
        ]

    return f, g


def _reference_rw05():
    def f(x):
        x1, x2, x3, x4, x5, x6, x7 = x
        return (0.7854 * x1 * x2 ** 2 * (3.3333 * x3 ** 2 + 14.9334 * x3 - 43.0934)
                - 1.508 * x1 * (x6 ** 2 + x7 ** 2)
                + 7.4777 * (x6 ** 3 + x7 ** 3)
                + 0.7854 * (x4 * x6 ** 2 + x5 * x7 ** 2))

    def g(x):
        x1, x2, x3, x4, x5, x6, x7 = x
        return [
            27.0 / (x1 * x2 ** 2 * x3) - 1.0,
            397.5 / (x1 * x2 ** 2 * x3 ** 2) - 1.0,
            1.93 * x4 ** 3 / (x2 * x3 * x6 ** 4) - 1.0,
            1.93 * x5 ** 3 / (x2 * x3 * x7 ** 4) - 1.0,
            math.sqrt((745.0 * x4 / (x2 * x3)) ** 2 + 16.9e6) / (110.0 * x6 ** 3) - 1.0,
            math.sqrt((745.0 * x5 / (x2 * x3)) ** 2 + 157.5e6) / (85.0 * x7 ** 3) - 1.0,
            x2 * x3 / 40.0 - 1.0,
            5.0 * x2 / x1 - 1.0,
            x1 / (12.0 * x2) - 1.0,
            (1.5 * x6 + 1.9) / x4 - 1.0,
            (1.1 * x7 + 1.9) / x5 - 1.0,
        ]

    return f, g


def _reference_rw07():
    D, d, BW = 160.0, 90.0, 30.0

    def _capacity(x):
        dm, db, z, fi, fo = x[0], x[1], x[2], x[3], x[4]
        gamma = db / dm
        ratio = fi * (2.0 * fo - 1.0) / (fo * (2.0 * fi - 1.0))
        fc = (37.91
              * (1.0 + (1.04 * ((1.0 - gamma) / (1.0 + gamma)) ** 1.72
                        * ratio ** 0.41) ** (10.0 / 3.0)) ** -0.3
              * (gamma ** 0.3 * (1.0 - gamma) ** 1.39 / (1.0 + gamma) ** (1.0 / 3.0))
              * (2.0 * fi / (2.0 * fi - 1.0)) ** 0.41)
        if db <= 25.4:
            return fc * z ** (2.0 / 3.0) * db ** 1.8
        return 3.647 * fc * z ** (2.0 / 3.0) * db ** 1.4

    def f(x):
        return -_capacity(x)

    def g(x):
        dm, db, z, fi, fo, kdmin, kdmax, eps, e, zeta = x
        t = D - d - 2.0 * db
        arm = (D - d) / 2.0 - 3.0 * (t / 4.0)
        leg = D / 2.0 - t / 4.0 - db
        hyp = d / 2.0 + t / 4.0
        num = arm ** 2 + leg ** 2 - hyp ** 2
        den = 2.0 * arm * leg
        phi0 = 2.0 * math.pi - 2.0 * math.acos(min(1.0, max(-1.0, num / den)))
        return [
            z - 1.0 - phi0 / (2.0 * math.asin(db / dm)),
            kdmin * (D - d) - 2.0 * db,
            2.0 * db - kdmax * (D - d),
            zeta * BW - db,
            0.5 * (D + d) - dm,
            dm - (0.5 + e) * (D + d),
            eps * db - 0.5 * (D - dm - db),
        ]

    return f, g


def _reference_rw08():
    def f(x):
        # left to right, as numpy sums five entries; the builtin sum
        # compensates from CPython 3.12 on
        return 0.0624 * (x[0] + x[1] + x[2] + x[3] + x[4])

    def g(x):
        return [
            61.0 / x[0] ** 3 + 37.0 / x[1] ** 3 + 19.0 / x[2] ** 3
            + 7.0 / x[3] ** 3 + 1.0 / x[4] ** 3 - 1.0,
        ]

    return f, g


def _reference_rw09():
    RHO, PMAX, VSRMAX = 0.0000078, 1.0, 10.0
    DELTA_R, LMAX, DELTA = 20.0, 30.0, 0.5
    MU, S, MS, MF = 0.5, 1.5, 40.0, 3.0
    N_RPM, IZ, TMAX = 250.0, 55.0, 15.0

    def f(x):
        ri, ro, t, _, z = x
        return math.pi * (ro ** 2 - ri ** 2) * t * (z + 1.0) * RHO

    def g(x):
        ri, ro, t, fcl, z = x
        area = math.pi * (ro ** 2 - ri ** 2)
        ratio = (ro ** 3 - ri ** 3) / (ro ** 2 - ri ** 2)
        mh = (2.0 / 3.0) * MU * fcl * z * ratio * 1e-3   # N*m
        prz = fcl / area
        vsr = math.pi * N_RPM / 30.0 * (2.0 / 3.0) * ratio * 1e-3  # m/s
        tt = IZ * math.pi * N_RPM / 30.0 / (mh + MF)
        return [
            -(ro - ri) + DELTA_R,
            (z + 1.0) * (t + DELTA) - LMAX,
            prz - PMAX,
            prz * vsr - PMAX * VSRMAX,
            vsr - VSRMAX,
            tt - TMAX,
            S * MS - mh,
            -tt,
        ]

    return f, g


def _reference_rw10():
    RHO, A, MU = 7200.0, 3.0, 0.35
    S_STRESS, T_BELT = 1.75e6, 0.008
    N0 = 350.0
    SPEEDS = (750.0, 450.0, 250.0, 150.0)
    PMIN = 0.75 * 745.6998
    MASS = [1.0 + (ni / N0) ** 2 for ni in SPEEDS]
    ARC = [1.0 + ni / N0 for ni in SPEEDS]
    TILT = [ni / N0 - 1.0 for ni in SPEEDS]
    SLACK = [t ** 2 for t in TILT]

    def f(x):
        total = 0.0
        for di, mass in zip(x, MASS):
            total += di ** 2 * mass
        return RHO * x[4] * math.pi / 4.0 * total

    def g(x):
        stress = S_STRESS * T_BELT * x[4]
        lengths = [math.pi * di / 2.0 * arc + slack * di ** 2 / (4.0 * A) + 2.0 * A
                   for di, arc, slack in zip(x, ARC, SLACK)]
        # equal belt length on every step
        out = [abs(li - lengths[0]) - EQUALITY_EPS for li in lengths[1:]]
        for di, ni, tilt in zip(x, SPEEDS, TILT):
            theta = math.pi - 2.0 * math.asin(min(1.0, max(-1.0, tilt * di / (2.0 * A))))
            out.append(2.0 - math.exp(MU * theta))  # tension ratio >= 2
            out.append(PMIN - stress * (1.0 - math.exp(-MU * theta))
                       * math.pi * di * ni / 60.0)  # transmitted power floor
        return out

    return f, g


REFERENCE_FORMULAS = {
    "rw01": _reference_rw01, "rw02": _reference_rw02, "rw03": _reference_rw03,
    "rw04": _reference_rw04, "rw05": _reference_rw05, "rw07": _reference_rw07,
    "rw08": _reference_rw08, "rw09": _reference_rw09, "rw10": _reference_rw10,
}


def _float_rows(fn):
    """A per-point formula applied to each row of an (n, D) block on Python
    floats; a row on which they raise or turn complex is read again as
    numpy scalars, which give inf or NaN there."""
    def read(X):
        values = []
        for x, row in zip(X.tolist(), X):
            try:
                value = fn(x)
            except ArithmeticError:
                value = fn(row)
            values.append(fn(row) if np.iscomplexobj(value) else value)
        return np.array(values)
    return read


def reference_problem(pid, numpy_scalars=False):
    """Engineering problem ``pid`` with its reference formulas read row by
    row: on Python floats, a row on which they raise or turn complex read
    again as numpy scalars, or with ``numpy_scalars`` on numpy rows, one
    float64 scalar per entry."""
    f, g = REFERENCE_FORMULAS[pid]()
    rows = (lambda fn: lambda X: list(map(fn, X))) if numpy_scalars else _float_rows
    return dataclasses.replace(ENGINEERING[pid](), objective=rows(f),
                               constraints=rows(g))
