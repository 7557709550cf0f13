"""Ten classic constrained engineering design problems (rw01 .. rw10).

Each builder returns a :class:`ProblemSpec` with inequality constraints
g(x) <= 0; equality constraints are folded to |h(x)| - 1e-4 <= 0. The
formulations are the ones long established in the structural-optimization
benchmark literature (Sandgren 1990; Coello 2000; Gandomi, Yang & Alavi 2013;
Rao, Savsani & Vakharia 2011; Kumar et al. 2020). ``known_target`` records
the best objective value reported for the problem in recent comparative
studies; where that value belongs to a formulation variant that differs from
the classic one implemented here, ``target_note`` says so and names the
optimum of the implemented formulation.

Integer variables are relaxed to continuous with rounding at evaluation
where the classic problem is discrete (gear train). Dimensions:
rw01: 3, rw02: 4, rw03: 2, rw04: 4, rw05: 7, rw06: 4, rw07: 10, rw08: 5,
rw09: 5, rw10: 5.

Every formula reads a block by column: ``X.T`` gives one (n,) column per
variable. Arithmetic, ``abs``, ``sqrt`` and the ``min``/``max`` clamps run on
numpy columns; each is correctly rounded, so it gives the bits Python floats
give, in the same left-to-right order. Every ``**`` goes through
:func:`_pow` and every ``math.exp``, ``asin`` and ``acos`` through
:func:`_map`, which call the C library one element at a time, as a Python
float does: numpy's array kernels round some of these differently (its
``x ** 2`` is ``x * x``). So a block reads as its rows read one at a time on
Python floats, bit for bit. Where a float ``**`` raises (overflow, zero to a
negative power) or turns complex (a negative base under one of rw07's
fractional powers, outside the box), the element reads as the numpy scalar
power, inf or NaN; division by zero reads as inf or NaN; a ``sqrt``,
``asin`` or ``acos`` out of its domain raises ValueError, as ``math`` does.
"""

from __future__ import annotations

import math
from itertools import repeat

import numpy as np

from ..rng import Bounds
from .core import ProblemSpec

EQUALITY_EPS = 1e-4


def _pow(col, e):
    """``col ** e`` through the C library's ``pow``, one element at a time; an
    element on which a Python float raises or turns complex reads as the
    numpy scalar power."""
    e = float(e)
    values = col.tolist()
    try:
        return np.fromiter(map(pow, values, repeat(e)), float, len(values))
    except (ArithmeticError, TypeError):  # a complex power fails as TypeError
        return np.array([_pow_one(v, e) for v in values])


def _pow_one(v, e):
    try:
        out = v ** e
    except ArithmeticError:
        return np.float64(v) ** e
    return np.float64(v) ** e if isinstance(out, complex) else out


def _map(fn, col):
    """``fn``, a ``math`` function, applied to each element of ``col``."""
    return np.fromiter(map(fn, col.tolist()), float, col.shape[0])


def _sqrt(col):
    """``math.sqrt`` of each element: correctly rounded, so numpy's, but a
    negative element raises ValueError as ``math.sqrt`` does."""
    if (col < 0.0).any():
        raise ValueError("math domain error")
    return np.sqrt(col)


def _spec(name, bounds_pairs, objective, constraints, known_target, note,
          known_point):
    return ProblemSpec(
        name=name, bounds=Bounds.from_pairs(bounds_pairs), objective=objective,
        # the constraint columns as one (n, m) block
        constraints=lambda X: np.array(constraints(X)).T,
        category="engineering", known_target=known_target, target_note=note,
        known_point=known_point,
    )


# rw01 -- tension/compression spring (wire d, coil D, active turns N)

def make_rw01():
    def f(X):
        d, dm, n = X.T
        return (n + 2.0) * dm * _pow(d, 2)

    def g(X):
        d, dm, n = X.T
        d4, dm2 = _pow(d, 4), _pow(dm, 2)
        return [
            1.0 - _pow(dm, 3) * n / (71785.0 * d4),
            (4.0 * dm2 - d * dm) / (12566.0 * (dm * _pow(d, 3) - d4))
            + 1.0 / (5108.0 * _pow(d, 2)) - 1.0,
            1.0 - 140.45 * d / (dm2 * n),
            (d + dm) / 1.5 - 1.0,
        ]

    return _spec(
        "rw01-spring", [(0.05, 2.0), (0.25, 1.3), (2.0, 15.0)], f, g,
        known_target=1.2667e-2,
        note="classic formulation; best known objective about 0.0126652",
        known_point=[0.0516890614, 0.3567177469, 11.2889655],
    )


# rw02 -- pressure vessel (shell thickness, head thickness, radius, length)

def make_rw02():
    def f(X):
        x0, x1, x2, x3 = X.T
        x0_2 = _pow(x0, 2)
        return (0.6224 * x0 * x2 * x3 + 1.7781 * x1 * _pow(x2, 2)
                + 3.1661 * x0_2 * x3 + 19.84 * x0_2 * x2)

    def g(X):
        x0, x1, x2, x3 = X.T
        return [
            -x0 + 0.0193 * x2,
            -x1 + 0.00954 * x2,
            -math.pi * _pow(x2, 2) * x3 - (4.0 / 3.0) * math.pi * _pow(x2, 3) + 1296000.0,
            x3 - 240.0,
        ]

    return _spec(
        "rw02-pressure-vessel", [(0.0, 99.0), (0.0, 99.0), (10.0, 200.0), (10.0, 200.0)],
        f, g,
        known_target=5.8701e3,
        note=("continuous thickness formulation; its optimum is about 5885.33 "
              "(reported bests vary with the bound convention used)"),
        known_point=[0.7781687, 0.3846492, 40.31962, 200.0],
    )


# rw03 -- three-bar truss (two cross-section areas)

def make_rw03():
    L, P, SIGMA = 100.0, 2.0, 2.0

    def f(X):
        a, b = X.T
        return (2.0 * math.sqrt(2.0) * a + b) * L

    def g(X):
        a, b = X.T
        den = math.sqrt(2.0) * _pow(a, 2) + 2.0 * a * b
        return [
            (math.sqrt(2.0) * a + b) / den * P - SIGMA,
            b / den * P - SIGMA,
            1.0 / (math.sqrt(2.0) * b + a) * P - SIGMA,
        ]

    return _spec(
        "rw03-three-bar-truss", [(0.0, 1.0), (0.0, 1.0)], f, g,
        known_target=2.6389e2,
        note="best known objective about 263.8958",
        known_point=[0.78867523, 0.40824829],
    )


# rw04 -- welded beam (weld thickness h, length l, bar height t, bar width b)

def make_rw04():
    P, L, E, G = 6000.0, 14.0, 30e6, 12e6
    TAU_MAX, SIGMA_MAX, DELTA_MAX = 13600.0, 30000.0, 0.25

    def f(X):
        h, l, t, b = X.T
        return 1.10471 * _pow(h, 2) * l + 0.04811 * t * b * (14.0 + l)

    def g(X):
        h, l, t, b = X.T
        l2, ht2, t2 = _pow(l, 2), _pow((h + t) / 2.0, 2), _pow(t, 2)
        tau_p = P / (math.sqrt(2.0) * h * l)
        m = P * (L + l / 2.0)
        r = _sqrt(l2 / 4.0 + ht2)
        j = 2.0 * (math.sqrt(2.0) * h * l * (l2 / 12.0 + ht2))
        tau_pp = m * r / j
        tau = _sqrt(_pow(tau_p, 2) + 2.0 * tau_p * tau_pp * l / (2.0 * r) + _pow(tau_pp, 2))
        sigma = 6.0 * P * L / (b * t2)
        delta = 4.0 * P * L ** 3 / (E * _pow(t, 3) * b)
        p_c = (4.013 * E * _sqrt(t2 * _pow(b, 6) / 36.0) / L ** 2
               * (1.0 - t / (2.0 * L) * math.sqrt(E / (4.0 * G))))
        return [
            tau - TAU_MAX,
            sigma - SIGMA_MAX,
            h - b,
            0.10471 * _pow(h, 2) + 0.04811 * t * b * (14.0 + l) - 5.0,
            0.125 - h,
            delta - DELTA_MAX,
            P - p_c,
        ]

    return _spec(
        "rw04-welded-beam", [(0.1, 2.0), (0.1, 10.0), (0.1, 10.0), (0.1, 2.0)], f, g,
        known_target=1.6928,
        note=("classic formulation whose optimum is about 1.724852; the "
              "recorded target belongs to a variant with different shear terms"),
        known_point=[0.205730, 3.470489, 9.036624, 0.205730],
    )


# rw05 -- speed reducer (gear/shaft sizing, 7 variables)

def make_rw05():
    def f(X):
        x1, x2, x3, x4, x5, x6, x7 = X.T
        x6_2, x7_2 = _pow(x6, 2), _pow(x7, 2)
        return (0.7854 * x1 * _pow(x2, 2) * (3.3333 * _pow(x3, 2) + 14.9334 * x3 - 43.0934)
                - 1.508 * x1 * (x6_2 + x7_2)
                + 7.4777 * (_pow(x6, 3) + _pow(x7, 3))
                + 0.7854 * (x4 * x6_2 + x5 * x7_2))

    def g(X):
        x1, x2, x3, x4, x5, x6, x7 = X.T
        x2_2 = _pow(x2, 2)
        return [
            27.0 / (x1 * x2_2 * x3) - 1.0,
            397.5 / (x1 * x2_2 * _pow(x3, 2)) - 1.0,
            1.93 * _pow(x4, 3) / (x2 * x3 * _pow(x6, 4)) - 1.0,
            1.93 * _pow(x5, 3) / (x2 * x3 * _pow(x7, 4)) - 1.0,
            _sqrt(_pow(745.0 * x4 / (x2 * x3), 2) + 16.9e6) / (110.0 * _pow(x6, 3)) - 1.0,
            _sqrt(_pow(745.0 * x5 / (x2 * x3), 2) + 157.5e6) / (85.0 * _pow(x7, 3)) - 1.0,
            x2 * x3 / 40.0 - 1.0,
            5.0 * x2 / x1 - 1.0,
            x1 / (12.0 * x2) - 1.0,
            (1.5 * x6 + 1.9) / x4 - 1.0,
            (1.1 * x7 + 1.9) / x5 - 1.0,
        ]

    return _spec(
        "rw05-speed-reducer",
        [(2.6, 3.6), (0.7, 0.8), (17.0, 28.0), (7.3, 8.3), (7.3, 8.3),
         (2.9, 3.9), (5.0, 5.5)],
        f, g,
        known_target=2.9936e3,
        note="best known objective about 2994.471",
        known_point=[3.5, 0.7, 17.0, 7.3, 7.7153201, 3.350215, 5.2866546],
    )


# rw06 -- gear train (four tooth counts, integers relaxed with rounding)

def make_rw06():
    def f(X):
        Z = np.rint(X)
        return (1.0 / 6.931 - (Z[:, 0] * Z[:, 1]) / (Z[:, 2] * Z[:, 3])) ** 2

    return ProblemSpec(
        name="rw06-gear-train", bounds=Bounds.cube(12.0, 60.0, 4),
        objective=f, category="engineering",
        known_target=2.7009e-12,
        target_note="integer tooth counts via rounding; best known about 2.700857e-12",
        known_point=[19.0, 16.0, 43.0, 49.0],
    )


# rw07 -- rolling element bearing (10 variables, load capacity maximized)

def make_rw07():
    D, d, BW = 160.0, 90.0, 30.0

    def f(X):
        dm, db, z, fi, fo = X.T[:5]
        gamma = db / dm
        ratio = fi * (2.0 * fo - 1.0) / (fo * (2.0 * fi - 1.0))
        fc = (37.91
              * _pow(1.0 + _pow(1.04 * _pow((1.0 - gamma) / (1.0 + gamma), 1.72)
                                * _pow(ratio, 0.41), 10.0 / 3.0), -0.3)
              * (_pow(gamma, 0.3) * _pow(1.0 - gamma, 1.39) / _pow(1.0 + gamma, 1.0 / 3.0))
              * _pow(2.0 * fi / (2.0 * fi - 1.0), 0.41))
        # the capacity, negated; NaN compares false and takes the second
        # branch, as ``if db <= 25.4`` does
        z_23 = _pow(z, 2.0 / 3.0)
        return -np.where(db <= 25.4, fc * z_23 * _pow(db, 1.8),
                         3.647 * fc * z_23 * _pow(db, 1.4))

    def g(X):
        dm, db, z, fi, fo, kdmin, kdmax, eps, e, zeta = X.T
        t = D - d - 2.0 * db
        arm = (D - d) / 2.0 - 3.0 * (t / 4.0)
        leg = D / 2.0 - t / 4.0 - db
        hyp = d / 2.0 + t / 4.0
        num = _pow(arm, 2) + _pow(leg, 2) - _pow(hyp, 2)
        den = 2.0 * arm * leg
        phi0 = 2.0 * math.pi - 2.0 * _map(math.acos, np.fmin(1.0, np.fmax(-1.0, num / den)))
        return [
            z - 1.0 - phi0 / (2.0 * _map(math.asin, db / dm)),
            kdmin * (D - d) - 2.0 * db,
            2.0 * db - kdmax * (D - d),
            zeta * BW - db,
            0.5 * (D + d) - dm,
            dm - (0.5 + e) * (D + d),
            eps * db - 0.5 * (D - dm - db),
        ]

    return _spec(
        "rw07-rolling-bearing",
        [(125.0, 150.0), (10.5, 31.5), (4.0, 50.0), (0.515, 0.6), (0.515, 0.6),
         (0.4, 0.5), (0.6, 0.7), (0.3, 0.4), (0.02, 0.1), (0.6, 0.85)],
        f, g,
        known_target=-2.4358e5,
        note=("capacity maximized as a negated objective; this formulation's "
              "best known value is about -81859.74 (reported magnitudes vary "
              "with the capacity constant used)"),
        known_point=[125.7191, 21.42556, 11.0, 0.515, 0.515, 0.4159, 0.651,
                     0.3, 0.0223, 0.6],
    )


# rw08 -- cantilever beam of five hollow square sections

def make_rw08():
    def f(X):
        x0, x1, x2, x3, x4 = X.T
        return 0.0624 * (x0 + x1 + x2 + x3 + x4)

    def g(X):
        x0, x1, x2, x3, x4 = X.T
        return [
            61.0 / _pow(x0, 3) + 37.0 / _pow(x1, 3) + 19.0 / _pow(x2, 3)
            + 7.0 / _pow(x3, 3) + 1.0 / _pow(x4, 3) - 1.0,
        ]

    return _spec(
        "rw08-cantilever-beam", [(0.01, 100.0)] * 5, f, g,
        known_target=1.34,
        note="best known objective about 1.339956",
        known_point=[6.0160, 5.3092, 4.4943, 3.5015, 2.15266],
    )


# rw09 -- multiple disk clutch brake (ri, ro, thickness, force, disk count)

def make_rw09():
    RHO, PMAX, VSRMAX = 0.0000078, 1.0, 10.0
    DELTA_R, LMAX, DELTA = 20.0, 30.0, 0.5
    MU, S, MS, MF = 0.5, 1.5, 40.0, 3.0
    N_RPM, IZ, TMAX = 250.0, 55.0, 15.0

    def f(X):
        ri, ro, t, _, z = X.T
        return math.pi * (_pow(ro, 2) - _pow(ri, 2)) * t * (z + 1.0) * RHO

    def g(X):
        ri, ro, t, fcl, z = X.T
        ro_ri_2 = _pow(ro, 2) - _pow(ri, 2)
        area = math.pi * ro_ri_2
        ratio = (_pow(ro, 3) - _pow(ri, 3)) / ro_ri_2
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

    return _spec(
        "rw09-disk-clutch-brake",
        [(60.0, 80.0), (90.0, 110.0), (1.0, 3.0), (600.0, 1000.0), (2.0, 9.0)],
        f, g,
        known_target=3.9247e12,
        note=("recorded target uses an unstated scale; this mass-minimization "
              "formulation has best known value about 0.2597 with the disk "
              "count relaxed to continuous (0.3137 at integer disk counts)"),
        known_point=[70.0, 90.0, 1.0, 800.0, 3.0],
    )


# rw10 -- step-cone pulley (four step diameters in meters plus belt width)

def make_rw10():
    RHO, A, MU = 7200.0, 3.0, 0.35
    S_STRESS, T_BELT = 1.75e6, 0.008
    N0 = 350.0
    SPEEDS = (750.0, 450.0, 250.0, 150.0)
    PMIN = 0.75 * 745.6998
    # Per-speed terms of the formulas below, with r = ni / N0: 1 + r^2
    # weighs a step's mass, 1 + r and (r - 1)^2 its belt length, and r - 1
    # its wrap angle.
    MASS = [1.0 + (ni / N0) ** 2 for ni in SPEEDS]
    ARC = [1.0 + ni / N0 for ni in SPEEDS]
    TILT = [ni / N0 - 1.0 for ni in SPEEDS]
    SLACK = [t ** 2 for t in TILT]

    def f(X):
        x = X.T
        total = 0.0
        for di, mass in zip(x, MASS):
            total += _pow(di, 2) * mass
        return RHO * x[4] * math.pi / 4.0 * total

    def g(X):
        x = X.T
        stress = S_STRESS * T_BELT * x[4]
        lengths = [math.pi * di / 2.0 * arc + slack * _pow(di, 2) / (4.0 * A) + 2.0 * A
                   for di, arc, slack in zip(x, ARC, SLACK)]
        # equal belt length on every step
        out = [np.abs(li - lengths[0]) - EQUALITY_EPS for li in lengths[1:]]
        for di, ni, tilt in zip(x, SPEEDS, TILT):
            theta = math.pi - 2.0 * _map(
                math.asin, np.fmin(1.0, np.fmax(-1.0, tilt * di / (2.0 * A))))
            out.append(2.0 - _map(math.exp, MU * theta))  # tension ratio >= 2
            out.append(PMIN - stress * (1.0 - _map(math.exp, -MU * theta))
                       * math.pi * di * ni / 60.0)  # transmitted power floor
        return out

    return _spec(
        "rw10-step-cone-pulley",
        [(0.0, 0.06), (0.0, 0.06), (0.0, 0.09), (0.0, 0.09), (0.0, 0.09)],
        f, g,
        known_target=1.6086e1,
        note=("belt-length equalities folded as |h| <= 1e-4; best known "
              "objective about 16.63 for this formulation; the recorded "
              "point matches belt lengths by root solving and sets the "
              "width just above the transmitted-power floor"),
        known_point=[0.0408713537, 0.0562427586, 0.0749841317, 0.0899,
                     0.084659],
    )


ENGINEERING = {
    "rw01": make_rw01, "rw02": make_rw02, "rw03": make_rw03, "rw04": make_rw04,
    "rw05": make_rw05, "rw06": make_rw06, "rw07": make_rw07, "rw08": make_rw08,
    "rw09": make_rw09, "rw10": make_rw10,
}
