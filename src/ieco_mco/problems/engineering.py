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

Every problem but rw06 is a per-point formula, read row by row on Python
floats, which give the bits numpy float64 scalars give. A row on which
float arithmetic raises (division by zero, as rw03 does at a = 0, or
``**`` overflow) or turns complex (a negative base under one of rw07's
fractional powers, outside the box) is read again as numpy scalars, so it
reads as inf or NaN exactly as a numpy row does.
"""

from __future__ import annotations

import math

import numpy as np

from ..rng import Bounds
from .core import ProblemSpec

EQUALITY_EPS = 1e-4
# Rows read on Python floats at a time: a resampling block can hold
# thousands of rows, and their floats take far more memory than an array.
_FLOAT_ROWS = 256


def _rows(fn):
    """A per-point formula applied to each row of an (n, D) block, on Python
    floats, with one ``map``; a row on which they raise or turn complex is
    read again as numpy scalars, which give inf or NaN there."""
    def read_floats(X):
        rows = X.tolist()
        try:
            values = list(map(fn, rows))
        except ArithmeticError:
            values = []
            for i, x in enumerate(rows):
                try:
                    values.append(fn(x))
                except ArithmeticError:
                    values.append(fn(X[i]))
        out = np.array(values)
        if out.dtype.kind == "c":
            out = np.array([fn(x) if np.iscomplexobj(v) else v
                            for x, v in zip(X, values)])
        return out

    def read(X):
        if X.shape[0] <= _FLOAT_ROWS:
            return read_floats(X)
        return np.concatenate([read_floats(X[i:i + _FLOAT_ROWS])
                               for i in range(0, X.shape[0], _FLOAT_ROWS)])
    return read


def _spec(name, bounds_pairs, objective, constraints, known_target, note,
          known_point):
    return ProblemSpec(
        name=name, bounds=Bounds.from_pairs(bounds_pairs),
        objective=_rows(objective), constraints=_rows(constraints),
        category="engineering", known_target=known_target, target_note=note,
        known_point=known_point,
    )


# rw01 -- tension/compression spring (wire d, coil D, active turns N)

def make_rw01():
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

    return _spec(
        "rw01-spring", [(0.05, 2.0), (0.25, 1.3), (2.0, 15.0)], f, g,
        known_target=1.2667e-2,
        note="classic formulation; best known objective about 0.0126652",
        known_point=[0.0516890614, 0.3567177469, 11.2889655],
    )


# rw02 -- pressure vessel (shell thickness, head thickness, radius, length)

def make_rw02():
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

    return _spec(
        "rw04-welded-beam", [(0.1, 2.0), (0.1, 10.0), (0.1, 10.0), (0.1, 2.0)], f, g,
        known_target=1.6928,
        note=("classic formulation whose optimum is about 1.724852; the "
              "recorded target belongs to a variant with different shear terms"),
        known_point=[0.205730, 3.470489, 9.036624, 0.205730],
    )


# rw05 -- speed reducer (gear/shaft sizing, 7 variables)

def make_rw05():
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
    def f(x):
        # left to right, as numpy sums five entries; the builtin sum
        # compensates from CPython 3.12 on
        return 0.0624 * (x[0] + x[1] + x[2] + x[3] + x[4])

    def g(x):
        return [
            61.0 / x[0] ** 3 + 37.0 / x[1] ** 3 + 19.0 / x[2] ** 3
            + 7.0 / x[3] ** 3 + 1.0 / x[4] ** 3 - 1.0,
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
