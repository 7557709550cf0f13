"""Machine-speed probe: a fixed piece of work that imports nothing from ieco_mco.

The benchmark runs on shared cores whose speed drifts by tens of percent over
seconds to minutes, and process CPU time drifts with it. Timing this kernel
right before and after each measured step tells how fast the machine was
during the step, so the step's time can be rescaled to a fixed reference
speed. The kernel mixes what the workloads do: interpreted float arithmetic
and calls, small numpy array operations, random draws, a small symmetric
eigen-decomposition and JSON text, each in roughly equal share. Its inputs are
fixed, so its work is the same in every run and on every commit.
"""

from __future__ import annotations

import json
import math
import statistics
import time

import numpy as np

# Median seconds of one kernel call at reference speed. Calibrated times are
# reported as seconds at this speed: 2-core shared Xeon, Python 3.11, numpy 2.4.
REFERENCE_S = 0.015


def _python(n=6000):
    acc, x = 0.0, 0.5
    for i in range(n):
        x = 3.7 * x * (1.0 - x)
        acc += math.sqrt(abs(math.sin(x) * i + 1.0)) - min(x, 0.25)
    return acc


def _numpy(rng, steps=120):
    pop = rng.uniform(-100.0, 100.0, (30, 10))
    best = pop[0].copy()
    for _ in range(steps):
        trial = pop + 0.5 * (best - pop) * rng.random((30, 1))
        trial = np.clip(trial, -100.0, 100.0)
        f = np.sum(trial * trial, axis=1)
        i = int(np.argmin(f))
        best = trial[i].copy()
        pop = np.where((f < f.mean())[:, None], trial, pop)
    return float(best @ best)


def _linalg(rng, reps=40):
    acc = 0.0
    for _ in range(reps):
        a = rng.standard_normal((30, 10))
        w, _ = np.linalg.eigh(np.cov(a, rowvar=False) + np.eye(10))
        acc += float(w[-1])
    return acc


def _text(reps=12):
    rows = [[i, i * 0.125, "r%d" % i] for i in range(300)]
    n = 0
    for _ in range(reps):
        n += len(json.loads(json.dumps(rows)))
    return n


def kernel():
    """One call of the fixed work; returns its wall seconds."""
    rng = np.random.Generator(np.random.PCG64(12345))
    t0 = time.perf_counter()
    _python()
    _numpy(rng)
    _linalg(rng)
    _text()
    return time.perf_counter() - t0


def probe(repeats=3):
    """Median seconds of ``repeats`` kernel calls."""
    return statistics.median(kernel() for _ in range(repeats))


class SpeedClock:
    """Rescales the times of consecutive steps to reference speed.

    It probes once when made. Call :meth:`factor` right after each step
    ends: it probes again and returns the factor that rescales the step's
    time, from the mean of the probes before and after it. Consecutive steps
    share the probe between them.
    """

    def __init__(self, repeats=3):
        self.repeats = repeats
        kernel()  # warm-up: first calls load code and fill caches
        self.before = probe(repeats)
        self.probes = [self.before]

    def factor(self):
        after = probe(self.repeats)
        self.probes.append(after)
        speed = REFERENCE_S / (0.5 * (self.before + after))
        self.before = after
        return speed
