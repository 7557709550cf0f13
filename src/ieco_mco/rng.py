"""Deterministic random streams, chaotic initialization, and shared samplers.

Every stochastic component in this package draws from :class:`RngStream`, a
thin wrapper around numpy's PCG64 generator seeded through ``SeedSequence``.
The same seed always reproduces the same draw sequence on every platform.

The initial population comes from one logistic-map chain with alpha = 4,
x_i = 4 x_{i-1} (1 - x_{i-1}), whose seed is one uniform draw from the run's
stream. A seed the chain rejects is redrawn, at most 64 draws in all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np

# Logistic-map seeds whose orbit collapses onto a fixed point or onto 0: 0 and
# 1 map to 0, 0.5 maps to 1, 0.25 and 0.75 reach the fixed point 0.75. Seeds
# are rejected within a small guard band because float64 rounding sends
# near-0.5 seeds to exactly 1.0 within two steps.
DEGENERATE_CHAOS_SEEDS = (0.0, 0.25, 0.5, 0.75, 1.0)
_SEED_GUARD = 1e-9

# Stability index of the heavy-tailed Levy steps.
LEVY_BETA = 1.5


class ChaoticOrbitError(ValueError):
    """Raised when a logistic-map seed is degenerate or its orbit collapses."""


class BudgetExhaustedError(RuntimeError):
    """Raised when an evaluation would exceed the budget."""


class RngStream:
    """Single-owner deterministic random stream.

    Parameters
    ----------
    seed : int
        Root entropy. Identical seeds give bit-identical draw sequences.
    """

    def __init__(self, seed):
        if seed < 0:
            raise ValueError("seed must be non-negative")
        self._seq = np.random.SeedSequence(seed)
        self._gen = np.random.Generator(np.random.PCG64(self._seq))

    def uniform(self, size=None):
        """Draws on [0, 1). ``random`` gives the bits and the next stream
        state of ``Generator.uniform``, with less call overhead."""
        return self._gen.random(size)

    def peek_uniform(self, size):
        """The draws ``uniform(size=size)`` would return, leaving the stream
        where it was. A later ``uniform`` call over a prefix of them consumes
        exactly that prefix. The bit generator's state is saved and restored
        rather than advanced, so a buffered 32-bit half survives the peek."""
        bit_gen = self._gen.bit_generator
        state = bit_gen.state
        try:
            return self.uniform(size)
        finally:
            bit_gen.state = state

    def normal(self, size=None):
        return self._gen.standard_normal(size)

    def distinct_pair(self, n):
        """Two distinct indices drawn uniformly from range(n), order random."""
        if n < 2:
            raise ValueError("cannot draw 2 distinct indices from %d" % n)
        i = int(self._gen.integers(n))
        j = int(self._gen.integers(n - 1))
        if j >= i:
            j += 1
        return i, j

    def __repr__(self):
        return "RngStream(entropy=%r)" % (self._seq.entropy,)


@dataclass(frozen=True)
class Bounds:
    """Axis-aligned box constraints, one (lower, upper) pair per coordinate."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lower, dtype=float)
        up = np.asarray(self.upper, dtype=float)
        if lo.ndim != 1 or up.ndim != 1 or lo.shape != up.shape:
            raise ValueError("bounds must be 1-D arrays of equal length")
        if not np.all(lo < up):
            raise ValueError("every lower bound must be strictly below its upper bound")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", up)

    @classmethod
    def cube(cls, low, high, dim):
        return cls(np.full(dim, float(low)), np.full(dim, float(high)))

    @classmethod
    def from_pairs(cls, pairs: Sequence[Sequence[float]]):
        arr = np.asarray(pairs, dtype=float)
        return cls(arr[:, 0], arr[:, 1])

    @property
    def dimension(self):
        return self.lower.shape[0]

    @cached_property
    def span(self):
        return self.upper - self.lower

    def contains(self, x):
        x = np.asarray(x, dtype=float)
        return bool(np.all(x >= self.lower) and np.all(x <= self.upper))


def logistic_chain(x0: float, count: int) -> np.ndarray:
    """Iterate x_{i} = 4 * x_{i-1} * (1 - x_{i-1}) for ``count`` steps from ``x0``.

    Returns the chain x_1 .. x_count (the seed itself is not included).
    Raises :class:`ChaoticOrbitError` for degenerate seeds and for the
    measure-zero event of the orbit landing exactly on a degenerate point.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    if not 0.0 < x0 < 1.0:
        raise ChaoticOrbitError("logistic seed %r outside the open interval (0, 1)" % (x0,))
    for bad in DEGENERATE_CHAOS_SEEDS:
        if abs(x0 - bad) <= _SEED_GUARD:
            raise ChaoticOrbitError(
                "logistic seed %r collapses the orbit (degenerate point %r)" % (x0, bad)
            )
    out = np.empty(count, dtype=float)
    x = float(x0)
    for i in range(count):
        x = 4.0 * x * (1.0 - x)
        if x <= 0.0 or x >= 1.0 or x in DEGENERATE_CHAOS_SEEDS:
            raise ChaoticOrbitError(
                "logistic orbit collapsed to %r at step %d (seed %r)" % (x, i + 1, x0)
            )
        out[i] = x
    return out


def init_population(n: int, bounds: Bounds, rng: RngStream) -> np.ndarray:
    """Chaotic population initialization.

    A single logistic chain of length ``n * dimension`` is generated from one
    uniform seed drawn from ``rng`` and mapped through ``X = lower + (upper -
    lower) * x``; the chain fills the population row-major (agent 0 takes the
    first ``dimension`` values). A seed :func:`logistic_chain` rejects, being
    degenerate or collapsing its orbit mid-chain, is redrawn; the 64th
    rejected draw raises :class:`ChaoticOrbitError`.
    """
    count = n * bounds.dimension
    for _ in range(64):
        try:
            chain = logistic_chain(float(rng.uniform()), count)
        except ChaoticOrbitError:
            continue
        return bounds.lower + bounds.span * chain.reshape(n, bounds.dimension)
    raise ChaoticOrbitError("no usable logistic seed found after 64 draws")


@lru_cache(maxsize=None)
def mantegna_sigma(beta: float) -> float:
    """Scale of the numerator normal draw in the Mantegna levy sampler."""
    if not 0.0 < beta <= 2.0:
        raise ValueError("beta must lie in (0, 2]")
    num = math.gamma(1.0 + beta) * math.sin(math.pi * beta / 2.0)
    den = math.gamma((1.0 + beta) / 2.0) * beta * 2.0 ** ((beta - 1.0) / 2.0)
    return (num / den) ** (1.0 / beta)


def levy_sample(dim: int, rng: RngStream, size=None) -> np.ndarray:
    """Heavy-tailed step vector (or ``size`` rows of them) via Mantegna.

    s_j = u_j / |v_j|^(1/beta) with beta = LEVY_BETA, u_j ~ N(0, sigma_u^2)
    and v_j ~ N(0, 1), drawn componentwise (u vector first, then v vector,
    row after row).
    """
    if dim < 1:
        raise ValueError("dim must be positive")
    sigma = mantegna_sigma(LEVY_BETA)
    z = rng.normal(size=(2, dim) if size is None else (size, 2, dim))
    u = z[..., 0, :] * sigma
    return u / np.abs(z[..., 1, :]) ** (1.0 / LEVY_BETA)


def clamp(x: np.ndarray, bounds: Bounds, out=None) -> np.ndarray:
    """Project onto the box; idempotent and the single bound-repair rule.
    ``out=x`` projects ``x`` in place."""
    return np.minimum(np.maximum(x, bounds.lower, out=out), bounds.upper, out=out)
