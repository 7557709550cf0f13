"""Parameterized benchmark families: base functions, hybrids, compositions.

Every base function is written so its global minimum value is 0 at z = 0
(functions whose classical optimum sits elsewhere are pre-shifted inside).
A benchmark instance applies a shift/rotation transform,

    objective(x) = f_base(M @ (x - o)) - f_base(0) + f_bias,

where the ``- f_base(0)`` anchor removes the last few ulps of floating-point
residue (sin(pi) etc.) so ``objective(o) == f_bias`` holds exactly.

Hybrids split the rotated coordinates into contiguous blocks, one base
function per block. Compositions blend several shifted components with
distance-based weights; the first component carries bias 0, so the value at
its shift is exactly the instance bias.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from ..rng import Bounds
from .core import (BENCHMARK_HIGH, BENCHMARK_LOW, ProblemSpec, TransformSpec,
                   generate_transform, stable_seed)

# ------------------------------------------------------------ base functions
# All take a (n, D) block and return (n,) values; minimum 0 at the origin.

def sphere(Z):
    return (Z ** 2).sum(axis=1)


def zakharov(Z):
    idx = 0.5 * np.arange(1, Z.shape[1] + 1)
    s = Z @ idx
    return (Z ** 2).sum(axis=1) + s ** 2 + s ** 4


def rosenbrock(Z):
    W = Z + 1.0  # classical optimum at the all-ones point
    return (100.0 * (W[:, 1:] - W[:, :-1] ** 2) ** 2
            + (W[:, :-1] - 1.0) ** 2).sum(axis=1)


def rastrigin(Z):
    return (Z ** 2 - 10.0 * np.cos(2.0 * np.pi * Z) + 10.0).sum(axis=1)


_SCHWEFEL_SHIFT = 420.9687462275036
_SCHWEFEL_CONST = 418.9828872724338


def schwefel(Z):
    """Modified Schwefel with the usual modular wrap beyond +-500.

    The wrap plus quadratic penalty keeps every per-coordinate term
    nonnegative, so the global minimum stays 0 at Z = 0 even when a
    rotation pushes coordinates outside the classical domain.
    """
    W = Z + _SCHWEFEL_SHIFT  # classical optimum near 420.97 per coordinate
    dim = W.shape[1]
    term = W * np.sin(np.sqrt(np.abs(W)))
    high = W > 500.0
    if np.any(high):
        wrapped = 500.0 - np.mod(W[high], 500.0)
        term[high] = (wrapped * np.sin(np.sqrt(np.abs(wrapped)))
                      - (W[high] - 500.0) ** 2 / (10000.0 * dim))
    low = W < -500.0
    if np.any(low):
        wrapped = np.mod(np.abs(W[low]), 500.0) - 500.0
        term[low] = (wrapped * np.sin(np.sqrt(np.abs(wrapped)))
                     - (W[low] + 500.0) ** 2 / (10000.0 * dim))
    return (_SCHWEFEL_CONST - term).sum(axis=1)


def levy(Z):
    W = 1.0 + Z / 4.0
    head = np.sin(np.pi * W[:, 0]) ** 2
    mid = ((W[:, :-1] - 1.0) ** 2
           * (1.0 + 10.0 * np.sin(np.pi * W[:, :-1] + 1.0) ** 2)).sum(axis=1)
    tail = (W[:, -1] - 1.0) ** 2 * (1.0 + np.sin(2.0 * np.pi * W[:, -1]) ** 2)
    return head + mid + tail


def ackley(Z):
    d = Z.shape[1]
    rms = np.sqrt((Z ** 2).sum(axis=1) / d)
    cos_mean = np.cos(2.0 * np.pi * Z).sum(axis=1) / d
    return -20.0 * np.exp(-0.2 * rms) - np.exp(cos_mean) + 20.0 + math.e


def griewank(Z):
    idx = np.sqrt(np.arange(1, Z.shape[1] + 1))
    return 1.0 + (Z ** 2).sum(axis=1) / 4000.0 - np.cos(Z / idx).prod(axis=1)


def elliptic(Z):
    d = Z.shape[1]
    expo = np.zeros(d) if d == 1 else 6.0 * np.arange(d) / (d - 1)
    return (10.0 ** expo * Z ** 2).sum(axis=1)


def bent_cigar(Z):
    return Z[:, 0] ** 2 + 1e6 * (Z[:, 1:] ** 2).sum(axis=1)


BASE_FUNCTIONS: dict[str, Callable] = {
    "sphere": sphere,
    "zakharov": zakharov,
    "rosenbrock": rosenbrock,
    "rastrigin": rastrigin,
    "schwefel": schwefel,
    "levy": levy,
    "ackley": ackley,
    "griewank": griewank,
    "elliptic": elliptic,
    "bent_cigar": bent_cigar,
}

# --------------------------------------------------------- hybrid definitions
# name -> list of (base function, coordinate fraction); fractions sum to 1.

HYBRID_FAMILIES: dict[str, list[tuple[str, float]]] = {
    "hybrid1": [("bent_cigar", 0.4), ("rastrigin", 0.4), ("griewank", 0.2)],
    "hybrid2": [("ackley", 0.2), ("schwefel", 0.2), ("elliptic", 0.3), ("rosenbrock", 0.3)],
    "hybrid3": [("sphere", 0.2), ("levy", 0.2), ("zakharov", 0.2),
                ("griewank", 0.2), ("rastrigin", 0.2)],
}

# ---------------------------------------------------- composition definitions
# name -> list of (base function, sigma, lambda, component bias);
# the first component has bias 0 and sits at the instance shift.

COMPOSITION_FAMILIES: dict[str, list[tuple[str, float, float, float]]] = {
    "comp1": [("rastrigin", 10.0, 1.0, 0.0), ("griewank", 20.0, 10.0, 100.0),
              ("schwefel", 30.0, 1.0, 200.0)],
    "comp2": [("ackley", 20.0, 10.0, 0.0), ("elliptic", 10.0, 1e-6, 100.0),
              ("griewank", 30.0, 10.0, 200.0), ("rastrigin", 40.0, 1.0, 300.0)],
    "comp3": [("rosenbrock", 10.0, 1.0, 0.0), ("levy", 20.0, 1.0, 100.0),
              ("bent_cigar", 30.0, 1e-6, 200.0)],
    "comp4": [("schwefel", 10.0, 1.0, 0.0), ("rastrigin", 20.0, 1.0, 100.0),
              ("elliptic", 30.0, 1e-6, 200.0), ("zakharov", 40.0, 1.0, 300.0),
              ("ackley", 50.0, 10.0, 400.0)],
}

def _block_sizes(fractions: Sequence[float], dim: int) -> list[int]:
    """Largest-remainder split of ``dim`` coordinates, every block >= 1."""
    n = len(fractions)
    if dim < n:
        raise ValueError("dimension %d cannot host %d hybrid blocks" % (dim, n))
    raw = np.asarray(fractions, dtype=float) * dim
    sizes = np.floor(raw).astype(int)
    sizes = np.maximum(sizes, 1)
    while sizes.sum() > dim:
        sizes[np.argmax(sizes)] -= 1
    order = np.argsort(-(raw - np.floor(raw)), kind="stable")
    i = 0
    while sizes.sum() < dim:
        sizes[order[i % n]] += 1
        i += 1
    return [int(s) for s in sizes]


def _hybrid_evaluator(parts: list[tuple[str, float]], dim: int):
    sizes = _block_sizes([p[1] for p in parts], dim)
    edges = np.cumsum([0] + sizes)
    funcs = [BASE_FUNCTIONS[p[0]] for p in parts]

    def batch(Z):
        total = np.zeros(Z.shape[0])
        for fn, a, b in zip(funcs, edges[:-1], edges[1:]):
            total += fn(Z[:, a:b])
        return total

    return batch


def _component_shifts(family: str, transform: TransformSpec, count: int) -> np.ndarray:
    """First component at the transform shift, the rest seeded off it."""
    d = transform.dimension
    shifts = np.empty((count, d))
    shifts[0] = transform.shift
    span = BENCHMARK_HIGH - BENCHMARK_LOW
    for k in range(1, count):
        seed = stable_seed("composition-shift", family, k,
                           transform.shift.tobytes().hex())
        gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
        shifts[k] = BENCHMARK_LOW + span * (0.1 + 0.8 * gen.uniform(size=d))
    return shifts


def _composition_evaluator(family: str, parts, transform: TransformSpec):
    d = transform.dimension
    funcs = [BASE_FUNCTIONS[p[0]] for p in parts]
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
        # a point sitting exactly on a component shift takes full weight
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


def make_benchmark(family: str, dim: int, transform: TransformSpec,
                   name: str = None) -> ProblemSpec:
    """Instantiate a benchmark family at a given dimension and transform, on
    the benchmark box [BENCHMARK_LOW, BENCHMARK_HIGH]^dim."""
    if transform.dimension != dim:
        raise ValueError("transform dimension %d does not match %d"
                         % (transform.dimension, dim))
    bounds = Bounds.cube(BENCHMARK_LOW, BENCHMARK_HIGH, dim)
    if family in BASE_FUNCTIONS or family in HYBRID_FAMILIES:
        if family in BASE_FUNCTIONS:
            base = BASE_FUNCTIONS[family]
            category = "unimodal" if family in ("sphere", "zakharov", "elliptic",
                                                "bent_cigar") else "basic"
        else:
            base = _hybrid_evaluator(HYBRID_FAMILIES[family], dim)
            category = "hybrid"
        shift = transform.shift
        rot_t = transform.rotation.T
        anchor = float(base(np.zeros((1, dim)))[0])
        bias = transform.f_bias

        def batch(X):
            return base((X - shift) @ rot_t) - anchor + bias

        return ProblemSpec(
            name=name or "%s-d%d" % (family, dim), dimension=dim, bounds=bounds,
            objective=batch, category=category,
            known_target=bias,
            target_note="exact optimum value at the shift point",
            known_point=shift.copy(),
        )
    if family in COMPOSITION_FAMILIES:
        batch = _composition_evaluator(family, COMPOSITION_FAMILIES[family],
                                       transform)
        return ProblemSpec(
            name=name or "%s-d%d" % (family, dim), dimension=dim, bounds=bounds,
            objective=batch, category="composition",
            known_target=transform.f_bias,
            target_note="value at the primary component shift",
            known_point=transform.shift.copy(),
        )
    raise KeyError("unknown benchmark family %r" % family)


# ------------------------------------------------------------- desk suite
# Twelve fixed instances mirroring the usual competition structure:
# one unimodal, four basic multimodal, three hybrid, four composition.

DESK_SUITE_LAYOUT: list[tuple[str, str, float]] = [
    ("f01", "zakharov", 300.0),
    ("f02", "rosenbrock", 400.0),
    ("f03", "schwefel", 600.0),
    ("f04", "rastrigin", 800.0),
    ("f05", "levy", 900.0),
    ("f06", "hybrid1", 1800.0),
    ("f07", "hybrid2", 2000.0),
    ("f08", "hybrid3", 2200.0),
    ("f09", "comp1", 2300.0),
    ("f10", "comp2", 2400.0),
    ("f11", "comp3", 2600.0),
    ("f12", "comp4", 2700.0),
]

DESK_SUITE_NAMES = [entry[0] for entry in DESK_SUITE_LAYOUT]


def desk_problem(name: str, dim: int, instance_seed: int = 0) -> ProblemSpec:
    for label, family, bias in DESK_SUITE_LAYOUT:
        if label == name:
            ts = generate_transform(dim, stable_seed("desk", label, dim, instance_seed),
                                    f_bias=bias)
            return make_benchmark(family, dim, ts, name="%s-%s-d%d" % (label, family, dim))
    raise KeyError("unknown desk problem %r" % name)


def desk_suite(dim: int, instance_seed: int = 0) -> list[ProblemSpec]:
    return [desk_problem(nm, dim, instance_seed) for nm in DESK_SUITE_NAMES]
