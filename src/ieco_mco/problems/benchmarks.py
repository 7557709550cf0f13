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

import functools
import math
from typing import Callable, Sequence

import numpy as np

from ..rng import Bounds
from .core import (BENCHMARK_HIGH, BENCHMARK_LOW, ProblemSpec, TransformSpec,
                   generate_transform, stable_seed)

# ------------------------------------------------------------ base functions
# All take a (n, D) block and return (n,) values; minimum 0 at the origin.

def _per_dimension(make):
    """Cache ``make(d)``'s array per D, read-only, as the constants of a
    base function at D never change."""
    @functools.lru_cache(maxsize=None)
    def cached(d: int) -> np.ndarray:
        arr = make(d)
        arr.flags.writeable = False
        return arr
    return cached


_zakharov_idx = _per_dimension(lambda d: 0.5 * np.arange(1, d + 1))
_griewank_idx = _per_dimension(lambda d: np.sqrt(np.arange(1, d + 1)))
_elliptic_scale = _per_dimension(
    lambda d: 10.0 ** (np.zeros(d) if d == 1 else 6.0 * np.arange(d) / (d - 1)))


def sphere(Z):
    return (Z ** 2).sum(axis=1)


def zakharov(Z):
    s = Z @ _zakharov_idx(Z.shape[1])
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
    idx = _griewank_idx(Z.shape[1])
    return 1.0 + (Z ** 2).sum(axis=1) / 4000.0 - np.cos(Z / idx).prod(axis=1)


def elliptic(Z):
    return (_elliptic_scale(Z.shape[1]) * Z ** 2).sum(axis=1)


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
        # 0.1, not generate_transform's 0.09999999999999998: the golden digests pin it
        shifts[k] = BENCHMARK_LOW + span * (0.1 + 0.8 * gen.uniform(size=d))
    return shifts


def _composition_evaluator(family: str, parts, transform: TransformSpec):
    """Every component reads the block from one ``(c, n, D)`` stack of
    differences: its squared distances and, through one stacked product, its
    rotated coordinates. A stacked ``matmul`` runs the gemm of each ``(n,
    D)`` slice, so each component's values keep the bits of its own
    product."""
    d = transform.dimension
    funcs = [BASE_FUNCTIONS[p[0]] for p in parts]
    scales = 2.0 * d * np.array([p[1] for p in parts]) ** 2
    lams = np.array([p[2] for p in parts])
    biases = np.array([p[3] for p in parts])
    shifts = _component_shifts(family, transform, len(parts))[:, None, :]
    rot_t = transform.rotation.T
    norms = np.array([float(fn(np.zeros((1, d)))[0]) for fn in funcs])

    def batch(X):
        diff = X - shifts
        d2 = (diff ** 2).sum(axis=2).T
        Z = np.matmul(diff, rot_t)
        vals = np.empty(d2.shape)
        for k, fn in enumerate(funcs):
            vals[:, k] = lams[k] * (fn(Z[k]) - norms[k]) + biases[k]
        with np.errstate(divide="ignore"):
            w = np.exp(-d2 / scales) / np.sqrt(d2)
        # a point sitting exactly on a component shift takes full weight
        exact = d2 <= 1e-24
        if exact.any():
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


def make_benchmark(family: str, transform: TransformSpec,
                   name: str = None) -> ProblemSpec:
    """Instantiate a benchmark family under a transform, at the transform's
    dimension D, on the benchmark box [BENCHMARK_LOW, BENCHMARK_HIGH]^D."""
    dim = transform.dimension
    if family in COMPOSITION_FAMILIES:
        batch = _composition_evaluator(family, COMPOSITION_FAMILIES[family],
                                       transform)
        category, note = "composition", "value at the primary component shift"
    elif family in BASE_FUNCTIONS or family in HYBRID_FAMILIES:
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

        note = "exact optimum value at the shift point"
    else:
        raise KeyError("unknown benchmark family %r" % family)
    return ProblemSpec(
        name=name or "%s-d%d" % (family, dim),
        bounds=Bounds.cube(BENCHMARK_LOW, BENCHMARK_HIGH, dim),
        objective=batch, category=category, known_target=transform.f_bias,
        target_note=note, known_point=transform.shift.copy(),
    )


# ------------------------------------------------------------- desk suite
# Twelve fixed instances mirroring the usual competition structure:
# one unimodal, four basic multimodal, three hybrid, four composition.

DESK_SUITE: dict[str, tuple[str, float]] = {
    "f01": ("zakharov", 300.0),
    "f02": ("rosenbrock", 400.0),
    "f03": ("schwefel", 600.0),
    "f04": ("rastrigin", 800.0),
    "f05": ("levy", 900.0),
    "f06": ("hybrid1", 1800.0),
    "f07": ("hybrid2", 2000.0),
    "f08": ("hybrid3", 2200.0),
    "f09": ("comp1", 2300.0),
    "f10": ("comp2", 2400.0),
    "f11": ("comp3", 2600.0),
    "f12": ("comp4", 2700.0),
}


def desk_problem(label: str, dim: int) -> ProblemSpec:
    family, bias = DESK_SUITE[label]
    # The trailing 0 is the instance the golden digests pin; hashing anything
    # else would move every desk shift and rotation.
    ts = generate_transform(dim, stable_seed("desk", label, dim, 0), f_bias=bias)
    return make_benchmark(family, ts, name="%s-%s-d%d" % (label, family, dim))
