"""Problem descriptions, search-space transforms, and transform file I/O.

A problem is an objective over a box, optionally with inequality constraints
g_i(x) <= 0 (equalities are folded to |h| - eps <= 0 by the builders). The
benchmark problems are built from a :class:`TransformSpec` holding a shift
vector, an orthogonal rotation matrix, and an additive objective bias.

Transform files are plain text: first line the dimension D, second line the
D shift values, then D rows of the rotation matrix, and a final line with
the bias value.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from ..rng import Bounds

BENCHMARK_LOW = -100.0
BENCHMARK_HIGH = 100.0
ORTHOGONALITY_TOL = 1e-10


@dataclass(frozen=True)
class TransformSpec:
    """Shift/rotation/bias triple applied as f(M @ (x - o)) + bias."""

    shift: np.ndarray
    rotation: np.ndarray
    f_bias: float = 0.0

    def __post_init__(self):
        shift = np.asarray(self.shift, dtype=float)
        rot = np.asarray(self.rotation, dtype=float)
        d = shift.shape[0]
        if shift.ndim != 1 or rot.shape != (d, d):
            raise ValueError("shift must be (D,) and rotation (D, D)")
        err = np.abs(rot @ rot.T - np.eye(d)).max()
        if err > ORTHOGONALITY_TOL:
            raise ValueError("rotation is not orthogonal (max deviation %.3e)" % err)
        object.__setattr__(self, "shift", shift)
        object.__setattr__(self, "rotation", rot)

    @property
    def dimension(self):
        return self.shift.shape[0]


def identity_transform(dim: int, f_bias: float = 0.0) -> TransformSpec:
    return TransformSpec(np.zeros(dim), np.eye(dim), f_bias)


def stable_seed(*parts) -> int:
    """64-bit seed from a label tuple via blake2b; platform independent."""
    text = "\x1f".join(str(p) for p in parts)
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def generate_transform(dim: int, seed: int, f_bias: float = 0.0,
                       low: float = BENCHMARK_LOW, high: float = BENCHMARK_HIGH,
                       interior: float = 0.8) -> TransformSpec:
    """Seeded transform: shift in the middle ``interior`` fraction of the box,
    rotation from the QR factorization of a standard normal matrix (sign-fixed
    so the factorization is unique)."""
    if dim < 1:
        raise ValueError("dim must be positive")
    gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    span = high - low
    margin = (1.0 - interior) / 2.0
    shift = low + span * (margin + interior * gen.uniform(size=dim))
    g = gen.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    q = q * np.sign(np.diag(r))
    return TransformSpec(shift=shift, rotation=q, f_bias=float(f_bias))


def save_transform(ts: TransformSpec, path) -> None:
    lines = [str(ts.dimension)]
    lines.append(" ".join(repr(float(v)) for v in ts.shift))
    for row in ts.rotation:
        lines.append(" ".join(repr(float(v)) for v in row))
    lines.append(repr(float(ts.f_bias)))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_transform(path) -> TransformSpec:
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if len(lines) < 3:
        raise ValueError("transform file %s is truncated" % path)
    d = int(lines[0])
    if len(lines) != d + 3:
        raise ValueError("transform file %s should have %d lines, found %d"
                         % (path, d + 3, len(lines)))
    shift = np.array([float(v) for v in lines[1].split()], dtype=float)
    rot = np.array([[float(v) for v in lines[2 + i].split()] for i in range(d)], dtype=float)
    bias = float(lines[d + 2])
    if shift.shape != (d,) or rot.shape != (d, d):
        raise ValueError("transform file %s has inconsistent shapes" % path)
    return TransformSpec(shift=shift, rotation=rot, f_bias=bias)


@dataclass
class ProblemSpec:
    """A named optimization problem.

    ``objective`` maps a single (D,) point to a float. ``batch_objective``,
    when present, evaluates an (n, D) block in one call (same values as the
    scalar path). ``constraints`` returns the inequality values g(x), feasible
    when every entry is <= 0 (within the handling policy's tolerance).
    """

    name: str
    dimension: int
    bounds: Bounds
    objective: Callable[[np.ndarray], float]
    category: str
    batch_objective: Optional[Callable[[np.ndarray], np.ndarray]] = None
    constraints: Optional[Callable[[np.ndarray], np.ndarray]] = None
    known_target: Optional[float] = None
    target_note: str = ""
    known_point: Optional[np.ndarray] = field(default=None, repr=False)

    def __post_init__(self):
        if self.bounds.dimension != self.dimension:
            raise ValueError("bounds dimension does not match problem dimension")
        if self.known_point is not None:
            self.known_point = np.asarray(self.known_point, dtype=float)

    @property
    def is_constrained(self) -> bool:
        return self.constraints is not None

    def violations(self, x) -> np.ndarray:
        if self.constraints is None:
            return np.empty(0)
        return _nan_as_inf(self.constraints, np.asarray(x, dtype=float))

    def violation(self, x) -> float:
        g = self.violations(x)
        if g.size == 0:
            return 0.0
        return float(max(0.0, g.max()))

    def evaluate(self, x):
        """(objective value, scalar violation); NaN reads as +inf."""
        x = np.asarray(x, dtype=float)
        return float(_nan_as_inf(self.objective, x)), self.violation(x)

    def batch(self, X) -> np.ndarray:
        """Objective values of an (n, D) block; NaN reads as +inf."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if self.batch_objective is not None:
            return _nan_as_inf(self.batch_objective, X)
        return _nan_as_inf(lambda B: [float(self.objective(row)) for row in B], X)


def _nan_as_inf(fn, x) -> np.ndarray:
    """fn(x) as float64 with floating-point warnings silenced and NaN read as
    +inf (fmin returns the operand that is not NaN), so an undefined value
    ranks worst and never survives greedy selection."""
    with np.errstate(all="ignore"):
        return np.fmin(fn(x), np.inf, dtype=float)
