"""Problem descriptions and search-space transforms.

A problem is an objective over a box, optionally with inequality constraints
g_i(x) <= 0 (equalities are folded to |h| - eps <= 0 by the builders). The
benchmark problems are built from a :class:`TransformSpec` holding a shift
vector, an orthogonal rotation matrix, and an additive objective bias.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from ..rng import Bounds

BENCHMARK_LOW = -100.0
BENCHMARK_HIGH = 100.0
# A transform's shift lies in this middle fraction of the benchmark box.
SHIFT_INTERIOR = 0.8
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


def stable_seed(*parts) -> int:
    """64-bit seed from a label tuple via blake2b; platform independent."""
    text = "\x1f".join(str(p) for p in parts)
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def generate_transform(dim: int, seed: int, f_bias: float = 0.0) -> TransformSpec:
    """Seeded transform: shift in the middle ``SHIFT_INTERIOR`` fraction of the
    benchmark box, rotation from the QR factorization of a standard normal
    matrix (sign-fixed so the factorization is unique)."""
    if dim < 1:
        raise ValueError("dim must be positive")
    gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    span = BENCHMARK_HIGH - BENCHMARK_LOW
    margin = (1.0 - SHIFT_INTERIOR) / 2.0
    shift = BENCHMARK_LOW + span * (margin + SHIFT_INTERIOR * gen.uniform(size=dim))
    g = gen.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    q = q * np.sign(np.diag(r))
    return TransformSpec(shift=shift, rotation=q, f_bias=float(f_bias))


@dataclass
class ProblemSpec:
    """A named optimization problem, read a block of points at a time.

    ``objective`` maps an (n, D) block to (n,) values. ``constraints``, when
    present, maps the same block to (n, m) inequality values g(x); a point
    is feasible when every entry is <= 0 (within the constraint handler's
    ``VIOLATION_TOL``).
    """

    name: str
    bounds: Bounds
    objective: Callable[[np.ndarray], np.ndarray]
    category: str
    constraints: Optional[Callable[[np.ndarray], np.ndarray]] = None
    known_target: Optional[float] = None
    target_note: str = ""
    known_point: Optional[np.ndarray] = field(default=None, repr=False)

    def __post_init__(self):
        if self.known_point is not None:
            self.known_point = np.asarray(self.known_point, dtype=float)

    @property
    def dimension(self):
        return self.bounds.dimension

    @np.errstate(all="ignore")
    def batch(self, X):
        """(objective, violation) of an (n, D) block, each (n,): the single
        reading rule. Floating-point warnings are silenced and NaN reads as
        +inf (fmin returns the operand that is not NaN), so an undefined
        value ranks worst and never survives greedy selection. The violation
        is the worst constraint value clipped at +0.0, and 0.0 for an
        unconstrained problem."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        f = np.fmin(self.objective(X), np.inf, dtype=float)
        # an empty block has no constraint values to read
        if self.constraints is None or X.shape[0] == 0:
            return f, np.zeros(X.shape[0])
        g = np.fmin(self.constraints(X), np.inf, dtype=float)
        # maximum(worst, 0.0), not maximum(0.0, worst): a worst value of -0.0
        # must read as +0.0
        return f, np.maximum(np.maximum.reduce(g, axis=1), 0.0)

    def evaluate(self, x):
        """(objective, violation) of one (D,) point, read as a block of one."""
        f, v = self.batch(np.asarray(x)[None])
        return float(f[0]), float(v[0])
