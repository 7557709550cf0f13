"""Three-stage educational-competition update rules and the iteration step.

The population is split each iteration into school agents (the best fraction
G of the population by fitness) and students (the rest). Iterations cycle
through three stages -- primary, middle, high -- and each stage has one
update rule for schools and one for students:

    primary school   X + w * (Xmean_i - X) .* Levy(D)
    primary student  X + w * (close(X) - X) * randn          (scalar randn)
    middle school    X + (Xbest - Xmean) * exp(fes/fes_max - 1) .* Levy(D)
    middle student   X - w*close(X) - P * (E * w * close(X) - X)
    high school      X + (Xbest - Xmean)*randn1 - (Xworst - Xmean)*randn2
    high student     X - P * (E * Xbest - X)

with w = 0.1 * ln(2 - fes/fes_max), P = 4 * randn * (1 - fes/fes_max) drawn
once per iteration, and the per-student gain E = (pi/P) * (fes/fes_max) when
the student's talent draw exceeds the threshold Th = 0.5, else 1. w, P and
the progress fes/fes_max are the iteration's :class:`StageContext`, the only
scalars the rules read. close(X) is the school position nearest to the
student (ties to the lowest index) and Xmean_i the mean of the students
whose nearest school is i. Every rule takes the whole population, sorted by
fitness, and the school count k, and reads its operands from it: schools
X[:k], students X[k:], best X[0], worst X[-1], the population mean and
close(X). It proposes its whole block of schools or students at once. New
positions are clamped to the box and survive per agent only when they
improve on the parent.

Variants swap the school rule for a covariance operator estimated from the
elite archive: the full variant uses the Gaussian operator in the primary
stage, the shifted operator in the middle stage and the differencing operator
in the high stage, while each single-operator ablation applies its one
operator in all three stages. The operators take the same sorted population
and k. The variant table, keyed by label, is the only declaration of a
variant: each row holds the school fraction G by stage and, for a variant
with a model, its operator's name by stage. ECO's fractions are 0.2, 0.1,
0.1 and every other variant's 0.4, 0.5, 0.5. A stage is its index 0, 1 or 2
into those tuples. Students always use the plain rule of the stage. A
variant with operators keeps an elite archive of 20 * D rows; until it holds
enough entries for a usable model the school update falls back to the plain
stage rule.

Per-iteration draw order on the one stream of the run's evaluator: the
scalar for P, which :func:`step` draws first; the school block, agents in
fitness order; the student block, agents in fitness order; then any draws
made by constraint handling during evaluation. A plain rule
makes its block's draws in one call: the Levy pairs as a (k, 2, D) normal
array (each agent's u vector, then its v vector), the high-school scalar
pairs as (k, 2), the primary-student normals and the talent uniforms as (m,).
A numpy generator fills an array in row-major order from the same stream
that successive smaller calls would read, so one block call yields exactly
the numbers of k per-agent calls in agent order. The covariance operators
interleave a Gaussian vector, a uniform and, for differencing, an index pair
within each school, so they draw school by school, then compute once on the
whole school block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import covariance as cov
from .rng import RngStream, clamp, levy_sample

# Talent threshold Th: a talent draw above it gives the student the gain E.
TALENT_THRESHOLD = 0.5
# A variant that keeps an elite archive holds this many rows per dimension.
ARCHIVE_ROWS_PER_DIM = 20
# |P| floor when computing E = (pi/P) * (fes/fes_max); P = 0 is treated as +0.
TALENT_GAIN_P_FLOOR = 1e-12


def stage_of(iteration: int) -> int:
    """The stage index 0 (primary), 1 (middle) or 2 (high): iterations
    cycle through the three with period 3 (1-based)."""
    if iteration < 1:
        raise ValueError("iteration numbering starts at 1")
    return (iteration - 1) % 3


def school_count(fraction: float, n: int) -> int:
    """Number of school agents: round half up, never below 1."""
    return max(1, int(math.floor(fraction * n + 0.5)))


def omega(fes: float, fes_max: float) -> float:
    """Learning-rate schedule w = 0.1 * ln(2 - fes/fes_max), decreasing."""
    if fes_max <= 0:
        raise ValueError("fes_max must be positive")
    if fes < 0 or fes > fes_max:
        raise ValueError("fes must lie in [0, fes_max]")
    return 0.1 * math.log(2.0 - fes / fes_max)


@dataclass(frozen=True)
class StageContext:
    """The iteration's scalars the update rules read: w, P and the
    progress fes/fes_max that both are made from."""

    omega: float
    p: float
    progress: float

    @classmethod
    def draw(cls, fes: int, fes_max: int, rng: RngStream):
        """Build the context, consuming the single per-iteration randn for P."""
        w = omega(fes, fes_max)  # refuses a bad budget before the division
        progress = fes / fes_max
        return cls(omega=w, p=4.0 * float(rng.normal()) * (1.0 - progress),
                   progress=progress)


def talent_gain(ctx: StageContext, talent_draws) -> np.ndarray:
    """E = (pi/P) * (fes/fes_max) per draw above the threshold, else 1; |P| floored."""
    p = ctx.p
    if abs(p) < TALENT_GAIN_P_FLOOR:
        p = math.copysign(TALENT_GAIN_P_FLOOR, p if p != 0.0 else 1.0)
    return np.where(talent_draws <= TALENT_THRESHOLD, 1.0, (math.pi / p) * ctx.progress)


class Population:
    """Positions with ranking fitness, kept sorted ascending by fitness.

    ``fitness`` is the scalar the algorithm ranks on; for constrained
    problems it is the penalized value, and ``objective``/``violation``
    keep the readings it was ranked from. For unconstrained problems the
    three arrays are fitness, fitness, all zero. Sorting gathers new arrays,
    so a population never shares the arrays it was built from.
    """

    def __init__(self, positions, fitness, objective, violation):
        self.positions = np.atleast_2d(np.asarray(positions, dtype=float))
        self.fitness = np.asarray(fitness, dtype=float)
        if self.positions.shape[0] != self.fitness.shape[0]:
            raise ValueError("positions and fitness lengths differ")
        self.objective = np.asarray(objective, dtype=float)
        self.violation = np.asarray(violation, dtype=float)
        self.sort()

    def sort(self):
        order = np.argsort(self.fitness, kind="stable")
        self.positions = self.positions[order]
        self.fitness = self.fitness[order]
        self.objective = self.objective[order]
        self.violation = self.violation[order]


def closest_school(X, k) -> np.ndarray:
    """Index of each student X[k:]'s nearest school X[:k] by Euclidean distance
    (ties: lowest)."""
    diff = X[k:, None, :] - X[None, :k, :]
    return np.argmin((diff * diff).sum(axis=2), axis=1)


# ----------------------------------------------------------------- updates
# Each rule takes the sorted (n, D) population X and the school count k, and
# reads its operands from it: schools X[:k], students X[k:], best X[0], worst
# X[-1]. It maps the school or student block to proposals and makes its
# random draws in one call; the step clamps the whole proposal.

def _school_means(X, k, assign) -> np.ndarray:
    """Per-school mean of the students assigned to it by close().

    Schools with no assigned students fall back to the population mean. A
    school's students are summed as one contiguous block in their order, as
    ``mean`` sums them.
    """
    counts = np.bincount(assign, minlength=k).tolist()
    grouped = X[k:][np.argsort(assign, kind="stable")]
    means = np.empty((k, X.shape[1]))
    if 0 in counts:
        means[:] = X.mean(axis=0)
    start = 0
    for i, count in enumerate(counts):
        if count:
            means[i] = grouped[start:start + count].sum(axis=0) / count
            start += count
    return means


def primary_school_update(X, k, assign, ctx, rng):
    """X + w * (Xmean_i - X) .* Levy(D) for each school X."""
    schools = X[:k]
    return (schools + ctx.omega * (_school_means(X, k, assign) - schools)
            * levy_sample(X.shape[1], rng, size=k))


def primary_student_update(X, k, assign, ctx, rng):
    """X + w * (close(X) - X) * randn with one scalar normal per student."""
    students = X[k:]
    r = rng.normal(size=students.shape[0])[:, None]
    return students + ctx.omega * (X[assign] - students) * r


def middle_school_update(X, k, assign, ctx, rng):
    """X + (Xbest - Xmean) * exp(fes/fes_max - 1) .* Levy(D) for each school X."""
    decay = math.exp(ctx.progress - 1.0)
    return X[:k] + (X[0] - X.mean(axis=0)) * decay * levy_sample(X.shape[1], rng, size=k)


def middle_student_update(X, k, assign, ctx, rng):
    """X - w*close(X) - P * (E * w * close(X) - X); one talent draw per student."""
    students, close = X[k:], X[assign]
    e = talent_gain(ctx, rng.uniform(size=students.shape[0]))[:, None]
    return students - ctx.omega * close - ctx.p * (e * ctx.omega * close - students)


def high_school_update(X, k, assign, ctx, rng):
    """X + (Xbest - Xmean)*randn1 - (Xworst - Xmean)*randn2 (two scalars per school)."""
    mean = X.mean(axis=0)
    r = rng.normal(size=(k, 2))
    return X[:k] + (X[0] - mean) * r[:, :1] - (X[-1] - mean) * r[:, 1:]


def high_student_update(X, k, assign, ctx, rng):
    """X - P * (E * Xbest - X); one talent draw per student."""
    students = X[k:]
    e = talent_gain(ctx, rng.uniform(size=students.shape[0]))[:, None]
    return students - ctx.p * (e * X[0] - students)


# The variant table, by canonical label: each variant's school fraction G by
# stage and, for a variant with a model, the name of its covariance operator
# by stage. Until the archive supports a model, the plain school rule of the
# stage runs with the variant's own fraction.
_VARIANTS = {
    "ECO": ((0.2, 0.1, 0.1), None),
    "GECO": ((0.4, 0.5, 0.5), ("gaussian_operator",) * 3),
    "SECO": ((0.4, 0.5, 0.5), ("shift_operator",) * 3),
    "DECO": ((0.4, 0.5, 0.5), ("differential_operator",) * 3),
    "IECO-MCO": ((0.4, 0.5, 0.5), ("gaussian_operator", "shift_operator",
                                   "differential_operator")),
}


def algorithm_label(name: str) -> str:
    """The label an algorithm name resolves by: upper case, without
    surrounding blanks, ``_`` read as ``-``."""
    return name.strip().upper().replace("_", "-")


def variant_of(name: str):
    """The variant table's row for the algorithm ``name`` labels."""
    try:
        return _VARIANTS[algorithm_label(name)]
    except KeyError:
        raise ValueError("unknown variant %r (expected one of %s)"
                         % (name, ", ".join(_VARIANTS))) from None


def elite_archive(variant, dimension: int) -> Optional[cov.EliteArchive]:
    """The elite archive a run of the variant row keeps: one of
    ``ARCHIVE_ROWS_PER_DIM * dimension`` rows when the row has operators."""
    return None if variant[1] is None else cov.EliteArchive(ARCHIVE_ROWS_PER_DIM * dimension)


# -------------------------------------------------------------------- step

def step(pop: Population, variant, iteration: int,
         archive: Optional[cov.EliteArchive], evaluator) -> Population:
    """One full iteration: draw P, propose, evaluate, select, archive.

    ``pop`` is sorted, as a :class:`Population` keeps itself. ``variant`` is
    a row of the variant table; the 1-based ``iteration`` picks the stage.
    ``evaluator`` is the run's: ``evaluate(X) -> (fitness, objective,
    violation, positions)``, the stream ``rng``, the box ``spec.bounds`` and
    the budget, ``used`` of ``fes_max``. Its ``evaluate`` is the one budget
    check: a block that does not fit raises there, after the P and proposal
    draws. ``archive`` is the row's :func:`elite_archive`, None for a variant
    that keeps none; otherwise its operator runs once the archive supports a
    model, and the iteration's elites of finite fitness are pushed to it (a
    non-finite one cannot rank an entry).
    """
    rng = evaluator.rng
    i = stage_of(iteration)
    ctx = StageContext.draw(evaluator.used, evaluator.fes_max, rng)
    X = pop.positions
    n, d = X.shape
    fractions, operators = variant
    k = school_count(fractions[i], n)
    # close() is read by the primary school rule and the primary and middle
    # student rules only; the high stage's rules take None
    assign = closest_school(X, k) if i < 2 else None

    # The rules are looked up here, by name, so that rebinding a name (as
    # perfbench's tracer does) reaches every call.
    proposals = np.empty_like(X)
    if archive is not None and len(archive) >= cov.min_model_entries(d):
        proposals[:k] = getattr(cov, operators[i])(X, k, cov.estimate(archive), rng)
    else:
        school_rule = (primary_school_update, middle_school_update,
                       high_school_update)[i]
        proposals[:k] = school_rule(X, k, assign, ctx, rng)
    student_rule = (primary_student_update, middle_student_update,
                    high_student_update)[i]
    proposals[k:] = student_rule(X, k, assign, ctx, rng)
    child_fit, child_obj, child_vio, child_pos = evaluator.evaluate(
        clamp(proposals, evaluator.spec.bounds, out=proposals))

    improved = child_fit < pop.fitness
    np.copyto(pop.positions, child_pos, where=improved[:, None])
    np.copyto(pop.fitness, child_fit, where=improved)
    np.copyto(pop.objective, child_obj, where=improved)
    np.copyto(pop.violation, child_vio, where=improved)
    pop.sort()

    if archive is not None:
        idx = cov.elite_indices(pop.fitness, pop.positions, k)
        idx = idx[np.isfinite(pop.fitness[idx])]
        archive.push(pop.positions[idx], pop.fitness[idx])
    return pop
