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
the student's talent draw exceeds the threshold Th = 0.5, else 1. close(X) is
the school position nearest to the student (ties to the lowest index) and
Xmean_i the mean of the students whose nearest school is i. Every rule
takes the whole population, sorted by fitness, and the school count k, and
reads its operands from it: schools X[:k], students X[k:], best X[0], worst
X[-1], the population mean and close(X). It proposes its whole block of
schools or students at once. New positions are clamped to the box and
survive per agent only when they improve on the parent.

Variants swap the school rule for a covariance operator estimated from the
elite archive: the full variant uses the Gaussian operator in the primary
stage, the shifted operator in the middle stage and the differencing operator
in the high stage, while each single-operator ablation applies its one
operator in all three stages. The operators take the same sorted population
and k. One variant table holds each variant's school fraction G by stage and
its operator by stage: ECO's fractions are 0.2, 0.1, 0.1 and every other
variant's 0.4, 0.5, 0.5. Students always use the plain rule of the stage.
Every variant but ECO keeps an elite archive of 20 * D rows; until it holds
enough entries for a usable model the school update falls back to the plain
stage rule.

Per-iteration draw order (one shared stream): the scalar for P; the school
block, agents in fitness order; the student block, agents in fitness order;
then any draws made by constraint handling during evaluation. A plain rule
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

import enum
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import covariance as cov
from .rng import Bounds, BudgetExhaustedError, RngStream, clamp, levy_sample

# Talent threshold Th: a talent draw above it gives the student the gain E.
TALENT_THRESHOLD = 0.5
# A variant that keeps an elite archive holds this many rows per dimension.
ARCHIVE_ROWS_PER_DIM = 20
# |P| floor when computing E = (pi/P) * (fes/fes_max); P = 0 is treated as +0.
TALENT_GAIN_P_FLOOR = 1e-12


class Stage(enum.Enum):
    PRIMARY = 1
    MIDDLE = 2
    HIGH = 3


class Variant(enum.Enum):
    """Optimizer variants: the base algorithm, three single-operator
    ablations, and the full multi-operator variant."""

    ECO = "ECO"
    GECO = "GECO"
    SECO = "SECO"
    DECO = "DECO"
    IECO_MCO = "IECO-MCO"

    @classmethod
    def from_label(cls, label: str) -> "Variant":
        norm = label.strip().upper().replace("_", "-")
        for v in cls:
            if v.value == norm:
                return v
        raise ValueError("unknown variant %r (expected one of %s)"
                         % (label, ", ".join(v.value for v in cls)))


def stage_of(iteration: int) -> Stage:
    """Iterations cycle primary, middle, high with period 3 (1-based)."""
    if iteration < 1:
        raise ValueError("iteration numbering starts at 1")
    return (Stage.PRIMARY, Stage.MIDDLE, Stage.HIGH)[(iteration - 1) % 3]


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
    """Per-iteration scalars shared by the update rules."""

    stage: Stage
    fes: int
    fes_max: int
    omega: float
    p: float

    @classmethod
    def draw(cls, stage: Stage, fes: int, fes_max: int, rng: RngStream):
        """Build the context, consuming the single per-iteration randn for P."""
        return cls(stage=stage, fes=fes, fes_max=fes_max,
                   omega=omega(fes, fes_max),
                   p=4.0 * float(rng.normal()) * (1.0 - fes / fes_max))

    def progress(self) -> float:
        return self.fes / self.fes_max


def talent_gain(ctx: StageContext, talent_draws) -> np.ndarray:
    """E = (pi/P) * (fes/fes_max) per draw above the threshold, else 1; |P| floored."""
    p = ctx.p
    if abs(p) < TALENT_GAIN_P_FLOOR:
        p = math.copysign(TALENT_GAIN_P_FLOOR, p if p != 0.0 else 1.0)
    return np.where(np.asarray(talent_draws) <= TALENT_THRESHOLD, 1.0,
                    (math.pi / p) * ctx.progress())


class Population:
    """Positions with ranking fitness, kept sorted ascending by fitness.

    ``fitness`` is the scalar the algorithm ranks on; for constrained
    problems it is the penalized value, and ``objective``/``violation``
    keep the readings it was ranked from. For unconstrained problems the
    three arrays are fitness, fitness, all zero.
    """

    def __init__(self, positions, fitness, objective, violation):
        self.positions = np.atleast_2d(np.asarray(positions, dtype=float)).copy()
        self.fitness = np.asarray(fitness, dtype=float).copy()
        if self.positions.shape[0] != self.fitness.shape[0]:
            raise ValueError("positions and fitness lengths differ")
        self.objective = np.asarray(objective, dtype=float).copy()
        self.violation = np.asarray(violation, dtype=float).copy()
        self.sort()

    def sort(self):
        order = np.argsort(self.fitness, kind="stable")
        self.positions = self.positions[order]
        self.fitness = self.fitness[order]
        self.objective = self.objective[order]
        self.violation = self.violation[order]


def closest_school(positions, school_positions) -> np.ndarray:
    """Index of each row's nearest school by Euclidean distance (ties: lowest)."""
    diff = positions[:, None, :] - school_positions[None, :, :]
    return np.argmin((diff * diff).sum(axis=2), axis=1)


# ----------------------------------------------------------------- updates
# Each rule takes the sorted (n, D) population X and the school count k, and
# reads its operands from it: schools X[:k], students X[k:], best X[0], worst
# X[-1]. It maps the school or student block to proposals and makes its
# random draws in one call; the step clamps the whole proposal.

def _school_means(X, k, assign) -> np.ndarray:
    """Per-school mean of the students assigned to it by close().

    Schools with no assigned students fall back to the population mean.
    """
    students = X[k:]
    means = np.tile(X.mean(axis=0), (k, 1))
    for i in range(k):
        mask = assign == i
        if mask.any():
            means[i] = students[mask].mean(axis=0)
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
    decay = math.exp(ctx.progress() - 1.0)
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


# Per variant: the school fraction G by stage and, for a variant with a
# model, its covariance operator by stage (0 Gaussian, 1 shifted,
# 2 differencing). Until the archive supports a model, the plain school
# rule of the stage runs with the variant's own fraction.
_VARIANTS = {
    Variant.ECO: ((0.2, 0.1, 0.1), None),
    Variant.GECO: ((0.4, 0.5, 0.5), (0, 0, 0)),
    Variant.SECO: ((0.4, 0.5, 0.5), (1, 1, 1)),
    Variant.DECO: ((0.4, 0.5, 0.5), (2, 2, 2)),
    Variant.IECO_MCO: ((0.4, 0.5, 0.5), (0, 1, 2)),
}


# -------------------------------------------------------------------- step

def step(pop: Population, variant: Variant, ctx: StageContext,
         archive: Optional[cov.EliteArchive], rng: RngStream, evaluator,
         bounds: Bounds) -> Population:
    """One full iteration: propose, evaluate, select greedily, archive elites.

    ``pop`` is sorted, as a :class:`Population` keeps itself. ``evaluator``
    must expose ``evaluate(X) -> (fitness, objective, violation,
    positions)`` and own the evaluation budget; the iteration needs exactly
    one base evaluation per agent (constraint handling may spend more).
    ``archive`` is None for a variant that keeps none. Otherwise the
    variant's operator runs once the archive supports a model, and the
    iteration's elites of finite fitness are pushed to it: a non-finite one
    cannot rank an entry, and the model waits for enough finite entries as
    it waits for a young archive. Raises
    :class:`BudgetExhaustedError` when the base cost does not fit.
    """
    X = pop.positions
    n, d = X.shape
    if ctx.fes + n > ctx.fes_max:
        raise BudgetExhaustedError(
            "iteration needs %d evaluations but only %d remain"
            % (n, ctx.fes_max - ctx.fes))
    fractions, operators = _VARIANTS[variant]
    i = ctx.stage.value - 1
    k = school_count(fractions[i], n)
    assign = closest_school(X[k:], X[:k])

    # The rules are looked up here, by name, so that rebinding a name (as
    # perfbench's tracer does) reaches every call.
    proposals = np.empty_like(X)
    if archive is not None and len(archive) >= cov.min_model_entries(d):
        operator = (cov.gaussian_operator, cov.shift_operator,
                    cov.differential_operator)[operators[i]]
        proposals[:k] = operator(X, k, cov.estimate(archive), rng)
    else:
        school_rule = (primary_school_update, middle_school_update,
                       high_school_update)[i]
        proposals[:k] = school_rule(X, k, assign, ctx, rng)
    student_rule = (primary_student_update, middle_student_update,
                    high_student_update)[i]
    proposals[k:] = student_rule(X, k, assign, ctx, rng)
    child_fit, child_obj, child_vio, child_pos = evaluator.evaluate(clamp(proposals, bounds))

    improved = child_fit < pop.fitness
    pop.positions[improved] = child_pos[improved]
    pop.fitness[improved] = child_fit[improved]
    pop.objective[improved] = child_obj[improved]
    pop.violation[improved] = child_vio[improved]
    pop.sort()

    if archive is not None:
        idx = cov.elite_indices(pop.fitness, pop.positions, pop.positions[0], k)
        idx = idx[np.isfinite(pop.fitness[idx])]
        archive.push(pop.positions[idx], pop.fitness[idx])
    return pop
