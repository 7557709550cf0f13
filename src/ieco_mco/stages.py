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
Xmean_i the mean of the students whose nearest school is i. Each rule acts
on the whole block of schools or students at once. New positions are
clamped to the box and survive per agent only when they improve on the
parent.

Variants swap the school rule for a covariance operator estimated from the
elite archive: the full variant uses the Gaussian operator in the primary
stage, the shifted operator in the middle stage and the differencing operator
in the high stage, while each single-operator ablation applies its one
operator in all three stages. One (variant, stage) table holds the school
rule; students always use the plain rule of the stage. Until the archive
holds enough entries for a usable model the school update falls back to the
plain stage rule.

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
within each agent, so they still draw one school at a time.
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


@dataclass(frozen=True)
class AlgorithmParams:
    """The variant and its school fractions.

    g1   : school fraction in the primary stage
    g2   : school fraction in the middle and high stages

    Every variant shares the talent threshold (``TALENT_THRESHOLD``), the
    elite archive capacity of 20 * dimension and the elite-score weight
    (``covariance.ELITE_WEIGHT``).
    """

    variant: Variant = Variant.IECO_MCO
    g1: float = 0.4
    g2: float = 0.5

    def __post_init__(self):
        for name, g in (("g1", self.g1), ("g2", self.g2)):
            if not 0.0 < g < 1.0:
                raise ValueError("%s must lie in (0, 1)" % name)

    @classmethod
    def for_variant(cls, variant) -> "AlgorithmParams":
        """Published defaults: base algorithm uses smaller school fractions."""
        if not isinstance(variant, Variant):
            variant = Variant.from_label(str(variant))
        if variant is Variant.ECO:
            return cls(variant=variant, g1=0.2, g2=0.1)
        return cls(variant=variant, g1=0.4, g2=0.5)

    def archive_capacity(self, dim: int) -> int:
        return 20 * dim

    def school_fraction(self, stage: Stage) -> float:
        return self.g1 if stage is Stage.PRIMARY else self.g2

    def uses_archive(self) -> bool:
        return self.variant is not Variant.ECO


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
    problems it is the penalized value, and ``objective``/``feasible`` retain
    the raw readings for reporting. For unconstrained problems the three
    arrays are fitness, fitness, all-True.
    """

    def __init__(self, positions, fitness, objective=None, feasible=None):
        self.positions = np.atleast_2d(np.asarray(positions, dtype=float)).copy()
        self.fitness = np.asarray(fitness, dtype=float).copy()
        if self.positions.shape[0] != self.fitness.shape[0]:
            raise ValueError("positions and fitness lengths differ")
        self.objective = (self.fitness.copy() if objective is None
                          else np.asarray(objective, dtype=float).copy())
        self.feasible = (np.ones(self.size, dtype=bool) if feasible is None
                         else np.asarray(feasible, dtype=bool).copy())
        self.sort()

    @property
    def size(self):
        return self.positions.shape[0]

    @property
    def dim(self):
        return self.positions.shape[1]

    def sort(self):
        order = np.argsort(self.fitness, kind="stable")
        self.positions = self.positions[order]
        self.fitness = self.fitness[order]
        self.objective = self.objective[order]
        self.feasible = self.feasible[order]


def closest_school(positions, school_positions) -> np.ndarray:
    """Index of each row's nearest school by Euclidean distance (ties: lowest)."""
    diff = positions[:, None, :] - school_positions[None, :, :]
    return np.argmin((diff * diff).sum(axis=2), axis=1)


# ----------------------------------------------------------------- updates
# Each rule maps an (m, D) block of schools or students to m proposals and
# makes its random draws in one call; the step clamps the whole proposal.

def primary_school_update(schools, school_means, ctx, rng):
    """X + w * (Xmean_i - X) .* Levy(D)."""
    k, d = schools.shape
    return schools + ctx.omega * (school_means - schools) * levy_sample(d, rng, size=k)


def primary_student_update(students, close, ctx, rng):
    """X + w * (close(X) - X) * randn with one scalar normal per student."""
    r = rng.normal(size=students.shape[0])[:, None]
    return students + ctx.omega * (close - students) * r


def middle_school_update(schools, best, mean, ctx, rng):
    """X + (Xbest - Xmean) * exp(fes/fes_max - 1) .* Levy(D)."""
    k, d = schools.shape
    decay = math.exp(ctx.progress() - 1.0)
    return schools + (best - mean) * decay * levy_sample(d, rng, size=k)


def middle_student_update(students, close, ctx, rng):
    """X - w*close(X) - P * (E * w * close(X) - X); one talent draw per student."""
    e = talent_gain(ctx, rng.uniform(size=students.shape[0]))[:, None]
    return students - ctx.omega * close - ctx.p * (e * ctx.omega * close - students)


def high_school_update(schools, best, worst, mean, ctx, rng):
    """X + (Xbest - Xmean)*randn1 - (Xworst - Xmean)*randn2 (two scalars per school)."""
    r = rng.normal(size=(schools.shape[0], 2))
    return schools + (best - mean) * r[:, :1] - (worst - mean) * r[:, 1:]


def high_student_update(students, best, ctx, rng):
    """X - P * (E * Xbest - X); one talent draw per student."""
    e = talent_gain(ctx, rng.uniform(size=students.shape[0]))[:, None]
    return students - ctx.p * (e * best - students)


# ---------------------------------------------------------------- dispatch
# Entries take the sorted positions X, the school count k, each student's
# school index and the model (None for plain rules), and return the (k, D)
# school or (n - k, D) student proposals. They call the rules and operators
# through their module names, so rebinding one (as perfbench's tracer does)
# reaches every dispatch.

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


def _primary_schools(X, k, assign, model, ctx, rng):
    return primary_school_update(X[:k], _school_means(X, k, assign), ctx, rng)


def _middle_schools(X, k, assign, model, ctx, rng):
    return middle_school_update(X[:k], X[0], X.mean(axis=0), ctx, rng)


def _high_schools(X, k, assign, model, ctx, rng):
    return high_school_update(X[:k], X[0], X[-1], X.mean(axis=0), ctx, rng)


# The covariance operators interleave a Gaussian vector, a uniform and (for
# differencing) an index pair per agent, so they run one school at a time.
def _gaussian_schools(X, k, assign, model, ctx, rng):
    return [cov.gaussian_operator(x, model, rng) for x in X[:k]]


def _shift_schools(X, k, assign, model, ctx, rng):
    return [cov.shift_operator(x, model, X[0], rng) for x in X[:k]]


def _differential_schools(X, k, assign, model, ctx, rng):
    return [cov.differential_operator(X[i], model, np.delete(X, i, axis=0),
                                      X[0], X[-1], rng) for i in range(k)]


def _primary_students(X, k, assign, model, ctx, rng):
    return primary_student_update(X[k:], X[assign], ctx, rng)


def _middle_students(X, k, assign, model, ctx, rng):
    return middle_student_update(X[k:], X[assign], ctx, rng)


def _high_students(X, k, assign, model, ctx, rng):
    return high_student_update(X[k:], X[0], ctx, rng)


# School rule per (variant, stage); the ECO row holds the plain rules, which
# every variant uses until its archive supports a model.
_SCHOOL_RULES = {
    (variant, stage): rule
    for variant, rules in (
        (Variant.ECO, (_primary_schools, _middle_schools, _high_schools)),
        (Variant.GECO, (_gaussian_schools,) * 3),
        (Variant.SECO, (_shift_schools,) * 3),
        (Variant.DECO, (_differential_schools,) * 3),
        (Variant.IECO_MCO, (_gaussian_schools, _shift_schools, _differential_schools)),
    )
    for stage, rule in zip(Stage, rules)
}
_STUDENT_RULES = dict(zip(Stage, (_primary_students, _middle_students, _high_students)))


# -------------------------------------------------------------------- step

def step(pop: Population, params: AlgorithmParams, ctx: StageContext,
         archive: Optional[cov.EliteArchive], rng: RngStream, evaluator,
         bounds: Bounds) -> Population:
    """One full iteration: propose, evaluate, select greedily, archive elites.

    ``evaluator`` must expose ``evaluate(X) -> (fitness, objective, feasible,
    positions)`` and own the evaluation budget; the iteration needs exactly
    ``pop.size`` base evaluations (constraint handling may spend more).
    Raises :class:`BudgetExhaustedError` when the base cost does not fit.
    """
    n = pop.size
    if ctx.fes + n > ctx.fes_max:
        raise BudgetExhaustedError(
            "iteration needs %d evaluations but only %d remain"
            % (n, ctx.fes_max - ctx.fes))
    pop.sort()
    X = pop.positions
    k = school_count(params.school_fraction(ctx.stage), n)
    assign = closest_school(X[k:], X[:k])

    model, variant = None, Variant.ECO
    if (params.uses_archive() and archive is not None
            and len(archive) >= cov.min_model_entries(pop.dim)):
        model, variant = cov.estimate(archive), params.variant

    proposals = np.empty_like(X)
    proposals[:k] = _SCHOOL_RULES[variant, ctx.stage](X, k, assign, model, ctx, rng)
    proposals[k:] = _STUDENT_RULES[ctx.stage](X, k, assign, model, ctx, rng)
    child_fit, child_obj, child_feas, child_pos = evaluator.evaluate(clamp(proposals, bounds))

    improved = child_fit < pop.fitness
    pop.positions[improved] = child_pos[improved]
    pop.fitness[improved] = child_fit[improved]
    pop.objective[improved] = child_obj[improved]
    pop.feasible[improved] = child_feas[improved]
    pop.sort()

    if params.uses_archive() and archive is not None:
        idx = cov.elite_indices(pop.fitness, pop.positions, pop.positions[0], k)
        archive.push(pop.positions[idx], pop.fitness[idx])
    return pop
