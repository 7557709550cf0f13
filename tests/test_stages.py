"""Stage scheduling, the six update rules, and the full iteration step."""

from __future__ import annotations

import inspect
import math

import numpy as np
import pytest

from support import CountingEvaluator, ScriptedRng, levy_script

import ieco_mco.stages as st
from ieco_mco.covariance import EliteArchive, min_model_entries
from ieco_mco.rng import (Bounds, BudgetExhaustedError, RngStream, levy_sample,
                          logistic_chain, mantegna_sigma)
from ieco_mco.stages import (
    _VARIANTS,
    ARCHIVE_ROWS_PER_DIM,
    TALENT_THRESHOLD,
    Population,
    Stage,
    StageContext,
    Variant,
    _school_means,
    closest_school,
    high_school_update,
    high_student_update,
    middle_school_update,
    middle_student_update,
    omega,
    primary_school_update,
    primary_student_update,
    school_count,
    stage_of,
    step,
    talent_gain,
)

WIDE = Bounds.cube(-1e9, 1e9, 1)


def ctx_with(stage=Stage.PRIMARY, fes=0, fes_max=1000, omega_val=0.0, p=0.0):
    return StageContext(stage=stage, fes=fes, fes_max=fes_max, omega=omega_val, p=p)


# ---------------------------------------------------------------- scheduling

def test_omega_at_budget_end_is_zero():
    assert omega(1000, 1000) == 0.0


def test_omega_at_start():
    assert omega(0, 1000) == pytest.approx(0.0693147, abs=1e-7)
    assert omega(0, 1000) == pytest.approx(0.1 * math.log(2.0), abs=1e-15)


def test_omega_at_half_budget():
    assert omega(500, 1000) == pytest.approx(0.0405465, abs=1e-7)
    assert omega(500, 1000) == pytest.approx(0.1 * math.log(1.5), abs=1e-15)


def test_omega_is_decreasing():
    vals = [omega(f, 100) for f in range(0, 101, 10)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_omega_rejects_overrun():
    with pytest.raises(ValueError):
        omega(1001, 1000)
    with pytest.raises(ValueError):
        omega(-1, 1000)
    with pytest.raises(ValueError):
        omega(0, 0)


def test_stage_cycle_first_iterations():
    assert stage_of(1) is Stage.PRIMARY
    assert stage_of(3) is Stage.HIGH
    assert stage_of(4) is Stage.PRIMARY


def test_stage_cycle_counts_over_3k_iterations():
    for k in (1, 4, 7):
        stages = [stage_of(i) for i in range(1, 3 * k + 1)]
        for s in Stage:
            assert stages.count(s) == k
    with pytest.raises(ValueError):
        stage_of(0)


def test_school_count_round_half_up_and_floor_one():
    assert school_count(0.2, 30) == 6
    assert school_count(0.4, 30) == 12
    assert school_count(0.5, 30) == 15
    assert school_count(0.25, 6) == 2   # 1.5 rounds up
    assert school_count(0.01, 5) == 1   # never an empty school set
    assert school_count(0.1, 5) == 1


def test_variant_labels_parse_case_insensitively():
    assert Variant.from_label("ieco-mco") is Variant.IECO_MCO
    assert Variant.from_label("IECO_MCO") is Variant.IECO_MCO
    assert Variant.from_label("EcO") is Variant.ECO
    with pytest.raises(ValueError) as err:
        Variant.from_label("bogus")
    msg = str(err.value)
    for label in ("eco", "geco", "seco", "deco", "ieco-mco"):
        assert label in msg.lower()


def test_context_draw_uses_one_normal_and_scales_p():
    ctx = StageContext.draw(Stage.MIDDLE, 0, 1000, ScriptedRng(normals=[0.25]))
    assert ctx.p == pytest.approx(1.0, abs=1e-15)
    assert ctx.omega == pytest.approx(0.1 * math.log(2.0), abs=1e-15)
    ctx_end = StageContext.draw(Stage.MIDDLE, 1000, 1000, ScriptedRng(normals=[3.7]))
    assert ctx_end.p == 0.0
    assert ctx_end.progress() == 1.0


def test_talent_gain_branches_and_floor():
    ctx = ctx_with(fes=500, p=2.0)
    assert talent_gain(ctx, 0.3) == 1.0            # R_m <= Th
    assert talent_gain(ctx, 0.9) == pytest.approx(math.pi / 2.0 * 0.5, abs=1e-15)
    tiny = ctx_with(fes=500, p=0.0)
    val = talent_gain(tiny, 0.9)                   # sign-preserving floor on P
    assert math.isfinite(val) and val > 0
    assert val == pytest.approx(math.pi / 1e-12 * 0.5, rel=1e-9)
    neg = ctx_with(fes=500, p=-1e-20)
    assert talent_gain(neg, 0.9) < 0
    block = talent_gain(ctx, np.array([0.3, 0.9, 0.5]))   # one gain per draw
    assert block.tolist() == [1.0, math.pi / 2.0 * 0.5, 1.0]


# ------------------------------------------------------------ update rules
# Rules take the sorted population X, the school count k and each student's
# school; they read best X[0], worst X[-1] and the mean off X. In the hand
# examples D = 1, and X holds the example's operands.

def col(*values):
    """(m, 1) block from scalars."""
    return np.array(values, dtype=float)[:, None]


def one_school(*values):
    """(X, k, assign) for D = 1, school X[0] and every other row its student."""
    return col(*values), 1, np.zeros(len(values) - 1, dtype=int)


def test_primary_school_hand_example():
    # D=1, X=2, mean=4, w=0.05, Levy draw=1.2 -> 2 + 0.05*2*1.2 = 2.12
    ctx = ctx_with(omega_val=0.05)
    rng = ScriptedRng(normals=levy_script([1.2]))
    out = primary_school_update(*one_school(2.0, 4.0), ctx, rng)
    assert out.shape == (1, 1)
    assert out[0, 0] == pytest.approx(2.12, abs=1e-9)


def test_primary_school_fixed_points():
    ctx = ctx_with(omega_val=0.05)
    out = primary_school_update(*one_school(4.0, 4.0), ctx,
                                ScriptedRng(normals=levy_script([1.7])))
    assert out[0, 0] == 4.0
    ctx0 = ctx_with(omega_val=omega(1000, 1000))
    out = primary_school_update(*one_school(2.0, 9.0), ctx0,
                                ScriptedRng(normals=levy_script([1.7])))
    assert out[0, 0] == 2.0


def test_closest_school_picks_nearest_and_breaks_ties_low():
    schools = col(0.0, 10.0)
    assert closest_school(col(3.0, 8.0), schools).tolist() == [0, 1]
    assert closest_school(col(3.0), col(0.0, 6.0)).tolist() == [0]  # tie -> lowest
    assert closest_school(col(5.0), col(0.0, 10.0, 0.0)).tolist() == [0]


def test_primary_student_hand_example():
    # D=1, X=3, close=0, w=0.06, randn=-1 -> 3 + 0.06*(0-3)*(-1) = 3.18
    ctx = ctx_with(omega_val=0.06)
    out = primary_student_update(*one_school(0.0, 3.0), ctx,
                                 ScriptedRng(normals=[-1.0]))
    assert out[0, 0] == pytest.approx(3.18, abs=1e-12)


def test_primary_student_fixed_point_at_school():
    ctx = ctx_with(omega_val=0.06)
    out = primary_student_update(*one_school(0.0, 0.0), ctx,
                                 ScriptedRng(normals=[0.83]))
    assert out[0, 0] == 0.0


def test_middle_school_hand_example():
    # D=1, X=1, best=5, mean=3, progress=0.5, Levy=0.5 -> 1 + 2*exp(-0.5)*0.5
    # (X is the second of k=2 schools; the best is the first)
    ctx = ctx_with(stage=Stage.MIDDLE, fes=500, fes_max=1000)
    out = middle_school_update(col(5.0, 1.0, 3.0), 2, None, ctx,
                               ScriptedRng(normals=levy_script([0.5]) * 2))
    assert out[1, 0] == pytest.approx(1.0 + 2.0 * math.exp(-0.5) * 0.5, abs=1e-9)
    assert out[1, 0] == pytest.approx(1.6065, abs=1e-4)


def test_middle_school_fixed_point_and_endpoint():
    ctx = ctx_with(stage=Stage.MIDDLE, fes=250, fes_max=1000)
    out = middle_school_update(col(3.0, 1.0, 5.0), 2, None, ctx,
                               ScriptedRng(normals=levy_script([2.2]) * 2))
    assert out[1, 0] == 1.0  # best == mean annihilates the step
    # fes = fes_max -> decay factor e^0 = 1
    ctx_end = ctx_with(stage=Stage.MIDDLE, fes=1000, fes_max=1000)
    out = middle_school_update(col(4.0, 1.0, 4.0), 2, None, ctx_end,
                               ScriptedRng(normals=levy_script([1.0]) * 2))
    assert out[1, 0] == pytest.approx(2.0, abs=1e-9)  # 1 + (4-3)*1*1


def test_middle_student_hand_example():
    # D=1, X=2, close=1, w=0.05, P=1, E=1 -> 2 - 0.05 - (0.05 - 2) = 3.90
    ctx = ctx_with(stage=Stage.MIDDLE, omega_val=0.05, p=1.0)
    out = middle_student_update(*one_school(1.0, 2.0), ctx,
                                ScriptedRng(uniforms=[0.3]))  # R_m <= Th -> E=1
    assert out[0, 0] == pytest.approx(3.90, abs=1e-12)


def test_middle_student_terminal_budget_fixed_point():
    # P=0 and w=0 at fes=fes_max: X stays put.
    ctx = ctx_with(stage=Stage.MIDDLE, fes=1000, fes_max=1000,
                   omega_val=omega(1000, 1000), p=0.0)
    out = middle_student_update(*one_school(1.0, 2.0), ctx,
                                ScriptedRng(uniforms=[0.4]))
    assert out[0, 0] == 2.0


def test_high_school_hand_example():
    # D=1, X=0, best=2, mean=1, worst=5, r1=1, r2=0.5 -> 0 + 1 - 2 = -1
    # (X is the second of k=2 schools; the best is the first)
    ctx = ctx_with(stage=Stage.HIGH)
    out = high_school_update(col(2.0, 0.0, -3.0, 5.0), 2, None, ctx,
                             ScriptedRng(normals=[1.0, 0.5] * 2))
    assert out[1, 0] == pytest.approx(-1.0, abs=1e-12)


def test_high_school_fixed_points():
    ctx = ctx_with(stage=Stage.HIGH)
    # best = worst = mean = 1
    out = high_school_update(col(1.0, 7.0, -5.0, 1.0), 2, None, ctx,
                             ScriptedRng(normals=[2.3, -1.1] * 2))
    assert out[1, 0] == 7.0
    # best 2, worst 5, mean 1
    out = high_school_update(col(2.0, 7.0, -10.0, 5.0), 2, None, ctx,
                             ScriptedRng(normals=[0.0, 0.0] * 2))
    assert out[1, 0] == 7.0


def test_high_student_hand_example():
    # D=1, X=1, best=3, P=0.5, E=1 -> 1 - 0.5*(3-1) = 0
    ctx = ctx_with(stage=Stage.HIGH, p=0.5)
    out = high_student_update(*one_school(3.0, 1.0), ctx,
                              ScriptedRng(uniforms=[0.2]))  # E = 1
    assert out[0, 0] == pytest.approx(0.0, abs=1e-12)


def test_high_student_fixed_points():
    # best = 3
    out = high_student_update(*one_school(3.0, 1.0), ctx_with(stage=Stage.HIGH, p=0.0),
                              ScriptedRng(uniforms=[0.9]))
    assert out[0, 0] == 1.0
    out = high_student_update(*one_school(3.0, 3.0), ctx_with(stage=Stage.HIGH, p=0.7),
                              ScriptedRng(uniforms=[0.2]))
    assert out[0, 0] == 3.0  # E=1 and X=best: fixed point at the best school


def test_updates_are_translation_equivariant():
    # Identical scripted draws on inputs translated by t -> outputs + t.
    t = 512.0
    ctx = ctx_with(omega_val=0.05, p=0.8, fes=500)
    cases = []
    for shift in (0.0, t):
        rng = ScriptedRng(normals=levy_script([1.2]))
        cases.append(primary_school_update(*one_school(2.0 + shift, 4.0 + shift),
                                           ctx, rng)[0, 0])
    assert cases[1] - cases[0] == pytest.approx(t, abs=1e-9)
    cases = []
    for shift in (0.0, t):
        rng = ScriptedRng(normals=[0.7, -0.2] * 2)
        X = col(2.0, 0.5, -3.5, 5.0) + shift   # best 2, worst 5, mean 1
        cases.append(high_school_update(X, 2, None, ctx, rng)[1, 0])
    assert cases[1] - cases[0] == pytest.approx(t, abs=1e-9)
    cases = []
    for shift in (0.0, t):
        rng = ScriptedRng(normals=[-0.4])
        X = col(0.0, 10.0, 3.0) + shift
        assign = closest_school(X[2:], X[:2])
        cases.append(primary_student_update(X, 2, assign, ctx, rng)[0, 0])
    assert cases[1] - cases[0] == pytest.approx(t, abs=1e-9)


# --------------------------------------------- block draws == per-agent draws
# Reference loop: the per-agent rules with one scalar or vector draw per call.
# A block rule on k rows must equal k reference applications on the same seed,
# because the block call reads the stream in the order the loop would.

def ref_levy(d, rng, beta=1.5):
    u = rng.normal(size=d) * mantegna_sigma(beta)
    v = rng.normal(size=d)
    return u / np.abs(v) ** (1.0 / beta)


def ref_gain(ctx, draw):
    if draw <= 0.5:
        return 1.0
    p = ctx.p if abs(ctx.p) >= 1e-12 else math.copysign(1e-12, ctx.p or 1.0)
    return (math.pi / p) * ctx.progress()


def ref_primary_school(x, mean_i, ctx, rng):
    return x + ctx.omega * (mean_i - x) * ref_levy(x.shape[0], rng)


def ref_primary_student(x, close, ctx, rng):
    return x + ctx.omega * (close - x) * float(rng.normal())


def ref_middle_school(x, best, mean, ctx, rng):
    return x + (best - mean) * math.exp(ctx.progress() - 1.0) * ref_levy(x.shape[0], rng)


def ref_middle_student(x, close, ctx, rng):
    e = ref_gain(ctx, float(rng.uniform()))
    return x - ctx.omega * close - ctx.p * (e * ctx.omega * close - x)


def ref_high_school(x, best, worst, mean, ctx, rng):
    r1 = float(rng.normal())
    r2 = float(rng.normal())
    return x + (best - mean) * r1 - (worst - mean) * r2


def ref_high_student(x, best, ctx, rng):
    e = ref_gain(ctx, float(rng.uniform()))
    return x - ctx.p * (e * best - x)


K, D = 5, 3


@pytest.mark.parametrize("size", [1, K])
def test_levy_block_equals_sequential_calls(size):
    block = levy_sample(D, RngStream(7), size=size)
    assert block.shape == (size, D)
    rng = RngStream(7)
    assert np.array_equal(block, np.vstack([levy_sample(D, rng) for _ in range(size)]))
    rng = RngStream(7)
    assert np.array_equal(block, np.vstack([ref_levy(D, rng) for _ in range(size)]))


@pytest.mark.parametrize("p", [-0.8, 0.0])
@pytest.mark.parametrize("rule,ref,n_rows,n_shared", [
    (primary_school_update, ref_primary_school, 1, 0),
    (primary_student_update, ref_primary_student, 1, 0),
    (middle_school_update, ref_middle_school, 0, 2),
    (middle_student_update, ref_middle_student, 1, 0),
    (high_school_update, ref_high_school, 0, 3),
    (high_student_update, ref_high_student, 0, 1),
])
def test_block_rule_equals_per_agent_loop(rule, ref, n_rows, n_shared, p):
    X = -5.0 + 10.0 * RngStream(101).uniform(size=(2 * K, D))
    assign = closest_school(X[K:], X[:K])
    # The operands a reference names after x, read off X as the rules read
    # them: n_rows with one row per agent of the block, then n_shared rows.
    operands = {"mean_i": _school_means(X, K, assign), "close": X[assign],
                "best": X[0], "worst": X[-1], "mean": X.mean(axis=0)}
    names = list(inspect.signature(ref).parameters)[1:-2]
    per_row = [operands[name] for name in names[:n_rows]]
    shared = [operands[name] for name in names[n_rows:]]
    assert len(shared) == n_shared
    ctx = ctx_with(omega_val=0.05, p=p, fes=400)
    block = rule(X, K, assign, ctx, RngStream(17))
    assert block.shape == (K, D)
    rows = X[:K] if "school" in rule.__name__ else X[K:]
    rng = RngStream(17)
    loop = np.vstack([ref(rows[i], *[a[i] for a in per_row], *shared, ctx, rng)
                      for i in range(K)])
    assert np.array_equal(block, loop)


def test_algorithm_params_defaults_per_variant():
    fractions = {
        Variant.ECO: (0.2, 0.1, 0.1),
        Variant.GECO: (0.4, 0.5, 0.5),
        Variant.SECO: (0.4, 0.5, 0.5),
        Variant.DECO: (0.4, 0.5, 0.5),
        Variant.IECO_MCO: (0.4, 0.5, 0.5),
    }
    for variant, expected in fractions.items():
        assert _VARIANTS[variant][0] == expected
    assert TALENT_THRESHOLD == 0.5
    assert ARCHIVE_ROWS_PER_DIM == 20


# The school operator each variant with a model runs, by stage.
OPERATORS = {
    Variant.GECO: ("gaussian_operator",) * 3,
    Variant.SECO: ("shift_operator",) * 3,
    Variant.DECO: ("differential_operator",) * 3,
    Variant.IECO_MCO: ("gaussian_operator", "shift_operator",
                       "differential_operator"),
}


def test_dispatch_table_covers_every_variant_and_stage():
    assert set(_VARIANTS) == set(Variant)
    assert _VARIANTS[Variant.ECO][1] is None
    names = ("gaussian_operator", "shift_operator", "differential_operator")
    for variant, operators in OPERATORS.items():
        assert tuple(names[j] for j in _VARIANTS[variant][1]) == operators


@pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
def test_step_calls_every_rule_and_operator_through_its_name(variant,
                                                             monkeypatch):
    # perfbench's tracer rebinds these module attributes, so step must reach
    # them by name when it runs, not through functions a table holds.
    calls = []

    def count(owner, name):
        fn = getattr(owner, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    for stage in ("primary", "middle", "high"):
        count(st, stage + "_school_update")
        count(st, stage + "_student_update")
    for name in ("gaussian_operator", "shift_operator", "differential_operator"):
        count(st.cov, name)

    bounds = Bounds.cube(-100.0, 100.0, 2)
    seen = set()
    for first in (1, 2, 3):   # each stage once with a young archive
        ev = CountingEvaluator(lambda X: ((X - 7.0) ** 2).sum(axis=1))
        pop, rng = make_pop(ev, bounds, 10, seed=5)
        archive = archive_for(variant, 2)
        for it in range(first, first + 4):
            stage = stage_of(it)
            modelled = archive is not None and len(archive) >= min_model_entries(2)
            ctx = StageContext.draw(stage, ev.used, 10 ** 6, rng)
            calls.clear()
            pop = step(pop, variant, ctx, archive, rng, ev, bounds)
            plain = stage.name.lower()
            school = (OPERATORS[variant][stage.value - 1] if modelled
                      else plain + "_school_update")
            assert calls == [school, plain + "_student_update"], (stage, modelled)
            seen.add((stage, modelled))
    both = (False,) if variant is Variant.ECO else (False, True)
    assert seen == {(stage, modelled) for stage in Stage for modelled in both}


def test_school_partition_after_sort():
    rng = RngStream(31)
    pos = -5.0 + 10.0 * rng.uniform(size=(20, 3))
    fit = rng.uniform(size=20)
    pop = Population(pos, fit, fit, np.zeros(20))
    k = school_count(0.4, 20)
    assert pop.fitness[:k].max() <= pop.fitness[k:].min()


def test_school_means_fallback_to_population_mean():
    # Both students sit nearer school 0, so school 1 falls back to pop mean.
    pos = np.array([[0.0, 0.0], [100.0, 100.0], [1.0, 0.0], [0.0, 1.0]])
    fit = np.array([0.0, 1.0, 2.0, 3.0])
    pop = Population(pos, fit, fit, np.zeros(4))
    assign = closest_school(pop.positions[2:], pop.positions[:2])
    assert assign.tolist() == [0, 0]
    means = _school_means(pop.positions, 2, assign)
    assert np.allclose(means[0], pos[2:].mean(axis=0))
    assert np.allclose(means[1], pos.mean(axis=0))


def test_school_means_at_d1_are_the_mean_of_each_contiguous_column():
    # At D = 1 a school's students form one contiguous column, which numpy
    # sums pairwise from 8 values on; a scatter-add and count form differs
    # there in the last bits. 27 students in 3 schools: one holds 9 or more.
    for seed in range(200):
        X = -5.0 + 10.0 * RngStream(seed).uniform(size=(30, 1))
        assign = closest_school(X[3:], X[:3])
        assert np.bincount(assign, minlength=3).max() >= 9
        means = _school_means(X, 3, assign)
        for i in range(3):
            column = X[3:, 0][assign == i]
            assert means[i, 0] == (column.mean() if column.size else X[:, 0].mean())


def test_population_sort_is_stable_and_stats_correct():
    pos = np.array([[1.0], [2.0], [3.0], [4.0], [5.0]])
    fit = np.array([3.0, 1.0, 3.0, 0.5, 1.0])
    pop = Population(pos, fit, fit, np.zeros(5))
    assert np.array_equal(pop.fitness, np.array([0.5, 1.0, 1.0, 3.0, 3.0]))
    # equal-fitness entries keep their original relative order
    assert np.array_equal(pop.positions[:, 0], np.array([4.0, 2.0, 5.0, 1.0, 3.0]))
    # step reads best, worst and mean straight off the sorted arrays
    assert pop.fitness[0] == 0.5 and pop.positions[0, 0] == 4.0
    assert pop.fitness[-1] == 3.0 and pop.positions[-1, 0] == 3.0
    assert pop.positions.mean(axis=0)[0] == pytest.approx(3.0)


# ---------------------------------------------------------------------- step

def chain_population(n, bounds, x0=0.3):
    """The chaotic population of ``n`` agents from the logistic seed ``x0``."""
    chain = logistic_chain(x0, n * bounds.dimension)
    return bounds.lower + bounds.span * chain.reshape(n, bounds.dimension)


def make_pop(evaluator, bounds, n, seed):
    rng = RngStream(seed)
    fit, obj, feas, pos = evaluator.evaluate(chain_population(n, bounds))
    return Population(pos, fit, obj, feas), rng


def archive_for(variant, dim):
    """The archive run_single gives a variant: none for ECO."""
    return None if variant is Variant.ECO else EliteArchive(ARCHIVE_ROWS_PER_DIM * dim)


def run_iterations(variant, iters, n=10, dim=2, seed=5, fes_max=10 ** 6,
                   transform=None):
    bounds = Bounds.cube(-100.0, 100.0, dim)
    fn = lambda X: ((X - 7.0) ** 2).sum(axis=1)
    if transform is not None:
        base = fn
        fn = lambda X: transform(base(X))
    ev = CountingEvaluator(fn)
    pop, rng = make_pop(ev, bounds, n, seed)
    archive = archive_for(variant, dim)
    snaps = []
    for it in range(1, iters + 1):
        ctx = StageContext.draw(stage_of(it), ev.used, fes_max, rng)
        pop = step(pop, variant, ctx, archive, rng, ev, bounds)
        snaps.append(pop.positions.copy())
    return pop, ev, snaps


def test_step_conserves_population_size():
    pop, ev, _ = run_iterations(Variant.ECO, 7, n=12)
    assert pop.positions.shape[0] == 12
    pop, ev, _ = run_iterations(Variant.IECO_MCO, 7, n=12)
    assert pop.positions.shape[0] == 12


def test_step_best_fitness_is_monotone():
    for variant in (Variant.ECO, Variant.IECO_MCO):
        bounds = Bounds.cube(-100.0, 100.0, 3)
        ev = CountingEvaluator(lambda X: (X ** 2).sum(axis=1))
        pop, rng = make_pop(ev, bounds, 10, seed=9)
        archive = archive_for(variant, 3)
        best = pop.fitness[0]
        for it in range(1, 16):
            ctx = StageContext.draw(stage_of(it), ev.used, 10 ** 6, rng)
            pop = step(pop, variant, ctx, archive, rng, ev, bounds)
            assert pop.fitness[0] <= best
            best = pop.fitness[0]


def test_step_consumes_n_evaluations_per_iteration():
    # ECO, D=2, N=6: init burns 6, three iterations burn 18 -> 24 total.
    bounds = Bounds.cube(-100.0, 100.0, 2)
    ev = CountingEvaluator(lambda X: (X ** 2).sum(axis=1))
    pop, rng = make_pop(ev, bounds, 6, seed=3)
    for it in range(1, 4):
        ctx = StageContext.draw(stage_of(it), ev.used, 10 ** 6, rng)
        pop = step(pop, Variant.ECO, ctx, None, rng, ev, bounds)
    assert ev.used == 24


def test_step_refuses_to_start_without_budget():
    bounds = Bounds.cube(-100.0, 100.0, 2)
    ev = CountingEvaluator(lambda X: (X ** 2).sum(axis=1))
    pop, rng = make_pop(ev, bounds, 6, seed=3)
    ctx = StageContext(stage=Stage.PRIMARY, fes=24, fes_max=24, omega=0.0, p=0.0)
    with pytest.raises(BudgetExhaustedError):
        step(pop, Variant.ECO, ctx, None, rng, ev, bounds)


def test_step_trajectory_invariant_under_monotone_rescaling():
    # Replaying the same seed on f and on 2f+7 gives identical positions.
    _, _, snaps_f = run_iterations(Variant.ECO, 12, n=10, dim=3, seed=21)
    _, _, snaps_g = run_iterations(Variant.ECO, 12, n=10, dim=3, seed=21,
                                   transform=lambda v: 2.0 * v + 7.0)
    for a, b in zip(snaps_f, snaps_g):
        assert np.array_equal(a, b)


def test_step_translation_equivariance_single_iteration():
    # One full iteration on a population translated by t, same seed and a
    # translated problem: outputs translate by t. (Across many iterations
    # ulp-level fitness noise can flip sort ties and reshuffle roles, so the
    # equivariance statement is per update application, not per trajectory.)
    t = 8.0
    dim, n = 2, 8
    for first_stage in (1, 2, 3):
        out = []
        for shift in (0.0, t):
            bounds = Bounds.cube(-100.0 + shift, 100.0 + shift, dim)
            ev = CountingEvaluator(lambda X, s=shift: ((X - s) ** 2).sum(axis=1))
            rng = RngStream(41)
            fit, obj, feas, pos = ev.evaluate(chain_population(n, bounds))
            pop = Population(pos, fit, obj, feas)
            ctx = StageContext.draw(stage_of(first_stage), ev.used, 10 ** 6, rng)
            pop = step(pop, Variant.ECO, ctx, None, rng, ev, bounds)
            out.append(pop.positions)
        assert np.allclose(out[1] - out[0], t, atol=1e-8)


def test_step_fills_archive_for_improved_variants():
    bounds = Bounds.cube(-100.0, 100.0, 2)
    ev = CountingEvaluator(lambda X: (X ** 2).sum(axis=1))
    pop, rng = make_pop(ev, bounds, 10, seed=13)
    archive = archive_for(Variant.IECO_MCO, 2)
    pushed = 0
    for it in range(1, 10):
        ctx = StageContext.draw(stage_of(it), ev.used, 10 ** 6, rng)
        pop = step(pop, Variant.IECO_MCO, ctx, archive, rng, ev, bounds)
        pushed += school_count(_VARIANTS[Variant.IECO_MCO][0][ctx.stage.value - 1], 10)
        assert len(archive) == min(pushed, ARCHIVE_ROWS_PER_DIM * 2)


def test_step_clamps_every_proposal_into_the_box():
    # The optimum at x = 7 lies outside [-1, 1]^2, so the rules and the
    # covariance operators propose points past the upper face; step clamps
    # the whole block before it is evaluated.
    bounds = Bounds.cube(-1.0, 1.0, 2)
    for variant in Variant:
        seen = []
        ev = CountingEvaluator(lambda X: seen.append(X.copy())
                               or ((X - 7.0) ** 2).sum(axis=1))
        pop, rng = make_pop(ev, bounds, 10, seed=17)
        archive = archive_for(variant, 2)
        for it in range(1, 16):
            ctx = StageContext.draw(stage_of(it), ev.used, 10 ** 6, rng)
            pop = step(pop, variant, ctx, archive, rng, ev, bounds)
        proposals = np.concatenate(seen[1:])
        assert np.all((proposals >= -1.0) & (proposals <= 1.0)), variant
        assert np.any(proposals == 1.0), variant
