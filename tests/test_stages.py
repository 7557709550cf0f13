"""Stage scheduling, the six update rules, and the full iteration step."""

from __future__ import annotations

import dataclasses
import inspect
import math
import re

import numpy as np
import pytest

from support import ScriptedRng, counting_run, levy_script, sphere_spec

import ieco_mco.stages as st
from ieco_mco.covariance import min_model_entries
from ieco_mco.harness import Evaluator
from ieco_mco.rng import (Bounds, BudgetExhaustedError, RngStream, levy_sample,
                          logistic_chain, mantegna_sigma)
from ieco_mco.stages import (
    _VARIANTS,
    ARCHIVE_ROWS_PER_DIM,
    TALENT_THRESHOLD,
    StageContext,
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
    variant_of,
)

WIDE = Bounds.cube(-1e9, 1e9, 1)


def ctx_with(fes=0, fes_max=1000, omega_val=0.0, p=0.0):
    return StageContext(omega=omega_val, p=p, progress=fes / fes_max)


# ---------------------------------------------------------------- scheduling

def test_omega_at_budget_end_is_zero():
    assert omega(1000, 1000) == 0.0


def test_omega_at_start():
    assert omega(0, 1000) == pytest.approx(0.0693147, abs=1e-7)
    assert omega(0, 1000) == pytest.approx(0.1 * math.log(2.0), abs=1e-15)


def test_omega_accepts_a_budget_of_one():
    assert omega(0, 1) == 0.1 * math.log(2.0)
    assert omega(1, 1) == 0.0


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
    assert stage_of(1) == 0
    assert stage_of(3) == 2
    assert stage_of(4) == 0


def test_stage_cycle_counts_over_3k_iterations():
    for k in (1, 4, 7):
        stages = [stage_of(i) for i in range(1, 3 * k + 1)]
        for s in range(3):
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
    assert variant_of("ieco-mco") is _VARIANTS["IECO-MCO"]
    assert variant_of(" IECO_MCO ") is _VARIANTS["IECO-MCO"]
    assert variant_of("EcO") is _VARIANTS["ECO"]
    with pytest.raises(ValueError) as err:
        variant_of("bogus")
    assert str(err.value) == ("unknown variant 'bogus' (expected one of "
                              "ECO, GECO, SECO, DECO, IECO-MCO)")


def test_context_draw_uses_one_normal_and_scales_p():
    ctx = StageContext.draw(0, 1000, ScriptedRng(normals=[0.25]))
    assert ctx.p == pytest.approx(1.0, abs=1e-15)
    assert ctx.omega == pytest.approx(0.1 * math.log(2.0), abs=1e-15)
    ctx_end = StageContext.draw(1000, 1000, ScriptedRng(normals=[3.7]))
    assert ctx_end.p == 0.0
    assert ctx_end.progress == 1.0


def test_context_holds_exactly_the_three_scalars_the_rules_read():
    for fes, fes_max in ((0, 1000), (1, 3), (333, 1000), (29999, 30000), (7, 7)):
        ctx = StageContext.draw(fes, fes_max, ScriptedRng(normals=[-0.75]))
        assert [f.name for f in dataclasses.fields(ctx)] == ["omega", "p", "progress"]
        assert ctx.progress.hex() == (fes / fes_max).hex()
        assert ctx.omega.hex() == omega(fes, fes_max).hex()
        assert ctx.p.hex() == (4.0 * -0.75 * (1.0 - fes / fes_max)).hex()


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
    # schools X[:k], then the students X[k:]
    assert closest_school(col(0.0, 10.0, 3.0, 8.0), 2).tolist() == [0, 1]
    assert closest_school(col(0.0, 6.0, 3.0), 2).tolist() == [0]  # tie -> lowest
    assert closest_school(col(0.0, 10.0, 0.0, 5.0), 3).tolist() == [0]


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
    ctx = ctx_with(fes=500, fes_max=1000)
    out = middle_school_update(col(5.0, 1.0, 3.0), 2, None, ctx,
                               ScriptedRng(normals=levy_script([0.5]) * 2))
    assert out[1, 0] == pytest.approx(1.0 + 2.0 * math.exp(-0.5) * 0.5, abs=1e-9)
    assert out[1, 0] == pytest.approx(1.6065, abs=1e-4)


def test_middle_school_fixed_point_and_endpoint():
    ctx = ctx_with(fes=250, fes_max=1000)
    out = middle_school_update(col(3.0, 1.0, 5.0), 2, None, ctx,
                               ScriptedRng(normals=levy_script([2.2]) * 2))
    assert out[1, 0] == 1.0  # best == mean annihilates the step
    # fes = fes_max -> decay factor e^0 = 1
    ctx_end = ctx_with(fes=1000, fes_max=1000)
    out = middle_school_update(col(4.0, 1.0, 4.0), 2, None, ctx_end,
                               ScriptedRng(normals=levy_script([1.0]) * 2))
    assert out[1, 0] == pytest.approx(2.0, abs=1e-9)  # 1 + (4-3)*1*1


def test_middle_student_hand_example():
    # D=1, X=2, close=1, w=0.05, P=1, E=1 -> 2 - 0.05 - (0.05 - 2) = 3.90
    ctx = ctx_with(omega_val=0.05, p=1.0)
    out = middle_student_update(*one_school(1.0, 2.0), ctx,
                                ScriptedRng(uniforms=[0.3]))  # R_m <= Th -> E=1
    assert out[0, 0] == pytest.approx(3.90, abs=1e-12)


def test_middle_student_terminal_budget_fixed_point():
    # P=0 and w=0 at fes=fes_max: X stays put.
    ctx = ctx_with(fes=1000, fes_max=1000,
                   omega_val=omega(1000, 1000), p=0.0)
    out = middle_student_update(*one_school(1.0, 2.0), ctx,
                                ScriptedRng(uniforms=[0.4]))
    assert out[0, 0] == 2.0


def test_high_school_hand_example():
    # D=1, X=0, best=2, mean=1, worst=5, r1=1, r2=0.5 -> 0 + 1 - 2 = -1
    # (X is the second of k=2 schools; the best is the first)
    ctx = ctx_with()
    out = high_school_update(col(2.0, 0.0, -3.0, 5.0), 2, None, ctx,
                             ScriptedRng(normals=[1.0, 0.5] * 2))
    assert out[1, 0] == pytest.approx(-1.0, abs=1e-12)


def test_high_school_fixed_points():
    ctx = ctx_with()
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
    ctx = ctx_with(p=0.5)
    out = high_student_update(*one_school(3.0, 1.0), ctx,
                              ScriptedRng(uniforms=[0.2]))  # E = 1
    assert out[0, 0] == pytest.approx(0.0, abs=1e-12)


def test_high_student_fixed_points():
    # best = 3
    out = high_student_update(*one_school(3.0, 1.0), ctx_with(p=0.0),
                              ScriptedRng(uniforms=[0.9]))
    assert out[0, 0] == 1.0
    out = high_student_update(*one_school(3.0, 3.0), ctx_with(p=0.7),
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
        assign = closest_school(X, 2)
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
    return (math.pi / p) * ctx.progress


def ref_primary_school(x, mean_i, ctx, rng):
    return x + ctx.omega * (mean_i - x) * ref_levy(x.shape[0], rng)


def ref_primary_student(x, close, ctx, rng):
    return x + ctx.omega * (close - x) * float(rng.normal())


def ref_middle_school(x, best, mean, ctx, rng):
    return x + (best - mean) * math.exp(ctx.progress - 1.0) * ref_levy(x.shape[0], rng)


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
    assign = closest_school(X, K)
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
        "ECO": (0.2, 0.1, 0.1),
        "GECO": (0.4, 0.5, 0.5),
        "SECO": (0.4, 0.5, 0.5),
        "DECO": (0.4, 0.5, 0.5),
        "IECO-MCO": (0.4, 0.5, 0.5),
    }
    assert list(_VARIANTS) == list(fractions)
    for label, expected in fractions.items():
        assert _VARIANTS[label] == (expected, OPERATORS.get(label))
    assert TALENT_THRESHOLD == 0.5
    assert ARCHIVE_ROWS_PER_DIM == 20


# The school operator each variant with a model runs, by stage.
OPERATORS = {
    "GECO": ("gaussian_operator",) * 3,
    "SECO": ("shift_operator",) * 3,
    "DECO": ("differential_operator",) * 3,
    "IECO-MCO": ("gaussian_operator", "shift_operator", "differential_operator"),
}
STAGES = ("primary", "middle", "high")


@pytest.mark.parametrize("label", list(_VARIANTS))
def test_step_calls_every_rule_and_operator_through_its_name(label, monkeypatch):
    # perfbench's tracer rebinds these module attributes, so step must reach
    # them by name when it runs, not through functions a table holds.
    calls = []

    def count(owner, name):
        fn = getattr(owner, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    for stage in STAGES:
        count(st, stage + "_school_update")
        count(st, stage + "_student_update")
    for name in ("gaussian_operator", "shift_operator", "differential_operator"):
        count(st.cov, name)

    bounds = Bounds.cube(-100.0, 100.0, 2)
    seen = set()
    for first in (1, 2, 3):   # each stage once with a young archive
        run = start(counting_run(lambda X: ((X - 7.0) ** 2).sum(axis=1), bounds, seed=5),
                    label, 10, iteration=first)
        for it in range(first, first + 4):
            stage = stage_of(it)
            modelled = (run.archive is not None
                        and len(run.archive) >= min_model_entries(2))
            calls.clear()
            step(run)
            plain = STAGES[stage]
            school = (OPERATORS[label][stage] if modelled
                      else plain + "_school_update")
            assert calls == [school, plain + "_student_update"], (stage, modelled)
            seen.add((stage, modelled))
    both = (False,) if label == "ECO" else (False, True)
    assert seen == {(stage, modelled) for stage in range(3) for modelled in both}


@pytest.mark.parametrize("label", ["ECO", "IECO-MCO"])
def test_step_reads_close_only_in_the_stages_whose_rules_use_it(label, monkeypatch):
    """close() makes no draws and is read by the primary school rule and the
    primary and middle student rules only: step computes it in stages 0 and
    1, and the high stage's two rules get None."""
    closest, seen = [], {}
    find = st.closest_school
    monkeypatch.setattr(st, "closest_school",
                        lambda *a: closest.append(1) or find(*a))
    for stage in STAGES:
        for who in ("school", "student"):
            name = "%s_%s_update" % (stage, who)

            def spy(X, k, assign, ctx, rng, name=name, rule=getattr(st, name)):
                seen.setdefault(name, []).append(assign)
                return rule(X, k, assign, ctx, rng)

            monkeypatch.setattr(st, name, spy)
    bounds = Bounds.cube(-100.0, 100.0, 2)
    run = start(counting_run(lambda X: ((X - 7.0) ** 2).sum(axis=1), bounds, seed=5),
                label, 10)
    for it in range(1, 10):
        closest.clear()
        step(run)
        assert len(closest) == (stage_of(it) < 2), it
    # a variant with a model runs its operator in place of the school rule
    high = seen.get("high_school_update", []) + seen["high_student_update"]
    assert high and all(a is None for a in high)
    assert all(isinstance(a, np.ndarray) for name, args in seen.items()
               if not name.startswith("high") for a in args)


@pytest.mark.parametrize("rule", [high_school_update, high_student_update])
def test_high_stage_rules_ignore_the_assignment(rule):
    X = -5.0 + 10.0 * RngStream(7).uniform(size=(10, 3))
    ctx = ctx_with(fes=300, omega_val=0.05, p=1.3)
    given = rule(X, 4, np.arange(6) % 4, ctx, RngStream(11))
    assert np.array_equal(rule(X, 4, None, ctx, RngStream(11)), given)


def test_school_partition_after_sort():
    bounds = Bounds.cube(-5.0, 5.0, 3)
    pos = -5.0 + 10.0 * RngStream(31).uniform(size=(20, 3))
    run = counting_run(lambda X: (X ** 2).sum(axis=1), bounds, seed=0)
    run.start(variant_of("ECO"), pos)
    k = school_count(0.4, 20)
    assert run.fitness[:k].max() <= run.fitness[k:].min()


def test_school_means_fallback_to_population_mean():
    # Both students sit nearer school 0, so school 1 falls back to pop mean.
    pos = np.array([[0.0, 0.0], [100.0, 100.0], [1.0, 0.0], [0.0, 1.0]])
    assign = closest_school(pos, 2)
    assert assign.tolist() == [0, 0]
    means = _school_means(pos, 2, assign)
    assert np.allclose(means[0], pos[2:].mean(axis=0))
    assert np.allclose(means[1], pos.mean(axis=0))


def test_school_means_at_d1_are_the_mean_of_each_contiguous_column():
    # At D = 1 a school's students form one contiguous column, which numpy
    # sums pairwise from 8 values on; a scatter-add and count form differs
    # there in the last bits. 27 students in 3 schools: one holds 9 or more.
    for seed in range(200):
        X = -5.0 + 10.0 * RngStream(seed).uniform(size=(30, 1))
        assign = closest_school(X, 3)
        assert np.bincount(assign, minlength=3).max() >= 9
        means = _school_means(X, 3, assign)
        for i in range(3):
            column = X[3:, 0][assign == i]
            assert means[i, 0] == (column.mean() if column.size else X[:, 0].mean())


def test_population_sort_is_stable_and_stats_correct():
    # the objective reads the fitness of each position off a table
    table = np.array([3.0, 1.0, 3.0, 0.5, 1.0])
    run = counting_run(lambda X: table[X[:, 0].astype(int) - 1],
                       Bounds.cube(0.0, 10.0, 1), seed=0)
    run.start(variant_of("ECO"), np.array([[1.0], [2.0], [3.0], [4.0], [5.0]]))
    assert np.array_equal(run.fitness, np.array([0.5, 1.0, 1.0, 3.0, 3.0]))
    assert np.array_equal(run.objective, run.fitness)
    assert np.array_equal(run.violation, np.zeros(5))
    # equal-fitness entries keep their original relative order
    assert np.array_equal(run.positions[:, 0], np.array([4.0, 2.0, 5.0, 1.0, 3.0]))
    # step reads best, worst and mean straight off the sorted arrays
    assert run.fitness[0] == 0.5 and run.positions[0, 0] == 4.0
    assert run.fitness[-1] == 3.0 and run.positions[-1, 0] == 3.0
    assert run.positions.mean(axis=0)[0] == pytest.approx(3.0)


def test_population_shares_no_array_it_was_built_from():
    """On a problem without constraints ``evaluate`` hands back the X it
    read as the positions, so the run holds none of the arrays it returned
    nor X itself."""
    for X in (RngStream(37).uniform(size=(6, 2)),   # shuffled and presorted
              np.linspace(0.0, 1.0, 12).reshape(6, 2)):
        run = counting_run(lambda X: X[:, 0], Bounds.cube(0.0, 1.0, 2), seed=0)
        returned = []
        run.evaluate = lambda X: returned.append(Evaluator.evaluate(run, X)) or returned[-1]
        run.start(variant_of("ECO"), X)
        held = (run.positions, run.fitness, run.objective, run.violation)
        kept = [a.copy() for a in held]
        for given in (X, *returned[0]):
            given[...] = np.nan
        for a, b in zip(held, kept):
            assert np.array_equal(a, b)


# ---------------------------------------------------------------------- step

def chain_population(n, bounds, x0=0.3):
    """The chaotic population of ``n`` agents from the logistic seed ``x0``."""
    chain = logistic_chain(x0, n * bounds.dimension)
    return bounds.lower + bounds.span * chain.reshape(n, bounds.dimension)


def start(run, label, n, iteration=1):
    """``run`` started as a run of the variant ``label`` from the chaotic
    population of ``n`` agents in its box, its next step the ``iteration``th."""
    run.start(variant_of(label), chain_population(n, run.spec.bounds))
    run.iteration = iteration
    return run


def run_iterations(label, iters, n=10, dim=2, seed=5, fes_max=10 ** 6,
                   transform=None):
    bounds = Bounds.cube(-100.0, 100.0, dim)
    fn = lambda X: ((X - 7.0) ** 2).sum(axis=1)
    if transform is not None:
        base = fn
        fn = lambda X: transform(base(X))
    run = start(counting_run(fn, bounds, seed, fes_max), label, n)
    snaps = []
    for _ in range(iters):
        step(run)
        snaps.append(run.positions.copy())
    return run, snaps


def test_step_conserves_population_size():
    run, _ = run_iterations("ECO", 7, n=12)
    assert run.positions.shape[0] == 12
    run, _ = run_iterations("IECO-MCO", 7, n=12)
    assert run.positions.shape[0] == 12


def test_step_best_fitness_is_monotone():
    for label in ("ECO", "IECO-MCO"):
        bounds = Bounds.cube(-100.0, 100.0, 3)
        run = start(counting_run(lambda X: (X ** 2).sum(axis=1), bounds, seed=9),
                    label, 10)
        best = run.fitness[0]
        for _ in range(15):
            step(run)
            assert run.fitness[0] <= best
            best = run.fitness[0]


def test_step_consumes_n_evaluations_per_iteration():
    # ECO, D=2, N=6: init burns 6, three iterations burn 18 -> 24 total.
    bounds = Bounds.cube(-100.0, 100.0, 2)
    run = start(counting_run(lambda X: (X ** 2).sum(axis=1), bounds, seed=3), "ECO", 6)
    for _ in range(3):
        step(run)
    assert run.used == 24
    assert run.iteration == 4


def test_step_refuses_to_start_without_budget():
    # The evaluator's ceiling check is the iteration's only budget check. It
    # raises after the P and proposal draws, before any objective is read,
    # so the population, the archive, the iteration, the trace and the count
    # stay as they were.
    for label in ("ECO", "IECO-MCO"):
        run = start(Evaluator(sphere_spec(2), fes_max=95, rng=RngStream(3)), label, 10)
        for _ in range(8):
            step(run)
        positions, fitness = run.positions.copy(), run.fitness.copy()
        trace = run.trace.copy()
        rows = None if run.archive is None else run.archive.positions().copy()
        with pytest.raises(BudgetExhaustedError, match=re.escape(
                "evaluating 10 candidates would exceed the budget (90 of 95 used)")):
            step(run)
        assert run.used == 90 and run.iteration == 9
        assert np.array_equal(run.positions, positions)
        assert np.array_equal(run.fitness, fitness)
        assert np.array_equal(run.trace[:9], trace[:9])
        if run.archive is not None:
            assert len(run.archive) >= min_model_entries(2)
            assert np.array_equal(run.archive.positions(), rows)


def test_step_trajectory_invariant_under_monotone_rescaling():
    # Replaying the same seed on f and on 2f+7 gives identical positions.
    _, snaps_f = run_iterations("ECO", 12, n=10, dim=3, seed=21)
    _, snaps_g = run_iterations("ECO", 12, n=10, dim=3, seed=21,
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
            run = start(counting_run(lambda X, s=shift: ((X - s) ** 2).sum(axis=1),
                                     bounds, seed=41), "ECO", n, iteration=first_stage)
            step(run)
            out.append(run.positions)
        assert np.allclose(out[1] - out[0], t, atol=1e-8)


def test_step_fills_archive_for_improved_variants():
    bounds = Bounds.cube(-100.0, 100.0, 2)
    run = start(counting_run(lambda X: (X ** 2).sum(axis=1), bounds, seed=13),
                "IECO-MCO", 10)
    pushed = 0
    for it in range(1, 10):
        step(run)
        pushed += school_count(_VARIANTS["IECO-MCO"][0][stage_of(it)], 10)
        assert len(run.archive) == min(pushed, ARCHIVE_ROWS_PER_DIM * 2)


def test_step_clamps_every_proposal_into_the_box():
    # The optimum at x = 7 lies outside [-1, 1]^2, so the rules and the
    # covariance operators propose points past the upper face; step clamps
    # the whole block before it is evaluated.
    bounds = Bounds.cube(-1.0, 1.0, 2)
    for label in _VARIANTS:
        seen = []
        run = start(counting_run(lambda X: seen.append(X.copy())
                                 or ((X - 7.0) ** 2).sum(axis=1), bounds, seed=17),
                    label, 10)
        for _ in range(15):
            step(run)
        proposals = np.concatenate(seen[1:])
        assert np.all((proposals >= -1.0) & (proposals <= 1.0)), label
        assert np.any(proposals == 1.0), label
