"""Elite scoring, FIFO archive, covariance estimation, and the operators."""

from __future__ import annotations

import math

import numpy as np
import pytest

from support import ScriptedRng

from ieco_mco.covariance import (
    ArchiveTooSmallError,
    CovModel,
    EliteArchive,
    differential_operator,
    elite_indices,
    estimate,
    gaussian_operator,
    min_model_entries,
    rank_weights,
    shift_operator,
)
from ieco_mco.rng import RngStream


def zero_cov_model(mean):
    mean = np.asarray(mean, dtype=float)
    d = mean.shape[0]
    return CovModel(mean_better=mean, cov=np.zeros((d, d)))


# ------------------------------------------------------------- elite scoring

def test_elite_hand_scored_example():
    # f=(0,1,2), distances from best (0,4,2): combined = (0.5, 0.75, 0.25).
    positions = np.array([[0.0], [4.0], [2.0]])
    fitness = np.array([0.0, 1.0, 2.0])
    idx = elite_indices(fitness, positions, positions[0], k=1)
    assert idx.tolist() == [1]
    chosen = positions[idx]
    assert chosen.shape == (1, 1) and chosen[0, 0] == 4.0


def test_elite_degenerate_population_selects_by_index():
    positions = np.tile(np.array([[1.5, -2.0]]), (5, 1))
    fitness = np.full(5, 3.0)
    idx = elite_indices(fitness, positions, positions[0], k=3)
    assert idx.tolist() == [0, 1, 2]


def test_elite_dominant_agent_wins():
    # One agent best-fitness-and-far, the other worst-and-near: k=1 picks it.
    positions = np.array([[0.0], [10.0], [1.0]])
    fitness = np.array([0.0, 1.0, 5.0])
    idx = elite_indices(fitness, positions, positions[0], k=1)
    assert idx.tolist() == [1]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_elite_non_finite_fitness_scores_zero_and_keeps_the_rest(bad):
    # finite fitnesses 0 and 2 normalize to 1 and 0; the distance half stays
    positions = np.array([[0.0], [1.0], [2.0], [3.0]])
    fitness = np.array([0.0, bad, 2.0, bad])
    idx = elite_indices(fitness, positions, positions[0], k=4)
    assert idx.tolist() == [0, 3, 2, 1]


def test_elite_k_validation():
    positions = np.array([[0.0], [1.0]])
    fitness = np.array([0.0, 1.0])
    with pytest.raises(ValueError):
        elite_indices(fitness, positions, positions[0], k=0)
    with pytest.raises(ValueError):
        elite_indices(fitness, positions, positions[0], k=3)


# ------------------------------------------------------------------- archive

def test_archive_fifo_eviction():
    a, b, c, d = ([0.0], [1.0], [2.0], [3.0])
    arch = EliteArchive(3)
    arch.push(np.array([a, b, c]), np.array([0.0, 1.0, 2.0]))
    arch.push(np.array([d]), np.array([3.0]))
    assert np.array_equal(arch.positions(), np.array([b, c, d]))
    assert np.array_equal(arch.fitnesses(), np.array([1.0, 2.0, 3.0]))


def test_archive_keeps_items_in_order_below_capacity():
    arch = EliteArchive(10)
    items = np.arange(8.0).reshape(4, 2)
    arch.push(items, np.arange(4.0))
    assert len(arch) == 4
    assert np.array_equal(arch.positions(), items)


def test_archive_bulk_push_evicts_from_front():
    arch = EliteArchive(2)
    arch.push(np.array([[0.0], [1.0], [2.0]]), np.array([0.0, 1.0, 2.0]))
    assert np.array_equal(arch.positions(), np.array([[1.0], [2.0]]))


def test_archive_property_random_push_sequences():
    # After any push sequence the contents equal the last min(S, total) items.
    rng = RngStream(29)
    for capacity in (1, 3, 7):
        arch = EliteArchive(capacity)
        seen = []
        for _ in range(20):
            k = int(rng._gen.integers(1, 4))
            block = -1.0 + 2.0 * rng.uniform(size=(k, 2))
            fits = rng.uniform(size=k)
            arch.push(block, fits)
            seen.extend([(p.copy(), float(f)) for p, f in zip(block, fits)])
            tail = seen[-min(capacity, len(seen)):]
            assert np.array_equal(arch.positions(), np.array([p for p, _ in tail]))
            assert np.array_equal(arch.fitnesses(), np.array([f for _, f in tail]))


def test_archive_validation():
    with pytest.raises(ValueError):
        EliteArchive(0)
    arch = EliteArchive(3)
    with pytest.raises(ValueError):
        arch.push(np.array([[0.0], [1.0]]), np.array([0.0]))


def test_min_model_entries_threshold():
    assert min_model_entries(1) == 2
    assert min_model_entries(3) == 2
    assert min_model_entries(10) == 6
    assert min_model_entries(30) == 16


# ---------------------------------------------------------------- estimation

def test_rank_weights_sum_and_decrease():
    for m in (1, 2, 5, 20, 50):
        w = rank_weights(m)
        assert w.shape == (m,)
        assert w.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.diff(w) < 0) or m == 1
    with pytest.raises(ValueError):
        rank_weights(0)


def test_estimate_two_entry_hand_example():
    arch = EliteArchive(10)
    arch.push(np.array([[1.0], [3.0]]), np.array([0.5, 0.9]))
    model = estimate(arch)
    weights = rank_weights(2)
    # figures as printed in the worked example (1e-4), then the full-precision
    # values from an independent evaluation of the same formulas (1e-12)
    assert weights[0] == pytest.approx(0.73045, abs=1e-4)
    assert weights[1] == pytest.approx(0.26955, abs=1e-4)
    assert model.mean_better[0] == pytest.approx(1.53910, abs=1e-4)
    assert model.cov[0, 0] == pytest.approx(1.21232, abs=1e-4)
    w1 = math.log(3.0 / 1.0) / (math.log(3.0) + math.log(1.5))
    assert weights[0] == pytest.approx(0.7304227103091852, abs=1e-12)
    assert weights[0] == pytest.approx(w1, abs=1e-15)
    assert model.mean_better[0] == pytest.approx(1.53915457938163, abs=1e-12)
    assert model.cov[0, 0] == pytest.approx(1.2123785017049222, abs=1e-12)


def test_estimate_rank_order_follows_stored_fitness():
    # Same entries, pushed in the other order: identical model.
    a = EliteArchive(10)
    a.push(np.array([[1.0], [3.0]]), np.array([0.5, 0.9]))
    b = EliteArchive(10)
    b.push(np.array([[3.0], [1.0]]), np.array([0.9, 0.5]))
    ma, mb = estimate(a), estimate(b)
    assert np.allclose(ma.mean_better, mb.mean_better, atol=1e-15)
    assert np.allclose(ma.cov, mb.cov, atol=1e-15)


def test_estimate_identical_entries_give_zero_covariance():
    p = np.array([2.0, -1.0, 0.5])
    arch = EliteArchive(10)
    arch.push(np.tile(p, (4, 1)), np.full(4, 1.0))
    model = estimate(arch)
    assert np.array_equal(model.mean_better, p)
    assert np.array_equal(model.cov, np.zeros((3, 3)))


def test_estimate_needs_two_entries():
    arch = EliteArchive(5)
    arch.push(np.array([[1.0]]), np.array([0.0]))
    with pytest.raises(ArchiveTooSmallError):
        estimate(arch)


def test_estimate_rejects_non_finite_entries():
    arch = EliteArchive(5)
    arch.push(np.array([[1.0], [np.nan]]), np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        estimate(arch)


def brute_force_model(X, f):
    """Straight-loop evaluation of the weighted mean and scatter matrix."""
    m, d = X.shape
    order = sorted(range(m), key=lambda i: (f[i], i))
    weights = [math.log((m + 1) / r) for r in range(1, m + 1)]
    total = sum(weights)
    weights = [w / total for w in weights]
    mean = np.zeros(d)
    for w, i in zip(weights, order):
        mean += w * X[i]
    C = np.zeros((d, d))
    for i in range(m):
        dev = X[i] - mean
        C += np.outer(dev, dev)
    return mean, C / m


def test_estimate_matches_brute_force_on_random_archives():
    rng = RngStream(37)
    for _ in range(200):
        m = int(rng._gen.integers(2, 51))
        d = int(rng._gen.integers(1, 11))
        X = -5.0 + 10.0 * rng.uniform(size=(m, d))
        f = rng.uniform(size=m)
        arch = EliteArchive(m)
        arch.push(X, f)
        model = estimate(arch)
        mean, C = brute_force_model(X, f)
        assert np.max(np.abs(model.mean_better - mean)) < 1e-12
        assert np.max(np.abs(model.cov - C)) < 1e-12


def test_estimated_covariance_is_psd():
    rng = RngStream(43)
    for _ in range(50):
        m = int(rng._gen.integers(2, 30))
        d = int(rng._gen.integers(1, 8))
        X = -10.0 + 20.0 * rng.uniform(size=(m, d))
        arch = EliteArchive(m)
        arch.push(X, rng.uniform(size=m))
        C = estimate(arch).cov
        assert np.allclose(C, C.T, atol=1e-14)
        for _ in range(10):
            z = rng.normal(size=d)
            assert z @ C @ z >= -1e-10 * (z @ z)


def test_estimate_translation_equivariance():
    rng = RngStream(47)
    X = -3.0 + 6.0 * rng.uniform(size=(12, 4))
    f = rng.uniform(size=12)
    t = np.array([10.0, -20.0, 5.0, 0.25])
    a = EliteArchive(12)
    a.push(X, f)
    b = EliteArchive(12)
    b.push(X + t, f)
    ma, mb = estimate(a), estimate(b)
    assert np.allclose(mb.mean_better, ma.mean_better + t, atol=1e-9)
    assert np.allclose(mb.cov, ma.cov, atol=1e-10)


# ------------------------------------------------------------------ sampling

def test_sample_zero_covariance_collapses_to_mean():
    mean = np.array([3.0, -1.0])
    model = CovModel(mean_better=mean, cov=np.zeros((2, 2)))
    draws = model.sample(RngStream(53).normal(size=(100, 2)))
    for s in draws:
        assert np.linalg.norm(s - mean) < 1e-5 * np.linalg.norm(mean) + 1e-5


def test_sample_identity_covariance_monte_carlo():
    model = CovModel(mean_better=np.zeros(2), cov=np.eye(2))
    draws = model.sample(RngStream(59).normal(size=(100000, 2)))
    emp = np.cov(draws.T, bias=True)
    assert abs(emp[0, 0] - 1.0) < 0.05
    assert abs(emp[1, 1] - 1.0) < 0.05
    assert abs(emp[0, 1]) < 0.05
    # sample mean within 3*sigma/sqrt(n) per coordinate
    bound = 3.0 / math.sqrt(100000)
    assert np.all(np.abs(draws.mean(axis=0)) < bound)


def test_sample_one_dimensional_variance():
    model = CovModel(mean_better=np.zeros(1), cov=np.array([[4.0]]))
    draws = model.sample(RngStream(61).normal(size=(100000, 1)))
    assert abs(draws.var() - 4.0) < 0.2  # 5% of 4
    assert abs(draws.mean()) < 3.0 * 2.0 / math.sqrt(100000)


def test_sample_random_model_frobenius_error():
    rng = RngStream(67)
    A = rng.normal(size=(4, 4))
    C = A @ A.T
    model = CovModel(mean_better=rng.normal(size=4), cov=C)
    draws = model.sample(RngStream(71).normal(size=(100000, 4)))
    emp = np.cov(draws.T, bias=True)
    rel = np.linalg.norm(emp - C) / np.linalg.norm(C)
    assert rel < 0.05


def test_sample_handles_singular_covariance():
    # Rank-1 scatter in 3-D: factorization needs the jitter ladder.
    direction = np.array([1.0, 2.0, -1.0])
    X = np.outer(np.linspace(-1, 1, 6), direction)
    arch = EliteArchive(6)
    arch.push(X, np.linspace(0, 1, 6))
    model = estimate(arch)
    s = model.sample(RngStream(73).normal(size=(200, 3)))
    assert np.all(np.isfinite(s))
    # samples hug the line: deviation orthogonal to it stays at jitter scale
    unit = direction / np.linalg.norm(direction)
    residual = s - model.mean_better
    ortho = residual - np.outer(residual @ unit, unit)
    assert np.abs(ortho).max() < 1e-4


def test_sample_rejects_non_finite_covariance():
    # the model factors on construction, so it is never built to sample
    with pytest.raises(ValueError, match="non-finite"):
        CovModel(mean_better=np.zeros(2), cov=np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_sample_rows_equal_per_row_factor_products():
    # A plain block product Z @ L.T can differ from z @ L.T in the last bits.
    rng = RngStream(89)
    for d in (2, 10, 30):
        A = rng.normal(size=(d, d))
        model = CovModel(mean_better=rng.normal(size=d), cov=A @ A.T)
        for k in (1, 7, 30):
            z = rng.normal(size=(k, d))
            rows = [model.mean_better + row @ model.factor.T for row in z]
            assert np.array_equal(model.sample(z), np.vstack(rows))


# ----------------------------------------------------------------- operators
# Each operator takes the sorted population X and the school count k, with
# best X[0], and proposes the school block X[:k].

def test_gaussian_operator_hand_example():
    # mean_better=2, X=0, Gaussian draw=2.5, rand=0.5 -> 2.5 + 0.5*2 = 3.5
    model = CovModel(mean_better=np.array([2.0]), cov=np.array([[1.0]]))
    rng = ScriptedRng(normals=[0.5], uniforms=[0.5])  # z=0.5 -> draw 2.5
    out = gaussian_operator(np.array([[0.0]]), 1, model, rng)
    assert out.shape == (1, 1)
    assert out[0, 0] == pytest.approx(3.5, abs=1e-9)


def test_gaussian_operator_fixed_points():
    model = zero_cov_model([2.0])
    out = gaussian_operator(np.array([[0.0]]), 1, model,
                            ScriptedRng(normals=[0.0], uniforms=[0.0]))
    assert out[0, 0] == 2.0
    out = gaussian_operator(np.array([[2.0]]), 1, model,
                            ScriptedRng(normals=[0.0], uniforms=[0.77]))
    assert out[0, 0] == 2.0


def test_shift_operator_hand_example():
    # mean_better=3, best=6, X=0, C=0, rand=1 -> (3+6+0)/3 + 1*3 = 6
    model = zero_cov_model([3.0])
    rng = ScriptedRng(normals=[0.0, 0.0], uniforms=[1.0, 1.0])
    out = shift_operator(np.array([[6.0], [0.0]]), 2, model, rng)
    assert out[1, 0] == pytest.approx(6.0, abs=1e-12)


def test_shift_operator_fixed_points():
    model = zero_cov_model([5.0])
    out = shift_operator(np.array([[5.0]]), 1, model,
                         ScriptedRng(normals=[0.0], uniforms=[0.4]))
    assert out[0, 0] == 5.0
    model2 = zero_cov_model([3.0])
    out = shift_operator(np.array([[2.0], [1.0]]), 2, model2,
                         ScriptedRng(normals=[0.0, 0.0], uniforms=[0.0, 0.0]))
    assert out[1, 0] == pytest.approx(2.0, abs=1e-12)  # centroid of 3, 2, 1


# The differencing operator updates X[i] for i < k from the sorted population
# X with best X[0] and worst X[-1]; with k = 1 the one school is X[0] and the
# pair indexes the other agents X[1:].

def test_differential_operator_hand_example():
    # mean=1, ran1=4, best=2, ran2=0, worst=5, r1=0.5, r2=0.2 -> 1 + 1 - 1 = 1
    model = zero_cov_model([1.0])
    X = np.array([[2.0], [4.0], [0.0], [5.0]])
    rng = ScriptedRng(normals=[0.0], pairs=[(0, 1)], uniforms=[0.5, 0.2])
    out = differential_operator(X, 1, model, rng)
    assert out.shape == (1, 1)
    assert out[0, 0] == pytest.approx(1.0, abs=1e-12)


def test_differential_operator_fixed_points():
    model = zero_cov_model([1.0])
    # ran1 == best and ran2 == worst: both difference terms vanish
    X = np.array([[2.0], [2.0], [5.0]])
    rng = ScriptedRng(normals=[0.0], pairs=[(0, 1)], uniforms=[0.9, 0.8])
    out = differential_operator(X, 1, model, rng)
    assert out[0, 0] == 1.0
    # r1 = r2 = 0 collapses to the Gaussian center as well
    X = np.array([[2.0], [4.0], [0.0], [5.0]])
    rng = ScriptedRng(normals=[0.0], pairs=[(0, 1)], uniforms=[0.0, 0.0])
    out = differential_operator(X, 1, model, rng)
    assert out[0, 0] == 1.0


def test_differential_operator_needs_three_agents():
    model = zero_cov_model([1.0])
    with pytest.raises(ValueError):
        differential_operator(np.array([[2.0], [5.0]]), 1, model, RngStream(83))


def test_operator_translation_equivariance():
    t = 100.0
    outs = []
    for shift in (0.0, t):
        model = zero_cov_model([2.0 + shift])
        rng = ScriptedRng(normals=[0.0], uniforms=[0.3])
        outs.append(gaussian_operator(np.array([[0.5 + shift]]), 1, model, rng)[0, 0])
    assert outs[1] - outs[0] == pytest.approx(t, abs=1e-9)
    outs = []
    for shift in (0.0, t):
        model = zero_cov_model([3.0 + shift])
        rng = ScriptedRng(normals=[0.0], pairs=[(0, 1)], uniforms=[0.6, 0.1])
        X = np.array([[2.0], [4.0], [0.0], [5.0]]) + shift
        outs.append(differential_operator(X, 1, model, rng)[0, 0])
    assert outs[1] - outs[0] == pytest.approx(t, abs=1e-9)


# One school at a time, as the operators ran before they took blocks: the
# reference for the draws and the bits of the block operators.

def is_diagonal(m):
    return np.array_equal(m, np.diag(np.diag(m)))


def ref_sample(model, rng, center):
    z = rng.normal(size=model.mean_better.shape[0])
    if is_diagonal(model.factor):  # the fallback scales each coordinate
        return center + z * np.diag(model.factor)
    return center + z @ model.factor.T


def ref_gaussian(x, model, rng):
    g = ref_sample(model, rng, model.mean_better)
    r = float(rng.uniform())
    return g + r * (model.mean_better - x)


def ref_shift(x, model, best, rng):
    g = ref_sample(model, rng, (model.mean_better + best + x) / 3.0)
    r = float(rng.uniform())
    return g + r * (model.mean_better - x)


def ref_differential(x, model, others, best, worst, rng):
    g = ref_sample(model, rng, model.mean_better)
    i1, i2 = rng.distinct_pair(others.shape[0])
    r1 = float(rng.uniform())
    r2 = float(rng.uniform())
    return g + r1 * (others[i1] - best) + r2 * (others[i2] - worst)


def ref_schools(name, X, k, model, rng):
    if name == "gaussian":
        return [ref_gaussian(X[i], model, rng) for i in range(k)]
    if name == "shift":
        return [ref_shift(X[i], model, X[0], rng) for i in range(k)]
    return [ref_differential(X[i], model, np.delete(X, i, axis=0), X[0], X[-1], rng)
            for i in range(k)]


def block_schools(name, X, k, model, rng):
    operator = {"gaussian": gaussian_operator, "shift": shift_operator,
                "differential": differential_operator}[name]
    return operator(X, k, model, rng)


def random_model(d, fallback):
    gen = RngStream(97)
    if fallback:
        # eigenvalue -1 along the ones vector, beyond every jitter, so the
        # model scales by its (positive) diagonal
        cov = 2.0 * np.eye(d) - np.full((d, d), 3.0 / d)
        return CovModel(mean_better=-2.0 + 4.0 * gen.uniform(size=d), cov=cov)
    archive = EliteArchive(4 * d)
    archive.push(-3.0 + 6.0 * gen.uniform(size=(4 * d, d)), gen.uniform(size=4 * d))
    return estimate(archive)


N_AGENTS, D = 8, 5


@pytest.mark.parametrize("fallback", [False, True])
@pytest.mark.parametrize("k", [1, 3, N_AGENTS - 1])
@pytest.mark.parametrize("name", ["gaussian", "shift", "differential"])
def test_block_operator_equals_per_school_loop(name, k, fallback):
    model = random_model(D, fallback)
    assert is_diagonal(model.factor) == fallback
    assert not fallback or np.all(np.diag(model.factor) > 1.0)
    X = -5.0 + 10.0 * RngStream(101).uniform(size=(N_AGENTS, D))
    rng = RngStream(17)
    block = block_schools(name, X, k, model, rng)
    assert block.shape == (k, D)
    ref_rng = RngStream(17)
    loop = np.vstack(ref_schools(name, X, k, model, ref_rng))
    assert np.array_equal(block, loop)
    assert rng._gen.bit_generator.state == ref_rng._gen.bit_generator.state


@pytest.mark.parametrize("name", ["gaussian", "shift", "differential"])
def test_block_operator_equals_per_school_loop_on_scripted_draws(name):
    # k = n - 1 schools, and each pair straddles its school's skipped row
    k = N_AGENTS - 1
    gen = RngStream(103)
    normals = gen.normal(size=k * D).tolist()
    uniforms = gen.uniform(size=2 * k).tolist()
    pairs = [(max(i - 1, 0), max(i, 1)) for i in range(k)]
    model = random_model(D, False)
    X = -5.0 + 10.0 * gen.uniform(size=(N_AGENTS, D))

    def scripted():
        return ScriptedRng(normals=normals, uniforms=uniforms, pairs=pairs)

    block = block_schools(name, X, k, model, scripted())
    loop = np.vstack(ref_schools(name, X, k, model, scripted()))
    assert np.array_equal(block, loop)


@pytest.mark.parametrize("fallback", [False, True])
def test_model_factors_on_construction_and_never_in_sample(fallback, monkeypatch):
    calls = []
    cholesky = np.linalg.cholesky

    def spy(a):
        calls.append(a)
        return cholesky(a)

    monkeypatch.setattr(np.linalg, "cholesky", spy)
    model = random_model(D, fallback)
    built = len(calls)
    assert built >= 1
    z = RngStream(107).normal(size=(3, D))
    model.sample(z)
    model.sample(z, mean=np.zeros(D))
    assert len(calls) == built
