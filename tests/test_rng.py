"""Chaotic initialization, deterministic streams, Levy sampling, clamping."""

from __future__ import annotations

import math

import numpy as np
import pytest

from support import ScriptedRng

import ieco_mco.rng as rng_module
from ieco_mco.rng import (
    Bounds,
    ChaoticOrbitError,
    RngStream,
    clamp,
    init_population,
    levy_sample,
    logistic_chain,
    mantegna_sigma,
)


# ----------------------------------------------------------- stream peeking

@pytest.mark.parametrize("prefix", [0, 29])
def test_peek_uniform_leaves_the_stream_where_it_was(prefix):
    rng = RngStream(41)
    if prefix:
        rng._gen.integers(prefix)   # leaves half of a 64-bit draw buffered
    before = rng._gen.bit_generator.state
    peeked = rng.peek_uniform(size=(4, 3))
    assert rng._gen.bit_generator.state == before
    assert np.array_equal(rng.uniform(size=(4, 3)), peeked)


@pytest.mark.parametrize("prefix", [0, 29])
def test_peek_then_consumed_prefix_equals_sequential_draws(prefix):
    block, seq = RngStream(42), RngStream(42)
    if prefix:
        block._gen.integers(prefix)
        seq._gen.integers(prefix)
    peeked = block.peek_uniform(size=(8, 3))
    block.uniform(size=(5, 3))
    rows = [seq.uniform(size=3) for _ in range(5)]
    assert np.array_equal(peeked[:5], np.array(rows))
    assert block._gen.integers(1000) == seq._gen.integers(1000)
    assert np.array_equal(block.normal(size=6), seq.normal(size=6))
    assert block.distinct_pair(29) == seq.distinct_pair(29)


def test_peek_uniform_draws_through_uniform():
    class Halves(RngStream):
        def uniform(self, size=None):
            return super().uniform(size) * 0.5

    rng = Halves(43)
    peeked = rng.peek_uniform(size=(3, 2))
    assert np.array_equal(peeked, rng.uniform(size=(3, 2)))
    assert peeked.max() < 0.5


def test_scripted_peek_uniform_pops_nothing():
    rng = ScriptedRng(uniforms=[0.1, 0.2, 0.3])
    assert np.array_equal(rng.peek_uniform(size=(1, 2)), [[0.1, 0.2]])
    assert rng.uniform(size=3).tolist() == [0.1, 0.2, 0.3]
    with pytest.raises(IndexError):
        rng.peek_uniform(size=1)


# ------------------------------------------------------------ logistic chain

def test_chain_single_step_from_0p3():
    chain = logistic_chain(0.3, 1)
    assert chain.shape == (1,)
    assert chain[0] == pytest.approx(0.84, abs=1e-15)


def test_chain_single_step_from_0p84():
    chain = logistic_chain(0.84, 1)
    assert chain[0] == pytest.approx(0.5376, abs=1e-15)


def test_chain_seed_half_collapses():
    # x1 = 1.0, x2 = 0: the orbit dies, so the seed is rejected outright.
    with pytest.raises(ChaoticOrbitError):
        logistic_chain(0.5, 2)


@pytest.mark.parametrize("bad", [0.0, 0.25, 0.5, 0.75, 1.0, -0.1, 1.1])
def test_degenerate_seeds_rejected(bad):
    with pytest.raises(ChaoticOrbitError):
        logistic_chain(bad, 1)


def test_chain_stays_inside_unit_interval():
    chain = logistic_chain(0.3, 10000)
    assert np.all(chain > 0.0) and np.all(chain < 1.0)


def test_chain_matches_arcsine_distribution():
    # For alpha=4 the invariant density is Beta(1/2, 1/2); KS distance < 0.02.
    chain = logistic_chain(0.3, 100000)
    xs = np.sort(chain)
    cdf = 2.0 / math.pi * np.arcsin(np.sqrt(xs))
    n = xs.size
    i = np.arange(1, n + 1)
    ks = max(np.max(i / n - cdf), np.max(cdf - (i - 1) / n))
    assert ks < 0.02


def test_chain_config_validation():
    with pytest.raises(ValueError):
        logistic_chain(0.3, -1)


# -------------------------------------------------------- population mapping

def test_first_position_maps_chain_value():
    # D=1 on [-100, 100]: seed 0.3 gives chain value 0.84 -> -100 + 200*0.84.
    bounds = Bounds.cube(-100.0, 100.0, 1)
    pos = init_population(5, bounds, ScriptedRng(uniforms=[0.3]))
    assert pos[0, 0] == pytest.approx(68.0, abs=1e-12)


def test_lower_edge_identity_of_the_mapping():
    # A chain value of exactly 0 would map onto the lower bound.
    bounds = Bounds.cube(-100.0, 100.0, 3)
    mapped = bounds.lower + bounds.span * 0.0
    assert np.array_equal(mapped, bounds.lower)


def test_population_shape_and_range():
    bounds = Bounds.cube(-100.0, 100.0, 10)
    pos = init_population(30, bounds, RngStream(1))
    assert pos.shape == (30, 10)
    assert np.all(pos >= -100.0) and np.all(pos <= 100.0)


def test_population_fills_row_major_from_one_chain():
    bounds = Bounds.cube(-5.0, 5.0, 4)
    pos = init_population(6, bounds, RngStream(2))
    chain = logistic_chain(RngStream(2).uniform(), 24)
    expect = -5.0 + 10.0 * chain.reshape(6, 4)
    assert np.array_equal(pos, expect)


def test_population_draws_seed_when_unset():
    bounds = Bounds.cube(-1.0, 1.0, 2)
    a = init_population(5, bounds, RngStream(7))
    b = init_population(5, bounds, RngStream(7))
    c = init_population(5, bounds, RngStream(8))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("bad", [0.0, 0.25, 0.5, 0.5 + 1e-10, 0.75])
def test_init_population_redraws_a_degenerate_seed(bad):
    bounds = Bounds.cube(-5.0, 5.0, 3)
    rng = ScriptedRng(uniforms=[bad, 0.3])
    pos = init_population(4, bounds, rng)
    assert np.array_equal(pos, -5.0 + 10.0 * logistic_chain(0.3, 12).reshape(4, 3))
    assert not rng._uniforms  # both draws used


def test_init_population_gives_up_on_the_64th_rejected_seed():
    """Degenerate seeds count toward the cap, as orbits that collapse do."""
    bounds = Bounds.cube(-5.0, 5.0, 3)
    rng = ScriptedRng(uniforms=[0.5] * 63 + [0.3])
    assert np.array_equal(init_population(4, bounds, rng),
                          init_population(4, bounds, ScriptedRng(uniforms=[0.3])))
    rng = ScriptedRng(uniforms=[0.5] * 64 + [0.3])
    with pytest.raises(ChaoticOrbitError, match="after 64 draws"):
        init_population(4, bounds, rng)
    assert rng._uniforms == [0.3]


# ------------------------------------------------------------- random stream

def test_stream_determinism():
    a = RngStream(123).uniform(size=64)
    b = RngStream(123).uniform(size=64)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("size", [None, 7, (3, 4)])
@pytest.mark.parametrize("prefix", [0, 29])
def test_unit_uniform_equals_generator_uniform(size, prefix):
    # uniform on [0, 1) draws through Generator.random: same bits, same state
    rng = RngStream(43)
    gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(43)))
    if prefix:  # leaves half of a 64-bit draw buffered
        rng._gen.integers(prefix)
        gen.integers(prefix)
    got, want = rng.uniform(size=size), gen.uniform(0.0, 1.0, size)
    assert type(got) is type(want)
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
    assert rng._gen.bit_generator.state == gen.bit_generator.state
    assert rng.normal() == gen.standard_normal()


def test_scaled_unit_uniform_equals_bounded_generator_uniform():
    # ``uniform`` draws on [0, 1) only; low + (high - low) * u gives the bits
    # of Generator.uniform(low, high), as the tests that scale it rely on
    rng, gen = RngStream(47), np.random.Generator(np.random.PCG64(np.random.SeedSequence(47)))
    want = gen.uniform(-5.0, 5.0, (2, 3)).tobytes()
    assert (-5.0 + 10.0 * rng.uniform(size=(2, 3))).tobytes() == want
    assert 2.0 + 1.0 * rng.uniform() == gen.uniform(2.0, 3.0)


def test_stream_rejects_negative_seed():
    with pytest.raises(ValueError):
        RngStream(-1)


def test_distinct_pair_contract():
    rng = RngStream(11)
    for n in (3, 5, 30):
        for _ in range(50):
            i, j = rng.distinct_pair(n)
            assert i != j
            assert 0 <= min(i, j) and max(i, j) < n
    with pytest.raises(ValueError):
        rng.distinct_pair(1)


# ------------------------------------------------------------- levy sampling

def test_mantegna_sigma_at_default_beta():
    val = mantegna_sigma(1.5)
    assert val == pytest.approx(0.696575, abs=1e-6)
    assert val == pytest.approx(0.6965745025576967, abs=1e-12)


def test_mantegna_sigma_at_beta_one():
    # Gamma(2)*sin(pi/2) / (Gamma(1)*1*2^0) = 1.
    assert mantegna_sigma(1.0) == pytest.approx(1.0, abs=1e-15)


@pytest.mark.xfail(
    strict=True,
    reason="the sigma_u formula has sin(pi*beta/2) in the numerator, which is 0 "
    "at beta=2 (9.88e-9 in float64); the documented value 1 contradicts the "
    "formula the same contract states",
)
def test_mantegna_sigma_at_beta_two_as_documented():
    assert mantegna_sigma(2.0) == pytest.approx(1.0, abs=1e-6)


def test_mantegna_sigma_beta_two_formula_limit(monkeypatch):
    # What the formula actually yields at beta=2, and the reduction of s.
    assert mantegna_sigma(2.0) == pytest.approx(9.884972298779197e-09, rel=1e-9)
    sigma = mantegna_sigma(2.0)
    u_raw, v_raw = 0.7, -1.3
    monkeypatch.setattr(rng_module, "LEVY_BETA", 2.0)
    s = levy_sample(1, ScriptedRng(normals=[u_raw, v_raw]))
    assert s[0] == pytest.approx(u_raw * sigma / abs(v_raw) ** 0.5, rel=1e-12)


@pytest.mark.parametrize("bad", [0.0, -0.5, 2.5])
def test_mantegna_sigma_rejects_bad_beta(bad):
    with pytest.raises(ValueError):
        mantegna_sigma(bad)


def test_levy_vector_shape_and_independence():
    rng = RngStream(13)
    s = levy_sample(10, rng)
    assert s.shape == (10,)
    with pytest.raises(ValueError):
        levy_sample(0, rng)


def test_levy_heavy_tail_grows_with_sample_size():
    # Heavy tail: the max/|median| ratio grows as the sample grows (prefix
    # property makes max monotone while the median stays put).
    rng = RngStream(17)
    s = np.abs(levy_sample(100000, rng))
    small, big = s[:1000], s
    assert np.isfinite(np.median(big))
    assert big.max() / np.median(big) > small.max() / np.median(small)
    assert big.max() / np.median(big) > 50.0


# -------------------------------------------------------------------- bounds

def test_clamp_projects_above_upper():
    bounds = Bounds.cube(-100.0, 100.0, 1)
    assert clamp(np.array([150.0]), bounds)[0] == 100.0


def test_clamp_identity_inside_box():
    bounds = Bounds.cube(-100.0, 100.0, 3)
    x = np.array([-99.0, 0.0, 42.5])
    assert np.array_equal(clamp(x, bounds), x)


def test_clamp_componentwise_vector():
    bounds = Bounds.cube(-100.0, 100.0, 3)
    out = clamp(np.array([-200.0, 0.0, 200.0]), bounds)
    assert np.array_equal(out, np.array([-100.0, 0.0, 100.0]))


def test_clamp_is_idempotent():
    bounds = Bounds.from_pairs([(-3.0, 1.0), (0.0, 2.0), (-1.0, 0.5)])
    rng = RngStream(19)
    for _ in range(100):
        x = -10.0 + 20.0 * rng.uniform(size=3)
        once = clamp(x, bounds)
        assert np.array_equal(clamp(once, bounds), once)


def test_bounds_validation_and_helpers():
    with pytest.raises(ValueError):
        Bounds(np.array([0.0, 1.0]), np.array([1.0, 1.0]))
    with pytest.raises(ValueError, match="equal length"):
        Bounds(np.array([0.0, 1.0]), np.array([1.0, 2.0, 3.0]))
    b = Bounds.from_pairs([(0.0, 1.0), (-2.0, 2.0)])
    assert b.dimension == 2
    assert np.array_equal(b.span, np.array([1.0, 4.0]))
    assert b.span is b.span   # computed once per Bounds
    assert b.contains(np.array([0.5, 0.0]))
    assert not b.contains(np.array([1.5, 0.0]))
    sample = b.lower + b.span * RngStream(23).uniform(size=(40, 2))
    assert sample.shape == (40, 2)
    assert all(b.contains(row) for row in sample)
