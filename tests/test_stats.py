"""Friedman, rank-sum, Kruskal-Wallis, and win/tie/loss table tests."""

import math
from itertools import permutations

import numpy as np
import pytest
from scipy.stats import chi2, friedmanchisquare, kruskal, mannwhitneyu, norm, rankdata

from ieco_mco.stats import (
    EXACT_RANKSUM_LIMIT,
    StatReport,
    _average_ranks,
    _chi2_sf,
    _norm_sf,
    format_friedman,
    format_wtl,
    friedman,
    kruskal_wallis,
    wilcoxon_rank_sum,
    wtl_table,
)


# ------------------------------------------------------- ranks and tails


def test_average_ranks_equal_rankdata_on_tied_samples():
    # few distinct levels force ties; -0.0 ties with 0.0 and +-inf rank as
    # the extremes, all as scipy ranks them
    gen = np.random.default_rng(61)
    levels = np.array([-np.inf, -2.5, -0.0, 0.0, 1.0, 3.0, np.inf])
    for _ in range(300):
        x = gen.choice(levels, size=int(gen.integers(1, 40)))
        ours = _average_ranks(x)
        assert ours.dtype == np.float64
        assert ours.tobytes() == rankdata(x).tobytes()
    x = gen.normal(size=50)
    assert _average_ranks(x).tobytes() == rankdata(x).tobytes()


def test_average_ranks_refuse_nan():
    with pytest.raises(ValueError, match="NaN"):
        _average_ranks(np.array([1.0, np.nan, 2.0]))


def test_chi2_tail_is_scipy_chi2_sf_bit_for_bit():
    grid = np.concatenate([[0.0, 1e-300, 1e-8], np.linspace(0.0, 80.0, 801),
                           [150.0, 400.0, 1500.0, np.inf]])
    for df in range(1, 13):
        for x in grid:
            assert repr(_chi2_sf(x, df)) == repr(float(chi2.sf(x, df))), (x, df)


def test_normal_tail_is_scipy_norm_sf_bit_for_bit():
    for z in np.concatenate([np.linspace(0.0, 40.0, 4001), [1e-12, 38.5, np.inf]]):
        assert repr(_norm_sf(z)) == repr(float(norm.sf(z))), z


# ----------------------------------------------------------------- friedman


def test_friedman_identical_algorithms_full_ties():
    m = np.ones((5, 2, 3))
    rep = friedman(m, algorithms=["a", "b"])
    assert rep.ranks == {"a": 1.5, "b": 1.5}
    assert rep.statistic == 0.0
    assert rep.p_value == 1.0


def test_friedman_strict_ordering_k3_n4():
    # algorithm 0 best on every problem, algorithm 2 worst
    m = np.array([[1.0, 2.0, 3.0]] * 4)
    rep = friedman(m, algorithms=["x", "y", "z"])
    assert rep.ranks["x"] == 1.0
    assert rep.ranks["y"] == 2.0
    assert rep.ranks["z"] == 3.0
    assert abs(rep.statistic - 8.0) < 1e-12
    assert abs(rep.p_value - math.exp(-4.0)) < 1e-12
    assert abs(rep.p_value - 0.01832) < 1e-5


def test_friedman_mean_summarizer_uses_run_axis():
    # per-run values disagree; the mean decides the ranking
    m = np.zeros((2, 2, 2))
    m[:, 0] = [0.0, 10.0]   # mean 5
    m[:, 1] = [4.0, 4.5]    # mean 4.25 -> better
    rep = friedman(m, algorithms=["a", "b"])
    assert rep.ranks["b"] < rep.ranks["a"]


def test_friedman_matches_reference_implementation():
    gen = np.random.default_rng(31)
    for _ in range(20):
        m = gen.normal(size=(6, 4, 1))
        rep = friedman(m)
        ref = friedmanchisquare(*[m[:, j, 0] for j in range(4)])
        assert abs(rep.statistic - ref.statistic) < 1e-10
        assert abs(rep.p_value - ref.pvalue) < 1e-10


def test_friedman_rank_sum_is_fixed():
    # mean ranks always sum to k(k+1)/2
    gen = np.random.default_rng(32)
    m = gen.normal(size=(7, 5, 3))
    rep = friedman(m)
    assert abs(sum(rep.ranks.values()) - 15.0) < 1e-12


def test_friedman_ranks_invariant_under_monotone_transform():
    gen = np.random.default_rng(33)
    # single run per cell: ranks consume the values directly
    m = gen.uniform(1.0, 5.0, size=(8, 3, 1))
    base = friedman(m)
    for transform in (np.exp, np.log, lambda v: v ** 3, lambda v: 10 * v - 2):
        rep = friedman(transform(m))
        assert rep.ranks == base.ranks
        assert abs(rep.statistic - base.statistic) < 1e-9
    # with a run axis the summary is the mean, so only increasing affine
    # maps are guaranteed to preserve the ranking
    m = gen.uniform(1.0, 5.0, size=(8, 3, 4))
    assert friedman(3.0 * m + 1.0).ranks == friedman(m).ranks


def test_friedman_input_validation():
    with pytest.raises(ValueError):
        friedman(np.ones((1, 3, 2)))        # too few problems
    with pytest.raises(ValueError):
        friedman(np.ones((3, 1, 2)))        # too few algorithms
    with pytest.raises(ValueError):
        friedman([[1.0, 2.0], [3.0]])       # ragged
    with pytest.raises(ValueError):
        friedman(np.full((3, 3, 1), np.nan))
    with pytest.raises(ValueError):
        friedman(np.ones((2, 3, 1)), algorithms=["only-one"])
    with pytest.raises(ValueError, match="expected values shaped"):
        friedman(np.ones(4))                # neither 2-D nor 3-D


# ----------------------------------------------------------------- rank sum


def test_ranksum_identical_samples():
    p, verdict = wilcoxon_rank_sum([3.0, 3.0, 3.0], [3.0, 3.0, 3.0])
    assert p == 1.0
    assert verdict == "="


def test_ranksum_exact_enumeration_value():
    p, verdict = wilcoxon_rank_sum([1.0, 2.0, 3.0], [4.0, 5.0, 6.0])
    assert abs(p - 0.1) < 1e-12
    assert verdict == "="    # 0.1 > 0.05


def test_ranksum_exact_significance_flips_with_alpha():
    _, verdict = wilcoxon_rank_sum([1.0, 2.0, 3.0], [4.0, 5.0, 6.0], alpha=0.2)
    assert verdict == "+"
    _, verdict = wilcoxon_rank_sum([4.0, 5.0, 6.0], [1.0, 2.0, 3.0], alpha=0.2)
    assert verdict == "-"


def test_ranksum_dominant_sample_wins():
    gen = np.random.default_rng(41)
    a = gen.normal(size=30)
    b = a + 10.0
    p, verdict = wilcoxon_rank_sum(a, b)
    assert p < 1e-6
    assert verdict == "+"
    p, verdict = wilcoxon_rank_sum(b, a)
    assert verdict == "-"


@pytest.mark.parametrize("a,b,verdict", [
    # medians 5 and 5, means -44.5 and 50.2: the mean decides
    ([-100.0] * 10 + [5.0] + [6.0] * 10, [4.9] * 10 + [5.0] + [100.0] * 10, "+"),
    ([4.9] * 10 + [5.0] + [100.0] * 10, [-100.0] * 10 + [5.0] + [6.0] * 10, "-"),
    # medians and means both 0: no side is better
    ([-15.5] + [-0.5] * 9 + [0.0] + [2.0] * 10, [-1.0] * 10 + [0.0] + [1.0] * 10,
     "="),
], ids=["mean-a", "mean-b", "all-tied"])
def test_ranksum_verdict_falls_back_to_the_mean_when_medians_tie(a, b, verdict):
    assert np.median(a) == np.median(b)
    p, got = wilcoxon_rank_sum(a, b)
    assert p < 0.05
    assert got == verdict


def test_ranksum_exact_matches_reference_when_tie_free():
    gen = np.random.default_rng(42)
    for _ in range(100):
        na = int(gen.integers(2, 7))
        nb = int(gen.integers(2, 13 - na)) if 13 - na > 3 else 2
        pool = gen.permutation(1000)[:na + nb].astype(float)
        a, b = pool[:na], pool[na:]
        p_mine, _ = wilcoxon_rank_sum(a, b)
        p_ref = mannwhitneyu(a, b, alternative="two-sided",
                             method="exact").pvalue
        assert abs(p_mine - p_ref) < 1e-10


def test_ranksum_exact_and_normal_branches_agree_roughly():
    # at the boundary size the asymptotic p should track the exact p
    gen = np.random.default_rng(43)
    for _ in range(50):
        a = gen.normal(size=6)
        b = gen.normal(loc=gen.uniform(-2.0, 2.0), size=6)
        pooled = rankdata(np.concatenate([a, b]))
        from ieco_mco.stats import _ranksum_exact_p, _ranksum_normal_p
        p_exact = _ranksum_exact_p(pooled, 6)
        p_normal = _ranksum_normal_p(pooled, 6)
        assert abs(p_exact - p_normal) <= 0.05


def test_ranksum_large_samples_use_normal_branch():
    gen = np.random.default_rng(44)
    a = gen.normal(size=40)
    b = gen.normal(size=40)
    p, verdict = wilcoxon_rank_sum(a, b)
    ref = mannwhitneyu(a, b, alternative="two-sided",
                       method="asymptotic", use_continuity=True).pvalue
    assert abs(p - ref) < 1e-9
    assert verdict == "="


def test_ranksum_handles_ties_in_normal_branch():
    a = np.array([1.0, 1.0, 2.0, 2.0, 3.0, 3.0, 4.0])
    b = np.array([2.0, 2.0, 3.0, 3.0, 4.0, 4.0, 5.0])
    p, _ = wilcoxon_rank_sum(a, b)
    ref = mannwhitneyu(a, b, alternative="two-sided",
                       method="asymptotic", use_continuity=True).pvalue
    assert abs(p - ref) < 1e-9


def test_ranksum_all_ties_above_the_exact_limit_are_a_tie():
    """Every run of two cells ending on one value, such as a discrete optimum,
    leaves the normal branch no variance; a RuntimeWarning is an error here."""
    assert 7 + 7 > EXACT_RANKSUM_LIMIT
    assert wilcoxon_rank_sum([1.0] * 7, [1.0] * 7) == (1.0, "=")


def test_ranksum_rejects_tiny_samples():
    with pytest.raises(ValueError):
        wilcoxon_rank_sum([1.0], [2.0, 3.0])
    with pytest.raises(ValueError):
        wilcoxon_rank_sum([1.0, 2.0], [])


def test_ranksum_rejects_nan():
    # a NaN once ranked as a value and gave p = 0 with a tie verdict
    with pytest.raises(ValueError, match="NaN"):
        wilcoxon_rank_sum([1.0, np.nan, 4.0], [2.0, 3.0, 5.0])


def test_ranksum_ranks_infinities_as_extremes():
    p, verdict = wilcoxon_rank_sum([-np.inf, 1.0, 2.0], [3.0, 4.0, np.inf],
                                   alpha=0.2)
    assert p == wilcoxon_rank_sum([0.0, 1.0, 2.0], [3.0, 4.0, 5.0])[0]
    assert verdict == "+"


def test_ranksum_median_decides_direction_mean_breaks_ties():
    # significant difference with medians apart
    a = [1.0, 1.0, 1.0, 1.0, 2.0]
    b = [3.0, 3.0, 3.0, 3.0, 0.0]
    p, verdict = wilcoxon_rank_sum(a, b, alpha=0.5)
    assert p <= 0.5
    assert verdict == "+"


# ------------------------------------------------------------ kruskal-wallis


def test_kruskal_identical_groups():
    h, p, ranks = kruskal_wallis([[2.0, 2.0], [2.0, 2.0], [2.0, 2.0]])
    assert h == 0.0
    assert p == 1.0
    assert ranks == [3.5, 3.5, 3.5]


def test_kruskal_hand_value_three_separated_pairs():
    h, p, ranks = kruskal_wallis([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    assert abs(h - 32.0 / 7.0) < 1e-12
    assert abs(p - 0.10170139230422684) < 1e-12
    assert ranks == [1.5, 3.5, 5.5]


def test_kruskal_matches_reference_with_ties():
    gen = np.random.default_rng(51)
    for _ in range(50):
        groups = [gen.integers(0, 8, size=int(gen.integers(3, 9))).astype(float)
                  for _ in range(int(gen.integers(2, 5)))]
        pooled = np.concatenate(groups)
        if np.all(pooled == pooled[0]):
            continue
        h, p, _ = kruskal_wallis(groups)
        ref = kruskal(*groups)
        assert abs(h - ref.statistic) < 1e-12
        assert abs(p - ref.pvalue) < 1e-12


def test_kruskal_mean_ranks_follow_stochastic_ordering():
    gen = np.random.default_rng(52)
    groups = [gen.normal(loc=mu, scale=0.1, size=20) for mu in (0.0, 5.0, 10.0)]
    _, _, ranks = kruskal_wallis(groups)
    assert ranks[0] < ranks[1] < ranks[2]


def test_kruskal_rejects_nan():
    # a NaN once gave (nan, nan, [nan, nan])
    with pytest.raises(ValueError, match="NaN"):
        kruskal_wallis([[1.0, np.nan], [2.0, 3.0]])


def test_kruskal_input_validation():
    with pytest.raises(ValueError):
        kruskal_wallis([[1.0, 2.0]])
    with pytest.raises(ValueError):
        kruskal_wallis([[1.0, 2.0], []])


# -------------------------------------------------------------- wtl tables


def test_wtl_identical_algorithms_all_ties():
    m = np.ones((6, 2, 5))
    table = wtl_table(m, algorithms=["a", "b"])
    assert table[("a", "b")] == {"+": 0, "=": 6, "-": 0}
    assert table[("b", "a")] == {"+": 0, "=": 6, "-": 0}


def test_wtl_counts_sum_to_problem_count():
    gen = np.random.default_rng(61)
    m = gen.normal(size=(9, 3, 8))
    table = wtl_table(m, algorithms=["a", "b", "c"])
    for counts in table.values():
        assert counts["+"] + counts["="] + counts["-"] == 9


def test_wtl_antisymmetry():
    gen = np.random.default_rng(62)
    m = gen.normal(size=(7, 2, 10))
    m[:, 0] -= 0.8   # give algorithm a an edge
    table = wtl_table(m, algorithms=["a", "b"])
    ab, ba = table[("a", "b")], table[("b", "a")]
    assert ab["+"] == ba["-"]
    assert ab["-"] == ba["+"]
    assert ab["="] == ba["="]


def test_wtl_mirrored_pairs_equal_both_test_orders():
    gen = np.random.default_rng(64)
    for runs in (2, 3, 5, 8):
        m = gen.normal(size=(12, 3, runs))
        m[:, 0] -= 1.0
        m[::3, 2] = m[::3, 1]                   # exact ties
        m[1::4] = np.round(m[1::4], 1)          # tied midranks
        for alpha in (0.05, 0.2, 0.6):
            table = wtl_table(m, algorithms=["a", "b", "c"], alpha=alpha)
            for i, j in permutations(range(3), 2):
                counts = {"+": 0, "=": 0, "-": 0}
                for prob in range(12):
                    counts[wilcoxon_rank_sum(m[prob, i], m[prob, j], alpha)[1]] += 1
                assert table[("abc"[i], "abc"[j])] == counts


def test_wtl_detects_clear_dominance():
    gen = np.random.default_rng(63)
    m = np.empty((5, 2, 12))
    m[:, 1] = gen.normal(size=(5, 12))
    m[:, 0] = m[:, 1] - 50.0
    table = wtl_table(m, algorithms=["good", "bad"])
    assert table[("good", "bad")] == {"+": 5, "=": 0, "-": 0}


# ------------------------------------------------------------- report types


def test_stat_report_rejects_out_of_range_p():
    with pytest.raises(ValueError):
        StatReport(statistic=0.0, p_value=1.5, ranks={})


def test_format_friedman_lists_ranks_in_order():
    m = np.array([[1.0, 2.0, 3.0]] * 4)
    text = format_friedman(friedman(m, algorithms=["good", "mid", "bad"]))
    assert "chi2 = 8" in text
    assert text.index("good") < text.index("mid") < text.index("bad")


def test_format_wtl_shows_counts():
    m = np.ones((3, 2, 4))
    text = format_wtl(wtl_table(m, algorithms=["a", "b"]))
    assert "a vs b: +0 =3 -0" in text
