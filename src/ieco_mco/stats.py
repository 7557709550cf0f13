"""Nonparametric comparison tests over result matrices.

The input convention throughout is a minimization matrix ``values`` of shape
(problems, algorithms, runs) (a trailing run axis of size 1 is fine). The
Friedman test ranks algorithms per problem on the mean over runs, the
rank-sum test compares two run vectors on one problem, and the
Kruskal-Wallis test compares several samples with tie-corrected pooled
ranking. Every test ranks through one numpy kernel that works along the
last axis, so any number of samples is ranked in one call: ``wtl_table``
runs the rank-sum test of every (pair, problem) cell in one pass, and
``wilcoxon_rank_sum`` is its one-pair case. The chi-square and normal tails
come from ``scipy.special``, which each tail helper imports on its first
call, so importing this module (and the optimizer, which never calls it)
loads no scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

DEFAULT_ALPHA = 0.05
EXACT_RANKSUM_LIMIT = 12  # exact enumeration when |a| + |b| <= this


@dataclass
class StatReport:
    """Outcome of a Friedman test: statistic, p-value and mean rank per name."""

    statistic: float
    p_value: float
    ranks: Dict[str, float]

    def __post_init__(self):
        if not 0.0 <= self.p_value <= 1.0:
            raise ValueError("p_value must lie in [0, 1]")


def _as_matrix(values) -> np.ndarray:
    m = np.asarray(values, dtype=float)
    if m.ndim == 2:
        m = m[:, :, None]
    if m.ndim != 3:
        raise ValueError("expected values shaped (problems, algorithms, runs)")
    if not np.isfinite(m).all():
        raise ValueError("result matrix contains non-finite values")
    return m


def _ranks_and_ties(x) -> Tuple[np.ndarray, np.ndarray]:
    """1-based ranks of each sample along the last axis of ``x``, ties
    sharing their average rank, and each sample's tie term sum(t^3 - t)
    over its tie groups of size t.

    One stable argsort orders every sample. A tie group of the sorted
    sample runs from a value unequal to the one before it (its start) up to
    the next such value (its end); its members share the average
    (start + end + 1) / 2 of the ranks start + 1 ... end, and each adds
    t^2 - 1 to the tie term. Ranks are whole or half numbers, so they are
    exact. NaN has no rank and raises ValueError.
    """
    x = np.asarray(x, dtype=float)
    if np.isnan(x).any():
        raise ValueError("cannot rank a sample that holds NaN")
    order = np.argsort(x, axis=-1, kind="stable")
    ordered = np.take_along_axis(x, order, axis=-1)
    opens = np.ones(x.shape, dtype=bool)
    np.not_equal(ordered[..., 1:], ordered[..., :-1], out=opens[..., 1:])
    closes = np.ones(x.shape, dtype=bool)
    closes[..., :-1] = opens[..., 1:]
    at = np.arange(x.shape[-1])
    start = np.maximum.accumulate(np.where(opens, at, 0), axis=-1)
    end = np.minimum.accumulate(np.where(closes, at + 1, x.shape[-1])[..., ::-1],
                                axis=-1)[..., ::-1]
    ranks = np.empty(x.shape)
    np.put_along_axis(ranks, order, (start + end + 1) / 2.0, axis=-1)
    size = end - start
    return ranks, (size * size - 1).sum(axis=-1).astype(float)


def _average_ranks(x) -> np.ndarray:
    """1-based ranks along the last axis, ties sharing their average rank.

    Equal to ``scipy.stats.rankdata(x, axis=-1)``: -0.0 ties with 0.0 and
    +-inf rank as the extremes; NaN raises ValueError.
    """
    return _ranks_and_ties(x)[0]


def _chi2_sf(x: float, df: int) -> float:
    """Chi-square upper tail, bit for bit ``scipy.stats.chi2.sf(x, df)``."""
    from scipy.special import chdtrc
    return float(chdtrc(df, x))


def _norm_sf(z) -> np.ndarray:
    """Standard normal upper tail of each z, bit for bit ``scipy.stats.norm.sf(z)``."""
    from scipy.special import ndtr
    return ndtr(-z)


def _labels(n: int, labels: Optional[Sequence[str]]) -> List[str]:
    if labels is None:
        return ["alg%d" % j for j in range(n)]
    labels = list(labels)
    if len(labels) != n:
        raise ValueError("label count does not match algorithm count")
    return labels


def friedman(values, algorithms: Optional[Sequence[str]] = None) -> StatReport:
    """Friedman test on per-problem means over runs (lower value = better rank).

    chi2_F = 12n / (k (k+1)) * sum_j (Rbar_j - (k+1)/2)^2, p from the
    chi-square distribution with k - 1 degrees of freedom. Ties share
    average ranks.
    """
    m = _as_matrix(values)
    n, k = m.shape[0], m.shape[1]
    if k < 2:
        raise ValueError("friedman needs at least 2 algorithms")
    if n < 2:
        raise ValueError("friedman needs at least 2 problems")
    summary = m.mean(axis=2)
    ranks = _average_ranks(summary)
    mean_ranks = ranks.mean(axis=0)
    stat = 12.0 * n / (k * (k + 1)) * np.sum((mean_ranks - (k + 1) / 2.0) ** 2)
    p = _chi2_sf(stat, k - 1)
    names = _labels(k, algorithms)
    return StatReport(statistic=float(stat), p_value=p,
                      ranks=dict(zip(names, mean_ranks.tolist())))


@lru_cache(maxsize=None)
def _assignments(total: int, n_a: int) -> np.ndarray:
    """0/1 matrix whose rows pick each of the C(total, n_a) ways to give
    n_a of ``total`` pooled positions to the first sample; read-only, and
    one per exact size, of which there are a few dozen."""
    picks = np.zeros((math.comb(total, n_a), total))
    np.put_along_axis(picks, np.array(list(combinations(range(total), n_a))),
                      1.0, axis=1)
    picks.flags.writeable = False
    return picks


def _ranksum_exact_p(pooled_ranks: np.ndarray, n_a: int) -> np.ndarray:
    """Two-sided exact p of each pooled sample along the last axis, whose
    first ``n_a`` ranks are the first sample's, by full enumeration.

    Counts assignments whose rank-sum deviates from the mean at least as
    much as the observed one; conditional on the observed (possibly tied)
    midranks, so ties are handled exactly. The rank sums of every
    assignment are the product of the ranks with the 0/1 assignment matrix,
    exact on half-integer ranks.
    """
    total = pooled_ranks.shape[-1]
    mu = n_a * (total + 1) / 2.0
    # with midranks the total rank sum stays total*(total+1)/2, so mu holds
    dev = np.abs(pooled_ranks[..., :n_a].sum(axis=-1) - mu)
    picks = _assignments(total, n_a)
    rows, least = pooled_ranks.reshape(-1, total), dev.reshape(-1, 1) - 1e-12
    w = rows @ picks.T  # one rank sum per (sample, assignment)
    w -= mu
    hits = np.count_nonzero(np.abs(w, out=w) >= least, axis=1)
    return (hits / len(picks)).reshape(dev.shape)


def _ranksum_normal_p(pooled_ranks: np.ndarray, n_a: int) -> np.ndarray:
    """Normal approximation with tie and continuity corrections, for each
    pooled sample along the last axis; the tie term comes from ranking the
    ranks, whose tie groups are the values' own."""
    total = pooled_ranks.shape[-1]
    n_b = total - n_a
    tie_term = _ranks_and_ties(pooled_ranks)[1]
    mu = n_a * (total + 1) / 2.0
    var = (n_a * n_b / 12.0) * ((total + 1) - tie_term / (total * (total - 1)))
    # the continuity correction moves |w - mu| half a rank towards 0
    diff = np.maximum(np.abs(pooled_ranks[..., :n_a].sum(axis=-1) - mu) - 0.5, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        p = np.minimum(1.0, 2.0 * _norm_sf(diff / np.sqrt(var)))
    return np.where(var > 0.0, p, 1.0)


def _ranksum_p(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Two-sided rank-sum p of each pair of samples ``a[..., :]`` and
    ``b[..., :]``: exact enumeration when the pooled size is at most
    :data:`EXACT_RANKSUM_LIMIT`, else the tie-corrected normal approximation
    with continuity correction."""
    n_a, n_b = a.shape[-1], b.shape[-1]
    if n_a < 2 or n_b < 2:
        raise ValueError("rank-sum test needs at least 2 observations per sample")
    ranks = _average_ranks(np.concatenate([a, b], axis=-1))
    if n_a + n_b <= EXACT_RANKSUM_LIMIT:
        return _ranksum_exact_p(ranks, n_a)
    return _ranksum_normal_p(ranks, n_a)


def _centres(x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Median and mean along the last axis. An inf beside a -inf makes
    them NaN, which :func:`_verdicts` reads as neither side, so that warns
    of nothing."""
    with np.errstate(invalid="ignore", over="ignore"):
        return np.median(x, axis=-1), x.mean(axis=-1)


def _side(x, y) -> np.ndarray:
    """1 where x < y, -1 where x > y, else 0."""
    return np.less(x, y).astype(int) - np.greater(x, y)


def _verdicts(p, alpha: float, medians, means) -> np.ndarray:
    """1 ("+") where the first sample of a pair is better, -1 ("-") where
    the second is and 0 ("=") for a tie: a tie when p > alpha, else the
    lower median wins and the lower mean breaks a tie of medians.
    ``medians`` and ``means`` are (first, second) pairs of arrays."""
    by_median, by_mean = _side(*medians), _side(*means)
    return np.where(p > alpha, 0, np.where(by_median != 0, by_median, by_mean))


def wilcoxon_rank_sum(a, b, alpha: float = DEFAULT_ALPHA) -> Tuple[float, str]:
    """Two-sided rank-sum test with a +/=/- verdict for minimization.

    The one-pair case of the test :func:`wtl_table` runs on every cell.
    Exact enumeration when the pooled size is at most 12, otherwise the
    tie-corrected normal approximation with continuity correction. The
    verdict is "=" when p > alpha; otherwise "+" when sample ``a`` is better
    (lower median, mean as the tiebreak) and "-" when ``b`` is.
    """
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    p = float(_ranksum_p(a, b))
    (median_a, mean_a), (median_b, mean_b) = _centres(a), _centres(b)
    verdict = _verdicts(p, alpha, (median_a, median_b), (mean_a, mean_b))
    return p, "=+-"[verdict]


def kruskal_wallis(groups: Sequence) -> Tuple[float, float, List[float]]:
    """Kruskal-Wallis H with tie correction; returns (H, p, mean ranks).

    H = 12 / (M (M+1)) * sum_g n_g (Rbar_g - (M+1)/2)^2, divided by the tie
    correction 1 - sum(t^3 - t) / (M^3 - M); all-identical data yields
    H = 0, p = 1.
    """
    arrays = [np.asarray(g, dtype=float).ravel() for g in groups]
    if len(arrays) < 2:
        raise ValueError("kruskal_wallis needs at least 2 groups")
    for g in arrays:
        if g.size == 0:
            raise ValueError("kruskal_wallis groups must be non-empty")
    pooled = np.concatenate(arrays)
    total = pooled.size
    ranks, tie_term = _ranks_and_ties(pooled)
    mean_ranks = []
    start = 0
    raw = 0.0
    for g in arrays:
        r = ranks[start:start + g.size]
        start += g.size
        rbar = float(r.mean())
        mean_ranks.append(rbar)
        raw += g.size * (rbar - (total + 1) / 2.0) ** 2
    raw *= 12.0 / (total * (total + 1))
    tie = 1.0 - float(tie_term) / (total ** 3 - total)
    if tie == 0.0:
        return 0.0, 1.0, mean_ranks
    h = raw / tie
    p = _chi2_sf(h, len(arrays) - 1)
    return h, p, mean_ranks


def wtl_table(values, algorithms: Optional[Sequence[str]] = None,
              alpha: float = DEFAULT_ALPHA) -> Dict[Tuple[str, str], Dict[str, int]]:
    """Pairwise win/tie/loss counts from per-problem rank-sum verdicts.

    Every (pair, problem) cell is tested in one pass over a (problems,
    pairs, runs) block of each pair's first and second samples, with the
    medians and means taken once per (problem, algorithm). Each unordered
    pair is tested once: swapping the samples leaves p unchanged and
    mirrors the verdict, so (j, i) holds (i, j) with its wins and losses
    swapped.
    """
    m = _as_matrix(values)
    n, k = m.shape[0], m.shape[1]
    names = _labels(k, algorithms)
    first, second = np.triu_indices(k, 1)
    p = _ranksum_p(m[:, first], m[:, second])
    medians, means = _centres(m)
    verdicts = _verdicts(p, alpha, (medians[:, first], medians[:, second]),
                         (means[:, first], means[:, second]))
    wins, losses = (verdicts == 1).sum(axis=0), (verdicts == -1).sum(axis=0)
    table = {}
    for i, j, won, lost in zip(first, second, wins.tolist(), losses.tolist()):
        table[(names[i], names[j])] = {"+": won, "=": n - won - lost, "-": lost}
        table[(names[j], names[i])] = {"+": lost, "=": n - won - lost, "-": won}
    return table


def format_friedman(report: StatReport) -> str:
    lines = ["Friedman test: chi2 = %.6g, p = %.6g" %
             (report.statistic, report.p_value)]
    width = max(len(name) for name in report.ranks)
    for name, rank in sorted(report.ranks.items(), key=lambda kv: kv[1]):
        lines.append("  %-*s  mean rank %.4f" % (width, name, rank))
    return "\n".join(lines)


def format_wtl(table: Dict[Tuple[str, str], Dict[str, int]]) -> str:
    lines = ["Win/tie/loss (row algorithm vs column algorithm):"]
    for (a, b), counts in sorted(table.items()):
        lines.append("  %s vs %s: +%d =%d -%d"
                     % (a, b, counts["+"], counts["="], counts["-"]))
    return "\n".join(lines)


def format_kruskal(result: Tuple[float, float, List[float]],
                   algorithms: Sequence[str]) -> str:
    """Report of :func:`kruskal_wallis` with one group per algorithm."""
    h, p, ranks = result
    lines = ["Kruskal-Wallis: H = %.6g, p = %.6g" % (h, p)]
    for name, rank in zip(algorithms, ranks):
        lines.append("  %s  mean rank %.4f" % (name, rank))
    return "\n".join(lines)
