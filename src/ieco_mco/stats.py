"""Nonparametric comparison tests over result matrices.

The input convention throughout is a minimization matrix ``values`` of shape
(problems, algorithms, runs) (a trailing run axis of size 1 is fine). The
Friedman test ranks algorithms per problem on the mean over runs, the
rank-sum test compares two run vectors on one problem, and the
Kruskal-Wallis test compares several samples with tie-corrected pooled
ranking. Average ranks, rank statistics and the exact rank-sum enumeration
are computed here with numpy. The chi-square and normal tails come from
``scipy.special``, which each tail helper imports on its first call, so
importing this module (and the optimizer, which never calls it) loads no
scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks of a 1-D sample, ties sharing their average rank.

    Equal to ``scipy.stats.rankdata(x)``: ranks are whole or half numbers,
    so they are exact. -0.0 ties with 0.0 and +-inf rank as the extremes;
    NaN has no rank and raises ValueError.
    """
    if np.isnan(x).any():
        raise ValueError("cannot rank a sample that holds NaN")
    _, inverse, counts = np.unique(x, return_inverse=True, return_counts=True)
    below = np.cumsum(counts) - counts
    return (below + (counts + 1) / 2.0)[inverse]


def _chi2_sf(x: float, df: int) -> float:
    """Chi-square upper tail, bit for bit ``scipy.stats.chi2.sf(x, df)``."""
    from scipy.special import chdtrc
    return float(chdtrc(df, x))


def _norm_sf(z: float) -> float:
    """Standard normal upper tail, bit for bit ``scipy.stats.norm.sf(z)``."""
    from scipy.special import ndtr
    return float(ndtr(-z))


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
    ranks = np.vstack([_average_ranks(summary[i]) for i in range(n)])
    mean_ranks = ranks.mean(axis=0)
    stat = 12.0 * n / (k * (k + 1)) * np.sum((mean_ranks - (k + 1) / 2.0) ** 2)
    p = _chi2_sf(stat, k - 1)
    names = _labels(k, algorithms)
    return StatReport(statistic=float(stat), p_value=p,
                      ranks=dict(zip(names, mean_ranks.tolist())))


def _ranksum_exact_p(pooled_ranks: np.ndarray, n_a: int) -> float:
    """Two-sided exact p by full enumeration of rank assignments.

    Counts assignments whose rank-sum deviates from the mean at least as
    much as the observed one; conditional on the observed (possibly tied)
    midranks, so ties are handled exactly.
    """
    total = len(pooled_ranks)
    w_obs = float(pooled_ranks[:n_a].sum())
    mu = n_a * (total + 1) / 2.0
    # with midranks the total rank sum stays total*(total+1)/2, so mu holds
    dev = abs(w_obs - mu)
    hits = 0
    count = 0
    for idx in combinations(range(total), n_a):
        w = float(pooled_ranks[list(idx)].sum())
        if abs(w - mu) >= dev - 1e-12:
            hits += 1
        count += 1
    return hits / count


def _ranksum_normal_p(pooled_ranks: np.ndarray, n_a: int) -> float:
    """Normal approximation with tie and continuity corrections."""
    total = len(pooled_ranks)
    n_b = total - n_a
    w = float(pooled_ranks[:n_a].sum())
    mu = n_a * (total + 1) / 2.0
    _, counts = np.unique(pooled_ranks, return_counts=True)
    tie_term = float(np.sum(counts.astype(float) ** 3 - counts))
    var = (n_a * n_b / 12.0) * ((total + 1) - tie_term / (total * (total - 1)))
    if var <= 0.0:
        return 1.0
    diff = w - mu
    if diff > 0.5:
        diff -= 0.5
    elif diff < -0.5:
        diff += 0.5
    else:
        diff = 0.0
    z = diff / math.sqrt(var)
    return min(1.0, 2.0 * _norm_sf(abs(z)))


def wilcoxon_rank_sum(a, b, alpha: float = DEFAULT_ALPHA) -> Tuple[float, str]:
    """Two-sided rank-sum test with a +/=/- verdict for minimization.

    Exact enumeration when the pooled size is at most 12, otherwise the
    tie-corrected normal approximation with continuity correction. The
    verdict is "=" when p > alpha; otherwise "+" when sample ``a`` is better
    (lower median, mean as the tiebreak) and "-" when ``b`` is.
    """
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    if a.size < 2 or b.size < 2:
        raise ValueError("rank-sum test needs at least 2 observations per sample")
    pooled = _average_ranks(np.concatenate([a, b]))
    if a.size + b.size <= EXACT_RANKSUM_LIMIT:
        p = _ranksum_exact_p(pooled, a.size)
    else:
        p = _ranksum_normal_p(pooled, a.size)

    if p > alpha:
        return p, "="
    med_a, med_b = float(np.median(a)), float(np.median(b))
    if med_a < med_b:
        return p, "+"
    if med_a > med_b:
        return p, "-"
    mean_a, mean_b = float(a.mean()), float(b.mean())
    if mean_a < mean_b:
        return p, "+"
    if mean_a > mean_b:
        return p, "-"
    return p, "="


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
    ranks = _average_ranks(pooled)
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
    _, counts = np.unique(pooled, return_counts=True)
    tie = 1.0 - float(np.sum(counts.astype(float) ** 3 - counts)) / (total ** 3 - total)
    if tie == 0.0:
        return 0.0, 1.0, mean_ranks
    h = raw / tie
    p = _chi2_sf(h, len(arrays) - 1)
    return h, p, mean_ranks


def wtl_table(values, algorithms: Optional[Sequence[str]] = None,
              alpha: float = DEFAULT_ALPHA) -> Dict[Tuple[str, str], Dict[str, int]]:
    """Pairwise win/tie/loss counts from per-problem rank-sum verdicts.

    Each unordered pair is tested once: swapping the samples leaves p
    unchanged and mirrors the verdict, so (j, i) holds (i, j) with its wins
    and losses swapped.
    """
    m = _as_matrix(values)
    n, k = m.shape[0], m.shape[1]
    names = _labels(k, algorithms)
    table = {}
    for i, j in combinations(range(k), 2):
        counts = {"+": 0, "=": 0, "-": 0}
        for prob in range(n):
            _, verdict = wilcoxon_rank_sum(m[prob, i], m[prob, j], alpha)
            counts[verdict] += 1
        table[(names[i], names[j])] = counts
        table[(names[j], names[i])] = {"+": counts["-"], "=": counts["="],
                                       "-": counts["+"]}
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
