"""Nonparametric significance testing across user groups.

Implements mid-rank assignment, the tie-corrected Kruskal-Wallis H test
with a chi-square reference distribution, and Bonferroni correction, on
plain arrays, with nothing imported from the package.  A pooled sample is
sorted once: the ranks and the tie runs that the correction counts both
come from that one stable sort.  The test's df is always an integer
(groups - 1), so the chi-square tail is summed in closed form; its
relative error stays below 1e-12 for p-values down to 1e-290.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np


@dataclass(frozen=True)
class KwResult:
    """Kruskal-Wallis outcome: H statistic, degrees of freedom, p-value,
    the tie-correction divisor, and the compared group sizes."""

    H: float
    df: int
    p_value: float
    tie_correction: float
    group_sizes: tuple[int, ...]


def rank_mid(values: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """1-based ranks with tied values receiving the mean of their rank span,
    and the length of each run of equal values in ascending order of value,
    both from one stable sort.

    The rank sum is always n(n+1)/2 exactly.  -0.0 ties 0.0, and each NaN
    is a run of its own after every number, in input order.
    """
    arr = np.asarray(values, dtype=np.float64)
    n = arr.shape[0]
    if n == 0:
        raise ValueError("rank_mid needs a non-empty input")
    order = np.argsort(arr, kind="stable")
    s = arr[order]
    first = np.empty(n, dtype=bool)
    first[0] = True
    np.not_equal(s[1:], s[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    ends = np.append(starts[1:], n)
    mid_ranks = (starts + ends - 1) / 2.0 + 1.0
    run_id = np.cumsum(first) - 1
    ranks = np.empty(n, dtype=np.float64)
    ranks[order] = mid_ranks[run_id]
    return ranks, ends - starts


def chi2_sf(x: float, df: int) -> float:
    """Chi-square survival function: P(X >= x) for X ~ chi2(df), df a
    positive int.

    With h = x/2 it is a finite sum (Abramowitz & Stegun 26.4.4-26.4.5):
    sum_{j<m} e^-h h^j / j! for df = 2m, and erfc(sqrt(h)) plus
    sum_{j=1..m} e^-h h^(j-1/2) / Gamma(j+1/2) for df = 2m+1.  The terms
    are added in log space, scaled by the largest, so a tail that e^-h
    alone would underflow stays representable.  Rounding can carry a sum
    within an ulp of 1 past it, so the result is capped at 1.
    """
    if isinstance(df, bool) or not isinstance(df, int) or df <= 0:
        raise ValueError("df must be a positive integer")
    if not 0.0 <= x < math.inf:
        raise ValueError("chi-square statistic must be finite and non-negative")
    half = x / 2.0
    if half == 0.0:
        return 1.0
    if df % 2:
        head, powers = math.erfc(math.sqrt(half)), [j - 0.5 for j in range(1, df // 2 + 1)]
    else:
        head, powers = 0.0, list(range(df // 2))
    if not powers:
        return head
    logs = [p * math.log(half) - half - math.lgamma(p + 1) for p in powers]
    top = max(logs)
    return min(1.0, head + math.exp(top) * math.fsum(math.exp(t - top) for t in logs))


def kruskal_wallis(groups: Sequence[Sequence[float]]) -> KwResult:
    """Tie-corrected Kruskal-Wallis H test across two or more groups.

    H = 12 / (N (N+1)) * sum_j n_j (Rbar_j - (N+1)/2)^2, divided by the tie
    correction 1 - sum(t^3 - t) / (N^3 - N); the p-value comes from the
    chi-square upper tail with (groups - 1) degrees of freedom.  When every
    pooled value is identical the correction degenerates and the result is
    H = 0, p = 1.
    """
    sizes = tuple(len(g) for g in groups)
    if len(groups) < 2:
        raise ValueError("kruskal_wallis needs at least 2 groups")
    if any(size == 0 for size in sizes):
        raise ValueError("kruskal_wallis groups must be non-empty")
    n_total = sum(sizes)
    if n_total < 3:
        raise ValueError("kruskal_wallis needs at least 3 observations")

    pooled = np.concatenate([np.asarray(g, dtype=np.float64) for g in groups])
    if not np.isfinite(pooled).all():
        raise ValueError("kruskal_wallis values must be finite")
    df = len(groups) - 1
    ranks, runs = rank_mid(pooled)
    tie_sum = float(np.sum(runs.astype(np.float64) ** 3 - runs))
    correction = 1.0 - tie_sum / (n_total ** 3 - n_total)
    if correction <= 0.0:
        # all values identical: no evidence of any difference
        return KwResult(H=0.0, df=df, p_value=1.0, tie_correction=0.0,
                        group_sizes=sizes)

    grand_mean = (n_total + 1) / 2.0
    h = 0.0
    offset = 0
    for size in sizes:
        group_mean = float(np.mean(ranks[offset:offset + size]))
        h += size * (group_mean - grand_mean) ** 2
        offset += size
    h *= 12.0 / (n_total * (n_total + 1))
    h /= correction
    return KwResult(H=h, df=df, p_value=chi2_sf(h, df),
                    tie_correction=correction, group_sizes=sizes)


def bonferroni(p_values: Sequence[float]) -> list[float]:
    """Multiply each p-value by the family size, capping at 1."""
    m = len(p_values)
    return [min(1.0, m * p) for p in p_values]


def test_grouping(groups: Sequence[np.ndarray]) -> Optional[KwResult]:
    """Kruskal-Wallis over the per-user mean metric values of each non-N/A
    group (its tested users only), empty groups left out.

    Returns None ("not testable") when fewer than two groups have any
    users, or fewer than three users are tested in all.
    """
    groups = [group for group in groups if len(group)]
    if len(groups) < 2 or sum(len(g) for g in groups) < 3:
        return None
    return kruskal_wallis(groups)
