"""Nonparametric significance testing across user groups.

Implements mid-rank assignment, the tie-corrected Kruskal-Wallis H test
with a chi-square reference distribution, and Bonferroni correction.
The chi-square survival function is evaluated directly as a regularized
upper incomplete gamma (series / continued fraction), accurate to better
than 1e-10 absolute.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .grouping import GroupAssignment

_EPS = 1e-16
_MAX_ITER = 600


@dataclass(frozen=True)
class KwResult:
    """Kruskal-Wallis outcome: H statistic, degrees of freedom, p-value,
    the tie-correction divisor, and the compared group sizes."""

    H: float
    df: int
    p_value: float
    tie_correction: float
    group_sizes: tuple[int, ...]


def rank_mid(values: Sequence[float]) -> np.ndarray:
    """1-based ranks with tied values receiving the mean of their rank span.

    The rank sum is always n(n+1)/2 exactly.
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
    return ranks


def _gamma_p_series(a: float, x: float) -> float:
    """Series evaluation of the regularized lower incomplete gamma P(a, x),
    convergent for x < a + 1."""
    ap = a
    total = term = 1.0 / a
    for _ in range(_MAX_ITER):
        ap += 1.0
        term *= x / ap
        total += term
        if abs(term) < abs(total) * _EPS:
            break
    return total * math.exp(-x + a * math.log(x) - math.lgamma(a))


def _gamma_q_contfrac(a: float, x: float) -> float:
    """Lentz continued fraction for the regularized upper incomplete gamma
    Q(a, x), convergent for x >= a + 1."""
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_ITER):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            break
    return h * math.exp(-x + a * math.log(x) - math.lgamma(a))


def chi2_sf(x: float, df: int) -> float:
    """Chi-square survival function: P(X >= x) for X ~ chi2(df).

    Equals Q(df/2, x/2), the regularized upper incomplete gamma.  For
    df = 2 this reduces to exp(-x/2).
    """
    if df <= 0:
        raise ValueError("df must be a positive integer")
    if x < 0:
        raise ValueError("chi-square statistic cannot be negative")
    if x == 0.0:
        return 1.0
    a = df / 2.0
    half_x = x / 2.0
    if half_x < a + 1.0:
        return min(1.0, max(0.0, 1.0 - _gamma_p_series(a, half_x)))
    return min(1.0, max(0.0, _gamma_q_contfrac(a, half_x)))


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
    df = len(groups) - 1
    ranks = rank_mid(pooled)

    _, tie_counts = np.unique(pooled, return_counts=True)
    tie_sum = float(np.sum(tie_counts.astype(np.float64) ** 3 - tie_counts))
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


def test_grouping(means: np.ndarray, assignment: GroupAssignment) -> Optional[KwResult]:
    """Kruskal-Wallis over per-user mean metric values (an ``(n_users,)``
    array, NaN for users never tested), grouped by the assignment with the
    N/A group omitted.

    Returns None ("not testable") when fewer than two non-N/A groups have
    any evaluated users.
    """
    tested = ~np.isnan(means)
    groups = [means[tested & (assignment.codes == code)]
              for code in range(len(assignment.non_na_labels()))]
    groups = [group for group in groups if len(group)]
    if len(groups) < 2 or sum(len(g) for g in groups) < 3:
        return None
    return kruskal_wallis(groups)
