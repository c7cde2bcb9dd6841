"""User grouping schemes: categorical attributes, age bucketing variants,
country buckets by prevalence and GDP, the last-digit control, and balanced
sampling.

Every scheme assigns each user exactly one label; users whose source
attribute is missing get the distinguished "N/A" label, which significance
testing later drops.  A scheme takes numpy columns in dense user order (a
numeric scheme float64 values, NaN where missing; a categorical one the
codes and labels of ``code_labels``, GDP one value per label) and stores
the labels as one integer code per user, so every per-group count or
statistic is a mask or a ``bincount``.  Of the package, only ``util`` is
imported.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .util import derive_seed, distinct_sorted

log = logging.getLogger(__name__)

NA_LABEL = "N/A"


@dataclass
class GroupAssignment:
    """One label per user: ``codes[i]`` indexes ``labels`` for the user at
    dense index i, matrix row i."""

    name: str
    labels: list[str]  # presentation order; N/A last when present
    codes: np.ndarray  # (n_users,) ints into labels

    def sizes(self) -> dict[str, int]:
        counts = np.bincount(self.codes, minlength=len(self.labels))
        return dict(zip(self.labels, counts.tolist()))

    def non_na_labels(self) -> list[str]:
        return [label for label in self.labels if label != NA_LABEL]


def _finish(name: str, codes: np.ndarray, ordered_labels: list[str]) -> GroupAssignment:
    """Drop empty labels, keep N/A last, and package the assignment.

    ``codes`` index ``ordered_labels``; code ``len(ordered_labels)`` is N/A.
    """
    counts = np.bincount(codes, minlength=len(ordered_labels) + 1)
    kept = np.flatnonzero(counts)
    remap = np.zeros(len(counts), dtype=np.intp)
    remap[kept] = np.arange(len(kept))
    labels = [ordered_labels[k] if k < len(ordered_labels) else NA_LABEL
              for k in kept.tolist()]
    return GroupAssignment(name=name, labels=labels, codes=remap[codes])


def code_labels(values: Sequence[Optional[str]]) -> tuple[np.ndarray, list[str]]:
    """A categorical column as ``(codes, labels)``: ``labels`` its sorted
    distinct values and ``codes[i]`` the index of value i there, with a
    missing value (None) coded ``len(labels)``."""
    labels = sorted(set(values) - {None})
    code_of = dict(zip(labels + [None], range(len(labels) + 1)))
    return np.fromiter(map(code_of.__getitem__, values), np.intp, len(values)), labels


def _fmt_value(v) -> str:
    if isinstance(v, float) and v.is_integer():
        return str(int(v))
    return str(v)


def bucket_categorical(name: str, codes: np.ndarray,
                       labels: Sequence[str]) -> GroupAssignment:
    """One group per value of a ``code_labels`` column, ordered by
    descending size; a missing value, or one equal to N/A, -> N/A."""
    counts = np.bincount(codes, minlength=len(labels) + 1).tolist()
    ordered = sorted((c for c, label in enumerate(labels) if label != NA_LABEL),
                     key=lambda c: (-counts[c], labels[c]))
    table = np.full(len(labels) + 1, len(ordered), dtype=np.intp)
    table[ordered] = np.arange(len(ordered))
    return _finish(name, table[codes], [labels[c] for c in ordered])


def bucket_from_brackets(name: str, values: np.ndarray,
                         lower_bounds: Sequence[int]) -> GroupAssignment:
    """Bucket by a configured bracket list of lower bounds (e.g. the ML1M
    age codes).  Values below the first bound fall into the first bracket.
    """
    bounds = sorted(lower_bounds)
    labels = []
    for i, lo in enumerate(bounds):
        if i + 1 < len(bounds):
            labels.append(f"{lo}-{bounds[i + 1] - 1}")
        else:
            labels.append(f"{lo}+")
    idx = np.maximum(np.searchsorted(bounds, values, side="right") - 1, 0)
    return _finish(name, np.where(np.isnan(values), len(labels), idx), labels)


def bucket_equal_range(name: str, values: np.ndarray,
                       width: int, anchor: Optional[int] = None) -> GroupAssignment:
    """Uniform-width bins [lo, lo+width) anchored at ``anchor`` (default:
    the minimum observed value).  Intended for integer attributes like age.
    """
    if width <= 0:
        raise ValueError("bin width must be positive")
    missing = np.isnan(values)
    if missing.all():
        return _finish(name, np.zeros(len(values), dtype=np.intp), [])
    lo0 = int(values[~missing].min()) if anchor is None else anchor
    n_bins = (int(values[~missing].max()) - lo0) // width + 1
    labels = [f"{lo0 + b * width}-{lo0 + (b + 1) * width - 1}" for b in range(n_bins)]
    idx = np.clip((values - lo0) // width, 0, n_bins - 1)
    return _finish(name, np.where(missing, n_bins, idx).astype(np.intp), labels)


def bucket_equal_count(name: str, values: np.ndarray, k: int) -> GroupAssignment:
    """Roughly equal-population bins of a numeric attribute.

    Boundaries sit at ranks i*n/k; a value is never split across bins
    (whole tie classes are pushed into the lower bin), so sizes are only
    approximately equal.  If fewer than k distinct values exist the result
    has fewer bins, with a warning.
    """
    if k < 2:
        raise ValueError("equal-count bucketing needs k >= 2")
    missing = np.isnan(values)
    sorted_vals = np.sort(values[~missing])
    n = len(sorted_vals)
    if n < k:
        raise ValueError(f"need at least {k} non-missing values, have {n}")

    boundaries = [0]
    for i in range(1, k):
        b = (i * n) // k
        if 0 < b < n and sorted_vals[b - 1] == sorted_vals[b]:
            b = int(np.searchsorted(sorted_vals, sorted_vals[b - 1], side="right"))
        if boundaries[-1] < b < n:
            boundaries.append(b)
    boundaries.append(n)
    if len(boundaries) - 1 < k:
        log.warning("%s: ties reduce %d requested bins to %d", name, k,
                    len(boundaries) - 1)

    upper_values = []
    labels = []
    for start, end in zip(boundaries[:-1], boundaries[1:]):
        lo, hi = sorted_vals[start], sorted_vals[end - 1]
        upper_values.append(hi)
        labels.append(f"{_fmt_value(lo)}-{_fmt_value(hi)}" if lo != hi else _fmt_value(lo))
    idx = np.minimum(np.searchsorted(upper_values, values, side="left"), len(labels) - 1)
    return _finish(name, np.where(missing, len(labels), idx), labels)


PREVALENCE_LABELS = ("low", "medium", "high")


def _tercile_labels(k: int) -> list[str]:
    if k == 3:
        return list(PREVALENCE_LABELS)
    return [f"bucket{i + 1}" for i in range(k)]


def bucket_countries_by_prevalence(name: str, codes: np.ndarray,
                                   countries: Sequence[str],
                                   k: int = 3) -> GroupAssignment:
    """Bucket countries (a ``code_labels`` column) by user count, low to high.

    Countries are walked in ascending user count; each bucket takes the
    next country, then greedily more while that brings its total closer to
    an equal share of users and leaves a country for each later bucket, and
    the last takes the rest.  The most-represented countries therefore land
    in "high".
    """
    counts = np.bincount(codes, minlength=len(countries) + 1)[:-1].tolist()
    ordered = sorted(np.flatnonzero(counts).tolist(),
                     key=lambda c: (counts[c], countries[c]))
    table = np.full(len(countries) + 1, k, dtype=np.intp)
    pos, remaining = 0, sum(counts)
    for j in range(k):
        start, total, target = pos, 0, remaining / (k - j)
        while pos < len(ordered) and (pos == start or j == k - 1 or (
                len(ordered) - pos > k - j - 1
                and abs(total + counts[ordered[pos]] - target) < abs(total - target))):
            total += counts[ordered[pos]]
            pos += 1
        table[ordered[start:pos]] = j
        remaining -= total
    return _finish(name, table[codes], _tercile_labels(k))


def bucket_countries_by_gdp(name: str, codes: np.ndarray, gdp: np.ndarray,
                            k: int = 3) -> GroupAssignment:
    """Bucket countries (a ``code_labels`` column) into GDP-per-capita
    terciles (by country count), ``gdp[c]`` being label c's GDP, NaN where
    unknown.  A GDP tie ranks by name, which is code order.  Users inherit
    their country's bucket; countries without a GDP and users without a
    country go to N/A.
    """
    used = np.bincount(codes, minlength=len(gdp) + 1)[:-1] > 0
    ranked = np.flatnonzero(used & ~np.isnan(gdp))
    ranked = ranked[np.argsort(gdp[ranked], kind="stable")]
    table = np.full(len(gdp) + 1, k, dtype=np.intp)
    for j, chunk in enumerate(np.array_split(ranked, k)):
        table[chunk] = j
    return _finish(name, table[codes], _tercile_labels(k))


def control_last_digit(name: str, user_ids: Sequence[str]) -> GroupAssignment:
    """Control grouping by each id's last character, lower-cased (a numeric
    id's last digit, a sha1's last hex digit).  Should predict nothing.
    """
    return _finish(name, *code_labels([uid[-1:].lower() or None for uid in user_ids]))


def bucket_integer_values(name: str, values: np.ndarray,
                          merge_at: int = 13) -> GroupAssignment:
    """One group per raw integer value, merging everything >= merge_at
    into a single top group (pop-index presentation).
    """
    seen = distinct_sorted(values[values < merge_at])
    codes = np.where(values >= merge_at, len(seen), np.searchsorted(seen, values))
    return _finish(name, np.where(np.isnan(values), len(seen) + 1, codes),
                   [str(int(v)) for v in seen.tolist()] + [f"{merge_at}+"])


def balanced_sample(assignment: GroupAssignment, seed: int,
                    users: np.ndarray) -> np.ndarray:
    """Equal-size seeded sample: min non-N/A group size users per group.

    ``users`` are the dense indices of the users who may be drawn; each
    group lists its members in their order there before the seeded pick.
    Returns user indices, grouped by label in presentation order.
    """
    users = np.asarray(users, dtype=np.intp)
    codes = assignment.codes[users]
    groups = [(label, users[codes == code])
              for code, label in enumerate(assignment.non_na_labels())]
    groups = [(label, members) for label, members in groups if len(members)]
    if not groups:
        raise ValueError(f"{assignment.name}: no non-N/A groups to sample")
    m = min(len(members) for _, members in groups)
    sampled = []
    for label, members in groups:
        rng = np.random.default_rng(derive_seed(seed, "balanced", assignment.name, label))
        picks = rng.choice(len(members), size=m, replace=False)
        sampled.append(members[np.sort(picks)])
    return np.concatenate(sampled)
