"""User grouping schemes: categorical attributes, age bucketing variants,
country buckets by prevalence and GDP, the last-digit control, and balanced
sampling.

Every scheme assigns each user exactly one label; users whose source
attribute is missing get the distinguished "N/A" label, which significance
testing later drops.  A scheme takes one column in dense user order (a
numeric scheme float64 values, NaN where missing; the others labels, None
where missing) and stores the labels as one integer code per user, so
every per-group count or statistic is a mask or a ``bincount``.
"""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .ingest import GdpTable
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


def _from_labels(name: str, per_user: Sequence[str],
                 ordered_labels: list[str]) -> GroupAssignment:
    """The assignment giving user i the label ``per_user[i]``; a label
    missing from ``ordered_labels`` (N/A among them) becomes N/A."""
    code_of = {label: code for code, label in enumerate(ordered_labels)}
    na = len(ordered_labels)
    codes = np.fromiter((code_of.get(label, na) for label in per_user),
                        dtype=np.intp, count=len(per_user))
    return _finish(name, codes, ordered_labels)


def _fmt_value(v) -> str:
    if isinstance(v, float) and v.is_integer():
        return str(int(v))
    return str(v)


def bucket_categorical(name: str, values: Sequence[Optional[str]]) -> GroupAssignment:
    """One group per distinct value, ordered by descending size; missing -> N/A."""
    per_user = [NA_LABEL if value is None else str(value) for value in values]
    counts = Counter(label for label in per_user if label != NA_LABEL)
    ordered = sorted(counts, key=lambda lab: (-counts[lab], lab))
    return _from_labels(name, per_user, ordered)


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


def bucket_countries_by_prevalence(name: str, countries: Sequence[Optional[str]],
                                   k: int = 3) -> GroupAssignment:
    """Bucket countries by how many users they contribute, low to high.

    Countries are walked in ascending user count; each bucket greedily
    accumulates countries while that brings its total closer to an equal
    share of users, always leaving at least one country per later bucket.
    The most-represented countries therefore land in "high".
    """
    counts = Counter(c for c in countries if c is not None)
    labels = _tercile_labels(k)
    ordered = sorted(counts, key=lambda c: (counts[c], c))
    country_bucket: dict[str, str] = {}
    pos = 0
    remaining_total = sum(counts.values())
    for j in range(k):
        remaining_buckets = k - j
        if pos >= len(ordered):
            break
        if remaining_buckets == 1:
            chosen = ordered[pos:]
            pos = len(ordered)
        else:
            target = remaining_total / remaining_buckets
            total = 0
            chosen = []
            while pos < len(ordered):
                c = ordered[pos]
                must_reserve = len(ordered) - (pos + 1) < remaining_buckets - 1
                if chosen and (must_reserve or
                               abs(total + counts[c] - target) >= abs(total - target)):
                    break
                chosen.append(c)
                total += counts[c]
                pos += 1
            remaining_total -= total
        for c in chosen:
            country_bucket[c] = labels[j]

    return _from_labels(name, [country_bucket.get(c, NA_LABEL) for c in countries],
                        labels)


def bucket_countries_by_gdp(name: str, countries: Sequence[Optional[str]],
                            gdp: GdpTable, k: int = 3) -> GroupAssignment:
    """Bucket countries into GDP-per-capita terciles (by country count).

    Users inherit their country's bucket; countries absent from the table
    and users without a country go to N/A.
    """
    with_gdp = [(gdp.lookup(c), c) for c in sorted(set(countries) - {None})]
    with_gdp = [(g, c) for g, c in with_gdp if g is not None]
    with_gdp.sort()
    labels = _tercile_labels(k)
    country_bucket: dict[str, str] = {}
    if with_gdp:
        chunks = np.array_split(np.arange(len(with_gdp)), k)
        for j, chunk in enumerate(chunks):
            for idx in chunk:
                country_bucket[with_gdp[idx][1]] = labels[j]
    return _from_labels(name, [country_bucket.get(c, NA_LABEL) for c in countries],
                        labels)


def control_last_digit(name: str, user_ids: Sequence[str]) -> GroupAssignment:
    """Control grouping by each id's last character, lower-cased (a numeric
    id's last digit, a sha1's last hex digit).  Should predict nothing.
    """
    per_user = [uid[-1:].lower() or NA_LABEL for uid in user_ids]
    return _from_labels(name, per_user, sorted(set(per_user) - {NA_LABEL}))


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
