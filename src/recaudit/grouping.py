"""User grouping schemes: categorical attributes, age bucketing variants,
country buckets by prevalence and GDP, the last-digit control, and balanced
sampling.

Every scheme assigns each user exactly one label; users whose source
attribute is missing get the distinguished "N/A" label, which significance
testing later drops.  A scheme takes its attribute values as one sequence
in dense user order and stores the labels as one integer code per user,
so every per-group count or statistic is a mask or a ``bincount``.
"""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .ingest import GdpTable
from .interactions import UserAttributes, UserId
from .util import derive_seed

log = logging.getLogger(__name__)

NA_LABEL = "N/A"


@dataclass
class GroupAssignment:
    """One label per user: ``codes[i]`` indexes ``labels`` for the user at
    dense index i (the order of ``IdMap.ids``)."""

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


def _numeric(values: Sequence) -> tuple[np.ndarray, np.ndarray]:
    """The mask of non-missing values, and the values as float64 (0 where
    missing)."""
    present = np.fromiter((v is not None for v in values), dtype=bool,
                          count=len(values))
    arr = np.fromiter((0.0 if v is None else v for v in values),
                      dtype=np.float64, count=len(values))
    return present, arr


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


def bucket_from_brackets(name: str, values: Sequence[Optional[int]],
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
    present, arr = _numeric(values)
    idx = np.maximum(np.searchsorted(bounds, arr, side="right") - 1, 0)
    return _finish(name, np.where(present, idx, len(labels)), labels)


def bucket_equal_range(name: str, values: Sequence[Optional[int]],
                       width: int, anchor: Optional[int] = None) -> GroupAssignment:
    """Uniform-width bins [lo, lo+width) anchored at ``anchor`` (default:
    the minimum observed value).  Intended for integer attributes like age.
    """
    if width <= 0:
        raise ValueError("bin width must be positive")
    present = [v for v in values if v is not None]
    if not present:
        return _finish(name, np.zeros(len(values), dtype=np.intp), [])
    lo0 = min(present) if anchor is None else anchor
    n_bins = (max(present) - lo0) // width + 1
    labels = [f"{lo0 + b * width}-{lo0 + (b + 1) * width - 1}" for b in range(n_bins)]
    mask, arr = _numeric(values)
    idx = np.clip((arr - lo0) // width, 0, n_bins - 1).astype(np.intp)
    return _finish(name, np.where(mask, idx, n_bins), labels)


def bucket_equal_count(name: str, values: Sequence[Optional[float]],
                       k: int) -> GroupAssignment:
    """Roughly equal-population bins of a numeric attribute.

    Boundaries sit at ranks i*n/k; a value is never split across bins
    (whole tie classes are pushed into the lower bin), so sizes are only
    approximately equal.  If fewer than k distinct values exist the result
    has fewer bins, with a warning.
    """
    if k < 2:
        raise ValueError("equal-count bucketing needs k >= 2")
    present, arr = _numeric(values)
    n = int(np.count_nonzero(present))
    if n < k:
        raise ValueError(f"need at least {k} non-missing values, have {n}")
    sorted_vals = np.sort(arr[present])

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
    idx = np.minimum(np.searchsorted(upper_values, arr, side="left"), len(labels) - 1)
    return _finish(name, np.where(present, idx, len(labels)), labels)


PREVALENCE_LABELS = ("low", "medium", "high")


def _tercile_labels(k: int) -> list[str]:
    if k == 3:
        return list(PREVALENCE_LABELS)
    return [f"bucket{i + 1}" for i in range(k)]


def bucket_countries_by_prevalence(name: str, attributes: Sequence[UserAttributes],
                                   k: int = 3) -> GroupAssignment:
    """Bucket countries by how many users they contribute, low to high.

    Countries are walked in ascending user count; each bucket greedily
    accumulates countries while that brings its total closer to an equal
    share of users, always leaving at least one country per later bucket.
    The most-represented countries therefore land in "high".
    """
    counts: dict[str, int] = {}
    for attr in attributes:
        if attr.country is not None:
            counts[attr.country] = counts.get(attr.country, 0) + 1
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

    return _from_labels(name, [country_bucket.get(a.country, NA_LABEL)
                               for a in attributes], labels)


def bucket_countries_by_gdp(name: str, attributes: Sequence[UserAttributes],
                            gdp: GdpTable, k: int = 3) -> GroupAssignment:
    """Bucket countries into GDP-per-capita terciles (by country count).

    Users inherit their country's bucket; countries absent from the table
    and users without a country go to N/A.
    """
    countries = sorted({a.country for a in attributes if a.country is not None})
    with_gdp = [(gdp.lookup(c), c) for c in countries]
    with_gdp = [(g, c) for g, c in with_gdp if g is not None]
    with_gdp.sort()
    labels = _tercile_labels(k)
    country_bucket: dict[str, str] = {}
    if with_gdp:
        chunks = np.array_split(np.arange(len(with_gdp)), k)
        for j, chunk in enumerate(chunks):
            for idx in chunk:
                country_bucket[with_gdp[idx][1]] = labels[j]
    return _from_labels(name, [country_bucket.get(a.country, NA_LABEL) if a.country
                               else NA_LABEL for a in attributes], labels)


def control_last_digit(name: str, user_ids: Sequence[UserId]) -> GroupAssignment:
    """Control grouping by the last decimal digit of a numeric id, or the
    last hex character of a sha1-style id.  Should predict nothing.
    """
    per_user = [str(uid)[-1:].lower() or NA_LABEL for uid in user_ids]
    return _from_labels(name, per_user, sorted(set(per_user) - {NA_LABEL}))


def bucket_integer_values(name: str, values: Sequence[Optional[int]],
                          merge_at: int = 13) -> GroupAssignment:
    """One group per raw integer value, merging everything >= merge_at
    into a single top group (pop-index presentation).
    """
    top = f"{merge_at}+"
    per_user = [NA_LABEL if v is None else top if v >= merge_at else str(int(v))
                for v in values]
    seen = sorted({int(v) for v in values if v is not None and v < merge_at})
    return _from_labels(name, per_user, [str(v) for v in seen] + [top])


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
