"""Independent naive reference implementations used as test oracles.

Everything here is written the slow, obvious way (explicit loops, full
enumerations) and must stay independent of the package code it checks.
"""

from __future__ import annotations

import logging
import math
from array import array
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from recaudit.errors import NumericalError
from recaudit.grouping import NA_LABEL, GroupAssignment
from recaudit.interactions import Triples
from recaudit.synthetic import PlantedTruth
from recaudit.util import derive_seed


def naive_ndcg(ranked, relevant):
    if not relevant:
        return 0.0
    dcg = 0.0
    for i, item in enumerate(ranked):
        rank = i + 1
        if item in relevant:
            dcg += 1.0 / math.log2(rank + 1)
    ideal = 0.0
    for rank in range(1, min(len(relevant), len(ranked)) + 1):
        ideal += 1.0 / math.log2(rank + 1)
    if ideal == 0.0:
        return 0.0
    return dcg / ideal


def naive_mrr(ranked, relevant):
    for i, item in enumerate(ranked):
        if item in relevant:
            return 1.0 / (i + 1)
    return 0.0


def naive_rbp(ranked, relevant, persistence):
    total = 0.0
    for i, item in enumerate(ranked):
        if item in relevant:
            total += persistence ** i
    return (1.0 - persistence) * total


def naive_fold_drop_mask(indptr, indices, holdout):
    """True for every stored entry whose item is held out for its row,
    found one user and one entry at a time."""
    drop = np.zeros(len(indices), dtype=bool)
    for user, held in holdout.items():
        held_set = {int(item) for item in held}
        for pos in range(int(indptr[user]), int(indptr[user + 1])):
            drop[pos] = int(indices[pos]) in held_set
    return drop


def naive_rank_mid(values):
    """Ranks by sorting and averaging tied spans, quadratic but obvious."""
    values = list(values)
    n = len(values)
    ranks = [0.0] * n
    sorted_pairs = sorted(range(n), key=lambda i: values[i])
    i = 0
    while i < n:
        j = i
        while j + 1 < n and values[sorted_pairs[j + 1]] == values[sorted_pairs[i]]:
            j += 1
        mid = (i + j) / 2.0 + 1.0
        for idx in sorted_pairs[i:j + 1]:
            ranks[idx] = mid
        i = j + 1
    return ranks


def naive_kruskal_h(groups):
    """H with tie correction, computed by sorting, ranking, and looping."""
    pooled = [v for g in groups for v in g]
    n = len(pooled)
    ranks = naive_rank_mid(pooled)
    grand = (n + 1) / 2.0
    h = 0.0
    offset = 0
    for g in groups:
        size = len(g)
        mean_rank = sum(ranks[offset:offset + size]) / size
        h += size * (mean_rank - grand) ** 2
        offset += size
    h *= 12.0 / (n * (n + 1))
    tie_sum = 0.0
    for v in set(pooled):
        t = pooled.count(v)
        tie_sum += t ** 3 - t
    correction = 1.0 - tie_sum / (n ** 3 - n)
    if correction <= 0.0:
        return 0.0
    return h / correction


def brute_force_pop_index(user_items, item_user_sets, n_users, user):
    """Check every p from 100 down to 0 directly from the raw entry sets."""
    n = len(user_items)
    for p in range(100, -1, -1):
        covered = 0
        for item in user_items:
            others = len(item_user_sets[item] - {user})
            coverage = 100.0 * others / (n_users - 1) if n_users > 1 else 0.0
            if coverage >= p:
                covered += 1
        if 100 * covered >= p * n:
            return p
    return 0


def naive_als_loss(user_factors, item_factors, dense, alpha, reg):
    """Double loop over every user-item pair of a dense strength matrix."""
    n_users, n_items = dense.shape
    total = 0.0
    for u in range(n_users):
        for i in range(n_items):
            r = dense[u, i]
            pref = 1.0 if r > 0 else 0.0
            conf = 1.0 + alpha * r
            score = float(np.dot(user_factors[u], item_factors[i]))
            total += conf * (pref - score) ** 2
    total += reg * (float(np.sum(user_factors ** 2)) + float(np.sum(item_factors ** 2)))
    return total


def full_sort_top_n(scores, n, exclude=frozenset()):
    """Sort every item by (-score, index) and take the first n allowed."""
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    out = [i for i in order if i not in exclude]
    return out[:n]


def naive_held_out_ranks(scores, held, n):
    """Sorted 1-based positions within the top n (descending score, ties by
    ascending index) of the held-out items, each counted against every
    score: #(scores > s_h) + #(scores[:h] == s_h) + 1."""
    held_scores = scores[held][:, None]
    ranks = np.count_nonzero(scores > held_scores, axis=1) + 1
    tied = np.count_nonzero(scores == held_scores, axis=1) > 1
    for j in np.flatnonzero(tied):
        ranks[j] += np.count_nonzero(scores[:held[j]] == held_scores[j])
    return np.sort(ranks[ranks <= n]).tolist()


def ks_distance_from_uniform(p_values):
    """Kolmogorov-Smirnov distance between sorted p-values and U(0,1)."""
    sorted_p = np.sort(np.asarray(p_values))
    n = len(sorted_p)
    grid_hi = np.arange(1, n + 1) / n
    grid_lo = np.arange(0, n) / n
    return float(max(np.max(np.abs(sorted_p - grid_hi)),
                     np.max(np.abs(sorted_p - grid_lo))))


def naive_fit_one_bag(binned, y, specs, config, bag):
    """One explainer bag boosted on its own, one numpy call per step: the
    per-bag loop the batched fit must match float for float."""
    from recaudit.util import derive_seed

    n = y.shape[0]
    rng = np.random.default_rng(derive_seed(config.seed, "bag", bag))
    boot = rng.integers(0, n, size=n)
    in_bag = binned[boot]
    y_in = y[boot]
    oob_mask = np.ones(n, dtype=bool)
    oob_mask[np.unique(boot)] = False
    oob_rows = np.flatnonzero(oob_mask)
    have_oob = oob_rows.size > 0

    intercept = float(np.mean(y_in))
    shapes = [np.zeros(spec.n_bins) for spec in specs]
    residual = y_in - intercept
    if have_oob:
        oob_binned = binned[oob_rows]
        oob_pred = np.full(oob_rows.size, intercept)
        y_oob = y[oob_rows]

    best_loss = np.inf
    stale = 0
    lr = config.learning_rate
    inbag_losses = []
    for _ in range(config.max_rounds):
        for j, spec in enumerate(specs):
            bins = in_bag[:, j]
            sums = np.bincount(bins, weights=residual, minlength=spec.n_bins)
            counts = np.bincount(bins, minlength=spec.n_bins)
            step = np.zeros(spec.n_bins)
            seen = counts > 0
            step[seen] = lr * sums[seen] / counts[seen]
            shapes[j] += step
            residual -= step[bins]
            if have_oob:
                oob_pred += step[oob_binned[:, j]]
        inbag_losses.append(float(np.mean(residual ** 2)))
        held_loss = float(np.mean((y_oob - oob_pred) ** 2)) if have_oob \
            else inbag_losses[-1]
        if held_loss < best_loss - 1e-15:
            best_loss = held_loss
            stale = 0
        else:
            stale += 1
            if stale >= config.patience:
                break
    return intercept, shapes, inbag_losses


# ---- explainer inputs from one feature dict per user --------------------------
# The report once fed the all-features explainer this way: one dict per tested
# user, specs built from the dict values, and every cell binned on its own.

def naive_ebm_feature_rows(attributes, user_ids, assignments, users):
    """Feature dicts for the all-features explainer run, one per user index
    in ``users``; user i has record ``attributes[i]`` and id ``user_ids[i]``."""
    countries = [assignments[name] for name in ("country_prevalence", "country_gdp")
                 if name in assignments]
    rows = []
    for i in users.tolist():
        attr = attributes[i]
        row = {
            "age": attr.age,
            "gender": attr.gender,
            "usage": attr.usage,
            "pop_index": attr.pop_index,
            "last_digit": user_ids[i][-1].lower(),
        }
        for assignment in countries:
            label = assignment.labels[assignment.codes[i]]
            row[assignment.name] = None if label == NA else label
        rows.append(row)
    return rows


class NaiveSpec:
    """The oracle's binning of one feature: interior ``edges`` (numeric)
    or ``categories`` (categorical), then the missing bin."""

    def __init__(self, name, edges=None, categories=None):
        self.name, self.edges, self.categories = name, edges, categories

    @property
    def missing_bin(self):
        return len(self.edges) + 1 if self.edges is not None else len(self.categories)

    @property
    def labels(self):
        """The bin names: ``(lo, hi]`` per interval (``(lo, inf)`` last)
        or the categories as text, then ``missing``."""
        if self.edges is None:
            return [str(c) for c in self.categories] + ["missing"]
        names = []
        lo = "-inf"
        for e in self.edges:
            names.append(f"({lo}, {e:g}]")
            lo = f"{e:g}"
        return names + [f"({lo}, inf)", "missing"]


def naive_bin_numeric(name, values, max_bins=64):
    """Quantile-based interior edges over the non-missing values."""
    present = np.array([float(v) for v in values if v is not None and not
                        (isinstance(v, float) and np.isnan(v))])
    if present.size == 0:
        return NaiveSpec(name, edges=np.empty(0))
    qs = np.arange(1, max_bins) / max_bins
    edges = np.unique(np.quantile(present, qs))
    edges = edges[edges < present.max()]
    return NaiveSpec(name, edges=edges)


def naive_categorical_spec(name, values):
    cats = sorted({v for v in values if v is not None}, key=str)
    return NaiveSpec(name, categories=cats)


def naive_ebm_specs(rows, max_bins):
    specs = []
    names = list(rows[0].keys())
    numeric = {"age", "usage", "pop_index"}
    for name in names:
        values = [row[name] for row in rows]
        if all(v is None for v in values):
            continue
        if name in numeric:
            specs.append(naive_bin_numeric(name, values, max_bins=max_bins))
        else:
            specs.append(naive_categorical_spec(name, values))
    return specs


def naive_bin_of(spec, value):
    """The bin of one value under an oracle spec: the missing bin for None,
    NaN and a category the spec does not list."""
    if value is None:
        return spec.missing_bin
    if spec.edges is not None:
        v = float(value)
        if np.isnan(v):
            return spec.missing_bin
        return int(np.searchsorted(spec.edges, v, side="left"))
    return {c: i for i, c in enumerate(spec.categories)}.get(value, spec.missing_bin)


def naive_bin_matrix(rows, specs):
    """The (rows, features) bin of every cell of the row dicts, one cell at a
    time; a feature a row lacks is missing."""
    binned = np.empty((len(rows), len(specs)), dtype=np.int64)
    for i, row in enumerate(rows):
        for j, spec in enumerate(specs):
            binned[i, j] = naive_bin_of(spec, row.get(spec.name))
    return binned


# ---- numeric grouping schemes over lists with None holes ---------------------
# The numeric bucket functions as they were when every scheme read a list of
# values with None for a missing one, kept to check that the float64 columns
# (NaN where missing) give the same labels and codes.

log = logging.getLogger(__name__)


def nan_column(values):
    """A float64 attribute column, NaN where a value is None."""
    return np.array([np.nan if v is None else v for v in values], dtype=np.float64)


def naive_numeric(values: Sequence) -> tuple[np.ndarray, np.ndarray]:
    """The mask of non-missing values, and the values as float64 (0 where
    missing)."""
    present = np.fromiter((v is not None for v in values), dtype=bool,
                          count=len(values))
    arr = np.fromiter((0.0 if v is None else v for v in values),
                      dtype=np.float64, count=len(values))
    return present, arr


def naive_assignment(name: str, per_user: Sequence[str],
                     ordered: Sequence[str]) -> GroupAssignment:
    """The assignment giving user i the label ``per_user[i]``, one of
    ``ordered`` or N/A: labels of ``ordered`` with a member, in that order,
    then N/A if anyone has it."""
    labels = naive_labels(dict(enumerate(per_user)), ordered)
    return GroupAssignment(name, labels, np.array([labels.index(label) for label in per_user],
                                                  dtype=np.intp))


def naive_per_user(labels, present, idx) -> list[str]:
    """User i's label: ``labels[idx[i]]`` where ``present[i]``, else N/A."""
    return [labels[i] if p else NA_LABEL for p, i in zip(present.tolist(), idx.tolist())]


def naive_fmt_value(v) -> str:
    """A value as a label: a whole number without its ".0"."""
    v = float(v)
    return str(int(v)) if v.is_integer() else str(v)


def naive_bucket_from_brackets(name: str, values: Sequence[Optional[int]],
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
    present, arr = naive_numeric(values)
    idx = np.maximum(np.searchsorted(bounds, arr, side="right") - 1, 0)
    return naive_assignment(name, naive_per_user(labels, present, idx), labels)


def naive_bucket_equal_range(name: str, values: Sequence[Optional[int]],
                       width: int, anchor: Optional[int] = None) -> GroupAssignment:
    """Uniform-width bins [lo, lo+width) anchored at ``anchor`` (default:
    the minimum observed value).  Intended for integer attributes like age.
    """
    if width <= 0:
        raise ValueError("bin width must be positive")
    present = [v for v in values if v is not None]
    if not present:
        return naive_assignment(name, [NA_LABEL] * len(values), [])
    lo0 = min(present) if anchor is None else anchor
    n_bins = (max(present) - lo0) // width + 1
    labels = [f"{lo0 + b * width}-{lo0 + (b + 1) * width - 1}" for b in range(n_bins)]
    mask, arr = naive_numeric(values)
    idx = np.clip((arr - lo0) // width, 0, n_bins - 1).astype(np.intp)
    return naive_assignment(name, naive_per_user(labels, mask, idx), labels)


def naive_bucket_equal_count(name: str, values: Sequence[Optional[float]],
                       k: int) -> GroupAssignment:
    """Roughly equal-population bins of a numeric attribute.

    Boundaries sit at ranks i*n/k; a value is never split across bins
    (whole tie classes are pushed into the lower bin), so sizes are only
    approximately equal.  If fewer than k distinct values exist the result
    has fewer bins, with a warning.
    """
    if k < 2:
        raise ValueError("equal-count bucketing needs k >= 2")
    present, arr = naive_numeric(values)
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
        labels.append(f"{naive_fmt_value(lo)}-{naive_fmt_value(hi)}" if lo != hi
                      else naive_fmt_value(lo))
    idx = np.minimum(np.searchsorted(upper_values, arr, side="left"), len(labels) - 1)
    return naive_assignment(name, naive_per_user(labels, present, idx), labels)


def naive_bucket_integer_values(name: str, values: Sequence[Optional[int]],
                          merge_at: int = 13) -> GroupAssignment:
    """One group per raw integer value, merging everything >= merge_at
    into a single top group (pop-index presentation).
    """
    top = f"{merge_at}+"
    per_user = [NA_LABEL if v is None else top if v >= merge_at else str(int(v))
                for v in values]
    seen = sorted({int(v) for v in values if v is not None and v < merge_at})
    return naive_assignment(name, per_user, [str(v) for v in seen] + [top])


# ---- per-group numbers from user_id -> label dicts ---------------------------
# The report once computed every per-group number this way: one scan of a
# user_id -> label dict per label.  The dicts are filled in dense user order,
# so each label's members come out in that order.

NA = "N/A"


def naive_labels(by_user, ordered):
    """The presentation labels: those of ``ordered`` with a member, then N/A
    if anyone has it."""
    present = set(by_user.values())
    labels = [lab for lab in ordered if lab in present and lab != NA]
    if NA in present:
        labels.append(NA)
    return labels


def naive_members(by_user, label):
    return [uid for uid, lab in by_user.items() if lab == label]


def naive_per_user_mean(rows, metric):
    """Mean of one metric across the folds each user was tested in, summed
    in row order."""
    totals = {}
    counts = {}
    for row in rows:
        value = getattr(row, metric)
        totals[row.user_id] = totals.get(row.user_id, 0.0) + value
        counts[row.user_id] = counts.get(row.user_id, 0) + 1
    return {uid: totals[uid] / counts[uid] for uid in totals}


def naive_group_numbers(by_user, labels, means_by_metric):
    """Per label: user count, tested count, and per metric the mean and
    standard error over the tested members (absent when none is tested)."""
    out = {}
    tested_ids = means_by_metric["ndcg"]
    for label in labels:
        members = naive_members(by_user, label)
        entry = {"size": len(members),
                 "tested": sum(1 for uid in members if uid in tested_ids),
                 "mean": {}, "se": {}}
        for metric, means in means_by_metric.items():
            values = [means[uid] for uid in members if uid in means]
            if values:
                arr = np.asarray(values)
                entry["mean"][metric] = float(arr.mean())
                entry["se"][metric] = (float(arr.std(ddof=1) / math.sqrt(len(arr)))
                                       if len(arr) > 1 else 0.0)
        out[label] = entry
    return out


def naive_kw_groups(by_user, labels, means):
    """The value lists a Kruskal-Wallis test compares: each non-N/A label's
    tested members, empty ones left out."""
    groups = []
    for label in labels:
        if label == NA:
            continue
        values = [means[uid] for uid in naive_members(by_user, label) if uid in means]
        if values:
            groups.append(values)
    return groups


def naive_crosstab_counts(row_of, row_labels, col_of, col_labels):
    """Per column label: the users with a non-N/A row label, and their count
    per row label."""
    out = {}
    for col in col_labels:
        members = [uid for uid in naive_members(col_of, col) if row_of[uid] != NA]
        counts = {row: 0 for row in row_labels if row != NA}
        for uid in members:
            counts[row_of[uid]] += 1
        out[col] = (len(members), counts)
    return out


def naive_balanced_sample(by_user, labels, eligible, rng_for):
    """min non-N/A group size users per group, each group's eligible members
    sorted by id text before ``rng_for(label)`` picks them."""
    groups = {label: sorted((uid for uid in naive_members(by_user, label)
                             if uid in eligible), key=str)
              for label in labels if label != NA}
    groups = {label: members for label, members in groups.items() if members}
    if not groups:
        return None
    m = min(len(members) for members in groups.values())
    sampled = []
    for label, members in groups.items():
        picks = rng_for(label).choice(len(members), size=m, replace=False)
        sampled.extend(members[i] for i in sorted(picks))
    return sampled


def naive_parse_lfm_rows(lines):
    """LFM play lines as a list of (user, artist, plays) tuples and the
    skipped-line count."""
    rows = []
    skipped = 0
    for line in lines:
        fields = line.rstrip("\n").rstrip("\r").split("\t")
        if len(fields) != 4:
            skipped += 1
            continue
        user, mbid, name, plays_text = fields
        artist = mbid if mbid else name
        try:
            plays = int(plays_text)
            float(plays)
        except (ValueError, OverflowError):  # not an integer, or too large for a float
            plays = 0
        if not user or not artist or plays <= 0:
            skipped += 1
            continue
        rows.append((user, artist, plays))
    return rows, skipped


def naive_parse_ml1m_rows(lines):
    """ML1M rating lines as (user, movie, rating) tuples, the ids as the text
    of their integer values and the rating an integer, and the skipped-line
    count; blank lines are not counted."""
    rows = []
    skipped = 0
    for line in lines:
        line = line.rstrip("\n").rstrip("\r")
        if not line:
            continue
        fields = line.split("::")
        if len(fields) != 4:
            skipped += 1
            continue
        try:
            user, movie, rating = str(int(fields[0])), str(int(fields[1])), int(fields[2])
        except ValueError:
            skipped += 1
            continue
        if not 1 <= rating <= 5:
            skipped += 1
            continue
        rows.append((user, movie, rating))
    return rows, skipped


def naive_parse_lfm_profiles(lines):
    """LFM profile lines as user id -> (gender, age, country), the first
    line of each id, with the gender "NA" where it is neither m nor f."""
    out = {}
    for lineno, line in enumerate(lines, 1):
        line = line.rstrip("\n").rstrip("\r")
        if lineno == 1:
            line = line.removeprefix("\ufeff")
        if not line:
            continue
        fields = line.split("\t")
        if len(fields) < 4:
            fields = fields + [""] * (4 - len(fields))
        user, gender, age_text, country = fields[:4]
        if not user or user in out:
            continue
        gender = gender.strip().lower()
        if gender not in ("m", "f"):
            gender = "NA"
        try:
            age = int(age_text.strip())
        except ValueError:
            age = None
        if age is not None and not 1 <= age <= 120:
            age = None
        out[user] = (gender, age, country.strip() or None)
    return out


def naive_parse_ml1m_users(lines):
    """ML1M users.dat lines (decoded as latin-1) as user id -> (gender, age,
    country), the id the text of its integer value and the first line of
    each id kept, with the gender "NA" where it is neither M nor F and no
    country."""
    out = {}
    for lineno, line in enumerate(lines, 1):
        line = line.rstrip("\n").rstrip("\r")
        if lineno == 1:
            line = line.removeprefix("\xef\xbb\xbf")  # a UTF-8 BOM read as latin-1
        if not line:
            continue
        fields = line.split("::")
        if len(fields) != 5:
            continue
        user_text, gender, age_text, _occupation, _zip = fields
        try:
            user, age = str(int(user_text)), int(age_text)
        except ValueError:
            continue
        if user in out:
            continue
        gender = gender.strip().upper()
        out[user] = ({"M": "m", "F": "f"}.get(gender, "NA"),
                     age if 1 <= age <= 120 else None, None)
    return out


def from_rows(rows) -> Triples:
    """Intern (user_id, item_id, strength) rows, each side's ids coded 0, 1, ...
    in first-seen order; every row is kept, in order."""
    user_codes: dict = {}
    item_codes: dict = {}
    users, items, strengths = array("i"), array("i"), array("d")
    for user_id, item_id, strength in rows:
        users.append(user_codes.setdefault(user_id, len(user_codes)))
        items.append(item_codes.setdefault(item_id, len(item_codes)))
        strengths.append(strength)
    return Triples(np.frombuffer(users, dtype=np.int32), np.frombuffer(items, dtype=np.int32),
                   np.frombuffer(strengths, dtype=np.float64),
                   list(user_codes), list(item_codes))


def naive_cold_start(rows, max_items):
    """Drop the rows of every user with max_items or fewer distinct items
    (counted over all its rows); also returns the number of users dropped."""
    distinct = {}
    for user, item, _ in rows:
        distinct.setdefault(user, set()).add(item)
    removed = {user for user, items in distinct.items() if len(items) <= max_items}
    return [row for row in rows if row[0] not in removed], len(removed)


def naive_csr(rows):
    """CSR arrays and ids of (user, item, strength) rows: rows with a
    strength <= 0 are dropped, ids numbered in first-seen order among the
    rest, duplicate cells summed in row order.  Returns (indptr, indices,
    data, user_ids, item_ids)."""
    user_index, item_index = {}, {}
    cells = {}
    for user, item, strength in rows:
        strength = float(strength)
        if strength <= 0.0:
            continue
        u = user_index.setdefault(user, len(user_index))
        i = item_index.setdefault(item, len(item_index))
        cells[(u, i)] = cells.get((u, i), 0.0) + strength
    indptr = [0] * (len(user_index) + 1)
    indices, data = [], []
    for (u, i) in sorted(cells):
        indptr[u + 1] += 1
        indices.append(i)
        data.append(cells[(u, i)])
    for u in range(len(user_index)):
        indptr[u + 1] += indptr[u]
    return (np.array(indptr, dtype=np.int64), np.array(indices, dtype=np.int32),
            np.array(data, dtype=np.float64), tuple(user_index), tuple(item_index))


def naive_sweep(this, other, indptr, indices, data, reg, alpha, rows=None):
    """Row-by-row ALS half-sweep in index order: each row's k x k normal
    equations formed from its own entries and solved on their own.  With
    ``rows``, only those rows (each once) are solved and checked.  Raises
    ``NumericalError`` like the package's sweep."""
    k = other.shape[1]
    gram = other.T @ other + reg * np.eye(k)
    solved = range(this.shape[0]) if rows is None else sorted(set(int(r) for r in rows))
    for row in solved:
        start, end = indptr[row], indptr[row + 1]
        if start == end:
            this[row, :] = 0.0
            continue
        cols = indices[start:end]
        conf_minus_one = alpha * data[start:end]
        m = other[cols, :]
        a = gram + m.T @ (conf_minus_one[:, None] * m)
        b = m.T @ (1.0 + conf_minus_one)
        try:
            this[row, :] = np.linalg.solve(a, b)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"singular normal equations at row {row}") from exc
    if not all(np.isfinite(this[row]).all() for row in solved):
        raise NumericalError("non-finite factors after half-sweep")


def naive_generate_planted(out_dir, n_users=2000, n_items=500, seed=0,
                           min_items=30, max_items=70, zipf_exponent=1.0):
    """The planted-bias corpus written one row at a time from numpy scalars,
    with the same per-user draws in the same order as
    ``synthetic.generate_planted``."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(derive_seed(seed, "planted"))

    max_items = min(max_items, n_items)
    min_items = min(min_items, max_items)

    weights = 1.0 / np.arange(1, n_items + 1) ** zipf_exponent
    weights /= weights.sum()

    user_ids = np.arange(1, n_users + 1)
    biased_mask = np.zeros(n_users, dtype=bool)
    biased_mask[rng.permutation(n_users)[: n_users // 2]] = True

    ages = rng.integers(18, 61, size=n_users)

    with open(out_dir / "interactions.tsv", "w", encoding="utf-8") as ifh, \
            open(out_dir / "profiles.tsv", "w", encoding="utf-8") as pfh:
        for idx, uid in enumerate(user_ids):
            n_owned = int(rng.integers(min_items, max_items + 1))
            if biased_mask[idx]:
                items = rng.choice(n_items, size=n_owned, replace=False, p=weights)
            else:
                items = rng.choice(n_items, size=n_owned, replace=False)
            plays = 1 + rng.poisson(3.0, size=n_owned)
            for item, play in zip(items, plays):
                ifh.write(f"{uid}\titem{item:05d}\tItem {item}\t{play}\n")
            gender = "m" if biased_mask[idx] else "f"
            pfh.write(f"{uid}\t{gender}\t{ages[idx]}\t\t\n")

    return PlantedTruth(
        biased_users=frozenset(str(u) for u in user_ids[biased_mask]),
        uniform_users=frozenset(str(u) for u in user_ids[~biased_mask]),
    )
