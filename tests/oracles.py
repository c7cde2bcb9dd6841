"""Independent naive reference implementations used as test oracles.

Everything here is written the slow, obvious way (explicit loops, full
enumerations) and must stay independent of the package code it checks.
"""

from __future__ import annotations

import math

import numpy as np

from recaudit.errors import NumericalError


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
        except ValueError:
            plays = 0
        if not user or not artist or plays <= 0:
            skipped += 1
            continue
        rows.append((user, artist, plays))
    return rows, skipped


def naive_parse_ml1m_rows(lines):
    """ML1M rating lines as (user, movie, rating) integer tuples and the
    skipped-line count; blank lines are not counted."""
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
            user, movie, rating = int(fields[0]), int(fields[1]), int(fields[2])
        except ValueError:
            skipped += 1
            continue
        if not 1 <= rating <= 5:
            skipped += 1
            continue
        rows.append((user, movie, rating))
    return rows, skipped


def naive_cold_start(rows, attribute_ids, max_items):
    """Drop every user with max_items or fewer distinct items (counted over
    all its rows) from the rows and the attribute ids; also returns the
    number of users dropped."""
    distinct = {}
    for user, item, _ in rows:
        distinct.setdefault(user, set()).add(item)
    removed = {user for user, items in distinct.items() if len(items) <= max_items}
    return ([row for row in rows if row[0] not in removed],
            [uid for uid in attribute_ids if uid not in removed], len(removed))


def naive_csr(rows):
    """CSR arrays and id maps of (user, item, strength) rows: rows with a
    strength <= 0 are dropped, ids numbered in first-seen order among the
    rest, duplicate cells summed in row order.  Returns (indptr, indices,
    data, user_ids, user_index, item_ids, item_index)."""
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
    return (np.array(indptr, dtype=np.int64), np.array(indices, dtype=np.int64),
            np.array(data, dtype=np.float64), tuple(user_index), user_index,
            tuple(item_index), item_index)


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
