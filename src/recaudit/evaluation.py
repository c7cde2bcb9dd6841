"""Five-fold cross-validation protocol, per-user holdout splits, and the
three top-n ranking metrics (NDCG, MRR, RBP) under binary relevance.

Fold membership and every per-user holdout are derived from the global
seed via stable hashing, so evaluation order and parallelism cannot
change the splits.

A fold is scored without building any recommendation list.  A user's
list is every item ranked by descending score, ties broken by ascending
item index, with the training items excluded and the length capped at
the depth (``als.recommend``'s rule).  Under that order the 1-based
position of held-out item h is

    #(items scoring above s_h) + #(items before h scoring exactly s_h) + 1,

so the held-out items' positions come from counting, not sorting, and the
hits are the positions within the list length.  NDCG, MRR and RBP are then
accumulated over the hit positions in rank order, by the same helpers
``ndcg``, ``mrr`` and ``rbp`` use, so both paths give identical floats.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass, field, replace
from math import floor, log2
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import als
from .errors import ConfigError, DataError, NumericalError
from .interactions import IdMap, InteractionMatrix, UserId
from .util import derive_seed, fmt_float

log = logging.getLogger(__name__)

SCHEME_SAMPLE = "sample"
SCHEME_PARTITION = "partition"

DEFAULT_HOLDOUT_FRACTION = 0.2
DEFAULT_DEPTH = 1000
DEFAULT_RBP_PERSISTENCE = 0.85
METRICS = ("ndcg", "mrr", "rbp")


@dataclass
class Fold:
    index: int
    test_users: list[int]
    # user index -> held-out item indices; filled by assign_holdouts
    holdout: dict[int, np.ndarray] = field(default_factory=dict)


@dataclass
class FoldPlan:
    folds: list[Fold]
    scheme: str
    seed: int


@dataclass(frozen=True)
class MetricRow:
    user_id: UserId
    fold: int
    ndcg: float
    mrr: float
    rbp: float


@dataclass
class MetricFrame:
    """Per-user evaluation results, one row per (test user, fold)."""

    rows: list[MetricRow] = field(default_factory=list)

    def user_means(self, umap: IdMap) -> dict[str, np.ndarray]:
        """Per metric, each user's mean across the folds they were tested
        in, as an ``(n_users,)`` array in dense user order; NaN where a user
        was not tested.  A user's sum runs in row order."""
        users = np.fromiter((umap.index[row.user_id] for row in self.rows),
                            dtype=np.intp, count=len(self.rows))
        counts = np.bincount(users, minlength=len(umap))
        tested = counts > 0
        means = {}
        for metric in METRICS:
            values = np.fromiter((getattr(row, metric) for row in self.rows),
                                 dtype=np.float64, count=len(self.rows))
            sums = np.bincount(users, weights=values, minlength=len(umap))
            means[metric] = np.full(len(umap), np.nan)
            means[metric][tested] = sums[tested] / counts[tested]
        return means

    def to_csv(self, path: str | Path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["user_id", "fold", "ndcg", "mrr", "rbp"])
            for row in self.rows:
                writer.writerow([str(row.user_id), row.fold, fmt_float(row.ndcg),
                                 fmt_float(row.mrr), fmt_float(row.rbp)])

    @classmethod
    def from_csv(cls, path: str | Path) -> "MetricFrame":
        """Read a per-user metrics CSV.  A malformed row, a metric outside
        [0, 1] or a second row for one (user, fold) raises DataError naming
        the file and line."""
        frame = cls()
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header != ["user_id", "fold", "ndcg", "mrr", "rbp"]:
                raise ConfigError(f"unexpected metrics CSV header in {path}")
            seen: set[tuple[str, int]] = set()
            for rec in reader:
                where = f"{path} line {reader.line_num}"
                try:
                    user_id, fold, ndcg, mrr, rbp = rec
                    row = MetricRow(user_id, int(fold), float(ndcg), float(mrr),
                                    float(rbp))
                except ValueError as exc:
                    raise DataError(f"malformed metrics row in {where}: {exc}") from exc
                if not all(0.0 <= v <= 1.0 for v in (row.ndcg, row.mrr, row.rbp)):
                    raise DataError(f"metric value outside [0, 1] in {where}")
                if (user_id, row.fold) in seen:
                    raise DataError(f"second row for user {user_id!r} in fold "
                                    f"{row.fold} in {where}")
                seen.add((user_id, row.fold))
                frame.rows.append(row)
        return frame

    def with_dataset_ids(self, umap: IdMap) -> "MetricFrame":
        """The frame with each user id replaced by the dataset id it spells.

        A CSV holds ids as text, while ML1M ids are integers; an id that
        names no user of the dataset raises DataError.
        """
        by_text = {str(uid): uid for uid in umap.ids}
        rows = []
        for row in self.rows:
            uid = by_text.get(str(row.user_id))
            if uid is None:
                raise DataError(f"metrics user id {row.user_id!r} is not a user "
                                f"of the dataset")
            rows.append(replace(row, user_id=uid))
        return MetricFrame(rows)


def make_folds(users: Sequence[int], k: int, scheme: str, seed: int,
               sample_size: Optional[int] = None) -> FoldPlan:
    """Assign test users to k folds by seeded shuffle.

    PARTITION splits all users into k disjoint chunks whose sizes differ by
    at most one.  SAMPLE takes the first k * sample_size shuffled users and
    chunks them into k disjoint folds of exactly sample_size users.
    """
    n = len(users)
    if scheme == SCHEME_PARTITION:
        if k > n:
            raise ConfigError(f"cannot partition {n} users into {k} folds")
    elif scheme == SCHEME_SAMPLE:
        if sample_size is None or sample_size <= 0:
            raise ConfigError("sample scheme requires a positive sample_size")
        if k * sample_size > n:
            raise ConfigError(
                f"sample scheme needs {k * sample_size} users, have {n}")
    else:
        raise ConfigError(f"unknown fold scheme {scheme!r}")

    rng = np.random.default_rng(derive_seed(seed, "folds"))
    shuffled = np.asarray(users, dtype=np.int64)[rng.permutation(n)]
    if scheme == SCHEME_PARTITION:
        chunks = np.array_split(shuffled, k)
    else:
        chunks = np.split(shuffled[: k * sample_size], k)
    folds = [Fold(index=i, test_users=sorted(int(u) for u in chunk))
             for i, chunk in enumerate(chunks)]
    return FoldPlan(folds=folds, scheme=scheme, seed=seed)


def holdout_split(user_items: np.ndarray, fraction: float,
                  seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Split one user's items into (train, held-out) by seeded shuffle.

    The held-out size is max(1, floor(fraction * n)); callers must ensure
    n >= 2 so both sides are non-empty.
    """
    n = len(user_items)
    if n < 2:
        raise ValueError("holdout_split needs at least 2 items")
    n_held = max(1, floor(fraction * n))
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    held = user_items[perm[:n_held]]
    train = user_items[perm[n_held:]]
    return train, held


def assign_holdouts(plan: FoldPlan, matrix: InteractionMatrix,
                    user_ids: Sequence, fraction: float = DEFAULT_HOLDOUT_FRACTION) -> FoldPlan:
    """Fill each fold's per-user held-out item sets.

    The per-user RNG is derived from (plan seed, fold index, original user
    id).  Users with fewer than 2 items cannot be both trained and tested;
    they are dropped from the fold with a warning.
    """
    for fold in plan.folds:
        kept: list[int] = []
        for u in fold.test_users:
            items = matrix.user_items(u)
            if len(items) < 2:
                log.warning("user %s has %d item(s); skipped in fold %d",
                            user_ids[u], len(items), fold.index)
                continue
            seed = derive_seed(plan.seed, fold.index, user_ids[u])
            _, held = holdout_split(items, fraction, seed)
            fold.holdout[u] = np.sort(held)
            kept.append(u)
        fold.test_users = kept
    return plan


def fold_training_matrix(matrix: InteractionMatrix, fold: Fold) -> InteractionMatrix:
    """Training matrix for one fold: everything except held-out pairs.

    Entries are sorted by row, then item, so their keys ``row * n_items +
    item`` increase, and one binary search over them finds every held-out
    pair at once.
    """
    users = np.fromiter(fold.holdout, dtype=np.int64, count=len(fold.holdout))
    held = [np.asarray(h, dtype=np.int64) for h in fold.holdout.values()]
    held_keys = (np.repeat(users, [h.shape[0] for h in held]) * matrix.n_items
                 + np.concatenate(held or [np.empty(0, dtype=np.int64)]))
    entry_keys = (matrix.user_index_of_entries().astype(np.int64, copy=False)
                  * matrix.n_items + matrix.indices)
    pos = np.searchsorted(entry_keys, held_keys)
    found = pos < matrix.nnz
    found[found] = entry_keys[pos[found]] == held_keys[found]
    del entry_keys  # before drop_entries allocates its own copies
    drop = np.zeros(matrix.nnz, dtype=bool)
    drop[pos[found]] = True
    return matrix.drop_entries(drop)


def _hit_positions(ranked: Sequence, relevant) -> list[int]:
    """1-based positions in ``ranked`` of the items in ``relevant``."""
    return [pos for pos, item in enumerate(ranked, start=1) if item in relevant]


def _ndcg_at(hits: Sequence[int], n_relevant: int, n_ranked: int) -> float:
    if not n_relevant:
        return 0.0
    dcg = 0.0
    for pos in hits:
        dcg += 1.0 / log2(pos + 1)
    # accumulated in a loop, not with sum(): since Python 3.12 sum() over
    # floats is compensated and would round differently
    idcg = 0.0
    for pos in range(1, min(n_relevant, n_ranked) + 1):
        idcg += 1.0 / log2(pos + 1)
    return dcg / idcg if idcg > 0 else 0.0


def _mrr_at(hits: Sequence[int]) -> float:
    return 1.0 / hits[0] if hits else 0.0


def _rbp_at(hits: Sequence[int], persistence: float) -> float:
    if not 0.0 < persistence < 1.0:
        raise ConfigError("rbp persistence must lie in (0, 1)")
    total = 0.0
    for pos in hits:
        total += persistence ** (pos - 1)
    # rounding can lift a long run of top hits just past 1
    return min(1.0, (1.0 - persistence) * total)


def ndcg(ranked: Sequence[int], relevant: set) -> float:
    """Binary-gain normalized discounted cumulative gain.

    DCG sums 1/log2(rank + 1) over relevant items at their 1-based ranks;
    the ideal DCG places all relevant items first.  0 when nothing is
    relevant.
    """
    return _ndcg_at(_hit_positions(ranked, relevant), len(relevant), len(ranked))


def mrr(ranked: Sequence[int], relevant: set) -> float:
    """Reciprocal rank of the first relevant item; 0 if none present."""
    return _mrr_at(_hit_positions(ranked, relevant))


def rbp(ranked: Sequence[int], relevant: set,
        persistence: float = DEFAULT_RBP_PERSISTENCE) -> float:
    """Rank-biased precision under a geometric patience model."""
    return _rbp_at(_hit_positions(ranked, relevant), persistence)


def _held_out_ranks(scores: np.ndarray, held: np.ndarray, n: int) -> list[int]:
    """Sorted 1-based positions of the held-out items within the top n of
    ``scores`` ranked by descending score, ties by ascending item index.

    The positions are counted, not sorted (see the module docstring).
    Exact ties are rare, so the count of lower-indexed equal scores is taken
    only for held-out items whose score some other item shares.
    """
    held_scores = scores[held][:, None]
    ranks = np.count_nonzero(scores > held_scores, axis=1) + 1
    tied = np.count_nonzero(scores == held_scores, axis=1) > 1
    for j in np.flatnonzero(tied):
        ranks[j] += np.count_nonzero(scores[:held[j]] == held_scores[j])
    return np.sort(ranks[ranks <= n]).tolist()


def evaluate_fold(model: als.AlsModel, fold: Fold, matrix: InteractionMatrix,
                  user_ids: Sequence, n: int = DEFAULT_DEPTH,
                  persistence: float = DEFAULT_RBP_PERSISTENCE,
                  filter_train: bool = True) -> list[MetricRow]:
    """Metrics for every test user of one fold, in user-index order.

    ``matrix`` is the full cleaned matrix (used for each user's training
    items); the model must have been fit on this fold's training matrix.
    By default a user's training items are excluded from their
    recommendation list.  Each user's scores and list length are those of
    ``als.recommend``; the held-out items' positions in that list are
    counted, not sorted (see the module docstring).  A test user whose
    factor row is not finite raises ``NumericalError``: NaN scores would
    rank every held-out item first.
    """
    finite = np.isfinite(model.user_factors[fold.test_users]).all(axis=1)
    if not finite.all():
        u = fold.test_users[int(np.argmin(finite))]
        raise NumericalError(
            f"fold {fold.index}: non-finite factors for test user {user_ids[u]}")
    rows = []
    for u in fold.test_users:
        held = fold.holdout[u]
        scores = model.item_factors @ model.user_factors[u]
        if filter_train:
            # exclude the user's items other than the held-out ones
            kept = scores[held]
            scores[matrix.user_items(u)] = -np.inf
            scores[held] = kept
        # the list holds min(n, items left) entries, but every held-out item
        # outranks the excluded ones, so a cap of n alone gives the same hits
        # and the same ideal length
        hits = _held_out_ranks(scores, held, n)
        rows.append(MetricRow(user_ids[u], fold.index, _ndcg_at(hits, len(held), n),
                              _mrr_at(hits), _rbp_at(hits, persistence)))
    return rows
