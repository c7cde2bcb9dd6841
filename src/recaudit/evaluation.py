"""Five-fold cross-validation protocol, per-user holdout splits, and the
three top-n ranking metrics (NDCG, MRR, RBP) under binary relevance.

Fold membership and every per-user holdout are derived from the global
seed via stable hashing, so evaluation order and parallelism cannot
change the splits.

A fold is scored without building any recommendation list.  A user's
list is every item ranked by descending score, ties broken by ascending
item index, with the training items excluded and the length capped at
the depth, as ``tests/oracles.py::full_sort_top_n`` builds it.  Under that
order the 1-based position of held-out item h is

    #(items scoring above s_h) + #(items before h scoring exactly s_h) + 1,

so the held-out items' positions come from counting, not sorting, and the
hits are the positions within the list length n.  The counts need not
run over every item: one ``np.partition`` puts the n-th largest score t at
``kth = max(n_items - n, 0)`` and every score above it after it.  A held-out
item scoring below t has n items above it and is no hit; for any other,
every item scoring above it lies among those n - 1 top scores.  Only a
held-out score that some other item shares counts the lower-indexed equal
scores over the whole vector.  NDCG, MRR and RBP are then accumulated over
the hit positions in rank order by ``_ndcg_at``, ``_mrr_at`` and ``_rbp_at``,
which the tests check against the naive metric oracles.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass, field
from math import floor, log2
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import als
from .errors import ConfigError, DataError, NumericalError
from .interactions import InteractionMatrix
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
    """One fold's test users and, once ``assign_holdouts`` has run, their
    held-out entries: positions in the full matrix's entries, grouped by
    test user in ``test_users`` order and ascending within a user.  Test
    user j's are ``held[held_ptr[j]:held_ptr[j + 1]]``."""

    index: int
    test_users: list[int]
    held: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    held_ptr: np.ndarray = field(default_factory=lambda: np.zeros(1, dtype=np.int64))


@dataclass
class FoldPlan:
    folds: list[Fold]
    seed: int


@dataclass(frozen=True)
class MetricRow:
    user_id: str
    fold: int
    ndcg: float
    mrr: float
    rbp: float


@dataclass
class MetricFrame:
    """Per-user evaluation results, one row per (test user, fold)."""

    rows: list[MetricRow] = field(default_factory=list)

    def user_means(self, user_ids: Sequence) -> dict[str, np.ndarray]:
        """Per metric, each user's mean across the folds they were tested
        in, as an ``(n_users,)`` array in the order of ``user_ids`` (id
        texts, as a row's ``user_id``); NaN where a user was not tested.  A
        user's sum runs in row order, and a row naming no user raises
        DataError.
        """
        row_of = {uid: u for u, uid in enumerate(user_ids)}
        try:
            users = np.fromiter((row_of[row.user_id] for row in self.rows),
                                dtype=np.intp, count=len(self.rows))
        except KeyError as exc:
            raise DataError(f"metrics user id {exc.args[0]!r} is not a user "
                            f"of the dataset") from None
        counts = np.bincount(users, minlength=len(user_ids))
        tested = counts > 0
        means = {}
        for metric in METRICS:
            values = np.fromiter((getattr(row, metric) for row in self.rows),
                                 dtype=np.float64, count=len(self.rows))
            sums = np.bincount(users, weights=values, minlength=len(user_ids))
            means[metric] = np.full(len(user_ids), np.nan)
            means[metric][tested] = sums[tested] / counts[tested]
        return means

    def to_csv(self, path: str | Path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["user_id", "fold", "ndcg", "mrr", "rbp"])
            for row in self.rows:
                writer.writerow([row.user_id, row.fold, fmt_float(row.ndcg),
                                 fmt_float(row.mrr), fmt_float(row.rbp)])

    @classmethod
    def from_csv(cls, path: str | Path) -> "MetricFrame":
        """Read a per-user metrics CSV.  A malformed row, a metric outside
        [0, 1] or a second row for one (user, fold) raises DataError naming
        the file and line; a file that is not UTF-8 text, naming the file."""
        frame = cls()
        try:
            with open(path, newline="", encoding="utf-8-sig") as fh:
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
        except UnicodeDecodeError as exc:
            raise DataError(f"metrics CSV {path} is not UTF-8 text: {exc}") from exc
        return frame


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
    return FoldPlan(folds=folds, seed=seed)


def assign_holdouts(plan: FoldPlan, matrix: InteractionMatrix,
                    user_ids: Sequence, fraction: float = DEFAULT_HOLDOUT_FRACTION) -> FoldPlan:
    """Fill each fold's held-out entries (see ``Fold``).

    A test user of n items holds out ``max(1, floor(fraction * n))`` of
    them: the first entries of a permutation of their row, drawn from an
    RNG seeded by (plan seed, fold index, original user id).  Users with
    fewer than 2 items cannot be both trained and tested; they are dropped
    from the fold with a warning.
    """
    for fold in plan.folds:
        kept: list[int] = []
        held: list[np.ndarray] = []
        for u in fold.test_users:
            start, stop = int(matrix.indptr[u]), int(matrix.indptr[u + 1])
            n = stop - start
            if n < 2:
                log.warning("user %s has %d item(s); skipped in fold %d",
                            user_ids[u], n, fold.index)
                continue
            rng = np.random.default_rng(derive_seed(plan.seed, fold.index, user_ids[u]))
            held.append(start + np.sort(rng.permutation(n)[:max(1, floor(fraction * n))]))
            kept.append(u)
        fold.test_users = kept
        fold.held = np.concatenate(held) if held else np.empty(0, dtype=np.int64)
        fold.held_ptr = np.cumsum([0] + [len(h) for h in held], dtype=np.int64)
    return plan


def fold_training_matrix(matrix: InteractionMatrix, fold: Fold) -> InteractionMatrix:
    """Training matrix for one fold: everything except its held-out entries."""
    return matrix.drop_entries(fold.held)


def _ndcg_at(hits: Sequence[int], n_relevant: int, n_ranked: int) -> float:
    """Binary-gain NDCG of a list of ``n_ranked`` items with hits at the
    sorted 1-based positions ``hits``.  DCG sums 1/log2(pos + 1) over the
    hits; the ideal DCG places all relevant items first.  0 when nothing
    is relevant."""
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
    """Reciprocal rank of the first hit; 0 if there is none."""
    return 1.0 / hits[0] if hits else 0.0


def _rbp_at(hits: Sequence[int], persistence: float) -> float:
    """Rank-biased precision under a geometric patience model."""
    if not 0.0 < persistence < 1.0:
        raise ConfigError("rbp persistence must lie in (0, 1)")
    total = 0.0
    for pos in hits:
        total += persistence ** (pos - 1)
    # rounding can lift a long run of top hits just past 1
    return min(1.0, (1.0 - persistence) * total)


def _held_out_ranks(scores: np.ndarray, held: np.ndarray, n: int) -> list[int]:
    """Sorted 1-based positions of the held-out items within the top n of
    ``scores`` ranked by descending score, ties by ascending item index.

    The positions are counted, not sorted (see the module docstring), over
    the n - 1 scores that one partition puts above the n-th largest score t.
    A held-out score below t is no hit and is not counted.  Equal scores can
    straddle the partition only at t, so a held-out score equal to t, or
    shared within the top scores, counts its lower-indexed ties over the
    whole vector.  NaN sorts last but compares false, so with a NaN score
    every held-out item is counted over the whole vector.
    """
    if n < 1:
        return []
    kth = max(len(scores) - n, 0)
    part = np.partition(scores, kth)
    threshold, top = part[kth], part[kth + 1:]
    if np.isnan(part[-1]):
        threshold, top = -np.inf, scores
    held_scores = scores[held]
    ranks = []
    for j in np.flatnonzero(~(held_scores < threshold)).tolist():
        s = held_scores[j]
        rank = np.count_nonzero(top > s) + 1
        if s == threshold or np.count_nonzero(top == s) > 1:
            rank += np.count_nonzero(scores[:held[j]] == s)
        if rank <= n:
            ranks.append(int(rank))
    return sorted(ranks)


def evaluate_fold(model: als.AlsModel, fold: Fold, matrix: InteractionMatrix,
                  user_ids: Sequence, n: int = DEFAULT_DEPTH,
                  persistence: float = DEFAULT_RBP_PERSISTENCE,
                  filter_train: bool = True) -> list[MetricRow]:
    """Metrics for every test user of one fold, in user-index order.

    ``matrix`` is the full cleaned matrix, whose entries ``fold.held``
    names; the model must have been fit on this fold's training matrix.
    By default a user's training items are excluded from their
    recommendation list, which follows ``tests/oracles.py::full_sort_top_n``;
    the held-out items' positions in that list are counted, not sorted (see
    the module docstring).  A test user whose
    factor row is not finite raises ``NumericalError``: NaN scores would
    rank every held-out item first.
    """
    finite = np.isfinite(model.user_factors[fold.test_users]).all(axis=1)
    if not finite.all():
        u = fold.test_users[int(np.argmin(finite))]
        raise NumericalError(
            f"fold {fold.index}: non-finite factors for test user {user_ids[u]}")
    rows = []
    for j, u in enumerate(fold.test_users):
        # cast once: every use below indexes with it
        held = matrix.indices[fold.held[fold.held_ptr[j]:fold.held_ptr[j + 1]]].astype(np.intp)
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
