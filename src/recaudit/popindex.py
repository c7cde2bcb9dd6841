"""The pop-index user statistic and the usage attribute.

The pop-index is an h-index-style measure of how mainstream a user's
consumption is: the largest integer p in [0, 100] such that at least p%
of the user's items have also been consumed by at least p% of the other
users.  It depends only on the interaction support, not on strengths.

With b_i = floor(coverage_i) for each of the user's d items, where
coverage_i = 100 * (count_i - 1) / (n_users - 1), and b_(1) >= ... >= b_(d)
those values in descending order,

    pop_index = max over r in 1..d of min(b_(r), floor(100 * r / d)),

since p qualifies exactly when b_(r) >= p and 100 * r >= p * d for some r.
Everything after the floor is integer arithmetic, so ``pop_indices``
computes every user's value in one sort over the matrix entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .ingest import PROVENANCE_ML1M
from .interactions import InteractionMatrix, UserAttributes


@dataclass(frozen=True)
class ItemPopularity:
    user_counts: np.ndarray  # per item: number of distinct users with an entry
    n_users: int


def item_user_counts(m: InteractionMatrix) -> ItemPopularity:
    """Distinct-user count per item (entries are unique per user-item pair)."""
    counts = np.bincount(m.indices, minlength=m.n_items).astype(np.int64)
    return ItemPopularity(user_counts=counts, n_users=m.n_users)


def _coverage_floor(counts: np.ndarray, n_users: int) -> np.ndarray:
    """Floor of the percentage of other users who consumed each item."""
    coverage = 100.0 * (counts - 1) / (n_users - 1)
    return np.floor(coverage).astype(np.int32)


def pop_index(user: int, m: InteractionMatrix, pop: ItemPopularity) -> int:
    """Largest p such that >= p% of the user's items have coverage >= p.

    Coverage of an item is the percentage of *other* users who interacted
    with it: 100 * (count - 1) / (n_users - 1), the focal user being
    excluded from both sides.  p = 0 always qualifies.
    """
    items = m.user_items(user)
    d = len(items)
    if d == 0:
        raise ValueError(f"user {user} has no items")
    if pop.n_users < 2:
        return 0
    b = np.sort(_coverage_floor(pop.user_counts[items], pop.n_users))[::-1]
    r = np.arange(1, d + 1)
    return int(np.max(np.minimum(b, 100 * r // d)))


def pop_indices(m: InteractionMatrix, pop: ItemPopularity) -> np.ndarray:
    """``pop_index`` of every user at once; -1 for users with an empty row.

    One sort of the entries by (row, descending floor coverage) puts each
    row's b_(r) at offset r - 1 of the row, and a segmented maximum over
    the rows gives the formula in the module docstring.
    """
    degree = np.diff(m.indptr)
    out = np.full(m.n_users, -1, dtype=np.int64)
    nonempty = degree > 0
    if pop.n_users < 2:
        out[nonempty] = 0
        return out
    # int32 halves the temporaries while 101 * max(n_users, n_items) fits
    dtype = np.int32 if 101 * max(m.n_users, m.n_items) < 2 ** 31 else np.int64
    rows = np.repeat(np.arange(m.n_users, dtype=dtype), degree)
    # sorting the key 101 * row + (100 - b) keeps every row in place and
    # orders it by descending b
    key = rows * 101
    key += 100 - _coverage_floor(pop.user_counts, pop.n_users)[m.indices]
    key.sort()
    b = 100 - key % 101
    del key
    # floor(100 * r / d) for the entry's 1-based offset r in its row of d
    r = np.arange(1, m.nnz + 1, dtype=dtype)
    r -= m.indptr[:-1].astype(dtype)[rows]
    r *= 100
    r //= degree.astype(dtype)[rows]
    del rows
    np.minimum(b, r, out=b)
    out[nonempty] = np.maximum.reduceat(b, m.indptr[:-1][nonempty])
    return out


def usage(user: int, m: InteractionMatrix, provenance: str) -> int:
    """Total listens (play-count datasets) or number of rated items (ML1M)."""
    if provenance == PROVENANCE_ML1M:
        return int(m.user_degree(user))
    return int(round(float(np.sum(m.user_strengths(user)))))


def fill_attributes(attributes: Sequence[UserAttributes], m: InteractionMatrix,
                    user_index: dict, provenance: str) -> None:
    """Fill usage and pop_index on every attribute record with a matrix row.

    Users absent from the matrix, or with an empty row, keep both fields
    unset.
    """
    pops = pop_indices(m, item_user_counts(m)).tolist()
    uses = np.diff(m.indptr)
    if provenance != PROVENANCE_ML1M:
        # play counts are integers, so every row's sum is exact in any order
        nonempty = uses > 0
        uses[nonempty] = np.rint(np.add.reduceat(m.data, m.indptr[:-1][nonempty]))
    uses = uses.tolist()
    for attr in attributes:
        u = user_index.get(attr.user_id)
        if u is None or pops[u] < 0:
            continue
        attr.usage = uses[u]
        attr.pop_index = pops[u]
