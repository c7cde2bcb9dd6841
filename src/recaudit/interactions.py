"""Interaction rows, the sparse interaction matrix, user attribute records,
and dataset statistics.

Parsed rows are ``Triples``, columns of integer codes.  The interaction
matrix is stored CSR-style (indptr/indices/data) with dense contiguous
indices assigned in first-seen order; a tuple of ids in that order names
each side's rows or columns.  It is immutable after construction and safe
to share across parallel readers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Optional

import numpy as np

UserId = Hashable

GENDER_MALE = "m"
GENDER_FEMALE = "f"
GENDER_NA = "NA"


@dataclass
class UserAttributes:
    """Per-user demographic record plus derived usage and pop-index.

    ``usage`` and ``pop_index`` start unset and are filled by the popularity
    module once the interaction matrix exists.
    """

    user_id: UserId
    gender: str = GENDER_NA
    age: Optional[int] = None
    country: Optional[str] = None
    usage: Optional[float] = None
    pop_index: Optional[int] = None


@dataclass(frozen=True)
class DatasetStats:
    n_users: int
    n_items: int
    n_interactions: int
    sparsity: float


class InteractionMatrix:
    """Sparse user x item matrix of positive interaction strengths.

    Invariants: every stored strength is > 0, there are no duplicate
    (user, item) pairs, and entries within a row are sorted by item index.
    """

    __slots__ = ("n_users", "n_items", "indptr", "indices", "data")

    def __init__(self, n_users: int, n_items: int, indptr: np.ndarray,
                 indices: np.ndarray, data: np.ndarray):
        self.n_users = int(n_users)
        self.n_items = int(n_items)
        self.indptr = indptr
        self.indices = indices
        self.data = data

    @property
    def nnz(self) -> int:
        return int(self.indices.shape[0])

    def user_items(self, user: int) -> np.ndarray:
        """Item indices of one user's row."""
        return self.indices[self.indptr[user]:self.indptr[user + 1]]

    def entry_rows(self) -> np.ndarray:
        """Row index for every stored entry, aligned with indices/data."""
        return np.repeat(np.arange(self.n_users), np.diff(self.indptr))

    def drop_entries(self, mask: np.ndarray) -> "InteractionMatrix":
        """New matrix without the entries where ``mask`` is True.

        Index spaces (n_users, n_items) are preserved so factor models keep
        their dimensions.
        """
        keep = ~mask
        rows = self.entry_rows()[keep]
        new_indptr = np.zeros(self.n_users + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=self.n_users), out=new_indptr[1:])
        return InteractionMatrix(self.n_users, self.n_items, new_indptr,
                                 self.indices[keep], self.data[keep])


@dataclass(eq=False)
class Triples:
    """Interaction rows as columns: row r is user ``user_ids[users[r]]``,
    item ``item_ids[items[r]]``, strength ``strengths[r]``.  The id lists
    hold each id once; a filtered copy keeps them whole."""

    users: np.ndarray  # int32 codes into user_ids
    items: np.ndarray  # int32 codes into item_ids
    strengths: np.ndarray  # float64
    user_ids: list
    item_ids: list

    def __len__(self) -> int:
        return len(self.users)


def _first_seen(codes: np.ndarray, ids: list) -> tuple[np.ndarray, tuple]:
    """``codes`` renumbered 0, 1, ... in order of first appearance, and
    their ids in that order."""
    if _numbered_in_first_seen_order(codes, len(ids)):
        seen_ids = tuple(ids)
    else:
        seen, first = np.unique(codes, return_index=True)
        seen = seen[np.argsort(first)]
        renumber = np.empty(len(ids), dtype=np.int64)
        renumber[seen] = np.arange(seen.size)
        codes = renumber[codes]
        seen_ids = tuple(ids[c] for c in seen.tolist())
    return codes, seen_ids


def _numbered_in_first_seen_order(codes: np.ndarray, n_ids: int) -> bool:
    """Whether ``codes`` hold every code below ``n_ids``, each first
    appearing after every smaller one, as parsing numbers them."""
    if not codes.size:
        return n_ids == 0
    top = np.maximum.accumulate(codes)
    # the running maximum starts at 0 and never skips a code
    return bool(codes[0] == 0 and top[-1] == n_ids - 1 and np.all(np.diff(top) <= 1))


def from_triples(triples: Triples) -> tuple[InteractionMatrix, tuple, tuple]:
    """Build an interaction matrix from ``Triples``; returns it with the ids
    of its rows and of its columns.

    Tolerant builder: indices are assigned in first-seen order among the
    kept rows, duplicate (user, item) pairs merge by summing strengths, and
    non-positive strengths are dropped.
    """
    users, items, values = triples.users, triples.items, triples.strengths
    positive = values > 0.0
    if not positive.all():
        users, items, values = users[positive], items[positive], values[positive]
    users, user_ids = _first_seen(users, triples.user_ids)
    items, item_ids = _first_seen(items, triples.item_ids)
    indptr = np.zeros(len(user_ids) + 1, dtype=np.int64)
    if users.size:
        # sort by the (user, item) key, stably, then merge duplicate cells
        # by summing runs in row order
        keys = users.astype(np.int64)
        keys *= len(item_ids)
        keys += items
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        values = values[order]
        del order
        first = np.empty(keys.size, dtype=bool)
        first[0] = True
        np.not_equal(keys[1:], keys[:-1], out=first[1:])
        starts = np.flatnonzero(first)
        values = np.add.reduceat(values, starts)
        # split the merged keys in place: one array fewer at a time
        items = keys[starts]
        del keys, first, starts
        users = items // len(item_ids)
        items -= users * len(item_ids)
        np.cumsum(np.bincount(users, minlength=len(user_ids)), out=indptr[1:])
    else:
        items = np.empty(0, dtype=np.int64)

    matrix = InteractionMatrix(len(user_ids), len(item_ids), indptr, items, values)
    return matrix, user_ids, item_ids


def stats(m: InteractionMatrix) -> DatasetStats:
    """Dataset-level counts and sparsity = 1 - nnz / (n_users * n_items)."""
    cells = m.n_users * m.n_items
    sparsity = 1.0 - m.nnz / cells if cells else 0.0
    return DatasetStats(m.n_users, m.n_items, m.nnz, sparsity)
