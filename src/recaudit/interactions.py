"""Interaction rows, the sparse interaction matrix, the profile table's row
type, and dataset statistics.

Parsed rows are ``Triples``, columns of int32 codes.  The interaction
matrix is stored CSR-style (indptr/indices/data) with dense contiguous
indices; a tuple of ids in index order names each side's rows or columns.
It is immutable after construction and safe to share across parallel
readers.

One numbering rule holds on both sides: ids are numbered by decoded id in
first-seen order.  The parsers number ids as they read them, and a matrix
built from filtered rows renumbers the ids its rows hold by first row, in
one linear pass.

``indptr`` is int64, ``indices`` int32 and ``data`` float64, so the matrix
holds 12 bytes per stored entry plus 8 per row.  int32 indices cannot
overflow: the parsers code every id into an int32 column.  ``entry_rows``
is int32 too.  A fold's training matrix (``drop_entries``) and ALS's
item-major view hold 12 bytes per entry they keep: on a 1M-entry planted
set (20,000 x 5,000, partition fold 0) ``tracemalloc`` read 11.7 and 11.6
bytes per entry of the full matrix, and the fold matrix peaked at 13.2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

GENDER_MALE = "m"
GENDER_FEMALE = "f"

# one row of a dataset's profile table (``report.Dataset.attributes``):
# gender and country coded by ``grouping.code_labels``, the rest NaN where
# missing; usage and pop_index are filled by ``popindex.fill_attributes``
PROFILE_DTYPE = np.dtype([("gender", np.intp), ("age", np.float64), ("country", np.intp),
                          ("usage", np.float64), ("pop_index", np.float64)])


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
        """Row index (int32) for every stored entry, aligned with
        indices/data."""
        return np.repeat(np.arange(self.n_users, dtype=np.int32), np.diff(self.indptr))

    def drop_entries(self, positions: np.ndarray) -> "InteractionMatrix":
        """New matrix without the entries at ``positions`` (distinct, in
        any order).

        Index spaces (n_users, n_items) are preserved so factor models keep
        their dimensions.  Each row's count of dropped entries comes from
        the positions themselves, so no row array of every entry is made.
        """
        keep = np.ones(self.nnz, dtype=bool)
        keep[positions] = False
        rows = np.searchsorted(self.indptr, positions, side="right") - 1
        dropped = np.zeros(self.n_users + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=self.n_users), out=dropped[1:])
        return InteractionMatrix(self.n_users, self.n_items, self.indptr - dropped,
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
    """``codes`` renumbered 0, 1, ... in order of first appearance, as
    int64, and their ids in that order, in one linear pass over the rows:
    each code's first row is the least row that holds it."""
    codes = codes.astype(np.intp)  # numpy indexes fastest by intp
    first = np.full(len(ids), codes.size)
    np.minimum.at(first, codes, np.arange(codes.size))
    seen = codes[np.sort(first[first < codes.size])]
    renumber = np.empty(len(ids), dtype=np.int64)
    renumber[seen] = np.arange(seen.size)
    return renumber[codes], tuple(map(ids.__getitem__, seen.tolist()))


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
    n_items = len(item_ids)
    if users.size:
        # sort by the (user, item) key, stably, then merge duplicate cells
        # by summing runs in row order; with no duplicate there is nothing
        # to merge
        keys = users  # a new int64 array, scaled in place
        keys *= n_items
        keys += items
        del users, items
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        values = values[order]
        del order
        first = np.empty(keys.size, dtype=bool)
        first[0] = True
        np.not_equal(keys[1:], keys[:-1], out=first[1:])
        if not first.all():
            starts = np.flatnonzero(first)
            values = np.add.reduceat(values, starts)
            keys = keys[starts]
            del starts
        del first
    else:
        keys = np.empty(0, dtype=np.int64)
    # row u's merged keys are those in [u * n_items, (u + 1) * n_items), and
    # an entry's item is its key's remainder, written straight into int32
    indptr = np.searchsorted(keys, np.arange(len(user_ids) + 1, dtype=np.int64) * n_items)
    indices = np.empty(keys.size, dtype=np.int32)
    np.remainder(keys, n_items, out=indices, casting="unsafe")

    matrix = InteractionMatrix(len(user_ids), n_items, indptr, indices, values)
    return matrix, user_ids, item_ids


def stats(m: InteractionMatrix) -> DatasetStats:
    """Dataset-level counts and sparsity = 1 - nnz / (n_users * n_items)."""
    cells = m.n_users * m.n_items
    sparsity = 1.0 - m.nnz / cells if cells else 0.0
    return DatasetStats(m.n_users, m.n_items, m.nnz, sparsity)
