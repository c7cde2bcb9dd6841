"""Interaction rows, the sparse interaction matrix, user attribute records,
and dataset statistics.

Parsed rows are ``Triples``, columns of integer codes.  The interaction
matrix is stored CSR-style (indptr/indices/data) with dense contiguous
indices assigned in first-seen order, recorded in bidirectional id maps.
It is immutable after construction and safe to share across parallel
readers.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import islice
from typing import Hashable, Iterable, Iterator, Optional

import numpy as np

UserId = Hashable
ItemId = Hashable

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
    signup: Optional[str] = None
    usage: Optional[int] = None
    pop_index: Optional[int] = None


@dataclass(frozen=True)
class DatasetStats:
    n_users: int
    n_items: int
    n_interactions: int
    sparsity: float


@dataclass(frozen=True)
class IdMap:
    """Bidirectional map between original ids and dense indices."""

    ids: tuple  # index -> original id
    index: dict  # original id -> index

    def __len__(self) -> int:
        return len(self.ids)


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

    def user_strengths(self, user: int) -> np.ndarray:
        return self.data[self.indptr[user]:self.indptr[user + 1]]

    def user_degree(self, user: int) -> int:
        return int(self.indptr[user + 1] - self.indptr[user])

    def iter_entries(self) -> Iterator[tuple[int, int, float]]:
        for u in range(self.n_users):
            lo, hi = self.indptr[u], self.indptr[u + 1]
            for k in range(lo, hi):
                yield u, int(self.indices[k]), float(self.data[k])

    def user_index_of_entries(self) -> np.ndarray:
        """Row index for every stored entry, aligned with indices/data."""
        return np.repeat(np.arange(self.n_users), np.diff(self.indptr))

    def drop_entries(self, mask: np.ndarray) -> "InteractionMatrix":
        """New matrix without the entries where ``mask`` is True.

        Index spaces (n_users, n_items) are preserved so factor models keep
        their dimensions.
        """
        keep = ~mask
        rows = self.user_index_of_entries()[keep]
        new_indptr = np.zeros(self.n_users + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=self.n_users), out=new_indptr[1:])
        return InteractionMatrix(self.n_users, self.n_items, new_indptr,
                                 self.indices[keep].copy(), self.data[keep].copy())


# rows interned per chunk; bounds the per-row Python objects alive at once
_CHUNK_ROWS = 1 << 16


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

    @classmethod
    def from_rows(cls, rows: Iterable[tuple[UserId, ItemId, float]]) -> "Triples":
        """Intern (user_id, item_id, strength) rows, each side's ids coded 0, 1, ...
        in first-seen order; every row is kept, in order."""
        user_index: dict = {}
        item_index: dict = {}
        # each column grows in place, a chunk at a time: no chunk list is
        # joined at the end, so parsing never holds a column twice
        columns = (array("i"), array("i"), array("d"))
        rows = iter(rows)
        while True:
            users, items, strengths = [], [], []
            for user_id, item_id, strength in islice(rows, _CHUNK_ROWS):
                u = user_index.get(user_id)
                if u is None:
                    u = user_index[user_id] = len(user_index)
                i = item_index.get(item_id)
                if i is None:
                    i = item_index[item_id] = len(item_index)
                users.append(u)
                items.append(i)
                strengths.append(strength)
            for column, chunk in zip(columns, (users, items, strengths)):
                column.fromlist(chunk)
            if len(users) < _CHUNK_ROWS:
                break
        return cls(np.frombuffer(columns[0], dtype=np.intc).astype(np.int32, copy=False),
                   np.frombuffer(columns[1], dtype=np.intc).astype(np.int32, copy=False),
                   np.frombuffer(columns[2], dtype=np.float64),
                   list(user_index), list(item_index))


def _first_seen(codes: np.ndarray, ids: list) -> tuple[np.ndarray, IdMap]:
    """``codes`` renumbered 0, 1, ... in order of first appearance, and the
    map of their ids."""
    seen, first = np.unique(codes, return_index=True)
    seen = seen[np.argsort(first)]
    renumber = np.empty(len(ids), dtype=np.int64)
    renumber[seen] = np.arange(seen.size)
    seen_ids = tuple(ids[c] for c in seen.tolist())
    return renumber[codes], IdMap(seen_ids, {id_: k for k, id_ in enumerate(seen_ids)})


def from_triples(
    triples: Triples | Iterable[tuple[UserId, ItemId, float]],
) -> tuple[InteractionMatrix, IdMap, IdMap]:
    """Build an interaction matrix from ``Triples`` or (user_id, item_id, strength) rows.

    Tolerant builder: indices are assigned in first-seen order among the
    kept rows, duplicate (user, item) pairs merge by summing strengths, and
    non-positive strengths are dropped.
    """
    if not isinstance(triples, Triples):
        triples = Triples.from_rows(triples)
    positive = triples.strengths > 0.0
    row_arr, umap = _first_seen(triples.users[positive], triples.user_ids)
    col_arr, imap = _first_seen(triples.items[positive], triples.item_ids)
    val_arr = triples.strengths[positive]
    indptr = np.zeros(len(umap) + 1, dtype=np.int64)
    if row_arr.size:
        # sort by (user, item), then merge duplicate cells by summing runs
        order = np.lexsort((col_arr, row_arr))
        row_arr = row_arr[order]
        col_arr = col_arr[order]
        val_arr = val_arr[order]
        first = np.empty(row_arr.size, dtype=bool)
        first[0] = True
        np.not_equal(row_arr[1:], row_arr[:-1], out=first[1:])
        first[1:] |= col_arr[1:] != col_arr[:-1]
        starts = np.flatnonzero(first)
        val_arr = np.add.reduceat(val_arr, starts)
        row_arr = row_arr[starts]
        col_arr = col_arr[starts]
        np.cumsum(np.bincount(row_arr, minlength=len(umap)), out=indptr[1:])

    return InteractionMatrix(len(umap), len(imap), indptr, col_arr, val_arr), umap, imap


def stats(m: InteractionMatrix) -> DatasetStats:
    """Dataset-level counts and sparsity = 1 - nnz / (n_users * n_items)."""
    cells = m.n_users * m.n_items
    sparsity = 1.0 - m.nnz / cells if cells else 0.0
    return DatasetStats(m.n_users, m.n_items, m.nnz, sparsity)
