"""The pop-index user statistic, filled with usage into the profile table.

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

import logging

import numpy as np

from .ingest import PROVENANCE_ML1M
from .interactions import InteractionMatrix

log = logging.getLogger(__name__)


def _coverage_floor(counts: np.ndarray, n_users: int) -> np.ndarray:
    """Floor of the percentage of other users who consumed each item."""
    coverage = 100.0 * (counts - 1) / (n_users - 1)
    return np.floor(coverage).astype(np.int32)


def pop_indices(m: InteractionMatrix) -> np.ndarray:
    """The pop-index of every user at once; -1 for users with an empty row.

    An item's count is its number of distinct users, since entries are
    unique per user-item pair.  One sort of the entries by (row, descending
    floor coverage) puts each row's b_(r) at offset r - 1 of the row, and a
    segmented maximum over the rows gives the formula in the module
    docstring.
    """
    degree = np.diff(m.indptr)
    out = np.full(m.n_users, -1, dtype=np.int64)
    nonempty = degree > 0
    if m.n_users < 2:
        out[nonempty] = 0
        return out
    counts = np.bincount(m.indices, minlength=m.n_items)
    # int32 halves the temporaries while 101 * max(n_users, n_items) fits
    dtype = np.int32 if 101 * max(m.n_users, m.n_items) < 2 ** 31 else np.int64
    rows = np.repeat(np.arange(m.n_users, dtype=dtype), degree)
    # sorting the key 101 * row + (100 - b) keeps every row in place and
    # orders it by descending b
    key = rows * 101
    key += 100 - _coverage_floor(counts, m.n_users)[m.indices]
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


def fill_attributes(attributes: np.recarray, m: InteractionMatrix,
                    provenance: str) -> None:
    """Fill the profile table's ``usage`` (total plays, or for ML1M the
    number of rated items) and ``pop_index``, one row per matrix row.

    A user with an empty row reads NaN in both; a total past the float64
    range leaves usage NaN, with one warning.  A table of another length
    raises ValueError.
    """
    if len(attributes) != m.n_users:
        raise ValueError(f"{len(attributes)} profile rows for {m.n_users} matrix rows")
    pops = pop_indices(m)
    uses = np.diff(m.indptr).astype(np.float64)
    if provenance != PROVENANCE_ML1M:
        # play counts are integers: a row's sum is integral, exact in any order below 2**53
        nonempty = uses > 0
        with np.errstate(over="ignore"):
            uses[nonempty] = np.add.reduceat(m.data, m.indptr[:-1][nonempty])
    finite = np.isfinite(uses)
    if not finite.all():
        log.warning("usage left missing for %d users: play total past the float range",
                    np.count_nonzero(~finite))
    has_row = pops >= 0
    attributes.pop_index = np.where(has_row, pops, np.nan)
    attributes.usage = np.where(has_row & finite, uses, np.nan)
