import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recaudit import interactions
from recaudit.interactions import Triples, from_triples, stats


def test_empty_input():
    m, umap, imap = from_triples([])
    assert m.n_users == 0
    assert m.n_items == 0
    assert m.nnz == 0
    assert len(umap) == 0
    assert stats(m).sparsity == 0.0


def test_duplicate_pairs_merge_by_sum():
    m, _, _ = from_triples([("u1", "a1", 3), ("u1", "a1", 2)])
    assert m.nnz == 1
    assert m.data[0] == 5.0


def test_zero_strength_dropped():
    m, _, imap = from_triples([("u1", "a1", 0), ("u1", "a2", 1)])
    assert m.nnz == 1
    assert m.n_items == 1  # a1 never materializes: its only triple was dropped
    assert imap.ids == ("a2",)
    assert list(m.user_items(0)) == [0]


def test_first_seen_index_order():
    m, umap, imap = from_triples([("b", "y", 1), ("a", "x", 1), ("b", "x", 2)])
    assert umap.ids == ("b", "a")
    assert imap.ids == ("y", "x")
    assert umap.index["a"] == 1
    assert imap.index["x"] == 1


def test_stats_direct_formula():
    m, _, _ = from_triples([("u1", "i1", 1), ("u1", "i2", 1), ("u2", "i1", 1)])
    # force a 2x2 shape with exactly one cell unfilled -> drop one entry
    m2 = m.drop_entries(np.array([False, True, False]))
    ds = stats(m2)
    assert ds.n_users == 2 and ds.n_items == 2
    assert ds.n_interactions == 2
    assert ds.sparsity == 0.5

    single, _, _ = from_triples([("u1", "i1", 1)])
    assert stats(single).sparsity == 0.0  # 1x1 fully dense


def test_stats_2x2_one_entry():
    base, _, _ = from_triples([("u1", "i1", 1), ("u1", "i2", 1),
                               ("u2", "i1", 1), ("u2", "i2", 1)])
    m = base.drop_entries(np.array([True, True, True, False]))
    assert stats(m).sparsity == 0.75


def test_stats_random_recount(small_random_matrix):
    m, _, _ = small_random_matrix
    recount = sum(1 for _ in m.iter_entries())
    assert stats(m).n_interactions == recount
    assert stats(m).sparsity == 1 - recount / (m.n_users * m.n_items)


def test_row_access_covers_all_entries(small_random_matrix):
    m, _, _ = small_random_matrix
    per_row = []
    for u in range(m.n_users):
        for i, s in zip(m.user_items(u), m.user_strengths(u)):
            per_row.append((u, int(i), float(s)))
    assert sorted(per_row) == sorted(m.iter_entries())
    assert len(per_row) == m.nnz


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6),
                          st.integers(1, 9)), max_size=40))
def test_round_trip_multiset(triples):
    named = [(f"u{u}", f"i{i}", s) for u, i, s in triples]
    m, umap, imap = from_triples(named)
    merged = {}
    for uid, iid, s in named:
        merged[(uid, iid)] = merged.get((uid, iid), 0) + s
    rebuilt = {(umap.ids[u], imap.ids[i]): s for u, i, s in m.iter_entries()}
    assert rebuilt == {k: float(v) for k, v in merged.items()}


def test_indices_in_range(small_random_matrix):
    m, _, _ = small_random_matrix
    assert (m.indices >= 0).all() and (m.indices < m.n_items).all()
    assert (m.data > 0).all()
    # no duplicate (user, item) pairs
    pairs = list(zip(m.user_index_of_entries(), m.indices))
    assert len(pairs) == len(set(pairs))


def test_drop_entries_keeps_shape(small_random_matrix):
    m, _, _ = small_random_matrix
    mask = np.zeros(m.nnz, dtype=bool)
    mask[::3] = True
    dropped = m.drop_entries(mask)
    assert dropped.n_users == m.n_users
    assert dropped.n_items == m.n_items
    assert dropped.nnz == m.nnz - int(mask.sum())
    kept = {e for e, flag in zip(m.iter_entries(), mask) if not flag}
    assert set(dropped.iter_entries()) == kept


@pytest.mark.parametrize("n_rows", [0, 1, 6, 7, 8, 14, 15, 50])
def test_from_rows_columns_across_chunks(monkeypatch, n_rows):
    monkeypatch.setattr(interactions, "_CHUNK_ROWS", 7)
    rng = np.random.default_rng(n_rows)
    users = rng.integers(0, 5, size=n_rows)
    items = rng.integers(0, 9, size=n_rows)
    strengths = rng.random(n_rows) * 4 - 1
    t = Triples.from_rows((f"u{u}", i * 10, s) for u, i, s in
                          zip(users.tolist(), items.tolist(), strengths.tolist()))
    assert len(t) == n_rows
    assert (t.users.dtype, t.items.dtype, t.strengths.dtype) == (np.int32, np.int32, np.float64)
    assert [t.user_ids[c] for c in t.users.tolist()] == [f"u{u}" for u in users.tolist()]
    assert [t.item_ids[c] for c in t.items.tolist()] == [i * 10 for i in items.tolist()]
    assert np.array_equal(t.strengths, strengths)
    assert t.user_ids == list(dict.fromkeys(f"u{u}" for u in users.tolist()))
