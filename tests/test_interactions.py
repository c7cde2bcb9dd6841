import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import from_rows, naive_csr
from recaudit.interactions import Triples, from_triples, stats

from conftest import entries, triple_rows


def test_empty_input():
    m, user_ids, item_ids = from_triples(from_rows([]))
    assert m.n_users == 0
    assert m.n_items == 0
    assert m.nnz == 0
    assert user_ids == () and item_ids == ()
    assert stats(m).sparsity == 0.0


def test_duplicate_pairs_merge_by_sum():
    m, _, _ = from_triples(from_rows([("u1", "a1", 3), ("u1", "a1", 2)]))
    assert m.nnz == 1
    assert m.data[0] == 5.0


def test_zero_strength_dropped():
    m, _, item_ids = from_triples(from_rows([("u1", "a1", 0), ("u1", "a2", 1)]))
    assert m.nnz == 1
    assert m.n_items == 1  # a1 never materializes: its only triple was dropped
    assert item_ids == ("a2",)
    assert list(m.user_items(0)) == [0]


def test_first_seen_index_order():
    m, user_ids, item_ids = from_triples(from_rows([("b", "y", 1), ("a", "x", 1), ("b", "x", 2)]))
    assert user_ids == ("b", "a")
    assert item_ids == ("y", "x")


def test_stats_direct_formula():
    m, _, _ = from_triples(from_rows([("u1", "i1", 1), ("u1", "i2", 1), ("u2", "i1", 1)]))
    # force a 2x2 shape with exactly one cell unfilled -> drop one entry
    m2 = m.drop_entries(np.array([1]))
    ds = stats(m2)
    assert ds.n_users == 2 and ds.n_items == 2
    assert ds.n_interactions == 2
    assert ds.sparsity == 0.5

    single, _, _ = from_triples(from_rows([("u1", "i1", 1)]))
    assert stats(single).sparsity == 0.0  # 1x1 fully dense


def test_stats_2x2_one_entry():
    base, _, _ = from_triples(from_rows([("u1", "i1", 1), ("u1", "i2", 1),
                                         ("u2", "i1", 1), ("u2", "i2", 1)]))
    m = base.drop_entries(np.array([2, 0, 1]))
    assert stats(m).sparsity == 0.75


def test_stats_random_recount(small_random_matrix):
    m, _, _ = small_random_matrix
    recount = sum(1 for _ in entries(m))
    assert stats(m).n_interactions == recount
    assert stats(m).sparsity == 1 - recount / (m.n_users * m.n_items)


def test_row_access_covers_all_entries(small_random_matrix):
    m, _, _ = small_random_matrix
    per_row = []
    for u in range(m.n_users):
        for i, s in zip(m.user_items(u), m.data[m.indptr[u]:m.indptr[u + 1]]):
            per_row.append((u, int(i), float(s)))
    assert sorted(per_row) == sorted(entries(m))
    assert len(per_row) == m.nnz


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6),
                          st.integers(1, 9)), max_size=40))
def test_round_trip_multiset(triples):
    named = [(f"u{u}", f"i{i}", s) for u, i, s in triples]
    m, user_ids, item_ids = from_triples(from_rows(named))
    merged = {}
    for uid, iid, s in named:
        merged[(uid, iid)] = merged.get((uid, iid), 0) + s
    rebuilt = {(user_ids[u], item_ids[i]): s for u, i, s in entries(m)}
    assert rebuilt == {k: float(v) for k, v in merged.items()}


@st.composite
def coded_triples(draw):
    """``Triples`` built directly, not as the parsers number them: ids in
    any order, some that no row holds, code gaps, repeated cells and
    non-positive strengths, down to zero rows."""
    user_ids = draw(st.lists(st.text(max_size=2), unique=True, max_size=6))
    item_ids = draw(st.lists(st.integers(-3, 9), unique=True, max_size=6))
    rows = draw(st.lists(st.tuples(st.integers(0, max(len(user_ids) - 1, 0)),
                                   st.integers(0, max(len(item_ids) - 1, 0)),
                                   st.sampled_from([-1.0, 0.0, 0.5, 1.0, 3.0])),
                         max_size=30 if user_ids and item_ids else 0))
    users, items, strengths = zip(*rows) if rows else ((), (), ())
    return Triples(np.array(users, dtype=np.int32), np.array(items, dtype=np.int32),
                   np.array(strengths, dtype=np.float64), user_ids, item_ids)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(coded_triples())
def test_from_triples_matches_oracle_on_any_coding(triples):
    """However the rows are coded, the matrix and its ids are those of the
    decoded rows: ids renumbered in first-seen order among the rows with a
    positive strength."""
    m, user_ids, item_ids = from_triples(triples)
    indptr, indices, data, want_user_ids, want_item_ids = naive_csr(triple_rows(triples))
    for got, want in ((m.indptr, indptr), (m.indices, indices), (m.data, data)):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    assert (user_ids, item_ids) == (want_user_ids, want_item_ids)
    assert (m.n_users, m.n_items) == (len(user_ids), len(item_ids))


def test_indices_in_range(small_random_matrix):
    m, _, _ = small_random_matrix
    assert (m.indices >= 0).all() and (m.indices < m.n_items).all()
    assert (m.data > 0).all()
    # no duplicate (user, item) pairs
    pairs = list(zip(m.entry_rows(), m.indices))
    assert len(pairs) == len(set(pairs))


def test_drop_entries_keeps_shape(small_random_matrix):
    m, _, _ = small_random_matrix
    # every third entry, in shuffled order
    positions = np.random.default_rng(3).permutation(np.arange(0, m.nnz, 3))
    dropped = m.drop_entries(positions)
    assert dropped.n_users == m.n_users
    assert dropped.n_items == m.n_items
    assert dropped.nnz == m.nnz - positions.size
    assert entries(dropped) == [e for k, e in enumerate(entries(m)) if k % 3]


@pytest.mark.parametrize("n_rows", [0, 1, 6, 7, 8, 14, 15, 50])
def test_from_rows_columns_across_chunks(n_rows):
    rng = np.random.default_rng(n_rows)
    users = rng.integers(0, 5, size=n_rows)
    items = rng.integers(0, 9, size=n_rows)
    strengths = rng.random(n_rows) * 4 - 1
    t = from_rows((f"u{u}", i * 10, s) for u, i, s in
                  zip(users.tolist(), items.tolist(), strengths.tolist()))
    assert len(t) == n_rows
    assert (t.users.dtype, t.items.dtype, t.strengths.dtype) == (np.int32, np.int32, np.float64)
    assert [t.user_ids[c] for c in t.users.tolist()] == [f"u{u}" for u in users.tolist()]
    assert [t.item_ids[c] for c in t.items.tolist()] == [i * 10 for i in items.tolist()]
    assert np.array_equal(t.strengths, strengths)
    assert t.user_ids == list(dict.fromkeys(f"u{u}" for u in users.tolist()))
