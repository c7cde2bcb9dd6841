import numpy as np
import pytest

from oracles import brute_force_pop_index
from recaudit.ingest import PROVENANCE_LFM360K, PROVENANCE_ML1M, PROVENANCE_SYNTHETIC
from recaudit.interactions import UserAttributes, from_triples
from recaudit.popindex import (fill_attributes, item_user_counts, pop_index, pop_indices,
                               usage)

from conftest import random_matrix


def oracle_pop(matrix, umap, imap, u):
    item_user_sets = {}
    for uu, i, _ in matrix.iter_entries():
        item_user_sets.setdefault(int(i), set()).add(uu)
    return brute_force_pop_index(
        [int(i) for i in matrix.user_items(u)], item_user_sets,
        matrix.n_users, u)


class TestItemUserCounts:
    def test_three_users_one_item(self):
        m, _, _ = from_triples([("a", "x", 1), ("b", "x", 2), ("c", "x", 5)])
        pop = item_user_counts(m)
        assert pop.user_counts[0] == 3
        assert pop.n_users == 3

    def test_empty_matrix(self):
        m, _, _ = from_triples([])
        assert item_user_counts(m).user_counts.size == 0

    def test_random_matrix_column_recount(self, small_random_matrix):
        m, _, _ = small_random_matrix
        pop = item_user_counts(m)
        for i in range(m.n_items):
            direct = sum(1 for u in range(m.n_users) if i in m.user_items(u))
            assert pop.user_counts[i] == direct


class TestPopIndex:
    def test_all_items_shared_by_everyone(self):
        triples = [(f"u{u}", f"i{i}", 1) for u in range(5) for i in range(3)]
        m, _, _ = from_triples(triples)
        pop = item_user_counts(m)
        for u in range(5):
            assert pop_index(u, m, pop) == 100

    def test_all_items_unique_to_user(self):
        triples = [("me", "mine1", 1), ("me", "mine2", 1), ("other", "theirs", 1)]
        m, _, _ = from_triples(triples)
        assert pop_index(0, m, item_user_counts(m)) == 0

    def test_matches_brute_force_oracle(self, rng):
        for trial in range(30):
            m, umap, imap = random_matrix(rng, 50, 80, density=0.1)
            pop = item_user_counts(m)
            for u in range(0, m.n_users, 7):
                assert pop_index(u, m, pop) == oracle_pop(m, umap, imap, u)

    def test_user_without_items_rejected(self):
        m, _, _ = from_triples([("a", "x", 1), ("b", "x", 1)])
        trimmed = m.drop_entries(np.array([False, True]))
        with pytest.raises(ValueError):
            pop_index(1, trimmed, item_user_counts(trimmed))

    def test_monotone_in_added_interactions(self, rng):
        # adding another user's interaction on one of A's items never lowers A's index
        for trial in range(10):
            m, umap, imap = random_matrix(rng, 20, 25, density=0.15)
            base = pop_index(0, m, item_user_counts(m))
            target_item = imap.ids[int(m.user_items(0)[0])]
            triples = [(umap.ids[u], imap.ids[int(i)], s) for u, i, s in m.iter_entries()]
            donor = next((umap.ids[u] for u in range(1, m.n_users)
                          if int(m.user_items(0)[0]) not in m.user_items(u)), None)
            if donor is None:
                continue
            m2, _, _ = from_triples(triples + [(donor, target_item, 1)])
            assert pop_index(0, m2, item_user_counts(m2)) >= base

    def test_invariant_to_strength_magnitude(self, rng):
        m, umap, imap = random_matrix(rng, 25, 30, density=0.2)
        scaled_triples = [(umap.ids[u], imap.ids[int(i)], s * 37.0)
                          for u, i, s in m.iter_entries()]
        m2, _, _ = from_triples(scaled_triples)
        pop1, pop2 = item_user_counts(m), item_user_counts(m2)
        for u in range(m.n_users):
            assert pop_index(u, m, pop1) == pop_index(u, m2, pop2)


class TestPopIndices:
    def check(self, m):
        pop = item_user_counts(m)
        got = pop_indices(m, pop)
        for u in range(m.n_users):
            if m.user_degree(u) == 0:
                assert got[u] == -1
            else:
                assert got[u] == oracle_pop(m, None, None, u) == pop_index(u, m, pop)

    def test_matches_brute_force_oracle(self, rng):
        for trial in range(40):
            m, _, _ = random_matrix(rng, int(rng.integers(2, 40)),
                                    int(rng.integers(1, 30)),
                                    density=float(rng.uniform(0.02, 0.9)))
            self.check(m)

    def test_single_user(self):
        m, _, _ = from_triples([("only", "x", 1), ("only", "y", 4)])
        assert pop_indices(m, item_user_counts(m)).tolist() == [0]
        self.check(m)

    def test_empty_rows_read_minus_one(self, rng):
        for trial in range(10):
            m, _, _ = random_matrix(rng, 20, 15, density=0.3)
            rows = m.user_index_of_entries()
            emptied = rng.choice(m.n_users, size=5, replace=False)
            trimmed = m.drop_entries(np.isin(rows, emptied))
            assert all(trimmed.user_degree(u) == 0 for u in emptied)
            self.check(trimmed)

    def test_rows_with_equal_coverage(self):
        # every item is shared by the same number of users
        triples = [(f"u{u}", f"i{(u + j) % 6}", 1) for u in range(6) for j in range(3)]
        m, _, _ = from_triples(triples)
        assert len(set(item_user_counts(m).user_counts.tolist())) == 1
        self.check(m)

    def test_empty_matrix(self):
        m, _, _ = from_triples([])
        assert pop_indices(m, item_user_counts(m)).size == 0


class TestUsage:
    def test_play_sum_for_lfm(self):
        m, _, _ = from_triples([("u", "a", 3), ("u", "b", 5)])
        assert usage(0, m, PROVENANCE_LFM360K) == 8
        assert usage(0, m, PROVENANCE_SYNTHETIC) == 8

    def test_item_count_for_ml1m(self):
        m, _, _ = from_triples([(1, i, 4) for i in range(20)])
        assert usage(0, m, PROVENANCE_ML1M) == 20

    def test_fixture_hand_sum(self):
        plays = [7, 2, 9, 1, 14]
        m, _, _ = from_triples([("u", f"i{k}", p) for k, p in enumerate(plays)])
        assert usage(0, m, PROVENANCE_LFM360K) == sum(plays)
        assert usage(0, m, PROVENANCE_ML1M) == len(plays)


class TestFillAttributes:
    def test_fills_only_users_with_rows(self):
        m, umap, _ = from_triples([("a", "x", 2), ("a", "y", 3), ("b", "x", 1)])
        attrs = [UserAttributes("a"), UserAttributes("b"), UserAttributes("ghost")]
        fill_attributes(attrs, m, umap.index, PROVENANCE_LFM360K)
        assert attrs[0].usage == 5
        assert attrs[1].usage == 1
        assert attrs[0].pop_index is not None
        assert attrs[2].usage is None
        assert attrs[2].pop_index is None

    def test_empty_row_left_unset(self):
        m, umap, _ = from_triples([("a", "x", 2), ("b", "x", 1), ("b", "y", 1)])
        trimmed = m.drop_entries(np.array([True, False, False]))
        attrs = [UserAttributes("a"), UserAttributes("b")]
        fill_attributes(attrs, trimmed, umap.index, PROVENANCE_LFM360K)
        assert attrs[0].usage is None and attrs[0].pop_index is None
        assert attrs[1].usage == 2
        assert attrs[1].pop_index == pop_index(1, trimmed, item_user_counts(trimmed))

    @pytest.mark.parametrize("provenance", [PROVENANCE_LFM360K, PROVENANCE_ML1M])
    def test_matches_scalar_usage_and_pop_index(self, rng, provenance):
        for trial in range(8):
            m, umap, _ = random_matrix(rng, 30, 20, density=0.3, max_strength=500)
            emptied = rng.choice(m.n_users, size=trial, replace=False)
            m = m.drop_entries(np.isin(m.user_index_of_entries(), emptied))
            attrs = [UserAttributes(uid) for uid in umap.ids]
            fill_attributes(attrs, m, umap.index, provenance)
            pop = item_user_counts(m)
            for u, attr in enumerate(attrs):
                if u in emptied:
                    assert attr.usage is None and attr.pop_index is None
                else:
                    assert attr.usage == usage(u, m, provenance)
                    assert attr.pop_index == pop_index(u, m, pop)
