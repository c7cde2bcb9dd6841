import math
import warnings

import numpy as np
import pytest

from oracles import brute_force_pop_index, from_rows
from recaudit.ingest import PROVENANCE_LFM360K, PROVENANCE_ML1M, PROVENANCE_SYNTHETIC
from recaudit.interactions import from_triples
from recaudit.popindex import fill_attributes, pop_indices

from conftest import blank_profiles, entries, random_matrix


def oracle_pop(matrix, user_ids, item_ids, u):
    item_user_sets = {}
    for uu, i, _ in entries(matrix):
        item_user_sets.setdefault(int(i), set()).add(uu)
    return brute_force_pop_index(
        [int(i) for i in matrix.user_items(u)], item_user_sets,
        matrix.n_users, u)


def usage_of(plays, provenance):
    """The usage ``fill_attributes`` gives a user with these play counts."""
    m, _, _ = from_triples(from_rows([("u", f"i{k}", p) for k, p in enumerate(plays)]))
    attrs = blank_profiles(1)
    fill_attributes(attrs, m, provenance)
    return attrs[0].usage


class TestItemUserCounts:
    """An item's count of distinct users, as the pop-index reads it."""

    def test_three_users_one_item(self):
        # the item is shared by every other user: coverage 100
        m, _, _ = from_triples(from_rows([("a", "x", 1), ("b", "x", 2), ("c", "x", 5)]))
        assert pop_indices(m).tolist() == [100, 100, 100]
        assert m.n_users == 3

    def test_empty_matrix(self):
        m, _, _ = from_triples(from_rows([]))
        fill_attributes(blank_profiles(0), m, PROVENANCE_LFM360K)
        # one profile row per matrix row, so a row past the matrix's is an error
        with pytest.raises(ValueError):
            fill_attributes(blank_profiles(1), m, PROVENANCE_LFM360K)

    def test_random_matrix_column_recount(self, rng):
        # a user with one item has the floor of that item's coverage
        m, _, _ = random_matrix(rng, 50, 80, density=0.01)
        got = pop_indices(m)
        single = [u for u in range(m.n_users) if len(m.user_items(u)) == 1]
        assert single
        for u in single:
            i = int(m.user_items(u)[0])
            direct = sum(1 for v in range(m.n_users) if i in m.user_items(v))
            assert got[u] == math.floor(100.0 * (direct - 1) / (m.n_users - 1))


class TestPopIndex:
    def test_all_items_shared_by_everyone(self):
        triples = [(f"u{u}", f"i{i}", 1) for u in range(5) for i in range(3)]
        m, _, _ = from_triples(from_rows(triples))
        assert pop_indices(m).tolist() == [100] * 5

    def test_all_items_unique_to_user(self):
        triples = [("me", "mine1", 1), ("me", "mine2", 1), ("other", "theirs", 1)]
        m, _, _ = from_triples(from_rows(triples))
        assert pop_indices(m)[0] == 0

    def test_matches_brute_force_oracle(self, rng):
        for trial in range(30):
            m, user_ids, item_ids = random_matrix(rng, 50, 80, density=0.1)
            got = pop_indices(m)
            for u in range(0, m.n_users, 7):
                assert got[u] == oracle_pop(m, user_ids, item_ids, u)

    def test_user_without_items_rejected(self):
        m, _, _ = from_triples(from_rows([("a", "x", 1), ("b", "x", 1)]))
        trimmed = m.drop_entries(np.array([1]))
        # a user with an empty row has no pop-index
        assert pop_indices(trimmed)[1] == -1

    def test_monotone_in_added_interactions(self, rng):
        # adding another user's interaction on one of A's items never lowers A's index
        for trial in range(10):
            m, user_ids, item_ids = random_matrix(rng, 20, 25, density=0.15)
            base = pop_indices(m)[0]
            target_item = item_ids[int(m.user_items(0)[0])]
            triples = [(user_ids[u], item_ids[int(i)], s) for u, i, s in entries(m)]
            donor = next((user_ids[u] for u in range(1, m.n_users)
                          if int(m.user_items(0)[0]) not in m.user_items(u)), None)
            if donor is None:
                continue
            m2, _, _ = from_triples(from_rows(triples + [(donor, target_item, 1)]))
            assert pop_indices(m2)[0] >= base

    def test_invariant_to_strength_magnitude(self, rng):
        m, user_ids, item_ids = random_matrix(rng, 25, 30, density=0.2)
        scaled_triples = [(user_ids[u], item_ids[int(i)], s * 37.0)
                          for u, i, s in entries(m)]
        m2, _, _ = from_triples(from_rows(scaled_triples))
        assert np.array_equal(pop_indices(m), pop_indices(m2))


class TestPopIndices:
    def check(self, m):
        got = pop_indices(m)
        for u in range(m.n_users):
            if len(m.user_items(u)) == 0:
                assert got[u] == -1
            else:
                assert got[u] == oracle_pop(m, None, None, u)

    def test_matches_brute_force_oracle(self, rng):
        for trial in range(40):
            m, _, _ = random_matrix(rng, int(rng.integers(2, 40)),
                                    int(rng.integers(1, 30)),
                                    density=float(rng.uniform(0.02, 0.9)))
            self.check(m)

    def test_single_user(self):
        m, _, _ = from_triples(from_rows([("only", "x", 1), ("only", "y", 4)]))
        assert pop_indices(m).tolist() == [0]
        self.check(m)

    def test_empty_rows_read_minus_one(self, rng):
        for trial in range(10):
            m, _, _ = random_matrix(rng, 20, 15, density=0.3)
            rows = m.entry_rows()
            emptied = rng.choice(m.n_users, size=5, replace=False)
            trimmed = m.drop_entries(np.flatnonzero(np.isin(rows, emptied)))
            assert all(len(trimmed.user_items(u)) == 0 for u in emptied)
            self.check(trimmed)

    def test_rows_with_equal_coverage(self):
        # every item is shared by the same number of users
        triples = [(f"u{u}", f"i{(u + j) % 6}", 1) for u in range(6) for j in range(3)]
        m, _, _ = from_triples(from_rows(triples))
        assert len(set(np.bincount(m.indices).tolist())) == 1
        self.check(m)

    def test_empty_matrix(self):
        m, _, _ = from_triples(from_rows([]))
        assert pop_indices(m).size == 0


class TestUsage:
    def test_play_sum_for_lfm(self):
        assert usage_of([3, 5], PROVENANCE_LFM360K) == 8
        assert usage_of([3, 5], PROVENANCE_SYNTHETIC) == 8

    def test_item_count_for_ml1m(self):
        assert usage_of([4] * 20, PROVENANCE_ML1M) == 20

    def test_fixture_hand_sum(self):
        plays = [7, 2, 9, 1, 14]
        assert usage_of(plays, PROVENANCE_LFM360K) == sum(plays)
        assert usage_of(plays, PROVENANCE_ML1M) == len(plays)


class TestFillAttributes:
    def test_fills_only_users_with_rows(self):
        m, _, _ = from_triples(from_rows([("a", "x", 2), ("a", "y", 3), ("b", "x", 1)]))
        attrs = blank_profiles(2)
        fill_attributes(attrs, m, PROVENANCE_LFM360K)
        assert attrs[0].usage == 5
        assert attrs[1].usage == 1
        assert not np.isnan(attrs[0].pop_index)
        # profile rows are matched to matrix rows by position: one too many
        # or too few raises
        for records in (blank_profiles(3), attrs[:1]):
            with pytest.raises(ValueError):
                fill_attributes(records, m, PROVENANCE_LFM360K)

    def test_empty_row_left_unset(self):
        m, _, _ = from_triples(from_rows([("a", "x", 2), ("b", "x", 1), ("b", "y", 1)]))
        trimmed = m.drop_entries(np.array([0]))
        attrs = blank_profiles(2)
        fill_attributes(attrs, trimmed, PROVENANCE_LFM360K)
        assert np.isnan(attrs[0].usage) and np.isnan(attrs[0].pop_index)
        assert attrs[1].usage == 2
        assert attrs[1].pop_index == oracle_pop(trimmed, None, None, 1)

    def test_usage_at_or_past_2_pow_63_keeps_its_value(self):
        # an int64 cast once turned such a total into -2**63, the lowest usage
        m, _, _ = from_triples(from_rows([("a", "x", 1e19), ("a", "y", 1e19), ("b", "x", 3)]))
        attrs = blank_profiles(2)
        fill_attributes(attrs, m, PROVENANCE_LFM360K)
        assert attrs[0].usage == 2e19
        assert attrs[1].usage == 3

    def test_total_past_the_float_range_leaves_usage_unset(self, caplog):
        # such a total once became usage inf, with an overflow warning
        m, _, _ = from_triples(from_rows([("a", "x", 1.7e308), ("a", "y", 1.7e308),
                                          ("b", "x", 3)]))
        attrs = blank_profiles(2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fill_attributes(attrs, m, PROVENANCE_LFM360K)
        assert np.isnan(attrs[0].usage) and not np.isnan(attrs[0].pop_index)
        assert attrs[1].usage == 3
        assert "usage left missing for 1 users" in caplog.text

    @pytest.mark.parametrize("provenance", [PROVENANCE_LFM360K, PROVENANCE_ML1M])
    def test_matches_scalar_usage_and_pop_index(self, rng, provenance):
        for trial in range(8):
            m, user_ids, _ = random_matrix(rng, 30, 20, density=0.3, max_strength=500)
            emptied = rng.choice(m.n_users, size=trial, replace=False)
            m = m.drop_entries(np.flatnonzero(np.isin(m.entry_rows(), emptied)))
            attrs = blank_profiles(len(user_ids))
            fill_attributes(attrs, m, provenance)
            for u, attr in enumerate(attrs):
                if u in emptied:
                    assert np.isnan(attr.usage) and np.isnan(attr.pop_index)
                else:
                    row = slice(m.indptr[u], m.indptr[u + 1])
                    plays = round(float(np.sum(m.data[row])))
                    assert attr.usage == (len(m.indices[row])
                                          if provenance == PROVENANCE_ML1M else plays)
                    assert attr.pop_index == oracle_pop(m, None, None, u)
