import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (from_rows, full_sort_top_n, naive_fold_drop_mask, naive_held_out_ranks,
                     naive_mrr, naive_ndcg, naive_rbp)
from recaudit import als
from recaudit.errors import ConfigError, DataError, NumericalError
from recaudit.evaluation import (Fold, MetricFrame, MetricRow, _held_out_ranks,
                                 _mrr_at, _ndcg_at, _rbp_at,
                                 assign_holdouts, evaluate_fold,
                                 fold_training_matrix, make_folds)
from recaudit.interactions import from_triples
from recaudit.util import derive_seed

from conftest import entries, held_items, hit_positions, random_matrix


class TestMakeFolds:
    def test_partition_6040_into_five(self):
        plan = make_folds(list(range(6040)), 5, "partition", seed=1)
        sizes = [len(f.test_users) for f in plan.folds]
        assert sizes == [1208] * 5

    def test_small_partition_disjoint_union(self):
        plan = make_folds(list(range(10)), 5, "partition", seed=3)
        all_users = [u for f in plan.folds for u in f.test_users]
        assert sorted(all_users) == list(range(10))
        assert all(len(f.test_users) == 2 for f in plan.folds)

    def test_sample_folds_disjoint(self):
        plan = make_folds(list(range(30000)), 5, "sample", seed=4, sample_size=5000)
        seen = set()
        for fold in plan.folds:
            assert len(fold.test_users) == 5000
            assert not seen.intersection(fold.test_users)
            seen.update(fold.test_users)
        assert len(seen) == 25000

    def test_partition_sizes_differ_at_most_one(self):
        plan = make_folds(list(range(13)), 5, "partition", seed=0)
        sizes = [len(f.test_users) for f in plan.folds]
        assert max(sizes) - min(sizes) <= 1
        assert sum(sizes) == 13

    def test_seed_determinism(self):
        a = make_folds(list(range(100)), 5, "partition", seed=9)
        b = make_folds(list(range(100)), 5, "partition", seed=9)
        assert [f.test_users for f in a.folds] == [f.test_users for f in b.folds]

    def test_precondition_errors(self):
        with pytest.raises(ConfigError):
            make_folds(list(range(3)), 5, "partition", seed=0)
        with pytest.raises(ConfigError):
            make_folds(list(range(10)), 5, "sample", seed=0, sample_size=3)
        with pytest.raises(ConfigError):
            make_folds(list(range(10)), 2, "quantum", seed=0)


class TestHoldoutSplit:
    """The per-user split that ``assign_holdouts`` draws, on real folds."""

    @staticmethod
    def one_user(n_items, seed=5):
        matrix, user_ids, _ = from_triples(from_rows(
            [("u", f"i{i}", 1) for i in range(n_items)]))
        plan = assign_holdouts(make_folds([0], 1, "partition", seed=seed),
                               matrix, user_ids, fraction=0.2)
        return matrix, plan.folds[0]

    def test_41_items_holds_8(self):
        matrix, fold = self.one_user(41)
        assert len(held_items(matrix, fold)[0]) == 8
        assert len(fold_training_matrix(matrix, fold).user_items(0)) == 33

    def test_minimum_one_held(self):
        matrix, fold = self.one_user(4)
        assert len(held_items(matrix, fold)[0]) == 1
        assert len(fold_training_matrix(matrix, fold).user_items(0)) == 3

    def test_partition_of_input(self, rng):
        matrix, user_ids, _ = random_matrix(rng, 20, 30, density=0.3)
        plan = assign_holdouts(make_folds(list(range(20)), 2, "partition", seed=6),
                               matrix, user_ids, fraction=0.2)
        for fold in plan.folds:
            train = fold_training_matrix(matrix, fold)
            for u, held in held_items(matrix, fold).items():
                assert sorted(train.user_items(u).tolist() + held.tolist()) == \
                    matrix.user_items(u).tolist()

    def test_determinism_and_seed_sensitivity(self):
        matrix, a = self.one_user(100, seed=7)
        _, b = self.one_user(100, seed=7)
        _, c = self.one_user(100, seed=8)
        assert np.array_equal(a.held, b.held)
        assert not np.array_equal(a.held, c.held)
        # the first 20 of a permutation of the row, seeded by (plan seed,
        # fold index, user id)
        perm = np.random.default_rng(derive_seed(7, 0, "u")).permutation(100)
        assert np.array_equal(held_items(matrix, a)[0],
                              np.sort(matrix.user_items(0)[perm[:20]]))

    def test_too_few_items_rejected(self):
        matrix, fold = self.one_user(1)
        assert fold.test_users == []
        assert fold.held.size == 0 and fold.held_ptr.tolist() == [0]
        assert fold_training_matrix(matrix, fold).nnz == 1


class TestMetrics:
    def test_ideal_ranking(self):
        assert _ndcg_at([1, 2], 2, 4) == 1.0

    def test_single_relevant_at_rank_two(self):
        assert _ndcg_at([2], 1, 3) == pytest.approx(0.6309297535714575, abs=1e-12)

    def test_no_relevant_found(self):
        assert _ndcg_at([], 1, 3) == 0.0
        assert _ndcg_at([], 0, 3) == 0.0

    def test_mrr_examples(self):
        assert _mrr_at([1]) == 1.0
        assert _mrr_at([4]) == 0.25
        assert _mrr_at([]) == 0.0

    def test_rbp_examples(self):
        assert _rbp_at([1], persistence=0.85) == pytest.approx(0.15, abs=1e-12)
        assert _rbp_at([1, 2], persistence=0.5) == 0.75
        assert _rbp_at([], persistence=0.5) == 0.0

    def test_rbp_at_most_one(self):
        # a long run of top hits rounds past 1 unless capped, and the metrics
        # CSV reader rejects values above 1
        assert _rbp_at(list(range(1, 1001)), persistence=0.95) == 1.0

    def test_rbp_persistence_validation(self):
        with pytest.raises(ConfigError):
            _rbp_at([1], persistence=1.0)
        with pytest.raises(ConfigError):
            _rbp_at([1], persistence=0.0)

    def test_oracle_equivalence_random_instances(self, rng):
        for _ in range(200):
            n_ranked = int(rng.integers(1, 40))
            ranked = list(rng.permutation(100)[:n_ranked])
            relevant = set(rng.choice(100, size=int(rng.integers(1, 20)),
                                      replace=False).tolist())
            gamma = float(rng.uniform(0.1, 0.95))
            hits = hit_positions(ranked, relevant)
            assert _ndcg_at(hits, len(relevant), n_ranked) == pytest.approx(
                naive_ndcg(ranked, relevant), abs=1e-12)
            assert _mrr_at(hits) == pytest.approx(
                naive_mrr(ranked, relevant), abs=1e-12)
            assert _rbp_at(hits, gamma) == pytest.approx(
                naive_rbp(ranked, relevant, gamma), abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_ndcg_invariant_beyond_last_relevant(self, data):
        relevant = data.draw(st.sets(st.integers(0, 20), min_size=1, max_size=5))
        ranked = data.draw(st.lists(st.integers(0, 20), unique=True,
                                    min_size=len(relevant), max_size=15))
        extras = [x for x in range(100, 110) if x not in relevant]
        longer = ranked + extras
        assert _ndcg_at(hit_positions(longer, relevant), len(relevant),
                        len(longer)) == pytest.approx(
            _ndcg_at(hit_positions(ranked, relevant), len(relevant), len(ranked)),
            abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(0, 30), unique=True, min_size=1, max_size=20),
           st.sets(st.integers(0, 30), min_size=1, max_size=10))
    def test_mrr_depends_only_on_first_relevant_rank(self, ranked, relevant):
        first = next((i + 1 for i, x in enumerate(ranked) if x in relevant), None)
        expected = 1.0 / first if first else 0.0
        assert _mrr_at(hit_positions(ranked, relevant)) == expected

    def test_metric_ranges(self, rng):
        for _ in range(50):
            ranked = list(rng.permutation(50)[:20])
            relevant = set(rng.choice(50, 5, replace=False).tolist())
            hits = hit_positions(ranked, relevant)
            assert 0.0 <= _ndcg_at(hits, len(relevant), len(ranked)) <= 1.0
            assert 0.0 <= _mrr_at(hits) <= 1.0
            assert 0.0 <= _rbp_at(hits, 0.85) < 1.0


@st.composite
def ranking_cases(draw):
    """(scores, held, depth) with many exact ties: scores from a small
    integer grid, some of them -inf (excluded training items), and in one
    case of ten a NaN."""
    n_items = draw(st.integers(1, 40))
    grid = st.sampled_from([float(v) for v in range(-4, 5)] + [-np.inf] * 2)
    scores = np.array(draw(st.lists(grid, min_size=n_items, max_size=n_items)))
    if draw(st.integers(0, 9)) == 0:
        scores[draw(st.integers(0, n_items - 1))] = np.nan
    held = np.array(sorted(draw(st.sets(st.integers(0, n_items - 1), max_size=n_items))),
                    dtype=np.int64)
    depth = draw(st.one_of(st.sampled_from([1, n_items - 1, n_items, n_items + 3]),
                           st.integers(1, n_items + 5)))
    return scores, held, max(depth, 1)


def nth_largest(scores, depth):
    return np.sort(scores)[::-1][min(depth, len(scores)) - 1]


class TestHeldOutRanks:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(ranking_cases())
    def test_matches_oracle(self, case):
        scores, held, depth = case
        assert _held_out_ranks(scores, held, depth) == \
            naive_held_out_ranks(scores, held, depth)

    # each case names the situation it builds; the check after it asserts
    # that the situation holds, so an edit to the data cannot quietly drop it
    CASES = {
        # the held-out 3s equal the 3rd largest score, and 3s lie on both
        # sides of the partition
        "tie at the threshold": (
            [5.0, 3.0, 3.0, 3.0, 1.0, 3.0, 0.0], [2, 5], 3,
            lambda sc, h, d: (sc[h] == nth_largest(sc, d)).all()
            and np.count_nonzero(sc >= nth_largest(sc, d)) > d),
        # the held-out 7s lie above the threshold and share their score
        "ties inside the top": (
            [9.0, 7.0, 7.0, 2.0, 7.0, 1.0, 0.0, 0.0], [2, 4], 5,
            lambda sc, h, d: (sc[h] > nth_largest(sc, d)).all()
            and np.count_nonzero(sc == 7.0) == 3),
        "depth 1": ([2.0, 4.0, 4.0, 1.0], [1, 2], 1, lambda sc, h, d: d == 1),
        "depth n_items - 1": ([2.0, 4.0, 4.0, 1.0, 2.0], [0, 3, 4], 4,
                              lambda sc, h, d: d == len(sc) - 1),
        "depth n_items": ([2.0, 4.0, 4.0, 1.0, 2.0], [0, 3, 4], 5,
                          lambda sc, h, d: d == len(sc)),
        "depth beyond n_items": ([2.0, 4.0, 4.0, 1.0, 2.0], [0, 3, 4], 9,
                                 lambda sc, h, d: d > len(sc)),
        "every held item below the threshold": (
            [0.0, 1.0, 2.0, 3.0, 4.0, 5.0], [0, 1, 2], 3,
            lambda sc, h, d: (sc[h] < nth_largest(sc, d)).all()),
        # excluded training items fill the list up to the depth
        "-inf training items at the threshold": (
            [2.0, -np.inf, -np.inf, 1.0, -np.inf, 0.5], [0, 5], 5,
            lambda sc, h, d: nth_largest(sc, d) == -np.inf),
        # NaN compares false: the counting rule ranks it first
        "a NaN score": ([1.0, np.nan, 3.0, 1.0, 2.0], [1, 3], 2,
                        lambda sc, h, d: np.isnan(sc).any()),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_named_case(self, name):
        scores, held, depth, holds = self.CASES[name]
        scores, held = np.array(scores), np.array(held, dtype=np.int64)
        assert holds(scores, held, depth)
        ranks = _held_out_ranks(scores, held, depth)
        assert ranks == naive_held_out_ranks(scores, held, depth)
        assert all(type(rank) is int for rank in ranks)

    def test_depth_zero_or_nothing_held(self):
        scores = np.array([1.0, 2.0, 3.0])
        assert _held_out_ranks(scores, np.array([0, 2]), 0) == []
        assert _held_out_ranks(scores, np.array([], dtype=np.int64), 2) == []


class TestFoldPipeline:
    def build(self, rng, n_users=30, n_items=40):
        matrix, user_ids, _ = random_matrix(rng, n_users, n_items, density=0.3)
        plan = make_folds(list(range(matrix.n_users)), 3, "partition", seed=11)
        assign_holdouts(plan, matrix, user_ids, fraction=0.2)
        return matrix, user_ids, plan

    def test_holdouts_nonempty_subsets(self, rng):
        matrix, _, plan = self.build(rng)
        for fold in plan.folds:
            for u, held in held_items(matrix, fold).items():
                assert len(held) >= 1
                assert set(held) <= set(matrix.user_items(u))
                assert len(held) < len(matrix.user_items(u))

    def test_training_matrix_has_zero_leakage(self, rng):
        matrix, _, plan = self.build(rng)
        for fold in plan.folds:
            train = fold_training_matrix(matrix, fold)
            train_pairs = {(u, i) for u, i, _ in entries(train)}
            for u, held in held_items(matrix, fold).items():
                for item in held:
                    assert (u, int(item)) not in train_pairs

    def test_training_matrix_keeps_other_entries(self, rng):
        matrix, _, plan = self.build(rng)
        fold = plan.folds[0]
        train = fold_training_matrix(matrix, fold)
        held_pairs = {(u, int(i)) for u, items in held_items(matrix, fold).items()
                      for i in items}
        assert train.nnz == matrix.nnz - len(held_pairs)

    def test_training_matrix_matches_per_user_mask(self, rng):
        for trial in range(30):
            n_users = int(rng.integers(1, 25))
            n_items = int(rng.integers(1, 30))
            matrix, _, _ = random_matrix(rng, n_users, n_items,
                                         density=float(rng.uniform(0.05, 0.6)))
            fold = Fold(index=0, test_users=[])
            held = []
            # some users get no holdout at all, and trial 0 holds nothing out
            for u in range(matrix.n_users):
                start, stop = int(matrix.indptr[u]), int(matrix.indptr[u + 1])
                if trial == 0 or rng.random() < 0.3:
                    continue
                size = int(rng.integers(1, stop - start + 1))
                held.append(np.sort(rng.choice(np.arange(start, stop), size=size,
                                               replace=False)))
                fold.test_users.append(u)
            if held:
                fold.held = np.concatenate(held)
            fold.held_ptr = np.cumsum([0] + [len(h) for h in held])
            keep = ~naive_fold_drop_mask(matrix.indptr, matrix.indices,
                                         held_items(matrix, fold))
            kept_per_row = [np.count_nonzero(keep[matrix.indptr[u]:matrix.indptr[u + 1]])
                            for u in range(matrix.n_users)]
            train = fold_training_matrix(matrix, fold)
            assert (train.n_users, train.n_items) == (matrix.n_users, matrix.n_items)
            assert train.indptr.tolist() == np.cumsum([0] + kept_per_row).tolist()
            assert np.array_equal(train.indices, matrix.indices[keep])
            assert np.array_equal(train.data, matrix.data[keep])

    def test_holdout_determinism_per_user_id(self, rng):
        matrix, user_ids, _ = random_matrix(rng, 30, 40, density=0.3)
        p1 = make_folds(list(range(matrix.n_users)), 3, "partition", seed=11)
        assign_holdouts(p1, matrix, user_ids, fraction=0.2)
        p2 = make_folds(list(range(matrix.n_users)), 3, "partition", seed=11)
        assign_holdouts(p2, matrix, user_ids, fraction=0.2)
        for f1, f2 in zip(p1.folds, p2.folds):
            assert f1.test_users == f2.test_users
            assert np.array_equal(f1.held, f2.held)
            assert np.array_equal(f1.held_ptr, f2.held_ptr)

    def test_user_with_single_item_skipped(self, rng, caplog):
        matrix, user_ids, _ = from_triples(from_rows([("solo", "i0", 1),
                                                      ("multi", "i0", 1), ("multi", "i1", 1),
                                                      ("multi2", "i0", 1), ("multi2", "i1", 2)]))
        plan = make_folds([0, 1, 2], 1, "partition", seed=0)
        assign_holdouts(plan, matrix, user_ids, fraction=0.2)
        assert 0 not in plan.folds[0].test_users
        assert "skipped" in caplog.text

    def test_evaluate_fold_ranges_and_shape(self, rng):
        matrix, user_ids, plan = self.build(rng)
        fold = plan.folds[0]
        train = fold_training_matrix(matrix, fold)
        model = als.fit(train, als.AlsHyperparams(factors=4, iterations=3, seed=0))
        rows = evaluate_fold(model, fold, matrix, user_ids, n=20)
        assert len(rows) == len(fold.test_users)
        for row in rows:
            assert 0.0 <= row.ndcg <= 1.0
            assert 0.0 <= row.mrr <= 1.0
            assert 0.0 <= row.rbp < 1.0
            assert row.fold == fold.index

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_evaluate_fold_rejects_non_finite_test_user_factors(self, rng, bad):
        matrix, user_ids, plan = self.build(rng)
        fold = plan.folds[1]
        train = fold_training_matrix(matrix, fold)
        model = als.fit(train, als.AlsHyperparams(factors=4, iterations=2, seed=0))
        u = fold.test_users[len(fold.test_users) // 2]
        model.user_factors[u, 1] = bad
        with pytest.raises(NumericalError,
                           match=f"^fold 1: non-finite factors for test user {user_ids[u]}$"):
            evaluate_fold(model, fold, matrix, user_ids, n=20)

    def test_evaluate_fold_reads_only_test_user_factors(self, rng):
        matrix, user_ids, plan = self.build(rng)
        for fold in plan.folds:
            train = fold_training_matrix(matrix, fold)
            hp = als.AlsHyperparams(factors=4, iterations=2, seed=fold.index)
            full = als.fit(train, hp)
            restricted = als.fit(train, hp, users=fold.test_users)
            assert np.isnan(restricted.user_factors).any()
            assert evaluate_fold(restricted, fold, matrix, user_ids, n=20) == \
                evaluate_fold(full, fold, matrix, user_ids, n=20)

    @staticmethod
    def oracle_rows(model, fold, matrix, n, persistence, filter_train):
        """Per test user: the whole list from full_sort_top_n, scored by the
        naive metric oracles."""
        out = []
        for u, held in held_items(matrix, fold).items():
            exclude = (set(np.setdiff1d(matrix.user_items(u), held).tolist())
                       if filter_train else frozenset())
            ranked = full_sort_top_n(model.item_factors @ model.user_factors[u], n, exclude)
            relevant = set(int(i) for i in held)
            out.append((naive_ndcg(ranked, relevant), naive_mrr(ranked, relevant),
                        naive_rbp(ranked, relevant, persistence)))
        return out

    def test_evaluate_fold_matches_recommend_oracle(self, rng):
        # exact float equality, with exact score ties from zero and rounded
        # factors, training items kept and excluded, and depths up to beyond
        # the number of items
        for trial in range(60):
            n_users, n_items = int(rng.integers(4, 25)), int(rng.integers(3, 50))
            matrix, user_ids, _ = random_matrix(rng, n_users, n_items,
                                            density=float(rng.uniform(0.1, 0.8)))
            plan = make_folds(list(range(matrix.n_users)), 2, "partition", seed=trial)
            assign_holdouts(plan, matrix, user_ids, fraction=0.2)
            k = int(rng.integers(1, 4))
            items = rng.normal(size=(matrix.n_items, k))
            items[rng.random(matrix.n_items) < 0.3] = 0.0
            if trial % 3 == 0:
                items = np.round(items)
            model = als.AlsModel(rng.normal(size=(matrix.n_users, k)), items,
                                 als.AlsHyperparams(factors=k))
            depth = int(rng.integers(1, matrix.n_items + 5))
            persistence = float(rng.uniform(0.1, 0.95))
            for filter_train in (True, False):
                for fold in plan.folds:
                    rows = evaluate_fold(model, fold, matrix, user_ids, n=depth,
                                         persistence=persistence,
                                         filter_train=filter_train)
                    assert [(r.ndcg, r.mrr, r.rbp) for r in rows] == self.oracle_rows(
                        model, fold, matrix, depth, persistence, filter_train)

    def test_evaluate_fold_single_held_out_item_and_deep_lists(self, rng):
        # every user of 2-4 items holds out exactly one; depth exceeds the
        # items left after excluding the training items
        matrix, user_ids, _ = random_matrix(rng, 30, 12, density=0.15)
        plan = make_folds(list(range(matrix.n_users)), 1, "partition", seed=5)
        assign_holdouts(plan, matrix, user_ids, fraction=0.2)
        fold = plan.folds[0]
        assert any(len(held) == 1 for held in held_items(matrix, fold).values())
        model = als.AlsModel(rng.normal(size=(matrix.n_users, 2)),
                             rng.normal(size=(matrix.n_items, 2)),
                             als.AlsHyperparams(factors=2))
        for depth in (1, matrix.n_items, matrix.n_items + 10):
            for filter_train in (True, False):
                rows = evaluate_fold(model, fold, matrix, user_ids, n=depth,
                                     filter_train=filter_train)
                assert [(r.ndcg, r.mrr, r.rbp) for r in rows] == self.oracle_rows(
                    model, fold, matrix, depth, 0.85, filter_train)

    def test_evaluate_fold_many_items_shallow_depth(self, rng):
        # far more items than the depth, so the partition leaves most items
        # below the threshold; integer factors give exact ties at and above it
        for trial in range(12):
            matrix, user_ids, _ = random_matrix(rng, 12, int(rng.integers(200, 400)),
                                            density=0.05)
            plan = make_folds(list(range(matrix.n_users)), 2, "partition", seed=trial)
            assign_holdouts(plan, matrix, user_ids, fraction=0.3)
            k = int(rng.integers(1, 4))
            model = als.AlsModel(np.round(rng.normal(size=(matrix.n_users, k))),
                                 np.round(rng.normal(size=(matrix.n_items, k))),
                                 als.AlsHyperparams(factors=k))
            depth = int(rng.integers(1, 25))
            for filter_train in (True, False):
                for fold in plan.folds:
                    rows = evaluate_fold(model, fold, matrix, user_ids, n=depth,
                                         filter_train=filter_train)
                    assert [(r.ndcg, r.mrr, r.rbp) for r in rows] == self.oracle_rows(
                        model, fold, matrix, depth, 0.85, filter_train)

    def test_full_recovery_gives_ndcg_one(self):
        # deterministic model whose top items are exactly the held-out set
        matrix, user_ids, _ = from_triples(from_rows(
            [("u", f"i{i}", 1) for i in range(10)] + [("v", "i0", 1), ("v", "i1", 1)]))
        # user 0's first two entries, items 0 and 1
        fold = Fold(index=0, test_users=[0], held=np.array([0, 1]),
                    held_ptr=np.array([0, 2]))
        hp = als.AlsHyperparams(factors=1, seed=0)
        item_factors = np.linspace(1.0, 0.1, matrix.n_items).reshape(-1, 1)
        model = als.AlsModel(np.ones((matrix.n_users, 1)), item_factors, hp)
        rows = evaluate_fold(model, fold, matrix, user_ids, n=10, filter_train=False)
        assert rows[0].ndcg == 1.0
        assert rows[0].mrr == 1.0

    def test_filter_train_excludes_training_items(self, rng):
        matrix, user_ids, plan = self.build(rng)
        fold = plan.folds[0]
        u = fold.test_users[0]
        train_items = set(int(i) for i in matrix.user_items(u)) - \
            set(int(i) for i in held_items(matrix, fold)[u])
        train = fold_training_matrix(matrix, fold)
        model = als.fit(train, als.AlsHyperparams(factors=4, iterations=2, seed=1))
        ranked = full_sort_top_n(model.item_factors @ model.user_factors[u],
                                 matrix.n_items, train_items)
        assert not train_items.intersection(ranked)

    def test_two_block_beats_random_model(self, rng):
        from test_als import two_block_matrix
        matrix, user_ids, _ = two_block_matrix(rng, n_users=40, n_items=30)
        plan = make_folds(list(range(matrix.n_users)), 2, "partition", seed=2)
        assign_holdouts(plan, matrix, user_ids, fraction=0.2)
        fold = plan.folds[0]
        train = fold_training_matrix(matrix, fold)
        fitted = als.fit(train, als.AlsHyperparams(factors=6, iterations=10, seed=3))
        random_model = als.AlsModel(
            np.random.default_rng(0).normal(size=fitted.user_factors.shape),
            np.random.default_rng(1).normal(size=fitted.item_factors.shape),
            fitted.hyperparams)
        fit_rows = evaluate_fold(fitted, fold, matrix, user_ids, n=30)
        rnd_rows = evaluate_fold(random_model, fold, matrix, user_ids, n=30)
        assert np.mean([r.ndcg for r in fit_rows]) > np.mean([r.ndcg for r in rnd_rows])


class TestMetricFrame:
    def test_csv_round_trip(self, tmp_path):
        frame = MetricFrame(rows=[
            MetricRow("u1", 0, 0.5, 0.25, 0.1),
            MetricRow("u2", 1, 1 / 3, 0.125, 0.0123456789012345),
        ])
        path = tmp_path / "metrics.csv"
        frame.to_csv(path)
        loaded = MetricFrame.from_csv(path)
        assert [(r.user_id, r.fold) for r in loaded.rows] == [("u1", 0), ("u2", 1)]
        for a, b in zip(frame.rows, loaded.rows):
            assert (a.ndcg, a.mrr, a.rbp) == (b.ndcg, b.mrr, b.rbp)

    def test_per_user_mean_pools_across_folds(self):
        frame = MetricFrame(rows=[
            MetricRow("u", 0, 0.2, 0.0, 0.0),
            MetricRow("u", 1, 0.6, 0.0, 0.0),
            MetricRow("v", 0, 1.0, 0.0, 0.0),
        ])
        means = frame.user_means(("w", "v", "u"))["ndcg"]
        assert np.isnan(means[0])
        assert means[1:].tolist() == [1.0, pytest.approx(0.4)]

    @pytest.mark.parametrize("bad_row, message", [
        ("u2,1,nan,0.5,0.5", r"outside \[0, 1\]"),
        ("u2,1,0.5,7.5,0.5", r"outside \[0, 1\]"),
        ("u2,1,0.5,0.5,-2", r"outside \[0, 1\]"),
        ("u1,0,0.5,0.5,0.5", "second row for user 'u1' in fold 0"),
    ])
    def test_bad_values_rejected(self, tmp_path, bad_row, message):
        path = tmp_path / "metrics.csv"
        path.write_text(f"user_id,fold,ndcg,mrr,rbp\nu1,0,0.2,0.3,0.4\n{bad_row}\n")
        with pytest.raises(DataError, match=f"{message} in {path} line 3"):
            MetricFrame.from_csv(path)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("wrong,header\n1,2\n")
        with pytest.raises(ConfigError):
            MetricFrame.from_csv(path)
