import numpy as np
import pytest

from oracles import from_rows, full_sort_top_n, naive_als_loss
from recaudit import als
from recaudit.errors import DataError
from recaudit.evaluation import _held_out_ranks
from recaudit.interactions import InteractionMatrix, from_triples

from conftest import entries, random_matrix, sweep_side


def dense_of(matrix):
    dense = np.zeros((matrix.n_users, matrix.n_items))
    for u, i, s in entries(matrix):
        dense[u, i] = s
    return dense


class TestInitFactors:
    def test_range(self):
        m = als.init_factors(1, 1, seed=3)
        assert 0.0 <= m[0, 0] < 0.01

    def test_determinism(self):
        assert np.array_equal(als.init_factors(20, 5, seed=7),
                              als.init_factors(20, 5, seed=7))
        assert not np.array_equal(als.init_factors(20, 5, seed=7),
                                  als.init_factors(20, 5, seed=8))

    def test_large_sample_mean(self):
        m = als.init_factors(1000, 50, seed=11)
        assert abs(m.mean() - 0.005) < 0.0005


class TestConfidence:
    """The weight 1 + alpha * strength of an observed pair: with zero
    factors the objective is that weight alone."""

    @pytest.mark.parametrize("strength,alpha,expected", [
        (0, 1.0, 1.0),
        (5, 1.0, 6.0),
        (3, 40.0, 121.0),
    ])
    def test_formula(self, strength, alpha, expected):
        m = InteractionMatrix(1, 1, np.array([0, 1]), np.array([0]),
                              np.array([float(strength)]))
        hp = als.AlsHyperparams(factors=1, alpha=alpha, seed=0)
        model = als.AlsModel(np.zeros((1, 1)), np.zeros((1, 1)), hp)
        assert als.loss(model, m) == expected


class TestHalfSweep:
    def test_user_without_interactions_gets_zero_row(self):
        m, _, _ = from_triples(from_rows([("u0", "i0", 2), ("u1", "i0", 3)]))
        trimmed = m.drop_entries(np.array([1]))  # u1 loses its row
        hp = als.AlsHyperparams(factors=3, regularization=0.5, iterations=1, seed=0)
        model = als.AlsModel(np.full((2, 3), 0.7), np.full((1, 3), 0.4), hp)
        sweep_side("users", model, trimmed)
        assert np.array_equal(model.user_factors[1], np.zeros(3))
        assert not np.array_equal(model.user_factors[0], np.zeros(3))

    def test_scalar_normal_equation(self):
        # k=1, y=1, r=1, alpha=1, reg=0.01: x = c*p / (c*y^2 + reg) = 2 / 2.01
        m, _, _ = from_triples(from_rows([("u", "i", 1.0)]))
        hp = als.AlsHyperparams(factors=1, regularization=0.01, iterations=1,
                                alpha=1.0, seed=0)
        model = als.AlsModel(np.zeros((1, 1)), np.ones((1, 1)), hp)
        sweep_side("users", model, m)
        assert model.user_factors[0, 0] == pytest.approx(2 / 2.01, abs=1e-12)

    def test_objective_non_increasing_random_instances(self, rng):
        for trial in range(12):
            m, _, _ = random_matrix(rng, 20, 30, density=0.15)
            hp = als.AlsHyperparams(factors=5, regularization=0.05, iterations=1,
                                    alpha=1.0, seed=trial)
            model = als.AlsModel(als.init_factors(m.n_users, 5, trial),
                                 als.init_factors(m.n_items, 5, trial + 1), hp)
            prev = als.loss(model, m)
            for side in ("items", "users", "items", "users"):
                sweep_side(side, model, m)
                current = als.loss(model, m)
                assert current <= prev * (1 + 1e-8)
                prev = current

    def test_items_side_updates_only_items(self):
        m, _, _ = from_triples(from_rows([("u", "i", 2.0)]))
        hp = als.AlsHyperparams(factors=2, regularization=0.1, iterations=1, seed=0)
        model = als.AlsModel(np.full((1, 2), 0.3), np.full((1, 2), 0.3), hp)
        before_users = model.user_factors.copy()
        sweep_side("items", model, m)
        assert np.array_equal(model.user_factors, before_users)
        assert not np.array_equal(model.item_factors, np.full((1, 2), 0.3))


class TestTransposeCsr:
    @pytest.mark.parametrize("n_items", [1, 256, 257, 65536, 65537])
    def test_equals_int32_stable_argsort(self, rng, n_items):
        # the key narrows to 8, 16 or 32 bits with n_items; the highest item
        # index and many entries per item are always present
        n_users = 300
        rows = [np.union1d(rng.choice(n_items, size=min(n_items, 40), replace=False),
                           [n_items - 1]) for _ in range(n_users)]
        indptr = np.zeros(n_users + 1, dtype=np.int64)
        np.cumsum([len(r) for r in rows], out=indptr[1:])
        indices = np.concatenate(rows).astype(np.int32)
        data = rng.integers(1, 9, size=indices.shape[0]).astype(np.float64)
        m = InteractionMatrix(n_users, n_items, indptr, indices, data)

        order = np.argsort(indices.astype(np.int32), kind="stable")
        expected_indptr = np.zeros(n_items + 1, dtype=np.int64)
        np.cumsum(np.bincount(indices, minlength=n_items), out=expected_indptr[1:])
        got_indptr, got_rows, got_vals = als._transpose_csr(m)
        assert np.array_equal(got_indptr, expected_indptr)
        assert np.array_equal(got_rows, m.entry_rows()[order])
        assert np.array_equal(got_vals, data[order])


class TestLoss:
    def test_zero_factors_single_entry(self):
        m, _, _ = from_triples(from_rows([("u", "i", 4.0)]))
        hp = als.AlsHyperparams(factors=2, regularization=0.01, alpha=1.0, seed=0)
        model = als.AlsModel(np.zeros((1, 2)), np.zeros((1, 2)), hp)
        assert als.loss(model, m) == 5.0  # confidence 1 + 1*4 over one observed pair

    def test_regularization_term_with_forced_factors(self):
        m, _, _ = from_triples(from_rows([("u", "i", 1.0)]))
        hp = als.AlsHyperparams(factors=1, regularization=0.5, alpha=1.0, seed=0)
        x, y = 0.6, 0.8
        model = als.AlsModel(np.array([[x]]), np.array([[y]]), hp)
        expected = (1 + 1) * (1 - x * y) ** 2 + 0.5 * (x * x + y * y)
        assert als.loss(model, m) == pytest.approx(expected, abs=1e-12)

    def test_gram_identity_matches_double_loop(self, rng):
        for trial in range(10):
            m, _, _ = random_matrix(rng, 10, 10, density=0.3)
            hp = als.AlsHyperparams(factors=4, regularization=0.07,
                                    alpha=2.5, iterations=1, seed=trial)
            model = als.AlsModel(rng.normal(size=(10, 4)), rng.normal(size=(10, 4)), hp)
            fast = als.loss(model, m)
            slow = naive_als_loss(model.user_factors, model.item_factors,
                                  dense_of(m), alpha=2.5, reg=0.07)
            assert fast == pytest.approx(slow, abs=1e-9 * max(1, abs(slow)))


def two_block_matrix(rng, n_users=40, n_items=30):
    """Two disjoint user/item blocks; block members share all block items."""
    triples = []
    for u in range(n_users):
        block = u % 2
        items = range(0, n_items // 2) if block == 0 else range(n_items // 2, n_items)
        for i in items:
            if rng.random() < 0.8:
                triples.append((f"u{u}", f"i{i}", 1))
    # guarantee every user and item appears
    for u in range(n_users):
        block_start = 0 if u % 2 == 0 else n_items // 2
        triples.append((f"u{u}", f"i{block_start}", 1))
    for i in range(n_items):
        owner = 0 if i < n_items // 2 else 1
        triples.append((f"u{owner}", f"i{i}", 1))
    return from_triples(from_rows(triples))


class TestFit:
    def test_empty_matrix_rejected(self):
        m, _, _ = from_triples(from_rows([]))
        with pytest.raises(DataError):
            als.fit(m, als.AlsHyperparams(factors=2, seed=0))

    def test_loss_after_fit_not_above_init(self, rng):
        for trial in range(5):
            m, _, _ = random_matrix(rng, 15, 20, density=0.2)
            hp = als.AlsHyperparams(factors=4, regularization=0.05,
                                    iterations=5, seed=trial)
            init = als.AlsModel(als.init_factors(m.n_users, 4, hp.seed + 1),
                                als.init_factors(m.n_items, 4, hp.seed), hp)
            fitted = als.fit(m, hp)
            assert als.loss(fitted, m) <= als.loss(init, m)

    def test_planted_two_block_structure(self, rng):
        m, user_ids, item_ids = two_block_matrix(rng)
        hp = als.AlsHyperparams(factors=8, regularization=0.01, iterations=15, seed=1)
        model = als.fit(m, hp)
        half = m.n_items // 2
        hits = 0
        for u in range(m.n_users):
            block = int(user_ids[u][1:]) % 2
            top_item = full_sort_top_n(model.item_factors @ model.user_factors[u], 1)[0]
            item_block = 0 if int(item_ids[top_item][1:]) < 15 else 1
            hits += int(item_block == block)
        assert hits / m.n_users >= 0.95

    def test_seed_determinism(self, rng):
        m, _, _ = random_matrix(rng, 30, 25, density=0.2)
        hp = als.AlsHyperparams(factors=6, iterations=3, seed=9)
        a = als.fit(m, hp)
        b = als.fit(m, hp)
        assert np.array_equal(a.user_factors, b.user_factors)
        assert np.array_equal(a.item_factors, b.item_factors)

    def test_item_init_is_never_read(self, rng):
        # the first item half-sweep solves every item row, or zeroes it when
        # the item has no entries, so any item init gives the fit's bytes
        full, _, _ = random_matrix(rng, 25, 30, density=0.2)
        m = full.drop_entries(np.flatnonzero(full.indices == 0))  # item 0 empty
        hp = als.AlsHyperparams(factors=5, iterations=3, seed=4)
        fitted = als.fit(m, hp)
        for item_init in (als.init_factors(m.n_items, 5, hp.seed),
                          np.full((m.n_items, 5), np.nan)):
            model = als.AlsModel(als.init_factors(m.n_users, 5, hp.seed + 1),
                                 item_init, hp)
            for _ in range(hp.iterations):
                sweep_side("items", model, m)
                sweep_side("users", model, m)
            assert model.item_factors.tobytes() == fitted.item_factors.tobytes()
            assert model.user_factors.tobytes() == fitted.user_factors.tobytes()
        assert not fitted.item_factors[0].any()

    def test_factors_finite(self, rng):
        m, _, _ = random_matrix(rng, 20, 20, density=0.2)
        model = als.fit(m, als.AlsHyperparams(factors=5, iterations=3, seed=2))
        assert np.isfinite(model.user_factors).all()
        assert np.isfinite(model.item_factors).all()


class TestRecommend:
    """The recommendation-list rule as ``evaluate_fold`` applies it through
    ``_held_out_ranks``: descending score, ties by ascending item index,
    excluded items scored -inf."""

    def make_model(self, rng, n_users=4, n_items=30, k=3):
        hp = als.AlsHyperparams(factors=k, seed=0)
        return als.AlsModel(rng.normal(size=(n_users, k)),
                            rng.normal(size=(n_items, k)), hp)

    def test_full_depth_is_permutation(self, rng):
        model = self.make_model(rng)
        scores = model.item_factors @ model.user_factors[0]
        assert _held_out_ranks(scores, np.arange(30), 30) == list(range(1, 31))

    def test_zero_user_factor_ascending_ties(self, rng):
        model = self.make_model(rng)
        model.user_factors[1] = 0.0
        scores = model.item_factors @ model.user_factors[1]
        assert all(score == 0.0 for score in scores)
        for i in range(30):
            assert _held_out_ranks(scores, np.array([i]), 10) == ([i + 1] if i < 10 else [])

    def test_matches_full_sort_oracle(self, rng):
        for _ in range(20):
            model = self.make_model(rng)
            scores = model.item_factors @ model.user_factors[0]
            expected = full_sort_top_n(list(scores), 10)
            held = np.sort(rng.choice(30, size=8, replace=False))
            assert _held_out_ranks(scores, held, 10) == \
                [pos for pos, i in enumerate(expected, start=1) if i in set(held.tolist())]

    def test_exclusion_never_returned(self, rng):
        model = self.make_model(rng)
        exclude = [0, 5, 7, 11]
        scores = model.item_factors @ model.user_factors[0]
        scores[exclude] = -np.inf
        kept = np.setdiff1d(np.arange(30), exclude)
        assert _held_out_ranks(scores, kept, 30) == list(range(1, 30 - len(exclude) + 1))
        assert _held_out_ranks(scores, np.array(exclude), 30 - len(exclude)) == []

    def test_n_clamped_to_available(self, rng):
        model = self.make_model(rng)
        scores = model.item_factors @ model.user_factors[0]
        scores[[1, 2]] = -np.inf
        kept = np.setdiff1d(np.arange(30), [1, 2])
        assert _held_out_ranks(scores, kept, 100) == list(range(1, 29))

    def test_permuting_user_rows_permutes_recommendations(self, rng):
        model = self.make_model(rng, n_users=6)
        perm = rng.permutation(6)
        permuted = als.AlsModel(model.user_factors[perm],
                                model.item_factors, model.hyperparams)
        for new_idx, old_idx in enumerate(perm):
            new = permuted.item_factors @ permuted.user_factors[new_idx]
            old = model.item_factors @ model.user_factors[int(old_idx)]
            for i in range(30):
                assert _held_out_ranks(new, np.array([i]), 10) == \
                    _held_out_ranks(old, np.array([i]), 10)


class TestModelDump:
    def test_round_trip(self, rng, tmp_path):
        m, _, _ = random_matrix(rng, 10, 8, density=0.4)
        hp = als.AlsHyperparams(factors=3, iterations=2, seed=5)
        model = als.fit(m, hp)
        path = tmp_path / "model.npz"
        als.save_model(model, path)
        loaded = als.load_model(path)
        assert np.array_equal(loaded.user_factors, model.user_factors)
        assert np.array_equal(loaded.item_factors, model.item_factors)
        assert loaded.hyperparams == hp
