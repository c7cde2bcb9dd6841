import numpy as np
import pytest

from oracles import full_sort_top_n, naive_als_loss
from recaudit import als
from recaudit.errors import DataError
from recaudit.interactions import from_triples

from conftest import random_matrix


def dense_of(matrix):
    dense = np.zeros((matrix.n_users, matrix.n_items))
    for u, i, s in matrix.iter_entries():
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
    @pytest.mark.parametrize("strength,alpha,expected", [
        (0, 1.0, 1.0),
        (5, 1.0, 6.0),
        (3, 40.0, 121.0),
    ])
    def test_formula(self, strength, alpha, expected):
        assert als.confidence(strength, alpha) == expected


class TestHalfSweep:
    def test_user_without_interactions_gets_zero_row(self):
        m, _, _ = from_triples([("u0", "i0", 2), ("u1", "i0", 3)])
        trimmed = m.drop_entries(np.array([False, True]))  # u1 loses its row
        hp = als.AlsHyperparams(factors=3, regularization=0.5, iterations=1, seed=0)
        model = als.AlsModel(np.full((2, 3), 0.7), np.full((1, 3), 0.4), hp)
        als.half_sweep("users", model, trimmed)
        assert np.array_equal(model.user_factors[1], np.zeros(3))
        assert not np.array_equal(model.user_factors[0], np.zeros(3))

    def test_scalar_normal_equation(self):
        # k=1, y=1, r=1, alpha=1, reg=0.01: x = c*p / (c*y^2 + reg) = 2 / 2.01
        m, _, _ = from_triples([("u", "i", 1.0)])
        hp = als.AlsHyperparams(factors=1, regularization=0.01, iterations=1,
                                alpha=1.0, seed=0)
        model = als.AlsModel(np.zeros((1, 1)), np.ones((1, 1)), hp)
        als.half_sweep("users", model, m)
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
                als.half_sweep(side, model, m)
                current = als.loss(model, m)
                assert current <= prev * (1 + 1e-8)
                prev = current

    def test_items_side_updates_only_items(self):
        m, _, _ = from_triples([("u", "i", 2.0)])
        hp = als.AlsHyperparams(factors=2, regularization=0.1, iterations=1, seed=0)
        model = als.AlsModel(np.full((1, 2), 0.3), np.full((1, 2), 0.3), hp)
        before_users = model.user_factors.copy()
        als.half_sweep("items", model, m)
        assert np.array_equal(model.user_factors, before_users)
        assert not np.array_equal(model.item_factors, np.full((1, 2), 0.3))

    def test_unknown_side_rejected(self):
        m, _, _ = from_triples([("u", "i", 1.0)])
        hp = als.AlsHyperparams(factors=1, seed=0)
        model = als.AlsModel(np.zeros((1, 1)), np.zeros((1, 1)), hp)
        with pytest.raises(ValueError):
            als.half_sweep("sideways", model, m)


class TestLoss:
    def test_zero_factors_single_entry(self):
        m, _, _ = from_triples([("u", "i", 4.0)])
        hp = als.AlsHyperparams(factors=2, regularization=0.01, alpha=1.0, seed=0)
        model = als.AlsModel(np.zeros((1, 2)), np.zeros((1, 2)), hp)
        assert als.loss(model, m) == 5.0  # confidence 1 + 1*4 over one observed pair

    def test_regularization_term_with_forced_factors(self):
        m, _, _ = from_triples([("u", "i", 1.0)])
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
    return from_triples(triples)


class TestFit:
    def test_empty_matrix_rejected(self):
        m, _, _ = from_triples([])
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
        m, umap, imap = two_block_matrix(rng)
        hp = als.AlsHyperparams(factors=8, regularization=0.01, iterations=15, seed=1)
        model = als.fit(m, hp)
        half = m.n_items // 2
        hits = 0
        for u in range(m.n_users):
            block = int(umap.ids[u][1:]) % 2
            top_item = als.recommend(model, u, 1)[0][0]
            item_block = 0 if int(imap.ids[top_item][1:]) < 15 else 1
            hits += int(item_block == block)
        assert hits / m.n_users >= 0.95

    def test_seed_determinism(self, rng):
        m, _, _ = random_matrix(rng, 30, 25, density=0.2)
        hp = als.AlsHyperparams(factors=6, iterations=3, seed=9)
        a = als.fit(m, hp)
        b = als.fit(m, hp)
        assert np.array_equal(a.user_factors, b.user_factors)
        assert np.array_equal(a.item_factors, b.item_factors)

    def test_factors_finite(self, rng):
        m, _, _ = random_matrix(rng, 20, 20, density=0.2)
        model = als.fit(m, als.AlsHyperparams(factors=5, iterations=3, seed=2))
        assert np.isfinite(model.user_factors).all()
        assert np.isfinite(model.item_factors).all()


class TestRecommend:
    def make_model(self, rng, n_users=4, n_items=30, k=3):
        hp = als.AlsHyperparams(factors=k, seed=0)
        return als.AlsModel(rng.normal(size=(n_users, k)),
                            rng.normal(size=(n_items, k)), hp)

    def test_full_depth_is_permutation(self, rng):
        model = self.make_model(rng)
        out = als.recommend(model, 0, 30)
        assert sorted(i for i, _ in out) == list(range(30))

    def test_zero_user_factor_ascending_ties(self, rng):
        model = self.make_model(rng)
        model.user_factors[1] = 0.0
        out = als.recommend(model, 1, 10)
        assert [i for i, _ in out] == list(range(10))
        assert all(score == 0.0 for _, score in out)

    def test_matches_full_sort_oracle(self, rng):
        for _ in range(20):
            model = self.make_model(rng)
            scores = model.item_factors @ model.user_factors[0]
            expected = full_sort_top_n(list(scores), 10)
            got = [i for i, _ in als.recommend(model, 0, 10)]
            assert got == expected

    def test_exclusion_never_returned(self, rng):
        model = self.make_model(rng)
        exclude = {0, 5, 7, 11}
        out = [i for i, _ in als.recommend(model, 0, 30, exclude)]
        assert not exclude.intersection(out)
        assert len(out) == 30 - len(exclude)

    def test_n_clamped_to_available(self, rng):
        model = self.make_model(rng)
        out = als.recommend(model, 0, 100, exclude={1, 2})
        assert len(out) == 28

    def test_permuting_user_rows_permutes_recommendations(self, rng):
        model = self.make_model(rng, n_users=6)
        perm = rng.permutation(6)
        permuted = als.AlsModel(model.user_factors[perm],
                                model.item_factors, model.hyperparams)
        for new_idx, old_idx in enumerate(perm):
            assert als.recommend(permuted, new_idx, 10) == \
                als.recommend(model, int(old_idx), 10)


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
