"""The batched explainer fit against the per-bag oracle, float for float, and
column binning against ``FeatureSpec.bin_of``, cell by cell."""

import numpy as np
import pytest

from oracles import naive_fit_one_bag
from recaudit.ebm import (KIND_CATEGORICAL, KIND_NUMERIC, EbmConfig, FeatureSpec,
                          _bin_matrix, _fit_bags, bin_numeric,
                          categorical_spec)
from recaudit.util import derive_seed


def random_problem(rng, n):
    rows = [{"x": None if rng.random() < 0.1 else float(rng.normal()),
             "k": int(rng.integers(0, 6)),
             "c": [None, "a", "b", "c"][int(rng.integers(0, 4))]}
            for _ in range(n)]
    y = np.array([(r["x"] or 0.0) + 0.3 * r["k"] + (r["c"] == "a")
                  + float(rng.normal(0, 0.5)) for r in rows])
    specs = [bin_numeric("x", [r["x"] for r in rows], int(rng.integers(2, 17))),
             bin_numeric("k", [r["k"] for r in rows], 4),
             categorical_spec("c", [r["c"] for r in rows])]
    return _bin_matrix(rows, specs), y, specs


def assert_same_fit(got, want):
    intercept, shapes, losses = got
    assert intercept == want[0]
    assert losses == want[2]  # the stop round is len(losses)
    assert len(shapes) == len(want[1])
    for shape, expected in zip(shapes, want[1]):
        assert shape.shape == expected.shape
        assert shape.tobytes() == expected.tobytes()


def fit_and_compare(binned, y, specs, config, bags):
    got = _fit_bags(binned, y, specs, config, bags)
    want = [naive_fit_one_bag(binned, y, specs, config, bag) for bag in bags]
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert_same_fit(g, w)
    return [len(w[2]) for w in want]


class TestBatchedFitMatchesOracle:
    @pytest.mark.parametrize("case", range(12))
    def test_random_configs(self, case):
        rng = np.random.default_rng(derive_seed("ebm-batch", case))
        binned, y, specs = random_problem(rng, int(rng.integers(10, 250)))
        config = EbmConfig(learning_rate=float(rng.choice([0.01, 0.1, 0.5, 1.0])),
                           max_rounds=int(rng.integers(1, 120)),
                           bags=8, patience=int(rng.integers(1, 30)), seed=case)
        bags = [0] if case % 2 else range(8)
        fit_and_compare(binned, y, specs, config, bags)
        assert_same_fit(_fit_bags(binned, y, specs, config, [5])[0],
                        naive_fit_one_bag(binned, y, specs, config, 5))

    def test_bags_stop_at_different_rounds(self):
        rng = np.random.default_rng(7)
        binned, y, specs = random_problem(rng, 150)
        config = EbmConfig(learning_rate=0.5, max_rounds=300, bags=8, patience=3, seed=1)
        rounds = fit_and_compare(binned, y, specs, config, range(8))
        assert len(set(rounds)) > 1
        assert max(rounds) < config.max_rounds

    def test_patience_at_least_max_rounds_runs_every_round(self):
        rng = np.random.default_rng(8)
        binned, y, specs = random_problem(rng, 120)
        config = EbmConfig(learning_rate=0.2, max_rounds=40, bags=8, patience=40, seed=2)
        assert fit_and_compare(binned, y, specs, config, range(8)) == [40] * 8

    def test_stop_at_the_convergence_threshold(self):
        # the held-out loss of a noisy binary feature falls to its floor, so
        # bags stop once a round improves it by less than 1e-15: a few ulps
        # of held-out loss (say, a sequential sum) move the stop round
        rng = np.random.default_rng(0)
        binned = rng.integers(0, 2, size=(200, 1))
        y = binned[:, 0] + rng.normal(0, 1.5, size=200)
        specs = [FeatureSpec(name="f", kind=KIND_CATEGORICAL, categories=["a", "b"])]
        config = EbmConfig(learning_rate=0.1, max_rounds=5000, bags=8, patience=2, seed=0)
        rounds = fit_and_compare(binned, y, specs, config, range(8))
        assert sum(r > 200 for r in rounds) >= 3

    def test_bag_without_out_of_bag_rows(self):
        n = 4

        def covers_every_row(seed, bag):
            rng = np.random.default_rng(derive_seed(seed, "bag", bag))
            return np.unique(rng.integers(0, n, size=n)).size == n

        seed = next(s for s in range(10_000) if covers_every_row(s, 0))
        other = next(b for b in range(1, 100) if not covers_every_row(seed, b))
        specs = [FeatureSpec(name="f", kind=KIND_CATEGORICAL, categories=["a", "b"]),
                 FeatureSpec(name="g", kind=KIND_NUMERIC, bin_edges=np.array([0.5]))]
        rows = [{"f": "a", "g": 0.0}, {"f": "b", "g": 1.0},
                {"f": "a", "g": 1.0}, {"f": None, "g": None}]
        y = np.array([1.0, -0.5, 2.0, 0.25])
        config = EbmConfig(learning_rate=0.3, max_rounds=200, patience=5, seed=seed)
        fit_and_compare(_bin_matrix(rows, specs), y, specs, config, [other, 0])


class TestBinColumn:
    def test_matches_bin_of_cell_by_cell(self):
        numeric = FeatureSpec(name="x", kind=KIND_NUMERIC,
                              bin_edges=np.array([0.5, 1.0, 2.0]))
        empty = bin_numeric("none", [None, None], max_bins=4)
        categorical = categorical_spec("c", ["a", "b", 3, None])
        specs = [numeric, empty, categorical]
        values = [None, float("nan"), 0, 1, 2, 3, True, -1.5, 0.5, 1.0, 2.0,
                  np.float32(1.5), float("inf"), float("-inf"), 2.0000001]
        cats = [None, "a", "b", 3, "3", "zzz", 3.0, "A"]
        rows = [{"x": v, "c": cats[i % len(cats)]} for i, v in enumerate(values)]
        rows.append({})  # every feature absent
        binned = _bin_matrix(rows, specs)
        assert binned.shape == (len(rows), len(specs))
        assert binned.dtype == np.int64
        for i, row in enumerate(rows):
            for j, spec in enumerate(specs):
                assert binned[i, j] == spec.bin_of(row.get(spec.name)), (i, spec.name)
        # the checks above must reach every kind of bin
        assert set(binned[:, 0]) == set(range(numeric.n_bins))
        assert set(binned[:, 2]) == set(range(categorical.n_bins))
