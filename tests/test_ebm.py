import numpy as np
import pytest

from recaudit.ebm import (EbmConfig, EbmModel, FeatureSpec, KIND_CATEGORICAL,
                          _bin_matrix, _fit_one_bag, bin_numeric,
                          categorical_spec, fit_ebm, importance, predict,
                          predict_batch)
from recaudit.errors import NumericalError

FAST = EbmConfig(learning_rate=0.05, max_rounds=400, bags=4, patience=30, seed=3)


class TestBinNumeric:
    def test_quartile_edges(self):
        spec = bin_numeric("x", list(range(1, 101)), max_bins=4)
        expected = np.quantile(np.arange(1, 101), [0.25, 0.5, 0.75])
        assert np.allclose(spec.bin_edges, expected)
        assert spec.n_bins == 5  # 4 regular + missing

    def test_constant_values_single_bin(self):
        spec = bin_numeric("x", [7.0] * 50, max_bins=8)
        assert len(spec.bin_edges) == 0
        assert spec.n_bins == 2

    def test_skewed_occupancy(self, rng):
        values = rng.exponential(scale=3.0, size=4000).tolist()
        spec = bin_numeric("x", values, max_bins=8)
        bins = [spec.bin_of(v) for v in values]
        counts = np.bincount(bins, minlength=spec.n_bins)
        regular = counts[:-1]
        assert all(abs(c - 500) <= 2 for c in regular)  # continuous: no big ties

    def test_all_missing_warns(self, caplog):
        spec = bin_numeric("x", [None, None], max_bins=4)
        assert spec.n_bins == 2
        assert "no non-missing" in caplog.text

    def test_missing_routed_to_missing_bin(self):
        spec = bin_numeric("x", [1.0, 2.0, 3.0], max_bins=2)
        assert spec.bin_of(None) == spec.missing_bin
        assert spec.bin_of(float("nan")) == spec.missing_bin
        assert spec.bin_of(1.0) != spec.missing_bin


class TestCategoricalSpec:
    def test_unseen_category_to_missing(self):
        spec = categorical_spec("c", ["a", "b", "a", None])
        assert spec.categories == ["a", "b"]
        assert spec.bin_of("zzz") == spec.missing_bin
        assert spec.bin_of(None) == spec.missing_bin
        assert spec.bin_of("a") == 0


def make_rows(rng, n, gen_y, x2_noise=True):
    rows, ys = [], []
    for _ in range(n):
        x1 = float(rng.random())
        x2 = float(rng.random())
        rows.append({"x1": x1, "x2": x2})
        ys.append(gen_y(x1, x2))
    return rows, ys


def specs_for(rows, max_bins=16):
    return [bin_numeric("x1", [r["x1"] for r in rows], max_bins),
            bin_numeric("x2", [r["x2"] for r in rows], max_bins)]


class TestFitEbm:
    def test_constant_target(self, rng):
        rows, _ = make_rows(rng, 200, lambda a, b: 0.0)
        ys = [3.25] * 200
        model = fit_ebm(rows, ys, specs_for(rows), FAST)
        assert model.intercept == pytest.approx(3.25, abs=1e-9)
        for shape in model.shapes.values():
            assert np.max(np.abs(shape)) < 1e-6

    def test_step_function_recovery(self, rng):
        rows, ys = make_rows(
            rng, 2000, lambda a, b: (2.0 if a > 0.5 else 0.0) - 1.0
            + float(rng.normal(0, 0.1)))
        model = fit_ebm(rows, ys, specs_for(rows), FAST)
        # evaluate away from the step so bin straddling cannot blur it
        low = model.shape_value("x1", 0.25)
        high = model.shape_value("x1", 0.75)
        assert low == pytest.approx(-1.0, abs=0.1)
        assert high == pytest.approx(1.0, abs=0.1)
        scores = dict(importance(model, rows))
        assert scores["x2"] < 0.1 * scores["x1"]

    def test_additive_signal_r2(self, rng):
        def f(a, b):
            return math_sin(a) + 0.5 * (b - 0.5) ** 2 * 8.0

        def math_sin(a):
            return float(np.sin(2 * np.pi * a))

        rows, ys = make_rows(rng, 3000, lambda a, b: f(a, b) + float(rng.normal(0, 0.05)))
        train_rows, train_ys = rows[:2400], ys[:2400]
        test_rows, test_ys = rows[2400:], np.array(ys[2400:])
        model = fit_ebm(train_rows, train_ys, specs_for(train_rows, 32), FAST)
        pred = predict_batch(model, test_rows)
        ss_res = float(np.sum((test_ys - pred) ** 2))
        ss_tot = float(np.sum((test_ys - test_ys.mean()) ** 2))
        assert 1 - ss_res / ss_tot > 0.9

    def test_shapes_mass_weighted_mean_zero(self, rng):
        rows, ys = make_rows(rng, 500, lambda a, b: a * 3 + b)
        model = fit_ebm(rows, ys, specs_for(rows), FAST)
        binned = _bin_matrix(rows, model.specs)
        for j, spec in enumerate(model.specs):
            mass = np.bincount(binned[:, j], minlength=spec.n_bins)
            weighted = float(np.dot(mass / mass.sum(), model.shapes[spec.name]))
            assert abs(weighted) < 1e-9

    def test_deterministic_rerun(self, rng):
        rows, ys = make_rows(rng, 300, lambda a, b: a - b)
        specs = specs_for(rows)
        m1 = fit_ebm(rows, ys, specs, FAST)
        m2 = fit_ebm(rows, ys, specs, FAST)
        assert m1.intercept == m2.intercept
        for name in m1.shapes:
            assert np.array_equal(m1.shapes[name], m2.shapes[name])

    def test_inbag_loss_monotone_non_increasing(self, rng):
        rows, ys = make_rows(rng, 400, lambda a, b: 2 * a + float(rng.normal(0, 0.2)))
        specs = specs_for(rows)
        binned = _bin_matrix(rows, specs)
        for bag in range(3):
            _, _, losses = _fit_one_bag(binned, np.asarray(ys), specs, FAST, bag)
            assert all(later <= earlier + 1e-10
                       for earlier, later in zip(losses, losses[1:]))

    def test_non_finite_target_fatal_with_row(self, rng):
        rows, ys = make_rows(rng, 20, lambda a, b: a)
        ys[7] = float("nan")
        with pytest.raises(NumericalError, match="row 7"):
            fit_ebm(rows, ys, specs_for(rows), FAST)

    def test_preconditions(self, rng):
        rows, ys = make_rows(rng, 5, lambda a, b: a)
        with pytest.raises(ValueError):
            fit_ebm(rows, ys, specs_for(rows), FAST)  # too few rows
        rows, ys = make_rows(rng, 20, lambda a, b: a)
        with pytest.raises(ValueError):
            fit_ebm(rows, ys, [], FAST)  # no features
        with pytest.raises(ValueError):
            fit_ebm(rows, ys[:-1], specs_for(rows), FAST)


def fixed_model():
    spec = FeatureSpec(name="f", kind=KIND_CATEGORICAL, categories=["a", "b"])
    shapes = {"f": np.array([0.25, -0.25, 0.0])}
    mass = {"f": np.array([10.0, 10.0, 0.0])}
    return EbmModel(intercept=0.5, shapes=shapes, bin_mass=mass,
                    specs=[spec], config=EbmConfig())


class TestPredictAndImportance:
    def test_intercept_only(self):
        model = fixed_model()
        model.shapes["f"] = np.zeros(3)
        assert predict(model, {"f": "a"}) == 0.5

    def test_hand_summed_fixture(self):
        model = fixed_model()
        assert predict(model, {"f": "a"}) == 0.75
        assert predict(model, {"f": "b"}) == 0.25
        assert predict(model, {"f": "unseen"}) == 0.5  # missing bin

    def test_batch_equals_per_row(self, rng):
        rows, ys = make_rows(rng, 100, lambda a, b: a + b)
        model = fit_ebm(rows, ys, specs_for(rows), FAST)
        batch = predict_batch(model, rows)
        assert np.allclose(batch, [predict(model, r) for r in rows], atol=1e-12)

    def test_exact_additivity(self, rng):
        rows, ys = make_rows(rng, 200, lambda a, b: a * b)
        model = fit_ebm(rows, ys, specs_for(rows), FAST)
        row = dict(rows[0])
        base = predict(model, row)
        moved = dict(row)
        moved["x1"] = rows[1]["x1"]
        delta_shape = model.shape_value("x1", moved["x1"]) - \
            model.shape_value("x1", row["x1"])
        assert predict(model, moved) - base == pytest.approx(delta_shape, abs=1e-12)

    def test_zero_shape_zero_importance(self):
        model = fixed_model()
        model.shapes["f"] = np.zeros(3)
        assert importance(model, [{"f": "a"}, {"f": "b"}]) == [("f", 0.0)]

    def test_binary_equal_mass_importance(self):
        model = fixed_model()
        rows = [{"f": "a"}, {"f": "b"}] * 10
        assert importance(model, rows) == [("f", 0.25)]

    def test_importance_sorted_descending(self, rng):
        rows, ys = make_rows(rng, 1500, lambda a, b: 3.0 * a + float(rng.normal(0, 0.05)))
        model = fit_ebm(rows, ys, specs_for(rows), FAST)
        ranked = importance(model, rows)
        assert ranked[0][0] == "x1"
        assert ranked[0][1] >= ranked[1][1]
