import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import naive_bin_matrix, naive_bin_numeric, naive_bin_of, naive_categorical_spec
from recaudit.ebm import (EbmConfig, EbmModel, FeatureSpec, _fit_bags, bin_categorical,
                          bin_numeric, fit_ebm, importance)
from recaudit.errors import NumericalError

from conftest import ebm_predict as predict
from conftest import shape_at

FAST = EbmConfig(learning_rate=0.05, max_rounds=400, bags=4, patience=30, seed=3)


class TestBinNumeric:
    def test_quartile_edges(self):
        values = np.arange(1, 101)
        spec, bins = bin_numeric("x", values.tolist(), max_bins=4)
        expected = np.quantile(values, [0.25, 0.5, 0.75])  # 25.75, 50.5, 75.25
        assert np.array_equal(bins, np.searchsorted(expected, values, side="left"))
        assert spec.labels == ["(-inf, 25.75]", "(25.75, 50.5]", "(50.5, 75.25]",
                               "(75.25, inf)", "missing"]
        assert spec.n_bins == 5  # 4 regular + missing

    def test_constant_values_single_bin(self):
        spec, bins = bin_numeric("x", [7.0] * 50, max_bins=8)
        assert spec.labels == ["(-inf, inf)", "missing"]
        assert not bins.any()
        assert spec.n_bins == 2

    def test_skewed_occupancy(self, rng):
        values = rng.exponential(scale=3.0, size=4000).tolist()
        spec, bins = bin_numeric("x", values, max_bins=8)
        counts = np.bincount(bins, minlength=spec.n_bins)
        regular = counts[:-1]
        assert all(abs(c - 500) <= 2 for c in regular)  # continuous: no big ties

    def test_all_missing_warns(self, caplog):
        spec, bins = bin_numeric("x", [np.nan, np.nan], max_bins=4)
        assert spec.n_bins == 2
        assert spec.labels == ["(-inf, inf)", "missing"]
        assert bins.tolist() == [1, 1]
        assert "no non-missing" in caplog.text

    def test_missing_routed_to_missing_bin(self):
        spec, bins = bin_numeric("x", [np.nan, float("nan"), 1.0, 2.0, 3.0], max_bins=2)
        assert spec.labels == ["(-inf, 2]", "(2, inf)", "missing"]
        assert bins[0] == spec.n_bins - 1
        assert bins[1] == spec.n_bins - 1
        assert bins[2] != spec.n_bins - 1

    # columns drawn from a pool of up to 8 values, so most have ties; -0.0 is
    # left out, since where it ties 0.0 np.quantile's edge takes the sign of
    # whichever of the two its selection puts at that index
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(st.lists(st.one_of(st.sampled_from([np.inf, -np.inf, np.nan, 1e300, -1e300]),
                              st.floats(-1e300, 1e300).map(lambda v: v + 0.0)),
                    min_size=1, max_size=8)
           .flatmap(lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=300)),
           st.integers(2, 64))
    def test_matches_np_quantile_edges(self, values, max_bins):
        spec, bins = bin_numeric("x", values, max_bins=max_bins)
        want = naive_bin_numeric("x", values, max_bins)
        assert spec.labels == want.labels
        assert bins.tobytes() == \
            np.array([naive_bin_of(want, v) for v in values], dtype=bins.dtype).tobytes()


    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.lists(st.sampled_from([-0.0, 0.0, -0.0, 0.0, -1.0, 1.0, 2.5, np.nan]),
                    min_size=1, max_size=60),
           st.integers(2, 16))
    def test_negative_zero_bins_as_zero(self, values, max_bins):
        """A column holding -0.0 gets the labels and bins of the same column
        with every zero positive, whichever zero comes first."""
        values = np.array(values)
        want_spec, want_bins = bin_numeric("x", values + 0.0, max_bins=max_bins)
        zeros = np.flatnonzero(values == 0)
        swapped = values.copy()
        swapped[zeros] = values[zeros][::-1]
        for column in (values, swapped):
            spec, bins = bin_numeric("x", column, max_bins=max_bins)
            assert spec.labels == want_spec.labels
            assert np.array_equal(bins, want_bins)


class TestCategoricalSpec:
    def test_unseen_category_to_missing(self):
        labels = ["a", "b", "zzz"]  # code 3, past the labels, is missing
        spec, bins = bin_categorical("c", np.array([0, 1, 0, 3]), labels)
        assert spec.labels == ["a", "b", "missing"]  # zzz, unused, gets no bin
        assert bins.tolist() == [0, 1, 0, 2]
        missing, a = bins[3], bins[0]
        assert missing == spec.n_bins - 1
        assert a == 0


def make_rows(rng, n, gen_y, x2_noise=True):
    rows, ys = [], []
    for _ in range(n):
        x1 = float(rng.random())
        x2 = float(rng.random())
        rows.append({"x1": x1, "x2": x2})
        ys.append(gen_y(x1, x2))
    return rows, ys


def specs_for(rows, max_bins=16):
    """The specs and the bin matrix of x1 and x2 over ``rows``, and the
    oracle's specs, which bin new values the same way."""
    naive = [naive_bin_numeric(name, [r[name] for r in rows], max_bins)
             for name in ("x1", "x2")]
    pairs = [bin_numeric(name, [r[name] for r in rows], max_bins) for name in ("x1", "x2")]
    specs, binned = [spec for spec, _ in pairs], np.column_stack([b for _, b in pairs])
    assert np.array_equal(binned, naive_bin_matrix(rows, naive))
    return specs, binned, naive


class TestFitEbm:
    def test_constant_target(self, rng):
        rows, _ = make_rows(rng, 200, lambda a, b: 0.0)
        ys = [3.25] * 200
        specs, binned, _ = specs_for(rows)
        model = fit_ebm(binned, ys, specs, FAST)
        assert model.intercept == pytest.approx(3.25, abs=1e-9)
        for shape in model.shapes.values():
            assert np.max(np.abs(shape)) < 1e-6

    def test_step_function_recovery(self, rng):
        rows, ys = make_rows(
            rng, 2000, lambda a, b: (2.0 if a > 0.5 else 0.0) - 1.0
            + float(rng.normal(0, 0.1)))
        specs, binned, naive = specs_for(rows)
        model = fit_ebm(binned, ys, specs, FAST)
        # evaluate away from the step so bin straddling cannot blur it
        low = shape_at(model, naive, "x1", 0.25)
        high = shape_at(model, naive, "x1", 0.75)
        assert low == pytest.approx(-1.0, abs=0.1)
        assert high == pytest.approx(1.0, abs=0.1)
        scores = dict(importance(model, binned))
        assert scores["x2"] < 0.1 * scores["x1"]

    def test_additive_signal_r2(self, rng):
        def f(a, b):
            return math_sin(a) + 0.5 * (b - 0.5) ** 2 * 8.0

        def math_sin(a):
            return float(np.sin(2 * np.pi * a))

        rows, ys = make_rows(rng, 3000, lambda a, b: f(a, b) + float(rng.normal(0, 0.05)))
        train_rows, train_ys = rows[:2400], ys[:2400]
        test_rows, test_ys = rows[2400:], np.array(ys[2400:])
        specs, binned, naive = specs_for(train_rows, 32)
        model = fit_ebm(binned, train_ys, specs, FAST)
        pred = np.array([predict(model, naive, r) for r in test_rows])
        ss_res = float(np.sum((test_ys - pred) ** 2))
        ss_tot = float(np.sum((test_ys - test_ys.mean()) ** 2))
        assert 1 - ss_res / ss_tot > 0.9

    def test_shapes_mass_weighted_mean_zero(self, rng):
        rows, ys = make_rows(rng, 500, lambda a, b: a * 3 + b)
        specs, binned, _ = specs_for(rows)
        model = fit_ebm(binned, ys, specs, FAST)
        for j, spec in enumerate(model.specs):
            mass = np.bincount(binned[:, j], minlength=spec.n_bins)
            weighted = float(np.dot(mass / mass.sum(), model.shapes[spec.name]))
            assert abs(weighted) < 1e-9

    def test_deterministic_rerun(self, rng):
        rows, ys = make_rows(rng, 300, lambda a, b: a - b)
        specs, binned, _ = specs_for(rows)
        m1 = fit_ebm(binned, ys, specs, FAST)
        m2 = fit_ebm(binned, ys, specs, FAST)
        assert m1.intercept == m2.intercept
        for name in m1.shapes:
            assert np.array_equal(m1.shapes[name], m2.shapes[name])

    def test_inbag_loss_monotone_non_increasing(self, rng):
        rows, ys = make_rows(rng, 400, lambda a, b: 2 * a + float(rng.normal(0, 0.2)))
        specs, binned, _ = specs_for(rows)
        for bag in range(3):
            _, _, losses = _fit_bags(binned, np.asarray(ys), specs, FAST, [bag])[0]
            assert all(later <= earlier + 1e-10
                       for earlier, later in zip(losses, losses[1:]))

    def test_non_finite_target_fatal_with_row(self, rng):
        rows, ys = make_rows(rng, 20, lambda a, b: a)
        ys[7] = float("nan")
        specs, binned, _ = specs_for(rows)
        with pytest.raises(NumericalError, match="row 7"):
            fit_ebm(binned, ys, specs, FAST)

    def test_preconditions(self, rng):
        rows, ys = make_rows(rng, 5, lambda a, b: a)
        specs, binned, _ = specs_for(rows)
        with pytest.raises(ValueError):
            fit_ebm(binned, ys, specs, FAST)  # too few rows
        rows, ys = make_rows(rng, 20, lambda a, b: a)
        specs, binned, _ = specs_for(rows)
        with pytest.raises(ValueError):
            fit_ebm(naive_bin_matrix(rows, []), ys, [], FAST)  # no features
        with pytest.raises(ValueError):
            fit_ebm(binned, ys[:-1], specs, FAST)


# the oracle's binning of the fixed model's one feature
FIXED_SPECS = [naive_categorical_spec("f", ["a", "b"])]


def fixed_model():
    spec = FeatureSpec(name="f", labels=["a", "b", "missing"])
    shapes = {"f": np.array([0.25, -0.25, 0.0])}
    return EbmModel(intercept=0.5, shapes=shapes, specs=[spec])


class TestPredictAndImportance:
    def test_intercept_only(self):
        model = fixed_model()
        model.shapes["f"] = np.zeros(3)
        assert predict(model, FIXED_SPECS, {"f": "a"}) == 0.5

    def test_hand_summed_fixture(self):
        model = fixed_model()
        assert predict(model, FIXED_SPECS, {"f": "a"}) == 0.75
        assert predict(model, FIXED_SPECS, {"f": "b"}) == 0.25
        assert predict(model, FIXED_SPECS, {"f": "unseen"}) == 0.5  # missing bin

    def test_exact_additivity(self, rng):
        rows, ys = make_rows(rng, 200, lambda a, b: a * b)
        specs, binned, naive = specs_for(rows)
        model = fit_ebm(binned, ys, specs, FAST)
        row = dict(rows[0])
        base = predict(model, naive, row)
        moved = dict(row)
        moved["x1"] = rows[1]["x1"]
        delta_shape = shape_at(model, naive, "x1", moved["x1"]) - \
            shape_at(model, naive, "x1", row["x1"])
        assert predict(model, naive, moved) - base == pytest.approx(delta_shape, abs=1e-12)

    def test_zero_shape_zero_importance(self):
        model = fixed_model()
        model.shapes["f"] = np.zeros(3)
        assert importance(model, naive_bin_matrix([{"f": "a"}, {"f": "b"}],
                                                  FIXED_SPECS)) == [("f", 0.0)]

    def test_binary_equal_mass_importance(self):
        model = fixed_model()
        rows = [{"f": "a"}, {"f": "b"}] * 10
        assert importance(model, naive_bin_matrix(rows, FIXED_SPECS)) == [("f", 0.25)]

    def test_importance_sorted_descending(self, rng):
        rows, ys = make_rows(rng, 1500, lambda a, b: 3.0 * a + float(rng.normal(0, 0.05)))
        specs, binned, _ = specs_for(rows)
        model = fit_ebm(binned, ys, specs, FAST)
        ranked = importance(model, binned)
        assert ranked[0][0] == "x1"
        assert ranked[0][1] >= ranked[1][1]
