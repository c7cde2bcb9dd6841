import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import ks_distance_from_uniform, naive_kruskal_h, naive_rank_mid
from recaudit.evaluation import METRICS, MetricFrame, MetricRow
from recaudit.grouping import bucket_categorical, code_labels
from recaudit.report import scheme_result
from recaudit.stats import bonferroni, chi2_sf, kruskal_wallis, rank_mid
from recaudit.stats import test_grouping as kw_test_grouping  # avoid pytest collection


class TestRankMid:
    def test_distinct_values(self):
        assert list(rank_mid([10, 20, 30])[0]) == [1, 2, 3]

    def test_pair_tie(self):
        assert list(rank_mid([5, 5])[0]) == [1.5, 1.5]

    def test_matches_naive(self, rng):
        for _ in range(50):
            values = rng.integers(0, 10, size=int(rng.integers(1, 40))).tolist()
            assert list(rank_mid(values)[0]) == naive_rank_mid(values)

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.integers(-5, 5), min_size=1, max_size=60))
    def test_rank_sum_identity(self, values):
        n = len(values)
        assert sum(rank_mid(values)[0]) == pytest.approx(n * (n + 1) / 2, abs=1e-9)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            rank_mid([])

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.sampled_from([-0.0, 0.0, -1.5, 2.0, 3.25]), min_size=1, max_size=60))
    def test_runs_are_the_tie_counts_in_ascending_order(self, values):
        ranks, runs = rank_mid(values)
        assert list(ranks) == naive_rank_mid(values)
        # -0.0 == 0.0, so both count in one key
        counts = Counter(values)
        assert runs.tolist() == [counts[v] for v in sorted(counts)]
        assert int(runs.sum()) == len(values)

    def test_each_nan_is_a_run_of_its_own_after_every_number(self):
        ranks, runs = rank_mid([2.0, math.nan, 1.0, math.nan])
        assert ranks.tolist() == [2.0, 3.0, 1.0, 4.0]
        assert runs.tolist() == [1, 1, 1, 1]


class TestChi2Sf:
    def test_zero_statistic(self):
        for df in (1, 2, 5, 30):
            assert chi2_sf(0.0, df) == 1.0

    def test_standard_quantile(self):
        assert chi2_sf(3.841, 1) == pytest.approx(0.05, abs=1e-4)

    def test_df2_closed_form(self):
        for x in np.linspace(0.01, 60, 200):
            assert chi2_sf(float(x), 2) == pytest.approx(math.exp(-x / 2), abs=1e-10)

    def test_against_scipy(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        for x in (1e-4, 0.3, 1.0, 2.5, 7.7, 19.0, 55.0, 140.0):
            for df in (1, 2, 3, 4, 7, 12, 40):
                assert chi2_sf(x, df) == pytest.approx(
                    scipy_stats.chi2.sf(x, df), abs=1e-10)

    def test_far_tail_relative_error_against_scipy(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        xs = np.concatenate([np.geomspace(1e-6, 1.0, 60), np.linspace(1.0, 1480.0, 1480)])
        for df in range(1, 31):
            expected = scipy_stats.chi2.sf(xs, df)
            for x, want in zip(xs, expected):
                if want >= 1e-290:
                    assert abs(chi2_sf(float(x), df) - want) <= 1e-12 * want, (df, x)

    def test_df1_and_df2_closed_forms_exact(self):
        for x in np.concatenate([np.geomspace(1e-9, 1.0, 50), np.linspace(1.0, 1480.0, 300)]):
            x = float(x)
            assert chi2_sf(x, 1) == math.erfc(math.sqrt(x / 2))
            assert chi2_sf(x, 2) == math.exp(-x / 2)

    def test_at_most_one(self):
        for x in np.geomspace(1e-12, 1.0, 400):
            for df in range(1, 31):
                assert chi2_sf(float(x), df) <= 1.0

    def test_monotone_decreasing(self):
        xs = np.linspace(0.0, 40.0, 400)
        for df in (1, 3, 9):
            values = [chi2_sf(float(x), df) for x in xs]
            assert all(a >= b - 1e-15 for a, b in zip(values, values[1:]))

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            chi2_sf(-1.0, 2)
        with pytest.raises(ValueError):
            chi2_sf(1.0, 0)
        for x in (math.nan, math.inf):
            with pytest.raises(ValueError):
                chi2_sf(x, 2)

    def test_non_integer_df_rejected(self):
        for df in (2.5, 2.0, True, False):
            with pytest.raises(ValueError):
                chi2_sf(3.0, df)


class TestKruskalWallis:
    def test_frozen_example(self):
        r = kruskal_wallis([[1, 2, 3], [4, 5, 6]])
        assert r.H == pytest.approx(3.857142857142857, abs=1e-9)
        assert r.p_value == pytest.approx(0.049534613435626915, abs=1e-9)
        assert r.df == 1
        assert r.group_sizes == (3, 3)

    def test_identical_groups(self):
        r = kruskal_wallis([[2, 2, 2], [2, 2]])
        assert r.H == 0.0
        assert r.p_value == 1.0

    def test_symmetric_groups_give_zero(self):
        r = kruskal_wallis([[1, 2, 3], [1, 2, 3]])
        assert r.H == pytest.approx(0.0, abs=1e-12)
        assert r.p_value == pytest.approx(1.0, abs=1e-9)

    def test_matches_naive_on_random_instances(self, rng):
        for _ in range(500):
            n_groups = int(rng.integers(2, 5))
            groups = [rng.integers(0, 8, size=int(rng.integers(1, 12))).tolist()
                      for _ in range(n_groups)]
            if sum(len(g) for g in groups) < 3:
                continue
            mine = kruskal_wallis(groups)
            assert mine.H == pytest.approx(naive_kruskal_h(groups), abs=1e-10)

    def test_monotone_transform_invariance(self, rng):
        groups = [rng.normal(size=8).tolist(), rng.normal(size=11).tolist(),
                  rng.normal(size=6).tolist()]
        base = kruskal_wallis(groups)
        transformed = [[math.exp(3 * v) for v in g] for g in groups]
        after = kruskal_wallis(transformed)
        assert after.H == base.H
        assert after.p_value == base.p_value

    def test_null_calibration(self, rng):
        p_values = []
        for _ in range(1000):
            groups = [rng.normal(size=25).tolist() for _ in range(3)]
            p_values.append(kruskal_wallis(groups).p_value)
        assert ks_distance_from_uniform(p_values) < 0.05

    def test_non_finite_values_rejected(self):
        with pytest.raises(ValueError):
            kruskal_wallis([[math.nan, math.nan, 1], [3, 4, math.inf]])
        with pytest.raises(ValueError):
            kruskal_wallis([[1, 2, 3], [4, 5, -math.inf]])

    def test_preconditions(self):
        with pytest.raises(ValueError):
            kruskal_wallis([[1, 2, 3]])
        with pytest.raises(ValueError):
            kruskal_wallis([[1], []])
        with pytest.raises(ValueError):
            kruskal_wallis([[1], [2]])


class TestBonferroni:
    def test_single_test_unchanged(self):
        assert bonferroni([0.01]) == [0.01]

    def test_three_tests(self):
        assert bonferroni([0.01, 0.2, 0.5]) == pytest.approx([0.03, 0.6, 1.0])

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(0, 1), min_size=1, max_size=20))
    def test_dominance_and_cap(self, p_values):
        adjusted = bonferroni(p_values)
        assert all(a >= p for a, p in zip(adjusted, p_values))
        assert all(a <= 1.0 for a in adjusted)


def ndcg_means(rows, user_ids):
    """The per-user NDCG means of ``rows`` in the order of ``user_ids``."""
    return MetricFrame(rows=rows).user_means(user_ids)["ndcg"]


def means_of(means, user_ids):
    rows = [MetricRow(uid, 0, value, value, value) for uid, value in means.items()]
    return ndcg_means(rows, user_ids)


def report_test(means, assignment):
    """The NDCG test of ``assignment`` as the report runs it: the per-user
    ``means`` split by ``scheme_result`` and passed to ``test_grouping``."""
    return scheme_result(assignment, dict.fromkeys(METRICS, means)).kw["ndcg"]


class TestTestGrouping:
    def test_planted_gap_detected(self, rng):
        means = {}
        labels = {}
        for i in range(60):
            means[f"a{i}"] = float(rng.normal(0.7, 0.05))
            labels[f"a{i}"] = "a"
            means[f"b{i}"] = float(rng.normal(0.4, 0.05))
            labels[f"b{i}"] = "b"
        assignment = bucket_categorical("g", *code_labels(list(labels.values())))
        result = report_test(means_of(means, labels), assignment)
        assert result is not None
        assert result.p_value < 0.01

    def test_na_users_omitted(self, rng):
        means = {f"u{i}": float(rng.random()) for i in range(20)}
        labels = {f"u{i}": ("x" if i % 2 else None) for i in range(20)}
        assignment = bucket_categorical("g", *code_labels(list(labels.values())))
        # only one usable group once N/A users are dropped
        assert report_test(means_of(means, labels), assignment) is None

    def test_group_without_tested_users_not_testable(self, rng):
        means = {f"a{i}": float(rng.random()) for i in range(10)}
        labels = {f"a{i}": "a" for i in range(10)}
        labels.update({f"b{i}": "b" for i in range(5)})  # b users never evaluated
        assignment = bucket_categorical("g", *code_labels(list(labels.values())))
        assert report_test(means_of(means, labels), assignment) is None

    def test_pools_means_across_folds(self, rng):
        rows = []
        for i in range(30):
            rows.append(MetricRow(f"a{i}", 0, 0.8, 0.8, 0.8))
            rows.append(MetricRow(f"a{i}", 1, 0.6, 0.6, 0.6))
            rows.append(MetricRow(f"b{i}", 0, 0.3, 0.3, 0.3))
        labels = {f"a{i}": "a" for i in range(30)}
        labels.update({f"b{i}": "b" for i in range(30)})
        assignment = bucket_categorical("g", *code_labels(list(labels.values())))
        result = report_test(ndcg_means(rows, labels), assignment)
        assert result is not None
        assert result.group_sizes == (30, 30)

    def test_empty_groups_left_out(self):
        result = kw_test_grouping([np.array([0.1, 0.2]), np.array([]), np.array([0.3])])
        assert result.group_sizes == (2, 1)
        assert result.df == 1
        assert kw_test_grouping([np.array([0.1, 0.2]), np.array([])]) is None
        assert kw_test_grouping([np.array([0.1]), np.array([0.2])]) is None
