import numpy as np
import pytest

from oracles import (naive_bucket_equal_count, naive_bucket_equal_range,
                     naive_bucket_from_brackets, naive_bucket_integer_values,
                     nan_column)
from recaudit.grouping import (NA_LABEL, balanced_sample, bucket_categorical,
                               bucket_countries_by_gdp,
                               bucket_countries_by_prevalence,
                               bucket_equal_count, bucket_equal_range,
                               bucket_from_brackets, bucket_integer_values,
                               code_labels, control_last_digit)
from recaudit.util import derive_seed


def labels_by_user(assignment, user_ids):
    """user id -> label, read through the assignment's codes."""
    return {uid: assignment.labels[code]
            for uid, code in zip(user_ids, assignment.codes.tolist())}


def users_with_countries(spec):
    """spec: {country: n_users}; None key -> users without a country.
    Returns one country per user."""
    return [country for country, n in spec.items() for _ in range(n)]


class TestCategorical:
    def test_gender_label_order(self):
        values = {}
        for i in range(67):
            values[f"m{i}"] = "m"
        for i in range(24):
            values[f"f{i}"] = "f"
        for i in range(9):
            values[f"x{i}"] = None
        a = bucket_categorical("gender", *code_labels(list(values.values())))
        assert a.labels == ["m", "f", NA_LABEL]
        sizes = a.sizes()
        assert (sizes["m"], sizes["f"], sizes[NA_LABEL]) == (67, 24, 9)

    def test_single_group(self):
        a = bucket_categorical("g", *code_labels(["only"] * 5))
        assert a.labels == ["only"]

    def test_total_function(self):
        values = {"a": "x", "b": None, "c": "y"}
        a = bucket_categorical("g", *code_labels(list(values.values())))
        assert labels_by_user(a, values) == {"a": "x", "b": NA_LABEL, "c": "y"}
        assert sum(a.sizes().values()) == 3


class TestEqualRange:
    def test_age_15_year_bins(self):
        values = {f"u{age}": age for age in range(1, 91)}
        a = bucket_equal_range("age", nan_column(values.values()), width=15, anchor=1)
        assert a.labels == ["1-15", "16-30", "31-45", "46-60", "61-75", "76-90"]
        labels = labels_by_user(a, values)
        assert labels["u15"] == "1-15"
        assert labels["u16"] == "16-30"
        assert labels["u90"] == "76-90"

    def test_single_value(self):
        a = bucket_equal_range("age", nan_column([42]), width=15)
        assert a.labels == ["42-56"]

    def test_uniform_fixture_tally(self):
        values = {f"u{i}": 1 + (i % 45) for i in range(450)}
        a = bucket_equal_range("age", nan_column(values.values()), width=15, anchor=1)
        sizes = a.sizes()
        assert sizes == {"1-15": 150, "16-30": 150, "31-45": 150}

    def test_missing_to_na(self):
        a = bucket_equal_range("age", nan_column([10, None]), width=5)
        assert a.labels[a.codes[1]] == NA_LABEL
        assert a.labels[-1] == NA_LABEL


class TestEqualCount:
    def test_exact_terciles(self):
        values = {f"u{v}": v for v in range(1, 10)}
        a = bucket_equal_count("v", nan_column(values.values()), k=3)
        assert a.labels == ["1-3", "4-6", "7-9"]
        assert all(size == 3 for size in a.sizes().values())

    def test_ties_never_split(self):
        values = {}
        for i in range(10):
            values[f"a{i}"] = 1
        for i in range(2):
            values[f"b{i}"] = 2
        a = bucket_equal_count("v", nan_column(values.values()), k=3)
        by_value = {}
        for uid, label in labels_by_user(a, values).items():
            v = values[uid]
            by_value.setdefault(v, set()).add(label)
        assert all(len(labels) == 1 for labels in by_value.values())

    def test_size_deviation_bounded_by_tie_class(self, rng):
        # pushing whole tie classes down bounds each bin's deviation from the
        # ideal n/k by the largest tie-class size
        values = {f"u{i}": int(v) for i, v in
                  enumerate(rng.integers(0, 12, size=300))}
        a = bucket_equal_count("v", nan_column(values.values()), k=7)
        sizes = [s for lab, s in a.sizes().items() if lab != NA_LABEL]
        largest_tie = max(np.bincount(list(values.values())))
        assert len(sizes) == 7  # no bins collapsed for this fixture
        assert all(abs(size - 300 / 7) <= largest_tie for size in sizes)

    def test_too_few_values_rejected(self):
        with pytest.raises(ValueError):
            bucket_equal_count("v", nan_column([1, 2]), k=3)

    def test_fewer_distinct_than_k_warns(self, caplog):
        values = {f"u{i}": i % 2 for i in range(20)}
        a = bucket_equal_count("v", nan_column(values.values()), k=5)
        assert len(a.non_na_labels()) == 2
        assert "ties reduce" in caplog.text


class TestBrackets:
    def test_ml1m_codes(self):
        brackets = (1, 18, 25, 35, 45, 50, 56)
        values = {f"u{c}": c for c in brackets}
        a = bucket_from_brackets("age", list(values.values()), brackets)
        assert a.labels == ["1-17", "18-24", "25-34", "35-44", "45-49",
                            "50-55", "56+"]
        labels = labels_by_user(a, values)
        assert labels["u1"] == "1-17"
        assert labels["u18"] == "18-24"
        assert labels["u56"] == "56+"

    def test_interior_ages(self):
        a = bucket_from_brackets("age", nan_column([30, 57, None]), (1, 18, 25, 35, 45, 50, 56))
        assert [a.labels[code] for code in a.codes] == ["25-34", "56+", NA_LABEL]


class TestCountryPrevalence:
    def test_three_equal_countries(self):
        countries = users_with_countries({"A": 10, "B": 10, "C": 10})
        a = bucket_countries_by_prevalence("prev", *code_labels(countries))
        sizes = a.sizes()
        assert sizes == {"low": 10, "medium": 10, "high": 10}

    def test_dominant_country_alone_in_high(self):
        countries = users_with_countries({"A": 10, "B": 15, "C": 15, "D": 60})
        a = bucket_countries_by_prevalence("prev", *code_labels(countries))
        high_countries = {countries[i] for i in range(len(countries))
                          if a.labels[a.codes[i]] == "high"}
        assert high_countries == {"D"}

    def test_distinct_counts_near_equal_totals(self):
        spec = {chr(65 + i): 5 + 3 * i for i in range(9)}  # 5,8,...,29
        countries = users_with_countries(spec)
        a = bucket_countries_by_prevalence("prev", *code_labels(countries))
        total = sum(spec.values())
        sizes = a.sizes()
        largest = max(spec.values())
        for label in ("low", "medium", "high"):
            assert abs(sizes[label] - total / 3) <= largest

    def test_tie_leaves_the_bucket_closed(self):
        # "medium" aims at 1.5 users: C would move it from 1 to 2, no closer
        countries = users_with_countries({"A": 1, "B": 1, "C": 1, "D": 1})
        a = bucket_countries_by_prevalence("prev", *code_labels(countries))
        assert [a.labels[code] for code in a.codes] == ["low", "medium", "high", "high"]

    def test_missing_country_na(self):
        countries = users_with_countries({"A": 3, None: 2})
        a = bucket_countries_by_prevalence("prev", *code_labels(countries))
        assert a.sizes()[NA_LABEL] == 2


class TestCountryGdp:
    def buckets(self, countries, gdp):
        """The GDP scheme of one country per user, ``gdp`` mapping a
        country to its GDP."""
        codes, labels = code_labels(countries)
        return bucket_countries_by_gdp("gdp", codes,
                                       np.array([gdp.get(c, np.nan) for c in labels]))

    def test_three_countries_one_per_bucket(self):
        countries = users_with_countries({"Poor": 4, "Mid": 4, "Rich": 4})
        a = self.buckets(countries, {"Poor": 1000.0, "Mid": 10000.0, "Rich": 50000.0})
        assert a.labels[a.codes[0]] == "low"
        assert a.labels[a.codes[4]] == "medium"
        assert a.labels[a.codes[8]] == "high"

    def test_six_countries_two_per_bucket(self):
        spec = {f"C{i}": 2 for i in range(6)}
        countries = users_with_countries(spec)
        a = self.buckets(countries, {f"C{i}": 1000.0 * (i + 1) for i in range(6)})
        sizes = a.sizes()
        assert sizes == {"low": 4, "medium": 4, "high": 4}

    def test_absent_from_table_is_na(self):
        countries = users_with_countries({"Known": 2, "Unknown": 3, None: 1})
        a = self.buckets(countries, {"Known": 5000.0, "Other": 1.0, "More": 2.0})
        assert a.sizes()[NA_LABEL] == 4

    def test_fixture_hand_assignment(self):
        countries = users_with_countries({"A": 1, "B": 2, "C": 3, "D": 4})
        a = self.buckets(countries, {"A": 4.0, "B": 3.0, "C": 2.0, "D": 1.0})
        # ascending GDP: D, C, B, A -> chunks [D,C], [B], [A]
        sizes = a.sizes()
        assert sizes["low"] == 4 + 3
        assert sizes["medium"] == 2
        assert sizes["high"] == 1

    def test_gdp_tie_ranks_by_name(self):
        # Bo and Cy tie across the low/medium boundary; users list Cy first
        countries = ["Cy", "Fa", "Ed", "Bo", "Ab", "Di"]
        a = self.buckets(countries, {"Ab": 1.0, "Cy": 5.0, "Bo": 5.0, "Di": 9.0,
                                     "Ed": 10.0, "Fa": 11.0})
        assert labels_by_user(a, countries) == {"Ab": "low", "Bo": "low", "Cy": "medium",
                                                "Di": "medium", "Ed": "high", "Fa": "high"}


class TestLastDigit:
    def test_numeric_id(self):
        a = control_last_digit("ld", ["1208"])
        assert a.labels[a.codes[0]] == "8"

    def test_sha_style_id(self):
        a = control_last_digit("ld", ["000063d3fe1cf2ba248b9e3c3f0334845a27a6be"])
        assert a.labels[a.codes[0]] == "e"

    def test_hundred_sequential_ids(self):
        a = control_last_digit("ld", [str(i) for i in range(100)])
        sizes = a.sizes()
        assert len(sizes) == 10
        assert all(size == 10 for size in sizes.values())
        assert a.labels == [str(d) for d in range(10)]


class TestIntegerValues:
    def test_merge_at_thirteen(self):
        values = {f"u{i}": v for i, v in enumerate([1, 2, 12, 13, 14, 40, None])}
        a = bucket_integer_values("pop", nan_column(values.values()), merge_at=13)
        assert a.labels == ["1", "2", "12", "13+", NA_LABEL]
        labels = labels_by_user(a, values)
        assert labels["u3"] == "13+"
        assert labels["u5"] == "13+"
        assert a.sizes()["13+"] == 3


class TestBalancedSample:
    def assignment(self, sizes):
        values = [label for label, n in sizes.items() for _ in range(n)]
        return bucket_categorical("g", *code_labels(values))

    @staticmethod
    def sample(a, seed):
        return balanced_sample(a, seed, np.arange(len(a.codes)))

    def test_equal_groups_take_everyone(self):
        a = self.assignment({"x": 10, "y": 10})
        assert len(self.sample(a, seed=1)) == 20

    def test_min_rule(self):
        a = self.assignment({"big": 100, "small": 10})
        sample = self.sample(a, seed=1)
        assert len(sample) == 20
        labels = [a.labels[a.codes[u]] for u in sample]
        assert labels.count("big") == 10
        assert labels.count("small") == 10

    def test_deterministic_per_seed(self):
        a = self.assignment({"x": 30, "y": 12, "z": 25})
        s1 = self.sample(a, seed=5).tolist()
        s2 = self.sample(a, seed=5).tolist()
        s3 = self.sample(a, seed=6).tolist()
        assert s1 == s2
        assert s1 != s3
        counts = {lab: 0 for lab in "xyz"}
        for u in s1:
            counts[a.labels[a.codes[u]]] += 1
        assert counts == {"x": 12, "y": 12, "z": 12}

    def test_na_group_ignored(self):
        a = bucket_categorical("g", *code_labels(["x", "x", None, "y", "y"]))
        sample = self.sample(a, seed=0)
        assert 2 not in sample
        assert len(sample) == 4


def random_numeric_values(rng, case):
    """A seeded integer attribute list with None holes.  The cases rotate
    through all missing, a single value, few values (ties on equal-count
    boundaries), negative values, totals past 2**53 (even, so exact in
    float64) and values around a merge_at."""
    n = int(rng.integers(1, 60))
    kind = case % 6
    if kind == 0:
        return [None] * n
    if kind == 1:
        values = [int(rng.integers(-5, 90))] * n
    elif kind == 2:
        values = rng.integers(0, 4, n).tolist()
    elif kind == 3:
        values = rng.integers(-60, 10, n).tolist()
    elif kind == 4:
        values = (2 ** 53 + 2 * rng.integers(0, 40, n)).tolist()
    else:
        values = rng.integers(10, 17, n).tolist()
    return [None if rng.random() < 0.2 else v for v in values]


def outcome(bucket, *args, **kwargs):
    """(labels, codes) of an assignment, or the type of the error raised."""
    try:
        a = bucket(*args, **kwargs)
    except ValueError as exc:
        return type(exc)
    return a.labels, a.codes.tolist()


class TestNumericColumnsMatchListOracle:
    """The numeric schemes over a float64 column with NaN give the labels
    and codes of the list-with-None functions in tests/oracles.py."""

    def test_random_columns(self):
        for case in range(120):
            rng = np.random.default_rng(derive_seed("numeric-columns", case))
            values = random_numeric_values(rng, case)
            column = nan_column(values)
            bounds = sorted(rng.choice(np.arange(-20, 60), size=int(rng.integers(1, 6)),
                                       replace=False).tolist())
            width = int(rng.integers(1, 20))
            # anchor 1 below a total past 2**53 would ask for ~2**53 / width bins
            anchor = None if case % 6 == 4 or case % 2 else 1
            k = int(rng.integers(2, 6))
            merge_at = int(rng.integers(10, 17))
            for bucket, naive, kwargs in (
                    (bucket_from_brackets, naive_bucket_from_brackets,
                     {"lower_bounds": bounds}),
                    (bucket_equal_range, naive_bucket_equal_range,
                     {"width": width, "anchor": anchor}),
                    (bucket_equal_count, naive_bucket_equal_count, {"k": k}),
                    (bucket_integer_values, naive_bucket_integer_values,
                     {"merge_at": merge_at})):
                assert outcome(bucket, "v", column, **kwargs) == \
                    outcome(naive, "v", values, **kwargs), (case, bucket.__name__)
