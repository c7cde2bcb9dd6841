"""The batched explainer fit against the per-bag oracle, float for float;
column binning against the scalar oracle, cell by cell; and the report's
explainer specs and bins against the one-dict-per-user oracle."""

from types import SimpleNamespace

import numpy as np
import pytest

from oracles import (NaiveSpec, naive_bin_matrix, naive_bin_numeric, naive_bin_of,
                     naive_categorical_spec, naive_ebm_feature_rows, naive_ebm_specs,
                     naive_fit_one_bag)
from recaudit import grouping, report
from recaudit.ebm import EbmConfig, FeatureSpec, _fit_bags, bin_categorical, bin_numeric
from recaudit.interactions import PROFILE_DTYPE
from recaudit.util import derive_seed


def random_problem(rng, n):
    rows = [{"x": None if rng.random() < 0.1 else float(rng.normal()),
             "k": int(rng.integers(0, 6)),
             "c": [None, "a", "b", "c"][int(rng.integers(0, 4))]}
            for _ in range(n)]
    y = np.array([(r["x"] or 0.0) + 0.3 * r["k"] + (r["c"] == "a")
                  + float(rng.normal(0, 0.5)) for r in rows])
    labels = ["a", "b", "c"]  # a missing category's code is 3, past the labels
    codes = np.array([3 if r["c"] is None else labels.index(r["c"]) for r in rows])
    pairs = [bin_numeric("x", [np.nan if r["x"] is None else r["x"] for r in rows],
                         int(rng.integers(2, 17))),
             bin_numeric("k", [r["k"] for r in rows], 4),
             bin_categorical("c", codes, labels)]
    return np.column_stack([bins for _, bins in pairs]), y, [spec for spec, _ in pairs]


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

    def test_first_and_last_bags_stop_in_the_round_a_middle_one_boosts_on(self):
        rng = np.random.default_rng(7)
        binned, y, specs = random_problem(rng, 150)
        config = EbmConfig(learning_rate=0.5, max_rounds=300, bags=8, patience=3, seed=1)
        first, middle, last = fit_and_compare(binned, y, specs, config, [0, 5, 1])
        assert first == last < middle < config.max_rounds

    def test_one_round(self):
        rng = np.random.default_rng(9)
        binned, y, specs = random_problem(rng, 60)
        config = EbmConfig(learning_rate=0.3, max_rounds=1, bags=8, patience=1, seed=3)
        assert fit_and_compare(binned, y, specs, config, range(8)) == [1] * 8

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
        specs = [FeatureSpec(name="f", labels=["a", "b", "missing"])]
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
        specs = [FeatureSpec(name="f", labels=["a", "b", "missing"]),
                 FeatureSpec(name="g", labels=["(-inf, 0.5]", "(0.5, inf)", "missing"])]
        naive = [NaiveSpec("f", categories=["a", "b"]), NaiveSpec("g", edges=np.array([0.5]))]
        rows = [{"f": "a", "g": 0.0}, {"f": "b", "g": 1.0},
                {"f": "a", "g": 1.0}, {"f": None, "g": None}]
        y = np.array([1.0, -0.5, 2.0, 0.25])
        config = EbmConfig(learning_rate=0.3, max_rounds=200, patience=5, seed=seed)
        fit_and_compare(naive_bin_matrix(rows, naive), y, specs, config, [other, 0])


class TestBinColumn:
    def test_matches_bin_of_cell_by_cell(self):
        # the padding puts the quartile edges at 0.5, 1 and 2, so that the
        # values on them and between them come out as they did before
        values = [None, float("nan"), 0, 1, 2, 3, True, -1.5, 0.5, 1.0, 2.0,
                  np.float32(1.5), float("inf"), float("-inf"), 2.0000001]
        values += [0.5, 1.0, 2.0, 3.0] * 5
        labels = ["a", "b", "3", "zzz", "A"]
        cats = [None, "a", "b", "3", "zzz", "A"]
        rows = [{"x": v, "constant": None if i % 4 == 0 else 7.0, "c": cats[i % len(cats)]}
                for i, v in enumerate(values)]
        rows.append({})  # every feature absent
        column = np.array([row.get("x") for row in rows], dtype=np.float64)
        constant = np.array([row.get("constant") for row in rows], dtype=np.float64)
        codes = np.array([labels.index(row["c"]) if row.get("c") else len(labels)
                          for row in rows])
        pairs = [bin_numeric("x", column, max_bins=4),
                 bin_numeric("constant", constant, max_bins=4),
                 bin_categorical("c", codes, labels)]
        specs = [spec for spec, _ in pairs]
        binned = np.column_stack([bins for _, bins in pairs])
        naive = [naive_bin_numeric(name, [row.get(name) for row in rows], max_bins=4)
                 for name in ("x", "constant")]
        naive.append(naive_categorical_spec("c", [row.get("c") for row in rows]))
        assert specs[0].labels == ["(-inf, 0.5]", "(0.5, 1]", "(1, 2]", "(2, inf)",
                                   "missing"]
        assert [(s.name, s.labels) for s in specs] == [(s.name, s.labels) for s in naive]
        assert binned.shape == (len(rows), len(specs))
        assert binned.dtype == np.int64
        for i, row in enumerate(rows):
            for j, spec in enumerate(naive):
                assert binned[i, j] == naive_bin_of(spec, row.get(spec.name)), (i, spec.name)
        # the checks above must reach every kind of bin
        for j, spec in enumerate(specs):
            assert set(binned[:, j]) == set(range(spec.n_bins)), spec.name


def random_attributes(rng, case):
    """A seeded attribute set (one record per user, None where a value is
    missing) and its ids in dense user order, with the
    assignments the report would pass, and the tested users in a random
    order.  The cases rotate through what broke or could: ages all missing,
    NA genders, integer ids, ids ending in an upper-case hex digit or a quote, N/A
    countries, a numeric feature missing for every tested user, values on
    a quantile edge (few distinct values) and infinities."""
    n = int(rng.integers(12, 90))
    if case % 4 == 0:
        ids = [str(u) for u in rng.choice(10_000, size=n, replace=False)]
    else:
        ends = list("0123456789abcdefABCDEF\"")
        ids = [f"{u:08x}{ends[int(rng.integers(0, len(ends)))]}" for u in range(n)]

    def age():
        if case % 3 == 0 or rng.random() < 0.1:
            return None
        if rng.random() < 0.1:
            return float(rng.choice([np.inf, -np.inf]))
        return int(rng.choice([18, 25, 25, 35, 50]))

    attributes = [SimpleNamespace(
        gender=rng.choice(["m", "f", None]), age=age(),
        country=[None, "Chile", "Ghana", "Peru", "Fiji"][int(rng.integers(0, 5))])
        for _ in ids]
    users = rng.permutation(n)[:int(rng.integers(1, n + 1))]
    for u, attr in enumerate(attributes):
        attr.usage = float(rng.choice([1, 2, 3, 5, 8, 13, 2 ** 64, np.inf, -np.inf])
                           if case % 2 else rng.integers(1, 5000))
        attr.pop_index = int(rng.integers(0, 101)) if rng.random() < 0.9 else None
        if case % 5 == 2 and u in users:
            attr.pop_index = None
    countries = grouping.code_labels([a.country for a in attributes])
    gdp = {country: 1000.0 * (3 - i) for i, country in enumerate(["Chile", "Ghana", "Fiji"])}
    assignments = {}
    if case % 3 != 1:
        assignments["country_prevalence"] = grouping.bucket_countries_by_prevalence(
            "country_prevalence", *countries, int(rng.integers(2, 4)))
    if case % 4 != 3:
        assignments["country_gdp"] = grouping.bucket_countries_by_gdp(
            "country_gdp", countries[0],
            np.array([gdp.get(c, np.nan) for c in countries[1]]), 2)
    return attributes, ids, assignments, users


def profile_table(attributes):
    """The records as the profile table holds them once the pop-index
    stage has run, and the gender labels its codes index."""
    table = np.recarray(len(attributes), PROFILE_DTYPE)
    for name in ("age", "usage", "pop_index"):
        table[name] = [getattr(a, name) for a in attributes]  # None becomes NaN
    table.gender, genders = grouping.code_labels([a.gender for a in attributes])
    table.country, _ = grouping.code_labels([a.country for a in attributes])
    return table, genders


class TestExplainerInputs:
    # np.quantile interpolates between infinities to NaN, on both paths
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_specs_and_bins_match_the_dict_row_oracle(self):
        reached = set()
        for case in range(60):
            rng = np.random.default_rng(derive_seed("explainer-inputs", case))
            attributes, ids, assignments, users = random_attributes(rng, case)
            max_bins = int(rng.integers(2, 9))
            table, genders = profile_table(attributes)
            features = {"age": table.age,
                        "gender": grouping.bucket_categorical("gender", table.gender, genders),
                        "usage": table.usage, "pop_index": table.pop_index,
                        "last_digit": grouping.control_last_digit("last_digit", ids),
                        **assignments}
            specs, binned = report._explainer_inputs(features, users, max_bins)
            rows = naive_ebm_feature_rows(attributes, ids, assignments, users)
            want = naive_ebm_specs(rows, max_bins)
            assert [(s.name, s.labels) for s in specs] == \
                [(s.name, s.labels) for s in want], case
            assert binned.dtype == np.int64
            assert np.array_equal(binned, naive_bin_matrix(rows, want)), case

            names = {s.name for s in specs}
            tested = [attributes[u] for u in users.tolist()]
            tested_ids = [ids[u] for u in users.tolist()]
            reached.update(
                name for name, hit in [
                    ("ages all missing", all(a.age is None for a in attributes)),
                    ("NA gender", any(a.gender is None for a in tested)),
                    ("integer ids", tested_ids[0].isdigit()),
                    ("upper-case hex id", any(uid[-1] in "ABCDEF" for uid in tested_ids)),
                    ("quote id", any(uid.endswith('"') for uid in tested_ids)),
                    ("N/A country", any(s.name.startswith("country") for s in specs)
                     and any(a.country is None for a in tested)),
                    ("numeric feature missing for every tested user",
                     "pop_index" not in names and any(a.pop_index is not None
                                                      for a in attributes)),
                    ("value on an edge", any(
                        np.isin([float(r[s.name]) for r in rows if r[s.name] is not None],
                                s.edges).any()
                        for s in want if s.edges is not None)),
                    ("infinity", any(r["usage"] in (np.inf, -np.inf)
                                     or r["age"] in (np.inf, -np.inf) for r in rows)),
                ] if hit)
        assert reached == {
            "ages all missing", "NA gender", "integer ids", "upper-case hex id",
            "quote id", "N/A country", "numeric feature missing for every tested user",
            "value on an edge", "infinity"}
