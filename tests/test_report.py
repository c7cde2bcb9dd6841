import csv
import errno
import os
import re
import shutil
import tempfile
import xml.etree.ElementTree as ET
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (naive_balanced_sample, naive_crosstab_counts, naive_group_numbers,
                     naive_kw_groups, naive_labels, naive_parse_lfm_profiles,
                     naive_parse_ml1m_users, naive_per_user_mean, nan_column)
from recaudit import report as report_mod
from recaudit.config import AuditConfig, apply_overrides, load_config
from recaudit.ebm import EbmConfig, fit_ebm
from recaudit.errors import ConfigError, DataError
from recaudit.evaluation import METRICS, MetricFrame, MetricRow
from recaudit.grouping import (NA_LABEL, GroupAssignment, balanced_sample,
                               bucket_categorical, bucket_from_brackets,
                               bucket_integer_values, code_labels)
from recaudit.cli import main
from recaudit.ingest import RawDataset, load_lfm, load_ml1m
from recaudit.interactions import PROFILE_DTYPE, Triples
from recaudit.report import _largest_remainder, build_crosstab, run_audit
from recaudit.stats import kruskal_wallis
from recaudit.synthetic import generate_planted
from recaudit.util import derive_seed

from test_variants import VARIANTS, corpus, write_config  # noqa: F401 (corpus is a fixture)

CONFIGS = Path(__file__).parents[1] / "configs"


@pytest.fixture(scope="session")
def small_audit(tmp_path_factory):
    """One small planted-bias audit, shared by the read-only tests below."""
    root = tmp_path_factory.mktemp("small_audit")
    truth = generate_planted(root / "data", n_users=240, n_items=100, seed=9)
    config_text = f"""
[dataset]
provenance = synthetic
interactions = {root / 'data' / 'interactions.tsv'}
profiles = {root / 'data' / 'profiles.tsv'}

[model]
factors = 12
iterations = 6
seed = 42

[evaluation]
scheme = partition
folds = 4
depth = 60
seed = 7

[ebm]
max_rounds = 200
bags = 4
seed = 11

[output]
dir = {root / 'out'}
threads = 2
"""
    config_path = root / "audit.ini"
    config_path.write_text(config_text)
    config = load_config(config_path)
    audit = run_audit(config)
    return config_path, config, audit, truth


class TestConfig:
    def test_defaults_match_protocol(self):
        config = load_config(None)
        assert config.model.factors == 50
        assert config.model.regularization == 0.01
        assert config.model.iterations == 30
        assert config.evaluation.folds == 5
        assert config.evaluation.holdout_fraction == 0.2
        assert config.evaluation.depth == 1000
        assert config.evaluation.sample_size == 5000
        assert config.evaluation.rbp_persistence == 0.85
        assert config.grouping.age_brackets == (1, 18, 25, 35, 45, 50, 56)
        assert config.ebm.learning_rate == 0.01
        assert config.ebm.bags == 8

    def test_missing_file_rejected(self):
        with pytest.raises(ConfigError):
            load_config("/nonexistent/audit.ini")

    def test_bad_values_rejected(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text("[model]\nfactors = banana\n")
        with pytest.raises(ConfigError):
            load_config(bad)
        bad.write_text("[evaluation]\nholdout_fraction = 1.5\n")
        with pytest.raises(ConfigError):
            load_config(bad)
        bad.write_text("[dataset]\nprovenance = mystery\n")
        with pytest.raises(ConfigError):
            load_config(bad)

    RANGES = [("grouping", "age_range_width = 0"), ("grouping", "age_range_width = -15"),
              ("grouping", "age_count_bins = 1"), ("grouping", "usage_bins = 1"),
              ("grouping", "country_buckets = 0"), ("grouping", "age_brackets = ,"),
              ("ebm", "max_bins = 1"), ("model", "seed = -1")]

    @pytest.mark.parametrize("section, setting", RANGES, ids=[s for _, s in RANGES])
    def test_grouping_ranges_rejected(self, tmp_path, section, setting):
        bad = tmp_path / "bad.ini"
        bad.write_text(f"[{section}]\n{setting}\n")
        with pytest.raises(ConfigError, match=setting.split()[0]):
            load_config(bad)

    @pytest.mark.parametrize("text, named", [
        ("[modle]\nfactors = 8\n", r"unknown section \[modle\]"),
        ("[model]\nfactor = 8\n", r"\[model\] unknown key 'factor'"),
        ("[ebm]\nbag = 3\n", r"\[ebm\] unknown key 'bag'"),
        ("[DEFAULT]\nseed = 3\n", r"unknown section \[DEFAULT\]"),
    ], ids=["modle", "factor", "bag", "DEFAULT"])
    def test_unknown_section_or_key_rejected(self, tmp_path, text, named):
        bad = tmp_path / "bad.ini"
        bad.write_text(text)
        with pytest.raises(ConfigError, match=named):
            load_config(bad)

    def test_uninterpolable_value_is_a_config_error(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text("[dataset]\ninteractions = data/100%.tsv\n")
        with pytest.raises(ConfigError, match="cannot parse config"):
            load_config(bad)

    # manifest.json holds config_hash(), so a loader or canonical_lines change
    # that moves one of these changes the bytes of every such audit's manifest
    PINNED_HASHES = {
        None: "4b30ca28a6454078da7b520077608224955eae18c2fa93f7e96d292f847a4a7c",
        "lfm360k.ini": "7b5dfee9d050ae8f85e21e5858b0c82d18bd89e604c570fe197919d629e6e101",
        "ml1m.ini": "6f70e7812fa1aac567065f5696e55263985e72b712d1f90d777853e2da8ade8a",
        "synthetic.ini": "496be3fae2ec706378e78c90437671388976426276434461647496527883322e",
    }

    def test_config_hashes_are_pinned(self, tmp_path):
        assert sorted(p.name for p in CONFIGS.glob("*.ini")) == sorted(
            name for name in self.PINNED_HASHES if name)
        empty = tmp_path / "empty.ini"
        empty.write_text("")
        for name, digest in self.PINNED_HASHES.items():
            path = CONFIGS / name if name else empty
            assert load_config(path).config_hash() == digest, name
        assert load_config(None).config_hash() == self.PINNED_HASHES[None]

    def test_readme_table_lists_every_key_with_its_default(self):
        def shown(value):
            if value is None:
                return "unset"
            if isinstance(value, bool):
                return f"`{str(value).lower()}`"
            if isinstance(value, tuple):
                return f"`{','.join(str(v) for v in value)}`"
            return f"`{value}`"

        base = AuditConfig()
        schema = [(section.name, f.name, shown(getattr(getattr(base, section.name), f.name)))
                  for section in fields(base) for f in fields(getattr(base, section.name))]
        readme = (CONFIGS.parent / "README.md").read_text(encoding="utf-8")
        rows = re.findall(r"^\| `\[(\w+)\]` \| `(\w+)` \| ([^|]+?) \|", readme, re.M)
        assert rows == schema

    @pytest.mark.parametrize("depth", [0, -5])
    def test_depth_below_one_rejected(self, tmp_path, depth):
        bad = tmp_path / "bad.ini"
        bad.write_text(f"[evaluation]\ndepth = {depth}\n")
        with pytest.raises(ConfigError, match="depth must be >= 1"):
            load_config(bad)
        bad.write_text("[evaluation]\ndepth = 1\n")
        assert load_config(bad).evaluation.depth == 1

    def test_seed_override(self):
        config = apply_overrides(load_config(None), seed=100)
        assert config.model.seed == 100
        assert config.evaluation.seed == 101
        assert config.ebm.seed == 102

    def test_hash_stable_and_sensitive(self):
        a = load_config(None)
        b = load_config(None)
        assert a.config_hash() == b.config_hash()
        c = apply_overrides(a, seed=123)
        assert c.config_hash() != a.config_hash()

    def test_scheme_resolution(self, tmp_path):
        ini = tmp_path / "c.ini"
        ini.write_text("[dataset]\nprovenance = ml1m\n")
        assert load_config(ini).resolved_fold_scheme() == "partition"
        ini.write_text("[dataset]\nprovenance = lfm360k\n")
        assert load_config(ini).resolved_fold_scheme() == "sample"


def crosstab_columns(tab):
    """A cross-tab's row labels, column labels, per column its percentage
    by row label, and per column its ``n_users`` total."""
    header, rows = tab
    assert header[0] == "bucket" and rows[-1][0] == "n_users"
    col_labels, row_labels = header[1:], [row[0] for row in rows[:-1]]
    percentages = {col: {row[0]: row[j] for row in rows[:-1]}
                   for j, col in enumerate(col_labels, 1)}
    return row_labels, col_labels, percentages, dict(zip(col_labels, rows[-1][1:]))


class TestCrossTab:
    def test_columns_sum_to_100(self):
        rows = bucket_integer_values("pop", nan_column([i % 5 for i in range(40)]),
                                     merge_at=13)
        cols = bucket_categorical("g", *code_labels(["a" if i < 25 else "b" for i in range(40)]))
        _, col_labels, percentages, _ = crosstab_columns(build_crosstab(rows, cols))
        for col in col_labels:
            assert sum(percentages[col].values()) == 100

    def test_uneven_shares_still_sum_100(self, rng):
        rows = bucket_integer_values("pop", rng.integers(0, 7, 97).astype(np.float64),
                                     merge_at=13)
        cols = bucket_categorical("g", *code_labels([str(v) for v in rng.integers(0, 3, 97)]))
        _, col_labels, percentages, _ = crosstab_columns(build_crosstab(rows, cols))
        for col in col_labels:
            assert sum(percentages[col].values()) == 100

    def test_empty_column_no_division_error(self):
        # ghost has no pop bucket, so the N/A gender column counts nobody
        rows = bucket_integer_values("pop", nan_column([1, 2, None]), merge_at=13)
        cols = bucket_categorical("g", *code_labels(["a", "a", None]))
        _, _, percentages, col_totals = crosstab_columns(build_crosstab(rows, cols))
        assert col_totals["N/A"] == 0
        assert sum(percentages["N/A"].values()) == 0
        assert sum(percentages["a"].values()) == 100


BRACKETS = (0, 2, 4, 6, 8, 10)
BRACKET_LABELS = ["0-1", "2-3", "4-5", "6-7", "8-9", "10+"]


def random_case(rng):
    """Users with a bracketed value and a category (each sometimes missing),
    metric rows for a random subset of them over 1-3 folds, rows shuffled."""
    n = int(rng.integers(1, 40))
    keys = (rng.permutation(n) + 1).tolist()
    ids = keys if rng.random() < 0.5 else [f"u{k}" for k in keys]
    # values stay below 8, so "8-9" and "10+" always end up empty
    value_pool = rng.choice(8, size=int(rng.integers(1, 5)), replace=False)
    values = [None if rng.random() < 0.2 else int(rng.choice(value_pool))
              for _ in range(n)]
    weights = rng.dirichlet(np.ones(4) * 0.7)
    cats = [None if rng.random() < 0.15 else "abcd"[int(rng.choice(4, p=weights))]
            for _ in range(n)]
    coarse = rng.random() < 0.5  # coarse values tie, which the ranks must handle
    rows = []
    for uid in ids:
        if rng.random() < 0.6:
            for fold in rng.choice(5, size=int(rng.integers(1, 4)), replace=False):
                v = rng.integers(0, 4, 3) / 3 if coarse else rng.random(3)
                rows.append(MetricRow(uid, int(fold), *map(float, v)))
    rows = [rows[i] for i in rng.permutation(len(rows))]
    return ids, values, cats, rows


class TestGroupNumbersMatchOracle:
    """Seeded random assignments: every per-group number equals, float for
    float, the user_id -> label dict computation in tests/oracles.py."""

    def test_random_assignments(self, rng):
        seen = set()
        for case in range(150):
            ids, values, cats, rows = random_case(rng)
            means = MetricFrame(rows=rows).user_means(ids)
            oracle_means = {m: naive_per_user_mean(rows, m) for m in METRICS}
            for m in METRICS:
                np.testing.assert_array_equal(
                    means[m], [oracle_means[m].get(uid, np.nan) for uid in ids])
            tested_ids = set(oracle_means["ndcg"])
            tested_order = np.array(sorted((i for i, uid in enumerate(ids)
                                            if uid in tested_ids),
                                           key=lambda i: str(ids[i])), dtype=np.intp)

            bracket_of = {uid: NA_LABEL if v is None else BRACKET_LABELS[v // 2]
                          for uid, v in zip(ids, values)}
            cat_of = {uid: NA_LABEL if c is None else c for uid, c in zip(ids, cats)}
            cat_counts = {c: cats.count(c) for c in set(cats) - {None}}
            cat_order = sorted(cat_counts, key=lambda c: (-cat_counts[c], c))
            brackets = bucket_from_brackets("br", nan_column(values), BRACKETS)
            categories = bucket_categorical("cat", *code_labels(cats))
            for assignment, by_user, ordered in ((brackets, bracket_of, BRACKET_LABELS),
                                                 (categories, cat_of, cat_order)):
                labels = naive_labels(by_user, ordered)
                assert assignment.labels == labels
                assert [labels[c] for c in assignment.codes] == list(by_user.values())

                result = report_mod.scheme_result(assignment, means)
                numbers = naive_group_numbers(by_user, labels, oracle_means)
                assert result.counts == {lab: e["size"] for lab, e in numbers.items()}
                assert result.tested == {lab: e["tested"] for lab, e in numbers.items()}
                for m in METRICS:
                    assert result.means[m] == {lab: e["mean"][m]
                                               for lab, e in numbers.items()
                                               if m in e["mean"]}
                    assert result.ses[m] == {lab: e["se"][m] for lab, e in numbers.items()
                                             if m in e["se"]}
                    groups = naive_kw_groups(by_user, labels, oracle_means[m])
                    testable = len(groups) >= 2 and sum(map(len, groups)) >= 3
                    assert result.kw[m] == (kruskal_wallis(groups) if testable else None)

                expected = naive_balanced_sample(
                    by_user, labels, tested_ids,
                    lambda label: np.random.default_rng(
                        derive_seed(case, "balanced", assignment.name, label)))
                if expected is None:
                    with pytest.raises(ValueError):
                        balanced_sample(assignment, case, tested_order)
                else:
                    sample = balanced_sample(assignment, case, tested_order)
                    assert [ids[i] for i in sample] == expected

                seen.update(kind for kind, hit in (
                    ("n/a", NA_LABEL in labels),
                    ("dropped", len(labels) < len(set(ordered) | {NA_LABEL})),
                    ("untested group", any(e["size"] and not e["tested"]
                                           for e in numbers.values())),
                    ("one-member group", any(e["tested"] == 1 for e in numbers.values())),
                    ("untested user", len(tested_ids) < len(ids))) if hit)

            tab_rows, tab_cols, percentages, col_totals = crosstab_columns(
                build_crosstab(brackets, categories))
            row_labels = [lab for lab in brackets.labels if lab != NA_LABEL]
            assert tab_rows == row_labels
            assert tab_cols == categories.labels
            counts = naive_crosstab_counts(bracket_of, brackets.labels, cat_of,
                                           categories.labels)
            for col, (total, per_row) in counts.items():
                assert col_totals[col] == total
                pct = (_largest_remainder([100.0 * per_row[r] / total for r in row_labels])
                       if total else [0] * len(row_labels))
                assert percentages[col] == dict(zip(row_labels, pct))
        assert seen == {"n/a", "dropped", "untested group", "one-member group",
                        "untested user"}


class TestAuditEndToEnd:
    def test_planted_gap_flagged(self, small_audit):
        _, config, audit, truth = small_audit
        gender = audit.schemes["gender"]
        assert gender.kw["ndcg"] is not None
        assert gender.kw["ndcg"].p_value < 0.01
        assert gender.means["ndcg"]["m"] > gender.means["ndcg"]["f"]

    def test_control_scheme_quiet(self, small_audit):
        _, config, audit, _ = small_audit
        control = audit.schemes["last_digit"]
        assert control.kw["ndcg"] is not None
        assert control.kw["ndcg"].p_value > 0.05

    def test_all_output_files_exist(self, small_audit):
        _, config, audit, _ = small_audit
        out = Path(config.output.dir)
        for name in ("metrics_per_user.csv", "group_summary.csv",
                     "stats_summary.csv", "ebm_importance.csv",
                     "ebm_solo_importance.csv", "ebm_shapes.csv",
                     "manifest.json"):
            assert (out / name).exists(), name
        assert (out / "charts" / "gender.svg").exists()
        assert (out / "crosstab_usage_by_gender.csv").exists()

    def test_group_summary_matches_per_user_csv(self, small_audit):
        # spreadsheet oracle: recompute group means from the per-user CSV
        _, config, audit, _ = small_audit
        out = Path(config.output.dir)
        frame = MetricFrame.from_csv(out / "metrics_per_user.csv")
        means = naive_per_user_mean(frame.rows, "ndcg")
        gender = audit.schemes["gender"]
        with open(out / "group_summary.csv", newline="") as fh:
            rows = [r for r in csv.DictReader(fh)
                    if r["scheme"] == "gender" and r["group"] == "m"]
        assert len(rows) == 1
        ids = report_mod.load(config).user_ids
        m = gender.assignment.labels.index("m")
        members = [ids[i] for i in np.flatnonzero(gender.assignment.codes == m)
                   if ids[i] in means]
        expected = sum(means[u] for u in members) / len(members)
        assert float(rows[0]["mean_ndcg"]) == pytest.approx(expected, abs=1e-12)
        assert int(rows[0]["n_tested"]) == len(members)

    def test_stats_csv_structure(self, small_audit):
        _, config, audit, _ = small_audit
        out = Path(config.output.dir)
        with open(out / "stats_summary.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert {r["metric"] for r in rows} == {"ndcg", "mrr", "rbp"}
        for r in rows:
            if r["H"]:
                assert float(r["p_bonferroni"]) >= float(r["p"]) - 1e-15
                assert float(r["p_bonferroni"]) <= 1.0

    def test_manifest_records_seeds_and_hash(self, small_audit):
        import json
        _, config, audit, _ = small_audit
        out = Path(config.output.dir)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config_hash"] == config.config_hash()
        assert manifest["seeds"]["model"] == 42
        assert manifest["seeds"]["evaluation"] == 7
        assert str(0) in {str(k) for k in manifest["seeds"]["per_fold_model"]}
        assert manifest["dataset"]["n_users"] == 240

    def test_rerun_identical_bytes(self, small_audit, tmp_path):
        config_path, config, _, _ = small_audit
        rerun = apply_overrides(load_config(config_path), out=str(tmp_path / "rerun"))
        run_audit(rerun)
        base = Path(config.output.dir)
        for name in ("metrics_per_user.csv", "group_summary.csv",
                     "stats_summary.csv", "ebm_importance.csv"):
            assert (tmp_path / "rerun" / name).read_bytes() == \
                (base / name).read_bytes(), name

    def test_ebm_importance_has_expected_features(self, small_audit):
        _, config, audit, _ = small_audit
        features = [name for name, _ in audit.ebm_importance]
        assert set(features) == {"age", "gender", "usage", "pop_index", "last_digit"}


def test_ebm_shapes_csv_names_every_bin(tmp_path):
    n = 100
    country = GroupAssignment("country", ["Peru", "Chile", "Fiji", NA_LABEL],
                              np.array([0, 1, 3] * 33 + [0]))  # Fiji unused
    columns = {
        "usage": np.arange(1.0, n + 1) * 1e6,  # quartile edges 2.575e+07, ...
        "age": np.where(np.arange(n) % 3 == 0, np.nan, 7.0),  # constant
        "pop_index": np.full(n, np.nan),  # missing in every row: left out
        "country": country,
    }
    specs, binned = report_mod._explainer_inputs(columns, np.arange(n), max_bins=4)
    model = fit_ebm(binned, np.linspace(0.0, 1.0, n), specs,
                    EbmConfig(max_rounds=5, bags=2))
    audit = report_mod.AuditReport(
        config=AuditConfig(), frame=MetricFrame(), schemes={}, ebm_importance=[],
        ebm_model=model, crosstabs={}, manifest={})
    report_mod.emit_tables(audit, tmp_path)
    with open(tmp_path / "ebm_shapes.csv", newline="", encoding="utf-8") as fh:
        named = [(row["feature"], row["bin"]) for row in csv.DictReader(fh)]
    assert named == [
        ("__intercept__", ""),
        ("usage", "(-inf, 2.575e+07]"), ("usage", "(2.575e+07, 5.05e+07]"),
        ("usage", "(5.05e+07, 7.525e+07]"), ("usage", "(7.525e+07, inf)"),
        ("usage", "missing"),
        ("age", "(-inf, inf)"), ("age", "missing"),
        ("country", "Chile"), ("country", "Peru"), ("country", "missing"),
    ]


def test_solo_run_scores_no_label_the_sample_lacks(monkeypatch):
    assignment = GroupAssignment("scheme", ["b", "a", "c", NA_LABEL],
                                 np.array([0, 1, 2, 3] * 10))
    tested = np.flatnonzero(assignment.codes != 2)  # no user of c is tested
    models = []
    fit = report_mod.ebm.fit_ebm
    monkeypatch.setattr(report_mod.ebm, "fit_ebm",
                        lambda *args: models.append(fit(*args)) or models[-1])
    result = report_mod.SchemeResult(assignment=assignment)
    report_mod._solo_ebm_runs(AuditConfig(), {"scheme": result}, tested,
                              np.linspace(0.0, 1.0, 40))
    (model,) = models
    assert model.specs[0].labels == ["a", "b", "missing"]
    shape = model.shapes["group"]
    assert result.ebm_shape == {"b": shape[1], "a": shape[0]}
    assert "c" not in result.ebm_shape


@pytest.fixture(scope="module")
def country_audit(tmp_path_factory):
    """Hand-built LFM-format dataset with countries and a GDP table."""
    root = tmp_path_factory.mktemp("country")
    rng = np.random.default_rng(31)
    countries = ["Aland", "Borduria", "Cascadia", "Dorne"]
    gdp = {"Aland": 50000.0, "Borduria": 2000.0, "Cascadia": 30000.0}
    weights = [0.55, 0.25, 0.15, 0.05]
    with open(root / "interactions.tsv", "w") as ifh, \
            open(root / "profiles.tsv", "w") as pfh:
        for u in range(180):
            country = countries[int(rng.choice(4, p=weights))]
            gender = "m" if rng.random() < 0.5 else "f"
            items = rng.choice(60, size=int(rng.integers(12, 25)),
                               replace=False)
            for i in items:
                ifh.write(f"{u}\titem{i}\tItem {i}\t{1 + int(rng.poisson(2))}\n")
            pfh.write(f"{u}\t{gender}\t{int(rng.integers(18, 60))}\t{country}\t\n")
    gdp_path = root / "gdp.csv"
    gdp_path.write_text("country,gdp_per_capita\n" +
                        "".join(f"{c},{g}\n" for c, g in gdp.items()))
    ini = root / "audit.ini"
    ini.write_text(f"""
[dataset]
provenance = synthetic
interactions = {root / 'interactions.tsv'}
profiles = {root / 'profiles.tsv'}
gdp_table = {gdp_path}
[model]
factors = 8
iterations = 4
[evaluation]
scheme = partition
folds = 3
depth = 40
[ebm]
max_rounds = 100
bags = 2
[output]
dir = {root / 'out'}
""")
    return run_audit(load_config(ini))


class TestCountrySchemes:
    def test_both_country_schemes_present(self, country_audit):
        assert "country_prevalence" in country_audit.schemes
        assert "country_gdp" in country_audit.schemes

    def test_prevalence_buckets_ordered_low_to_high(self, country_audit):
        scheme = country_audit.schemes["country_prevalence"]
        assert scheme.assignment.non_na_labels() == ["low", "medium", "high"]
        sizes = scheme.assignment.sizes()
        # the dominant country alone should land in "high"
        assert sizes["high"] >= sizes["low"]

    def test_gdp_scheme_sends_unlisted_country_to_na(self, country_audit):
        scheme = country_audit.schemes["country_gdp"]
        sizes = scheme.assignment.sizes()
        assert sizes.get("N/A", 0) > 0  # Dorne has no GDP entry

    def test_load_joins_the_gdp_table_to_the_country_labels(self, country_audit, tmp_path):
        config = country_audit.config
        data = report_mod.load(config)
        assert data.country_labels == ["Aland", "Borduria", "Cascadia", "Dorne"]
        np.testing.assert_array_equal(data.country_gdp, [50000.0, 2000.0, 30000.0, np.nan])
        (tmp_path / "gdp.csv").write_text("ALAND,1\nborduria,2\n")
        folded = replace(config.dataset, gdp_table=str(tmp_path / "gdp.csv"))
        np.testing.assert_array_equal(report_mod.load(replace(config, dataset=folded)).country_gdp,
                                      [1.0, 2.0, np.nan, np.nan])
        no_table = replace(config.dataset, gdp_table=None)
        assert report_mod.load(replace(config, dataset=no_table)).country_gdp is None

    def test_country_features_reach_the_explainer(self, country_audit):
        features = {name for name, _ in country_audit.ebm_importance}
        assert "country_prevalence" in features
        assert "country_gdp" in features

    def test_country_crosstabs_emitted(self, country_audit):
        assert "usage_by_country_prevalence" in country_audit.crosstabs
        _, col_labels, percentages, col_totals = crosstab_columns(
            country_audit.crosstabs["usage_by_country_prevalence"])
        for col in col_labels:
            total = sum(percentages[col].values())
            assert total == 100 or col_totals[col] == 0


@pytest.fixture(scope="module")
def fold_data(tmp_path_factory):
    root = tmp_path_factory.mktemp("fold_data")
    generate_planted(root / "data", n_users=90, n_items=50, seed=5)
    return root


def fold_config(root, scheme, folds):
    """A small config; ``folds`` may be 1, which only a config file rejects."""
    ini = root / f"{scheme}.ini"
    ini.write_text(f"""
[dataset]
provenance = synthetic
interactions = {root / 'data' / 'interactions.tsv'}
profiles = {root / 'data' / 'profiles.tsv'}
[model]
factors = 5
iterations = 2
[evaluation]
scheme = {scheme}
sample_size = 20
depth = 25
[output]
dir = {root / 'out'}
""")
    config = load_config(ini)
    return replace(config, evaluation=replace(config.evaluation, folds=folds))


class TestFoldWorkers:
    @pytest.mark.parametrize("folds", [1, 3])
    @pytest.mark.parametrize("scheme", ["sample", "partition"])
    def test_rows_equal_at_any_worker_count(self, fold_data, scheme, folds):
        config = fold_config(fold_data, scheme, folds)
        data = report_mod.load(config)
        serial = report_mod.score(config, data).rows
        assert {row.fold for row in serial} == set(range(folds))
        for threads in (2, folds, folds + 2):
            rows = report_mod.score(apply_overrides(config, threads=threads), data).rows
            assert rows == serial, threads

    def test_load_drops_the_triples(self, fold_data):
        data = report_mod.load(fold_config(fold_data, "partition", 3))
        assert not any(isinstance(getattr(data, f.name), (Triples, RawDataset))
                       for f in fields(data))
        assert data.matrix.nnz > 0 and data.attributes.size
        assert len(data.user_ids) == data.matrix.n_users


@pytest.mark.parametrize("cut", [False, True])
@pytest.mark.parametrize("variant", VARIANTS)
def test_load_aligns_profile_records_to_rows(variant, cut, corpus, tmp_path):
    """``attributes[u]`` holds row u's profile, coded, or every field
    missing for a user without one, on every variant corpus as it is and
    with every third profile line removed; a profile of a user outside the
    matrix is dropped, its labels with it."""
    provenance, dataset = VARIANTS[variant](corpus / "synthetic", tmp_path)
    key = "users" if provenance == "ml1m" else "profiles"
    if cut:
        kept = [line for i, line in enumerate(Path(dataset[key]).read_bytes()
                                              .splitlines(keepends=True)) if i % 3 != 1]
        (tmp_path / "cut").write_bytes(b"".join(kept))
        dataset = {**dataset, key: tmp_path / "cut"}
    data = report_mod.load(load_config(write_config(tmp_path / "c.ini", provenance, dataset,
                                                    tmp_path / "out")))
    encoding = "latin-1" if provenance == "ml1m" else "utf-8"
    with open(dataset[key], encoding=encoding) as fh:
        parse = naive_parse_ml1m_users if provenance == "ml1m" else naive_parse_lfm_profiles
        profiles = {uid: (None if gender == "NA" else gender, age, country)
                    for uid, (gender, age, country) in parse(fh).items()}
    assert len(data.attributes) == data.matrix.n_users
    # one table, its usage and pop-index columns left for the pop-index stage
    assert data.attributes.dtype == PROFILE_DTYPE
    assert np.isnan(data.attributes.usage).all() and np.isnan(data.attributes.pop_index).all()
    want = [profiles.get(uid, (None, None, None)) for uid in data.user_ids]
    assert data.gender_labels == sorted({g for g, _, _ in want} - {None})
    assert data.country_labels == sorted({c for _, _, c in want} - {None})
    for uid, attr, (gender, age, country) in zip(data.user_ids, data.attributes, want):
        assert type(uid) is str
        assert (data.gender_labels + [None])[attr.gender] == gender
        assert (data.country_labels + [None])[attr.country] == country
        assert (None if np.isnan(attr.age) else attr.age) == age
    assert (len(set(data.user_ids) - set(profiles)) > 0) == cut
    assert (len(set(profiles) - set(data.user_ids)) > 0) == (variant == "cold_start")


@pytest.mark.parametrize("variant", VARIANTS)
def test_every_id_is_text(variant, corpus, tmp_path):
    """Parsed and matrix ids and scored rows name users by text on every
    variant corpus, and the per-user means of a scored frame are the
    means of its metrics CSV, bit for bit."""
    provenance, dataset = VARIANTS[variant](corpus / "synthetic", tmp_path)
    raw = (load_ml1m(dataset["ratings"], dataset["users"]) if provenance == "ml1m"
           else load_lfm(dataset["interactions"], dataset["profiles"], provenance))
    config = load_config(write_config(tmp_path / "c.ini", provenance, dataset,
                                      tmp_path / "out"))
    data = report_mod.load(config)
    frame = report_mod.score(config, data)
    for ids in (raw.triples.user_ids, raw.triples.item_ids, list(raw.attributes),
                data.user_ids, [row.user_id for row in frame.rows]):
        assert ids and all(type(uid) is str for uid in ids)
    frame.to_csv(tmp_path / "metrics.csv")
    read = MetricFrame.from_csv(tmp_path / "metrics.csv").user_means(data.user_ids)
    for metric, means in frame.user_means(data.user_ids).items():
        assert means.tobytes() == read[metric].tobytes(), metric


ML1M_FORMS = ["7", "007", "+7"]  # one integer value, as int() reads each


@settings(max_examples=12, deadline=None, derandomize=True)
@given(st.lists(st.sampled_from(ML1M_FORMS), min_size=12, max_size=12),
       st.lists(st.sampled_from(ML1M_FORMS), min_size=1, max_size=3),
       st.integers(0, 19), st.integers(0, 20))
def test_ml1m_id_forms_are_one_user(rating_forms, profile_forms, first_at, profile_at):
    """User 7 written as 7, 007 or +7 across both ML1M files is one user,
    "7", with the record of its first users line; ``audit`` then ``report
    --metrics`` writes the audit's tables and charts again."""
    rng = np.random.default_rng(derive_seed("ml1m-forms", first_at))
    ratings = [(str(user), int(movie), int(rng.integers(1, 6)))
               for user in range(1, 21) if user != 7
               for movie in rng.choice(30, size=12, replace=False) + 1]
    sevens = [(form, int(movie), 4) for form, movie
              in zip(rating_forms, rng.choice(30, size=12, replace=False) + 1)]
    # user 7 is first met at row first_at * 12, or row 0's user is 7
    at = first_at * 12
    ratings = ratings[:at] + sevens + ratings[at:]
    users = [f"{u}::{'MF'[u % 2]}::{18 + u}::0::00000" for u in range(1, 21) if u != 7]
    # the first users line of user 7 says F and 25; each later one M and 50
    sevens = [f"{form}::{'F' if i == 0 else 'M'}::{25 if i == 0 else 50}::0::00000"
              for i, form in enumerate(profile_forms)]
    users = users[:profile_at] + sevens + users[profile_at:]
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "ratings.dat").write_text(
            "".join(f"{u}::{m}::{r}::0\n" for u, m, r in ratings), encoding="latin-1")
        (root / "users.dat").write_text("\n".join(users) + "\n", encoding="latin-1")
        ini = root / "audit.ini"
        ini.write_text(f"""
[dataset]
provenance = ml1m
ratings = {root / 'ratings.dat'}
users = {root / 'users.dat'}

[model]
factors = 4
iterations = 2

[evaluation]
folds = 2
depth = 20

[ebm]
max_rounds = 20
bags = 2

[output]
dir = {root / 'audit'}
threads = 1
""")
        data = report_mod.load(load_config(ini))
        assert data.user_ids.count("7") == 1
        assert not {"007", "+7"} & set(data.user_ids)
        seven = data.user_ids.index("7")
        assert data.matrix.user_items(seven).size == 12
        assert (data.gender_labels[data.attributes[seven].gender],
                data.attributes[seven].age) == ("f", 25)

        assert main(["audit", "--config", str(ini)]) == 0
        assert main(["report", "--config", str(ini), "--metrics",
                     str(root / "audit" / "metrics_per_user.csv"),
                     "--out", str(root / "report")]) == 0
        audited = {p.relative_to(root / "audit"): p.read_bytes()
                   for p in (root / "audit").rglob("*") if p.is_file()}
        assert b"\n7," in audited[Path("metrics_per_user.csv")]
        del audited[Path("manifest.json")]
        assert {p.relative_to(root / "report"): p.read_bytes()
                for p in (root / "report").rglob("*") if p.is_file()} == audited


class TestFailureHandling:
    def test_missing_data_aborts_with_stage(self, tmp_path):
        ini = tmp_path / "c.ini"
        ini.write_text(f"[dataset]\nprovenance = synthetic\n"
                       f"interactions = {tmp_path}/nope.tsv\n"
                       f"[output]\ndir = {tmp_path}/out\n")
        with pytest.raises(Exception, match="stage ingest"):
            run_audit(load_config(ini))

    @staticmethod
    def small_config(tmp_path):
        generate_planted(tmp_path / "data", n_users=60, n_items=40, seed=2)
        ini = tmp_path / "c.ini"
        ini.write_text(f"""
[dataset]
provenance = synthetic
interactions = {tmp_path / 'data' / 'interactions.tsv'}
profiles = {tmp_path / 'data' / 'profiles.tsv'}
[model]
factors = 4
iterations = 2
[evaluation]
scheme = partition
folds = 2
depth = 20
[ebm]
max_rounds = 20
bags = 2
[output]
dir = {tmp_path / 'out'}
""")
        return load_config(ini)

    def test_partial_outputs_removed_on_failure(self, tmp_path, monkeypatch):
        config = self.small_config(tmp_path)

        def boom(report, out_dir, runner=None):
            raise DataError("chart stage exploded")

        monkeypatch.setattr(report_mod, "emit_charts", boom)
        with pytest.raises(DataError, match="stage emit"):
            run_audit(config)
        assert not (tmp_path / "out" / "metrics_per_user.csv").exists()
        assert not (tmp_path / "out" / "group_summary.csv").exists()

    def test_charts_removed_when_manifest_write_fails(self, tmp_path, monkeypatch):
        config = self.small_config(tmp_path)

        def boom(*args, **kwargs):
            raise OSError("manifest write failed")

        monkeypatch.setattr(report_mod.json, "dump", boom)
        with pytest.raises(ConfigError, match="stage emit.*manifest write failed"):
            run_audit(config)
        assert list((tmp_path / "out").rglob("*.svg")) == []
        assert list((tmp_path / "out").rglob("*.csv")) == []

    def test_failed_rerun_keeps_previous_outputs(self, tmp_path, monkeypatch):
        config = self.small_config(tmp_path)
        out = tmp_path / "out"
        run_audit(config)

        def snapshot():
            return {path.relative_to(out).as_posix():
                    path.read_bytes() if path.is_file() else None
                    for path in out.rglob("*")}

        before = snapshot()
        assert "manifest.json" in before and "charts/gender.svg" in before

        def boom(*args, **kwargs):
            raise DataError("chart stage exploded")

        render = report_mod.render_scheme_chart

        def no_space_for_gender(**kwargs):
            if kwargs["scheme"] == "gender":
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return render(**kwargs)

        # a rerun under another seed, so that any file it wrote would differ
        rerun = apply_overrides(config, seed=config.model.seed + 1)
        for name, replacement, error in [("emit_charts", boom, DataError),
                                         ("render_scheme_chart", no_space_for_gender,
                                          ConfigError)]:
            with monkeypatch.context() as patch:
                patch.setattr(report_mod, name, replacement)
                with pytest.raises(error, match="stage emit"):
                    run_audit(rerun)
            # same files, same bytes, and no staging directory left behind
            assert snapshot() == before, name

    def test_narrower_rerun_leaves_only_its_own_outputs(self, tmp_path):
        def files(root):
            return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}

        config = self.small_config(tmp_path)
        out = tmp_path / "out"
        run_audit(config)
        wide = files(out)
        (out / "notes.txt").write_text("not an output\n")
        narrow = replace(config, grouping=replace(config.grouping, schemes=("gender",)))
        run_audit(narrow)
        run_audit(apply_overrides(narrow, out=str(tmp_path / "fresh")))
        fresh = files(tmp_path / "fresh")
        assert Path("crosstab_usage_by_gender.csv") not in fresh
        assert set(wide) - set(fresh) >= {Path("charts", "usage.svg"),
                                          Path("crosstab_usage_by_gender.csv")}
        assert files(out) == {**fresh, Path("notes.txt"): b"not an output\n"}
        # the removal list names every output of the wide run
        assert set(wide) - {report_mod.MANIFEST} <= set(report_mod.EMIT_FILES)

    def test_manifest_moves_last(self, tmp_path, monkeypatch):
        config = self.small_config(tmp_path)
        data = report_mod.load(config)
        frame = report_mod.score(config, data)
        previous = report_mod.rebuild_report(config, frame, data)
        latest = report_mod.rebuild_report(
            apply_overrides(config, seed=config.model.seed + 1), frame, data)
        out = tmp_path / "out"
        report_mod.emit(latest, out, with_manifest=True)
        latest_manifest = (out / "manifest.json").read_bytes()
        n_files = sum(1 for p in out.rglob("*") if p.is_file())
        real_replace = os.replace
        moved = []

        def failing_replace(src, dst):
            moved.append(Path(dst).relative_to(out).as_posix())
            if len(moved) == fail_at:
                raise OSError(f"move {fail_at} failed")
            real_replace(src, dst)

        monkeypatch.setattr(report_mod.os, "replace", failing_replace)
        for n in range(1, n_files + 1):
            shutil.rmtree(out)
            fail_at = 0
            report_mod.emit(previous, out, with_manifest=True)
            previous_manifest = (out / "manifest.json").read_bytes()
            assert previous_manifest != latest_manifest
            moved.clear()
            fail_at = n
            with pytest.raises(ConfigError, match=f"stage emit: move {n} failed"):
                report_mod.emit(latest, out, with_manifest=True)
            assert (out / "manifest.json").read_bytes() == previous_manifest, moved
        assert moved[-1] == "manifest.json" and len(moved) == n_files

    def test_report_failure_names_report_stage(self, tmp_path, monkeypatch):
        config = self.small_config(tmp_path)

        def boom(*args, **kwargs):
            raise DataError("grouping exploded")

        monkeypatch.setattr(report_mod, "build_assignments", boom)
        with pytest.raises(DataError, match="stage report: grouping exploded"):
            run_audit(config)


class TestCharts:
    def read_rects(self, svg_text, panel_index=0):
        root = ET.fromstring(svg_text)
        ns = {"svg": "http://www.w3.org/2000/svg"}
        return root.findall(".//svg:rect", ns)

    def test_single_group_no_crash(self):
        from recaudit.charts import render_scheme_chart
        svg = render_scheme_chart("solo", ["only"], [5], [0.5], [0.0], None,
                                  "not testable")
        assert "<svg" in svg and "solo" in svg

    def test_markup_characters_escaped_as_saxutils(self):
        from xml.sax.saxutils import escape as sax_escape

        from recaudit.charts import escape, render_scheme_chart
        label, scheme, note = "a&b <c>", "s<&>", "p > 0 & q < 1"
        quoted = ['say "x"', '"']
        for text in (label, scheme, note, "&amp;", "", *quoted):
            assert escape(text) == sax_escape(text, {'"': "&quot;"})
        labels = [label, "plain", *quoted]
        svg = render_scheme_chart(scheme, labels, [3, 4, 5, 6], [0.5, 0.25, 0.1, 0.2],
                                  [0.0, 0.1, 0.0, 0.0], [0.2, -0.1, 0.0, 0.1], note)
        for text in (label, scheme, note, *quoted):
            assert sax_escape(text, {'"': "&quot;"}) in svg
        root = ET.fromstring(svg)
        ns = {"svg": "http://www.w3.org/2000/svg"}
        assert root.find("svg:title", ns).text == f"{scheme} ({note})"
        assert {r.get("data-label") for r in root.findall(".//svg:rect", ns)} == set(labels)
        texts = [t.text for t in root.findall(".//svg:text", ns)]
        assert all(text in texts for text in (label, *quoted))

    def test_bar_heights_proportional_to_means(self, small_audit):
        _, config, audit, _ = small_audit
        svg_text = (Path(config.output.dir) / "charts" / "gender.svg").read_text()
        rects = self.read_rects(svg_text)
        by_label = {}
        for rect in rects:
            label = rect.get("data-label")
            by_label.setdefault(label, []).append(rect)
        gender = audit.schemes["gender"]
        # second rect per label is the mean-NDCG panel
        h_m = float(by_label["m"][1].get("height"))
        h_f = float(by_label["f"][1].get("height"))
        ratio = gender.means["ndcg"]["m"] / gender.means["ndcg"]["f"]
        assert h_m / h_f == pytest.approx(ratio, rel=0.01)
        assert float(by_label["m"][1].get("data-value")) == \
            pytest.approx(gender.means["ndcg"]["m"], abs=1e-12)

    def test_annotation_matches_significance(self, small_audit):
        _, config, audit, _ = small_audit
        charts_dir = Path(config.output.dir) / "charts"
        gender_svg = (charts_dir / "gender.svg").read_text()
        assert "p &lt; 0.01" in gender_svg
        control_svg = (charts_dir / "last_digit.svg").read_text()
        assert "p &lt; 0.01" not in control_svg
        assert "p = " in control_svg

    def test_whiskers_present(self, small_audit):
        _, config, _, _ = small_audit
        svg_text = (Path(config.output.dir) / "charts" / "gender.svg").read_text()
        assert 'class="whisker"' in svg_text
