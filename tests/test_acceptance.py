"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Criteria 1 and 9 need the real datasets; they skip (with a visible line)
unless RECAUDIT_LFM360K_DIR / RECAUDIT_ML1M_DIR point at the extracted
files.  Everything else runs on synthetic data and oracles.
"""

import math
import os
from pathlib import Path

import numpy as np
import pytest

from oracles import (brute_force_pop_index, ks_distance_from_uniform,
                     naive_als_loss, naive_mrr, naive_ndcg, naive_per_user_mean,
                     naive_rbp)
from recaudit import als, evaluation
from recaudit.config import apply_overrides, load_config
from recaudit.ebm import EbmConfig, _bin_matrix, _fit_one_bag, bin_numeric, fit_ebm, importance, predict_batch
from recaudit.ingest import cold_start_filter, load_lfm, load_ml1m
from recaudit.interactions import from_triples
from recaudit.interactions import stats as dataset_stats
from recaudit.popindex import item_user_counts, pop_index
from recaudit.report import run_audit
from recaudit.stats import chi2_sf, kruskal_wallis
from recaudit.synthetic import generate_planted
from recaudit.util import derive_seed

from conftest import random_matrix

LFM_DIR = os.environ.get("RECAUDIT_LFM360K_DIR")
ML1M_DIR = os.environ.get("RECAUDIT_ML1M_DIR")


def passed(n, message):
    print(f"\n[acceptance] criterion {n}: PASS - {message}")


def skipped(n, message):
    print(f"\n[acceptance] criterion {n}: SKIP - {message}")


# -- criterion 1: real dataset statistics ----------------------------------

def test_criterion_1_dataset_statistics():
    if not LFM_DIR and not ML1M_DIR:
        skipped(1, "real datasets not available "
                   "(set RECAUDIT_LFM360K_DIR / RECAUDIT_ML1M_DIR)")
        pytest.skip("real data not available")
    checked = []
    if LFM_DIR:
        raw = load_lfm(Path(LFM_DIR) / "usersha1-artmbid-artname-plays.tsv",
                       Path(LFM_DIR) / "usersha1-profile.tsv")
        matrix, _, _ = from_triples(raw.triples)
        ds = dataset_stats(matrix)
        assert ds.n_interactions == 17_535_605
        assert abs(ds.sparsity - 0.9998) <= 0.0001
        checked.append(f"LFM360K {ds.n_interactions} pairs, "
                       f"sparsity {100 * ds.sparsity:.2f}%")
    if ML1M_DIR:
        raw = load_ml1m(Path(ML1M_DIR) / "ratings.dat", Path(ML1M_DIR) / "users.dat")
        matrix, _, _ = from_triples(raw.triples)
        ds = dataset_stats(matrix)
        assert ds.n_users == 6040
        assert ds.n_interactions == 1_000_209
        assert abs(ds.sparsity - 0.9581) <= 0.0001
        checked.append(f"ML1M {ds.n_users} users, {ds.n_interactions} ratings")
    passed(1, "; ".join(checked))


# -- criterion 2: metric oracle equivalence ---------------------------------

def test_criterion_2_metric_oracles():
    rng = np.random.default_rng(derive_seed("acceptance", 2))
    for _ in range(1000):
        n_ranked = int(rng.integers(1, 60))
        ranked = list(rng.permutation(200)[:n_ranked])
        relevant = set(rng.choice(200, size=int(rng.integers(1, 25)),
                                  replace=False).tolist())
        gamma = float(rng.uniform(0.05, 0.95))
        assert abs(evaluation.ndcg(ranked, relevant)
                   - naive_ndcg(ranked, relevant)) <= 1e-12
        assert abs(evaluation.mrr(ranked, relevant)
                   - naive_mrr(ranked, relevant)) <= 1e-12
        assert abs(evaluation.rbp(ranked, relevant, gamma)
                   - naive_rbp(ranked, relevant, gamma)) <= 1e-12
    passed(2, "NDCG/MRR/RBP match the naive reference on 1000 instances to 1e-12")


# -- criterion 3: pop-index oracle equivalence ------------------------------

def test_criterion_3_pop_index_oracle():
    rng = np.random.default_rng(derive_seed("acceptance", 3))
    for _ in range(200):
        matrix, _, _ = random_matrix(rng, 50, 80, density=0.08)
        pop = item_user_counts(matrix)
        item_user_sets = {}
        for u, i, _ in matrix.iter_entries():
            item_user_sets.setdefault(int(i), set()).add(u)
        for u in range(matrix.n_users):
            expected = brute_force_pop_index(
                [int(i) for i in matrix.user_items(u)], item_user_sets,
                matrix.n_users, u)
            assert pop_index(u, matrix, pop) == expected
    passed(3, "pop-index equals the exhaustive p=100..0 oracle on 200 matrices, exact")


# -- criterion 4: ALS properties --------------------------------------------

def test_criterion_4_als_properties():
    rng = np.random.default_rng(derive_seed("acceptance", 4))

    # objective non-increasing across every half-sweep, 50 random instances
    for trial in range(50):
        matrix, _, _ = random_matrix(rng, 20, 30, density=0.15)
        hp = als.AlsHyperparams(factors=5, regularization=0.05, iterations=1,
                                alpha=1.0, seed=trial)
        model = als.AlsModel(als.init_factors(20, 5, trial),
                             als.init_factors(matrix.n_items, 5, trial + 1), hp)
        prev = als.loss(model, matrix)
        for side in ("items", "users", "items", "users"):
            als.half_sweep(side, model, matrix)
            current = als.loss(model, matrix)
            assert current <= prev * (1 + 1e-8)
            prev = current

    # planted two-block structure: >= 95% of top-1 picks inside own block
    from test_als import two_block_matrix
    matrix, umap, imap = two_block_matrix(rng, n_users=60, n_items=30)
    model = als.fit(matrix, als.AlsHyperparams(factors=8, regularization=0.01,
                                               iterations=15, seed=5))
    hits = 0
    for u in range(matrix.n_users):
        block = int(umap.ids[u][1:]) % 2
        top = als.recommend(model, u, 1)[0][0]
        hits += int((0 if int(imap.ids[top][1:]) < 15 else 1) == block)
    share = hits / matrix.n_users
    assert share >= 0.95

    # Gram-identity loss equals the naive double loop on 10x10 instances
    for trial in range(10):
        matrix, _, _ = random_matrix(rng, 10, 10, density=0.3)
        hp = als.AlsHyperparams(factors=4, regularization=0.07, alpha=2.0,
                                iterations=1, seed=trial)
        model = als.AlsModel(rng.normal(size=(10, 4)),
                             rng.normal(size=(matrix.n_items, 4)), hp)
        dense = np.zeros((matrix.n_users, matrix.n_items))
        for u, i, s in matrix.iter_entries():
            dense[u, i] = s
        fast = als.loss(model, matrix)
        slow = naive_als_loss(model.user_factors, model.item_factors, dense,
                              alpha=2.0, reg=0.07)
        assert abs(fast - slow) <= 1e-9 * max(1.0, abs(slow))

    passed(4, f"monotone objective on 50 instances; two-block top-1 accuracy "
              f"{share:.0%}; Gram identity matches double loop to 1e-9")


# -- criterion 5: statistics -------------------------------------------------

def test_criterion_5_statistics():
    r = kruskal_wallis([[1, 2, 3], [4, 5, 6]])
    assert abs(r.H - 3.857) <= 1e-3
    assert abs(r.p_value - 0.0495) <= 1e-3

    same = kruskal_wallis([[7, 7, 7], [7, 7]])
    assert same.H == 0.0 and same.p_value == 1.0

    rng = np.random.default_rng(derive_seed("acceptance", 5))
    p_values = [kruskal_wallis([rng.normal(size=25).tolist()
                                for _ in range(3)]).p_value
                for _ in range(1000)]
    ks = ks_distance_from_uniform(p_values)
    assert ks < 0.05

    for x in np.linspace(0.01, 80, 300):
        assert abs(chi2_sf(float(x), 2) - math.exp(-x / 2)) <= 1e-10

    passed(5, f"KW frozen example, degenerate case, null calibration "
              f"(KS={ks:.3f}), and chi2 df=2 closed form all hold")


# -- criterion 6: EBM-lite ---------------------------------------------------

def test_criterion_6_ebm():
    rng = np.random.default_rng(derive_seed("acceptance", 6))
    config = EbmConfig(learning_rate=0.05, max_rounds=400, bags=4,
                       patience=30, seed=6)

    rows = [{"x1": float(rng.random()), "x2": float(rng.random())}
            for _ in range(1500)]
    specs = [bin_numeric("x1", [r["x1"] for r in rows], 16),
             bin_numeric("x2", [r["x2"] for r in rows], 16)]

    # constant target
    model = fit_ebm(rows, [2.5] * len(rows), specs, config)
    max_shape = max(float(np.max(np.abs(s))) for s in model.shapes.values())
    assert max_shape < 1e-6

    # step-function target: signal feature dominates the noise feature
    ys = [(2.0 if r["x1"] > 0.5 else 0.0) - 1.0 + float(rng.normal(0, 0.1))
          for r in rows]
    model = fit_ebm(rows, ys, specs, config)
    scores = dict(importance(model, rows))
    assert scores["x1"] > 10 * scores["x2"]

    # in-bag loss monotone non-increasing
    binned = _bin_matrix(rows, specs)
    for bag in range(3):
        _, _, losses = _fit_one_bag(binned, np.asarray(ys), specs, config, bag)
        assert all(b <= a + 1e-10 for a, b in zip(losses, losses[1:]))

    # additive signal recovered with held-back R^2 > 0.9
    def f(r):
        return float(np.sin(2 * np.pi * r["x1"])) + 4.0 * (r["x2"] - 0.5) ** 2

    ys = [f(r) + float(rng.normal(0, 0.05)) for r in rows]
    model = fit_ebm(rows[:1200], ys[:1200],
                    [bin_numeric("x1", [r["x1"] for r in rows[:1200]], 32),
                     bin_numeric("x2", [r["x2"] for r in rows[:1200]], 32)],
                    config)
    held_y = np.asarray(ys[1200:])
    pred = predict_batch(model, rows[1200:])
    r2 = 1 - float(np.sum((held_y - pred) ** 2)) / \
        float(np.sum((held_y - held_y.mean()) ** 2))
    assert r2 > 0.9

    passed(6, f"constant/step/monotone-loss/additive checks hold (R2={r2:.3f}, "
              f"signal/noise importance ratio {scores['x1'] / scores['x2']:.0f}x)")


# -- criterion 7: end-to-end planted-bias detection --------------------------

@pytest.fixture(scope="module")
def planted_audit(tmp_path_factory):
    root = tmp_path_factory.mktemp("planted")
    truth = generate_planted(root / "data", n_users=2000, n_items=500, seed=1)
    (root / "audit.ini").write_text(f"""
[dataset]
provenance = synthetic
interactions = {root / 'data' / 'interactions.tsv'}
profiles = {root / 'data' / 'profiles.tsv'}

[model]
factors = 32
iterations = 10
seed = 42

[evaluation]
scheme = partition
folds = 5
depth = 1000
seed = 7

[ebm]
max_rounds = 500
seed = 11

[output]
dir = {root / 'out'}
threads = 4
""")
    config = load_config(root / "audit.ini")
    report = run_audit(config)
    return config, report, truth


def test_criterion_7_planted_bias_detection(planted_audit):
    config, report, truth = planted_audit

    gender = report.schemes["gender"]
    p_planted = gender.kw["ndcg"].p_value
    assert gender.means["ndcg"]["m"] > gender.means["ndcg"]["f"]
    assert p_planted < 0.01

    control = report.schemes["last_digit"]
    p_control = control.kw["ndcg"].p_value
    assert p_control > 0.05

    ranking = [name for name, _ in report.ebm_importance]
    control_rank = ranking.index("last_digit") + 1
    assert control_rank >= len(ranking) - 1  # bottom two
    by_name = dict(report.ebm_importance)
    for signal in ("gender", "pop_index", "usage"):
        assert by_name["last_digit"] < by_name[signal]

    # permuted group labels: quiet in >= 90% of 20 seeds
    means = naive_per_user_mean(report.frame.rows, "ndcg")
    users = sorted(means, key=str)
    values = np.array([means[u] for u in users])
    labels = np.array([1 if u in truth.biased_users else 0 for u in users])
    quiet = 0
    for s in range(20):
        rng = np.random.default_rng(derive_seed("acceptance", 7, s))
        perm = rng.permutation(labels)
        r = kruskal_wallis([values[perm == 1].tolist(),
                            values[perm == 0].tolist()])
        quiet += int(r.p_value > 0.05)
    assert quiet >= 18

    passed(7, f"planted gap flagged (p={p_planted:.2e}, m>f), control quiet "
              f"(p={p_control:.2f}, importance rank {control_rank}/{len(ranking)}), "
              f"permutations quiet {quiet}/20")


# -- criterion 8: determinism across thread counts ---------------------------

def test_criterion_8_thread_determinism(tmp_path):
    generate_planted(tmp_path / "data", n_users=300, n_items=120, seed=3)
    (tmp_path / "audit.ini").write_text(f"""
[dataset]
provenance = synthetic
interactions = {tmp_path / 'data' / 'interactions.tsv'}
profiles = {tmp_path / 'data' / 'profiles.tsv'}

[model]
factors = 16
iterations = 6
seed = 42

[evaluation]
scheme = partition
folds = 4
depth = 100
seed = 7

[ebm]
max_rounds = 200
seed = 11

[output]
dir = {tmp_path / 'unused'}
""")
    base = load_config(tmp_path / "audit.ini")
    digests = []
    thread_counts = (1, 2, os.cpu_count() or 4)
    for threads in thread_counts:
        config = apply_overrides(base, out=str(tmp_path / f"out_t{threads}"),
                                 threads=threads)
        run_audit(config)
        digests.append((tmp_path / f"out_t{threads}" /
                        "metrics_per_user.csv").read_bytes())
    assert all(d == digests[0] for d in digests[1:])
    passed(8, f"byte-identical per-user metrics CSV at threads={thread_counts}")


# -- criterion 9: directional reproduction on real data ----------------------

def test_criterion_9_directional_real_data():
    if not LFM_DIR:
        skipped(9, "LFM360K not available (set RECAUDIT_LFM360K_DIR)")
        pytest.skip("real data not available")

    raw = load_lfm(Path(LFM_DIR) / "usersha1-artmbid-artname-plays.tsv",
                   Path(LFM_DIR) / "usersha1-profile.tsv")
    raw = cold_start_filter(raw)
    t = raw.triples
    rng = np.random.default_rng(derive_seed("acceptance", 9))
    present = {t.user_ids[u] for u in np.unique(t.users).tolist()}
    keep = set(rng.choice(sorted(present), size=30000, replace=False).tolist())
    rows = np.array([uid in keep for uid in t.user_ids])[t.users]
    raw.attributes = [a for a in raw.attributes if a.user_id in keep]

    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        tsv = Path(tmp) / "interactions.tsv"
        with open(tsv, "w", encoding="utf-8") as fh:
            for u, a, p in zip(t.users[rows].tolist(), t.items[rows].tolist(),
                               t.strengths[rows].tolist()):
                fh.write(f"{t.user_ids[u]}\t{t.item_ids[a]}\tx\t{int(p)}\n")
        prof = Path(tmp) / "profiles.tsv"
        with open(prof, "w", encoding="utf-8") as fh:
            for at in raw.attributes:
                fh.write(f"{at.user_id}\t{at.gender if at.gender != 'NA' else ''}\t"
                         f"{at.age if at.age else ''}\t{at.country or ''}\t\n")
        (Path(tmp) / "audit.ini").write_text(f"""
[dataset]
provenance = synthetic
interactions = {tsv}
profiles = {prof}

[evaluation]
scheme = sample
folds = 5
sample_size = 3000

[output]
dir = {tmp}/out
threads = {os.cpu_count() or 4}
""")
        report = run_audit(load_config(Path(tmp) / "audit.ini"))
        age = report.schemes["age_equal_count"]
        labels = age.assignment.non_na_labels()
        means = [age.means["ndcg"][lab] for lab in labels]
        non_increasing = sum(1 for a, b in zip(means, means[1:]) if a >= b)
        assert non_increasing >= len(means) - 2
        gender = report.schemes["gender"]
        assert gender.means["ndcg"]["m"] > gender.means["ndcg"]["f"]
    passed(9, "age trend non-increasing and male>female mean NDCG on LFM sample")
