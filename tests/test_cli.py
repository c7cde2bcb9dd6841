import codecs
import csv
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from oracles import naive_per_user_mean
import recaudit
from recaudit import als
from recaudit.cli import main
from recaudit.ingest import load_lfm
from recaudit.config import load_config
from recaudit.errors import NumericalError
from recaudit.evaluation import MetricFrame
from recaudit.report import load
from recaudit.synthetic import generate_planted
from recaudit.util import derive_seed, fmt_float


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_data")
    generate_planted(root, n_users=120, n_items=60, seed=4)
    return root


@pytest.fixture()
def config_file(dataset_dir, tmp_path):
    path = tmp_path / "audit.ini"
    path.write_text(f"""
[dataset]
provenance = synthetic
interactions = {dataset_dir / 'interactions.tsv'}
profiles = {dataset_dir / 'profiles.tsv'}

[model]
factors = 6
iterations = 3

[evaluation]
scheme = partition
folds = 3
depth = 30

[ebm]
max_rounds = 100
bags = 2

[output]
dir = {tmp_path / 'out'}
""")
    return path


def test_ingest_stats_prints_counts(config_file, capsys):
    assert main(["ingest-stats", "--config", str(config_file)]) == 0
    out = capsys.readouterr().out
    assert "users:          120" in out
    assert "interactions:" in out
    assert "sparsity:" in out


def test_ingest_stats_with_dataset_dir(dataset_dir, tmp_path, capsys):
    ini = tmp_path / "min.ini"
    ini.write_text("[dataset]\nprovenance = synthetic\n")
    code = main(["ingest-stats", "--config", str(ini),
                 "--dataset", str(dataset_dir)])
    assert code == 0
    assert "users:          120" in capsys.readouterr().out


def _dataset_config(tmp_path, name, directory):
    ini = tmp_path / f"{name}.ini"
    ini.write_text(f"[dataset]\nprovenance = synthetic\n"
                   f"interactions = {directory / 'interactions.tsv'}\n"
                   f"profiles = {directory / 'profiles.tsv'}\n")
    return ini


def test_play_count_too_large_for_a_float_is_skipped(dataset_dir, tmp_path):
    copy = tmp_path / "data"
    copy.mkdir()
    (copy / "profiles.tsv").write_bytes((dataset_dir / "profiles.tsv").read_bytes())
    (copy / "interactions.tsv").write_bytes((dataset_dir / "interactions.tsv").read_bytes()
                                            + b"1\tbig\tBig\t" + b"9" * 400 + b"\n")
    env = dict(os.environ, PYTHONPATH=str(Path(recaudit.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-m", "recaudit.cli", "ingest-stats", "--config",
                           str(_dataset_config(tmp_path, "big", copy))],
                          capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
    assert "skipped rows:   1" in done.stdout
    assert "Traceback" not in done.stderr


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.parametrize("module, preset, want, numpy_loaded", [
    ("recaudit.cli", None, ["1", "1", "1"], True),
    ("recaudit.cli", "3", ["3", "1", "1"], True),
    ("recaudit", None, [None, None, None], False),
])
def test_cli_runs_blas_on_one_thread_unless_the_caller_chose(module, preset, want,
                                                             numpy_loaded):
    # the fold processes would multiply BLAS's own threads; a library import
    # loads no numpy and leaves the caller's environment alone
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env["PYTHONPATH"] = str(Path(recaudit.__file__).parents[1])
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    code = (f"import os, sys, {module}; "
            f"print(repr([[os.environ.get(n) for n in {BLAS_THREAD_VARS!r}], "
            f"'numpy' in sys.modules]))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == repr([want, numpy_loaded])


def _report_with_extra_plays(config_file, dataset_dir, tmp_path, extra: bytes):
    """Run ``report`` as a subprocess on the dataset with ``extra`` lines
    appended to its interactions; return the process and the usage rows of
    group_summary.csv as (group, n_users)."""
    metrics = tmp_path / "metrics"
    assert main(["evaluate", "--config", str(config_file), "--out", str(metrics)]) == 0
    copy = tmp_path / "data"
    copy.mkdir()
    (copy / "profiles.tsv").write_bytes((dataset_dir / "profiles.tsv").read_bytes())
    (copy / "interactions.tsv").write_bytes((dataset_dir / "interactions.tsv").read_bytes()
                                            + extra)
    env = dict(os.environ, PYTHONPATH=str(Path(recaudit.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-m", "recaudit.cli", "report", "--config",
                           str(_dataset_config(tmp_path, "big", copy)), "--metrics",
                           str(metrics / "metrics_per_user.csv"), "--out", str(tmp_path / "out")],
                          capture_output=True, text=True, env=env)
    usage_rows = [line.split(",")[1:3] for line in
                  (tmp_path / "out" / "group_summary.csv").read_text().splitlines()
                  if line.startswith("usage,")] if done.returncode == 0 else []
    return done, usage_rows


def test_report_keeps_a_play_total_past_int64(config_file, dataset_dir, tmp_path):
    # a total >= 2**63 once became usage -2**63, in the lowest usage group
    done, usage_rows = _report_with_extra_plays(config_file, dataset_dir, tmp_path,
                                                b"1\tbig\tBig\t99999999999999999999\n")
    assert done.returncode == 0, done.stderr
    assert "invalid value" not in done.stderr
    usage_groups = [group for group, _ in usage_rows]
    assert usage_groups and not any(group.startswith("-") for group in usage_groups)
    assert int(usage_groups[-1].rsplit("-", 1)[-1]) >= 2 ** 63


def test_report_leaves_a_play_total_past_the_float_range_missing(config_file, dataset_dir,
                                                                 tmp_path):
    # two plays of 1.7e308 once summed to inf, with an overflow warning, and
    # put the user in a usage group ending in "inf"
    play = str(int(1.7e308)).encode()
    done, usage_rows = _report_with_extra_plays(
        config_file, dataset_dir, tmp_path,
        b"1\tbig\tBig\t" + play + b"\n1\thuge\tHuge\t" + play + b"\n")
    assert done.returncode == 0, done.stderr
    assert "overflow" not in done.stderr
    assert "usage left missing for 1 users" in done.stderr
    assert usage_rows and not any("inf" in group for group, _ in usage_rows)
    assert ["N/A", "1"] in usage_rows


def test_audit_restricted_to_one_scheme_keeps_every_explainer_feature(config_file, dataset_dir,
                                                                     tmp_path):
    # the same users with countries and a GDP table: the restricted run's
    # explainer reads both country schemes, as the auto run's does
    countries = tmp_path / "countries"
    countries.mkdir()
    (countries / "interactions.tsv").write_bytes((dataset_dir / "interactions.tsv").read_bytes())
    with open(dataset_dir / "profiles.tsv") as src, \
            open(countries / "profiles.tsv", "w") as dst:
        for n, line in enumerate(src):
            fields = line.rstrip("\n").split("\t")
            fields[3] = ["Aland", "Aland", "Borduria", "Cascadia", "Dorne"][n % 5]
            dst.write("\t".join(fields) + "\n")
    (countries / "gdp.csv").write_text("Aland,50000\nBorduria,2000\nCascadia,30000\n")
    with_countries = config_file.read_text().replace(
        str(dataset_dir), str(countries)).replace(
        "[model]", f"gdp_table = {countries / 'gdp.csv'}\n\n[model]")
    base_features = {"age", "gender", "usage", "pop_index", "last_digit"}
    for name, text, features in [
            ("plain", config_file.read_text(), base_features),
            ("countries", with_countries,
             base_features | {"country_prevalence", "country_gdp"})]:
        outputs = {}
        for schemes in ("usage", "auto"):
            out_dir = tmp_path / f"out-{name}-{schemes}"
            ini = tmp_path / f"{name}-{schemes}.ini"
            ini.write_text(text.replace(str(tmp_path / "out"), str(out_dir))
                           + f"\n[grouping]\nschemes = {schemes}\n")
            assert main(["audit", "--config", str(ini)]) == 0
            outputs[schemes] = [(out_dir / file).read_bytes()
                                for file in ("ebm_importance.csv", "ebm_shapes.csv")]
        manifest = json.loads((tmp_path / f"out-{name}-usage" / "manifest.json").read_text())
        assert manifest["schemes"] == ["usage"]
        with open(tmp_path / f"out-{name}-usage" / "ebm_shapes.csv", newline="") as fh:
            shaped = {row["feature"] for row in csv.DictReader(fh)} - {"__intercept__"}
        assert shaped == features, name
        assert outputs["usage"] == outputs["auto"], name


def test_byte_order_mark_is_ignored(dataset_dir, tmp_path, capsys):
    marked = tmp_path / "bom"
    marked.mkdir()
    for name in ("interactions.tsv", "profiles.tsv"):
        (marked / name).write_bytes(codecs.BOM_UTF8 + (dataset_dir / name).read_bytes())
    plain_raw, marked_raw = (load_lfm(d / "interactions.tsv", d / "profiles.tsv")
                             for d in (dataset_dir, marked))
    for column in ("users", "items", "strengths"):
        assert np.array_equal(getattr(marked_raw.triples, column),
                              getattr(plain_raw.triples, column))
    assert marked_raw.triples.user_ids == plain_raw.triples.user_ids
    assert marked_raw.triples.item_ids == plain_raw.triples.item_ids
    assert marked_raw.attributes == plain_raw.attributes

    outputs = []
    for name, directory in (("plain", dataset_dir), ("bom", marked)):
        assert main(["ingest-stats", "--config",
                     str(_dataset_config(tmp_path, name, directory))]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[1] == outputs[0]


def test_train_writes_model(config_file, tmp_path, capsys):
    model_path = tmp_path / "model.npz"
    assert main(["train", "--config", str(config_file),
                 "--model-out", str(model_path)]) == 0
    assert model_path.exists()
    capsys.readouterr()
    assert main(["ingest-stats", "--config", str(config_file)]) == 0
    stats = dict(line.split(":", 1) for line in capsys.readouterr().out.splitlines())
    model = als.load_model(model_path)
    assert model.user_factors.shape == (int(stats["users"]), 6) == (120, 6)
    assert model.item_factors.shape == (int(stats["items"]), 6)
    # train fits every user, not a fold's test users
    assert np.isfinite(model.user_factors).all()
    assert np.isfinite(model.item_factors).all()


def test_train_writes_exactly_the_model_out_path(config_file, tmp_path, capsys):
    model_path = tmp_path / "factors.bin"
    assert main(["train", "--config", str(config_file),
                 "--model-out", str(model_path)]) == 0
    assert f"model written to {model_path} " in capsys.readouterr().out
    assert model_path.exists()
    assert not (tmp_path / "factors.bin.npz").exists()
    assert als.load_model(model_path).user_factors.shape == (120, 6)


def test_train_unwritable_model_out_exits_2(config_file, tmp_path, capsys):
    model_path = tmp_path / "missing" / "factors.bin"
    assert main(["train", "--config", str(config_file),
                 "--model-out", str(model_path)]) == 2
    err = capsys.readouterr().err
    assert "stage emit" in err
    assert "Traceback" not in err


def test_train_failing_dump_keeps_the_previous_model(config_file, tmp_path, capsys,
                                                     monkeypatch):
    models = tmp_path / "models"
    models.mkdir()
    model_path = models / "model.npz"
    assert main(["train", "--config", str(config_file),
                 "--model-out", str(model_path)]) == 0
    before = model_path.read_bytes()

    def broken_savez(fh, **arrays):
        fh.write(b"PK\x03\x04")
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(np, "savez", broken_savez)
    assert main(["train", "--config", str(config_file),
                 "--model-out", str(model_path)]) == 2
    assert "stage emit" in capsys.readouterr().err
    assert model_path.read_bytes() == before
    assert [p.name for p in models.iterdir()] == ["model.npz"]


@pytest.mark.parametrize("where", ["config", "flag"])
def test_train_rejects_a_negative_model_seed(config_file, tmp_path, capsys, where):
    # numpy's generator refuses a negative seed, so train cannot run one
    argv = ["train", "--config", str(config_file), "--model-out", str(tmp_path / "m.npz")]
    if where == "config":
        config_file.write_text(config_file.read_text().replace(
            "[model]\n", "[model]\nseed = -3\n"))
    else:
        argv += ["--seed", "-1"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "[model] seed must lie in [0, 2**63)" in err
    assert "Traceback" not in err
    assert not (tmp_path / "m.npz").exists()


@pytest.mark.parametrize("verb", ["audit", "report"])
@pytest.mark.parametrize("section, line, named", [
    ("ebm", "max_bins = 1", "[ebm] max_bins must be >= 2"),
    ("modle", "factors = 8", "unknown section [modle]"),
    ("model", "factor = 8", "[model] unknown key 'factor'"),
    ("ebm", "max_rounds = 0", "[ebm] max_rounds must be >= 1"),
    ("output", "significance = 5", "[output] significance must lie in (0, 1)"),
    ("evaluation", "sample_size = 0", "[evaluation] sample_size must be >= 1"),
], ids=["max_bins", "modle", "factor", "max_rounds", "significance", "sample_size"])
def test_config_the_audit_cannot_run_exits_2(config_file, tmp_path, capsys, verb,
                                             section, line, named):
    key = line.split(" = ")[0]
    # the line replaces any setting of its key
    text = "".join(kept for kept in config_file.read_text().splitlines(keepends=True)
                   if not kept.startswith(f"{key} = "))
    if f"[{section}]\n" in text:
        text = text.replace(f"[{section}]\n", f"[{section}]\n{line}\n")
    else:
        text += f"\n[{section}]\n{line}\n"
    config_file.write_text(text)
    argv = [verb, "--config", str(config_file)]
    if verb == "report":
        argv += ["--metrics", str(tmp_path / "m.csv")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert named in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_evaluate_writes_metrics(config_file, tmp_path, capsys):
    assert main(["evaluate", "--config", str(config_file)]) == 0
    out_dir = config_file.parent / "out"
    means = naive_per_user_mean(MetricFrame.from_csv(out_dir / "metrics_per_user.csv").rows,
                                "ndcg")
    # one np.mean over the tested users in dataset order, the same on every
    # Python version: sum() rounds differently from 3.12 on
    tested = [means[uid] for uid in load(load_config(config_file)).user_ids if uid in means]
    out = capsys.readouterr().out
    assert f"metrics for {len(tested)} users written" in out
    assert f"mean NDCG: {fmt_float(np.mean(tested))}\n" in out


def assert_report_reproduces_audit(config_file, out_dir, rerender):
    """``report`` over the audit's metrics CSV writes every file the audit
    wrote but the manifest, byte for byte."""
    code = main(["report", "--config", str(config_file),
                 "--metrics", str(out_dir / "metrics_per_user.csv"),
                 "--out", str(rerender)])
    assert code == 0

    def files(root):
        return sorted(p.relative_to(root) for p in root.rglob("*") if p.is_file())

    audited = [rel for rel in files(out_dir) if rel != Path("manifest.json")]
    assert Path("metrics_per_user.csv") in audited
    assert any(rel.suffix == ".svg" for rel in audited)
    assert files(rerender) == audited
    for rel in audited:
        assert (rerender / rel).read_bytes() == (out_dir / rel).read_bytes(), rel


def test_audit_and_report_round_trip(config_file, tmp_path, capsys):
    assert main(["audit", "--config", str(config_file)]) == 0
    out_dir = config_file.parent / "out"
    assert (out_dir / "manifest.json").exists()
    assert_report_reproduces_audit(config_file, out_dir, tmp_path / "rerender")


def test_audit_prints_significance_lines(config_file, capsys):
    assert main(["audit", "--config", str(config_file)]) == 0
    out = capsys.readouterr().out
    assert "gender" in out
    assert "audit complete" in out


def test_config_error_exit_code(tmp_path):
    assert main(["audit", "--config", str(tmp_path / "missing.ini")]) == 2


def test_data_error_exit_code(tmp_path):
    ini = tmp_path / "bad.ini"
    ini.write_text(f"[dataset]\nprovenance = synthetic\n"
                   f"interactions = {tmp_path}/void.tsv\n"
                   f"[output]\ndir = {tmp_path}/out\n")
    assert main(["audit", "--config", str(ini)]) == 3


def test_cold_start_removing_every_user_exits_3(dataset_dir, tmp_path, capsys):
    ini = tmp_path / "cold.ini"
    ini.write_text(f"[dataset]\nprovenance = synthetic\n"
                   f"interactions = {dataset_dir / 'interactions.tsv'}\n"
                   f"profiles = {dataset_dir / 'profiles.tsv'}\n"
                   f"cold_start_min_items = 1000\n"
                   f"[output]\ndir = {tmp_path}/out\n")
    assert main(["audit", "--config", str(ini)]) == 3
    err = capsys.readouterr().err
    assert "stage ingest" in err and "no interactions after cleanup" in err
    assert not (tmp_path / "out").exists()


def test_threads_flag_does_not_change_outputs(config_file, tmp_path):
    out = tmp_path / "out_dir"

    def outputs():
        return {path.relative_to(out).as_posix(): path.read_bytes()
                for path in sorted(out.rglob("*")) if path.is_file()}

    assert main(["audit", "--config", str(config_file), "--out", str(out),
                 "--threads", "1"]) == 0
    serial = outputs()
    assert "manifest.json" in serial
    assert "metrics_per_user.csv" in serial
    assert main(["audit", "--config", str(config_file), "--out", str(out),
                 "--threads", "4"]) == 0
    threaded = outputs()
    assert sorted(threaded) == sorted(serial)
    for name, data in serial.items():
        assert threaded[name] == data, name


def test_seed_flag_changes_outputs(config_file, tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert main(["audit", "--config", str(config_file), "--out", str(a),
                 "--seed", "1"]) == 0
    assert main(["audit", "--config", str(config_file), "--out", str(b),
                 "--seed", "2"]) == 0
    assert (a / "metrics_per_user.csv").read_bytes() != \
        (b / "metrics_per_user.csv").read_bytes()


@pytest.fixture()
def ml1m_config(tmp_path):
    """A tiny data set in the ML1M file format, whose user ids are integers."""
    rng = np.random.default_rng(7)
    data = tmp_path / "ml1m"
    data.mkdir()
    ages = (1, 18, 25, 35, 45, 50, 56)
    with open(data / "ratings.dat", "w", encoding="latin-1") as rfh, \
            open(data / "users.dat", "w", encoding="latin-1") as ufh:
        for user in range(1, 91):
            for movie in rng.choice(np.arange(1, 51), size=int(rng.integers(5, 15)),
                                    replace=False):
                rfh.write(f"{user}::{movie}::{rng.integers(1, 6)}::978300760\n")
            gender = "M" if user % 2 else "F"
            ufh.write(f"{user}::{gender}::{ages[user % len(ages)]}::0::12345\n")
    path = tmp_path / "ml1m.ini"
    path.write_text(f"""
[dataset]
provenance = ml1m
ratings = {data / 'ratings.dat'}
users = {data / 'users.dat'}

[model]
factors = 4
iterations = 2

[evaluation]
folds = 3
depth = 20

[ebm]
max_rounds = 50
bags = 2

[output]
dir = {tmp_path / 'out'}
""")
    return path


def test_ml1m_audit_and_report_round_trip(ml1m_config, tmp_path):
    # the integer ids stay as text from the metrics CSV through report
    assert main(["audit", "--config", str(ml1m_config)]) == 0
    assert_report_reproduces_audit(ml1m_config, tmp_path / "out", tmp_path / "rerender")


def test_report_rejects_unknown_user_id(ml1m_config, tmp_path, capsys):
    metrics = tmp_path / "metrics.csv"
    metrics.write_text("user_id,fold,ndcg,mrr,rbp\n1,0,0.5,0.5,0.5\n9999,0,0.1,0.1,0.1\n")
    code = main(["report", "--config", str(ml1m_config), "--metrics", str(metrics),
                 "--out", str(tmp_path / "rerender")])
    assert code == 3
    assert "'9999'" in capsys.readouterr().err
    assert not (tmp_path / "rerender").exists()


@pytest.mark.parametrize("bad_row", ["2,0,nan,0.5,0.5", "2,0,0.5,7.5,0.5",
                                     "2,0,0.5,0.5,-2", "1,0,0.5,0.5,0.5"])
def test_report_rejects_bad_metric_rows(ml1m_config, tmp_path, capsys, bad_row):
    metrics = tmp_path / "metrics.csv"
    metrics.write_text(f"user_id,fold,ndcg,mrr,rbp\n1,0,0.5,0.5,0.5\n{bad_row}\n")
    code = main(["report", "--config", str(ml1m_config), "--metrics", str(metrics),
                 "--out", str(tmp_path / "rerender")])
    assert code == 3
    assert "stage metrics: " in capsys.readouterr().err
    assert not (tmp_path / "rerender").exists()


@pytest.mark.parametrize("setting", ["age_range_width = 0", "country_buckets = 0",
                                     "age_count_bins = 1", "usage_bins = 1"])
def test_grouping_range_exits_2(ml1m_config, tmp_path, capsys, setting):
    ini = tmp_path / "grouping.ini"
    ini.write_text(ml1m_config.read_text() + f"\n[grouping]\n{setting}\n")
    assert main(["report", "--config", str(ini), "--metrics", str(tmp_path / "m.csv")]) == 2
    assert setting.split()[0] in capsys.readouterr().err


def test_manifest_independent_of_out_dir(config_file, tmp_path):
    for name in ("d1", "d2"):
        assert main(["audit", "--config", str(config_file),
                     "--out", str(tmp_path / name)]) == 0
    assert (tmp_path / "d1" / "manifest.json").read_bytes() == \
        (tmp_path / "d2" / "manifest.json").read_bytes()


def test_unusable_charts_destination_exits_2(config_file, tmp_path, capsys):
    good = tmp_path / "good"
    assert main(["audit", "--config", str(config_file), "--out", str(good)]) == 0
    bad = tmp_path / "bad"
    bad.mkdir()
    (bad / "charts").write_text("not a directory")
    capsys.readouterr()
    for argv in (["audit"],
                 ["report", "--metrics", str(good / "metrics_per_user.csv")]):
        code = main(argv + ["--config", str(config_file), "--out", str(bad)])
        assert code == 2, argv
        assert "stage emit" in capsys.readouterr().err, argv
        assert sorted(p.name for p in bad.iterdir()) == ["charts"], argv


def test_report_ignores_a_byte_order_mark_in_the_metrics(config_file, tmp_path):
    assert main(["evaluate", "--config", str(config_file), "--out", str(tmp_path / "eval")]) == 0
    metrics = tmp_path / "eval" / "metrics_per_user.csv"
    marked = tmp_path / "marked.csv"
    marked.write_bytes(codecs.BOM_UTF8 + metrics.read_bytes())
    for source, out in ((metrics, "plain"), (marked, "marked")):
        assert main(["report", "--config", str(config_file), "--metrics", str(source),
                     "--out", str(tmp_path / out)]) == 0
    plain = sorted(p.relative_to(tmp_path / "plain")
                   for p in (tmp_path / "plain").rglob("*") if p.is_file())
    assert plain
    for name in plain:
        assert (tmp_path / "marked" / name).read_bytes() == \
            (tmp_path / "plain" / name).read_bytes(), name


def test_report_missing_metrics_exits_2(config_file, tmp_path, capsys):
    missing = tmp_path / "nope.csv"
    code = main(["report", "--config", str(config_file), "--metrics", str(missing)])
    assert code == 2
    assert str(missing) in capsys.readouterr().err


@pytest.fixture()
def gone_dataset_config(config_file, tmp_path):
    """The audit config with its interactions file missing (a data error)."""
    ini = tmp_path / "no-data.ini"
    ini.write_text(config_file.read_text().replace(
        "interactions = ", f"interactions = {tmp_path / 'gone.tsv'}\n# was "))
    return ini


def test_report_missing_metrics_is_reported_before_a_bad_dataset(gone_dataset_config,
                                                                 tmp_path, capsys):
    missing = tmp_path / "nope.csv"
    assert main(["report", "--config", str(gone_dataset_config),
                 "--metrics", str(missing)]) == 2
    err = capsys.readouterr().err
    assert "stage metrics" in err and str(missing) in err
    assert "gone.tsv" not in err


def test_report_loads_the_dataset_before_parsing_the_metrics(gone_dataset_config,
                                                             tmp_path, capsys):
    metrics = tmp_path / "metrics.csv"
    metrics.write_text("user_id,fold,ndcg,mrr,rbp\n1,zero,0.5,0.5,0.5\n")
    assert main(["report", "--config", str(gone_dataset_config),
                 "--metrics", str(metrics)]) == 3
    err = capsys.readouterr().err
    assert "stage ingest" in err and "gone.tsv" in err
    assert "stage metrics" not in err


def test_evaluate_skips_the_explainer(config_file, tmp_path, monkeypatch):
    assert main(["audit", "--config", str(config_file),
                 "--out", str(tmp_path / "audit")]) == 0

    def boom(*args, **kwargs):
        raise AssertionError("evaluate must not fit the explainer")

    monkeypatch.setattr("recaudit.ebm.fit_ebm", boom)
    assert main(["evaluate", "--config", str(config_file),
                 "--out", str(tmp_path / "eval")]) == 0
    assert (tmp_path / "eval" / "metrics_per_user.csv").read_bytes() == \
        (tmp_path / "audit" / "metrics_per_user.csv").read_bytes()
    assert sorted(p.name for p in (tmp_path / "eval").iterdir()) == \
        ["metrics_per_user.csv"]


@pytest.mark.parametrize("bad_row", ["1,zero,0.5,0.5,0.5", "1,0"])
def test_report_malformed_metrics_row_exits_3(config_file, tmp_path, capsys, bad_row):
    metrics = tmp_path / "metrics.csv"
    metrics.write_text(f"user_id,fold,ndcg,mrr,rbp\n1,0,0.5,0.5,0.5\n{bad_row}\n")
    out = tmp_path / "rerender"
    code = main(["report", "--config", str(config_file), "--metrics", str(metrics),
                 "--out", str(out)])
    assert code == 3
    err = capsys.readouterr().err
    assert "stage metrics" in err
    assert f"{metrics} line 3" in err
    assert not out.exists()


def run_cli(*argv):
    """The CLI in a child interpreter, as a user runs it: (exit code, stderr)."""
    env = dict(os.environ, PYTHONPATH=str(Path(recaudit.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-m", "recaudit.cli", *argv],
                          capture_output=True, text=True, env=env)
    return done.returncode, done.stderr


def test_report_metrics_not_utf8_exits_3(config_file, tmp_path):
    metrics = tmp_path / "metrics.csv"
    metrics.write_bytes(b"user_id,fold,ndcg,mrr,rbp\n1,0,0.5,0.5,0.5\n\xff,0,0.5,0.5,0.5\n")
    code, err = run_cli("report", "--config", str(config_file), "--metrics", str(metrics),
                        "--out", str(tmp_path / "rerender"))
    assert code == 3, err
    assert "Traceback" not in err
    assert f"metrics CSV {metrics} is not UTF-8" in err


def test_config_not_utf8_exits_2(config_file, tmp_path):
    latin1 = tmp_path / "latin1.ini"
    latin1.write_bytes("# café\n".encode("latin-1") + config_file.read_bytes())
    code, err = run_cli("audit", "--config", str(latin1))
    assert code == 2, err
    assert "Traceback" not in err
    assert f"cannot parse config {latin1}" in err


def test_report_empty_metrics_file_exits_2(config_file, tmp_path, capsys):
    metrics = tmp_path / "metrics.csv"
    metrics.write_text("")
    code = main(["report", "--config", str(config_file), "--metrics", str(metrics)])
    assert code == 2
    assert "header" in capsys.readouterr().err


def fail_fold(monkeypatch, config_file, fold, failure):
    """Make ``als.fit`` call ``failure()`` for ``fold``'s model only."""
    seed = derive_seed(load_config(config_file).model.seed, "fold", fold)
    real_fit = als.fit

    def fit(matrix, hp, users=None):
        if hp.seed == seed:
            failure()
        return real_fit(matrix, hp, users)

    monkeypatch.setattr(als, "fit", fit)


def test_non_finite_test_user_factor_exits_4(config_file, tmp_path, monkeypatch, capsys):
    real_fit = als.fit

    def fit(matrix, hp, users=None):
        model = real_fit(matrix, hp, users)
        model.user_factors[:] = np.nan
        return model

    monkeypatch.setattr(als, "fit", fit)
    out = tmp_path / "nan"
    code = main(["evaluate", "--config", str(config_file), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 4, err
    assert "error: stage score: fold 0: non-finite factors for test user" in err
    assert not out.exists()


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# At --threads 2 with 3 folds, this process runs folds 0 and 2 and one
# forked worker runs fold 1.

def test_worker_error_keeps_its_exit_code(config_file, tmp_path, monkeypatch, capsys):
    parent = os.getpid()

    def failure():
        raise NumericalError(f"planted in pid {os.getpid()}")

    fail_fold(monkeypatch, config_file, 1, failure)
    out = tmp_path / "workers"
    code = main(["audit", "--config", str(config_file), "--out", str(out),
                 "--threads", "2"])
    err = capsys.readouterr().err
    assert code == 4, err
    assert "error: stage score: planted in pid" in err
    assert f"pid {parent}" not in err  # raised in the worker, not here
    assert not out.exists()
    assert_no_children()


def test_killed_worker_exits_5(config_file, tmp_path, monkeypatch, capsys):
    parent = os.getpid()

    def failure():
        if os.getpid() == parent:
            raise AssertionError("fold 1 ran in the parent")
        os.kill(os.getpid(), signal.SIGKILL)

    fail_fold(monkeypatch, config_file, 1, failure)
    out = tmp_path / "workers"
    code = main(["audit", "--config", str(config_file), "--out", str(out),
                 "--threads", "2"])
    err = capsys.readouterr().err
    assert code == 5, err
    assert "stage score: the worker for folds 1 ended without a result: " \
        f"killed by signal {int(signal.SIGKILL)}" in err
    assert "Traceback" not in err
    assert not out.exists()
    assert_no_children()


@pytest.mark.parametrize("error", [NumericalError("planted"), KeyboardInterrupt()])
def test_failure_in_own_folds_stops_the_workers(config_file, tmp_path, monkeypatch,
                                                 capsys, error):
    def failure():
        raise error

    fail_fold(monkeypatch, config_file, 0, failure)
    argv = ["evaluate", "--config", str(config_file), "--out", str(tmp_path / "w"),
            "--threads", "2"]
    if isinstance(error, KeyboardInterrupt):
        with pytest.raises(KeyboardInterrupt):
            main(argv)
    else:
        assert main(argv) == 4
        assert "stage score: planted" in capsys.readouterr().err
    assert_no_children()


@pytest.mark.parametrize("depth", [0, -5])
def test_depth_below_one_exits_2(config_file, tmp_path, capsys, depth):
    ini = tmp_path / "depth.ini"
    ini.write_text(config_file.read_text().replace("depth = 30", f"depth = {depth}"))
    out = tmp_path / "depth-out"
    assert main(["evaluate", "--config", str(ini), "--out", str(out)]) == 2
    assert "depth must be >= 1" in capsys.readouterr().err
    assert not out.exists()


def test_no_verb_imports_numpy_ma(dataset_dir, tmp_path):
    # numpy 2.x imports numpy.ma on first use, and a plain np.unique or an
    # interpolating np.quantile is such a use; numpy 1.x imports it with
    # numpy, so there this test has nothing to check
    ini = tmp_path / "default-ebm.ini"
    ini.write_text(f"""
[dataset]
provenance = synthetic
interactions = {dataset_dir / 'interactions.tsv'}
profiles = {dataset_dir / 'profiles.tsv'}

[model]
factors = 6
iterations = 2

[evaluation]
scheme = partition
folds = 3
depth = 30
""")
    out = tmp_path / "out"
    verbs = [["ingest-stats"], ["train", "--model-out", str(tmp_path / "model.npz")],
             ["evaluate", "--out", str(tmp_path / "eval")], ["audit", "--out", str(out)],
             ["report", "--metrics", str(out / "metrics_per_user.csv"),
              "--out", str(tmp_path / "report")]]
    code = ("import sys\n"
            "import numpy\n"
            "print('numpy.ma' in sys.modules)\n"
            "from recaudit.cli import main\n"
            f"for verb in {verbs!r}:\n"
            f"    assert main(verb + ['--config', {str(ini)!r}, '--threads', '1']) == 0\n"
            "print('numpy.ma' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=str(Path(recaudit.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    before, after = lines[0], lines[-1]
    if before == "True":
        pytest.skip("numpy 1.x imports numpy.ma with numpy")
    assert after == "False"


def test_cli_import_loads_no_network_modules():
    # xml.sax.saxutils pulls in urllib.request, http.client, ssl and email;
    # compare against what the interpreter had loaded before the import
    code = ("import sys\n"
            "before = set(sys.modules)\n"
            "import recaudit.cli\n"
            "print(' '.join(sorted(set(sys.modules) - before)))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(recaudit.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, check=True)
    loaded = set(done.stdout.split())
    assert "recaudit.cli" in loaded
    assert not loaded & {"urllib.request", "http.client", "ssl", "email"}
