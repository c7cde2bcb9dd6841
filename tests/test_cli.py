import os
import signal

import numpy as np
import pytest

from recaudit import als
from recaudit.cli import main
from recaudit.config import load_config
from recaudit.errors import NumericalError
from recaudit.synthetic import generate_planted
from recaudit.util import derive_seed


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


def test_train_writes_model(config_file, tmp_path, capsys):
    model_path = tmp_path / "model.npz"
    assert main(["train", "--config", str(config_file),
                 "--model-out", str(model_path)]) == 0
    assert model_path.exists()
    from recaudit.als import load_model
    model = load_model(model_path)
    assert model.user_factors.shape == (120, 6)
    # train fits every user, not a fold's test users
    assert np.isfinite(model.user_factors).all()
    assert np.isfinite(model.item_factors).all()


def test_evaluate_writes_metrics(config_file, tmp_path, capsys):
    assert main(["evaluate", "--config", str(config_file)]) == 0
    out_dir = config_file.parent / "out"
    assert (out_dir / "metrics_per_user.csv").exists()
    assert "mean NDCG" in capsys.readouterr().out


def test_audit_and_report_round_trip(config_file, tmp_path, capsys):
    assert main(["audit", "--config", str(config_file)]) == 0
    out_dir = config_file.parent / "out"
    assert (out_dir / "manifest.json").exists()
    first_summary = (out_dir / "group_summary.csv").read_bytes()

    rerender = tmp_path / "rerender"
    code = main(["report", "--config", str(config_file),
                 "--metrics", str(out_dir / "metrics_per_user.csv"),
                 "--out", str(rerender)])
    assert code == 0
    assert (rerender / "group_summary.csv").read_bytes() == first_summary


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
    assert main(["audit", "--config", str(ml1m_config)]) == 0
    out_dir = tmp_path / "out"
    first_summary = (out_dir / "group_summary.csv").read_bytes()

    rerender = tmp_path / "rerender"
    code = main(["report", "--config", str(ml1m_config),
                 "--metrics", str(out_dir / "metrics_per_user.csv"),
                 "--out", str(rerender)])
    assert code == 0
    assert (rerender / "group_summary.csv").read_bytes() == first_summary


def test_report_rejects_unknown_user_id(ml1m_config, tmp_path, capsys):
    metrics = tmp_path / "metrics.csv"
    metrics.write_text("user_id,fold,ndcg,mrr,rbp\n1,0,0.5,0.5,0.5\n9999,0,0.1,0.1,0.1\n")
    code = main(["report", "--config", str(ml1m_config), "--metrics", str(metrics),
                 "--out", str(tmp_path / "rerender")])
    assert code == 3
    assert "'9999'" in capsys.readouterr().err


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


def test_report_missing_metrics_exits_2(config_file, tmp_path, capsys):
    missing = tmp_path / "nope.csv"
    code = main(["report", "--config", str(config_file), "--metrics", str(missing)])
    assert code == 2
    assert str(missing) in capsys.readouterr().err


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
