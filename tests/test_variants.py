"""One 300 x 150 synthetic corpus, with ``configs/synthetic.ini``'s model and
explainer settings, run end to end through the verbs in variants:

- ``synthetic``: the corpus as it is
- ``ml1m``: its ML1M-format copy, with the first user's age 999
- ``crlf_bom``: its interactions with CRLF line ends and a byte order mark
- ``quote``: the first user's id ending in a double quote
- ``cold_start``: a cold start that removes every user with fewer than 40 items

Every variant audits byte-identically at ``--threads`` 1 and 2 (the corpus
as it is also at 3), ``evaluate`` writes the audit's metrics, ``report``
reproduces the audit, and every chart parses as XML.  Every variant's
matrices index with int32.  The corpus and its audit are written once per
session.
"""

import codecs
import csv
import math
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest

try:
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
except ImportError:  # numpy 1.x
    from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__

import recaudit
from recaudit import als, load_config
from recaudit.cli import main
from recaudit.evaluation import assign_holdouts, fold_training_matrix, make_folds
from recaudit.report import load
from recaudit.synthetic import generate_planted

CONFIG = Path(__file__).parents[1] / "configs" / "synthetic.ini"


def write_config(path: Path, provenance: str, dataset: dict, out: Path) -> Path:
    """``configs/synthetic.ini`` with its ``[dataset]`` keys and output
    directory replaced."""
    lines = []
    for line in CONFIG.read_text(encoding="utf-8").splitlines():
        key = line.partition(" = ")[0]
        if key in ("interactions", "profiles"):
            continue
        if key == "provenance":
            line = "\n".join([f"provenance = {provenance}",
                              *(f"{name} = {value}" for name, value in dataset.items())])
        elif key == "dir":
            line = f"dir = {out}"
        lines.append(line)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def output_files(root: Path) -> dict:
    """Every file under ``root`` by its relative path, as bytes."""
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def ingest_stats(ini: Path, capsys) -> dict:
    """What ``ingest-stats`` prints, by line name."""
    capsys.readouterr()
    assert main(["ingest-stats", "--config", str(ini)]) == 0
    return dict(line.split(":", 1) for line in capsys.readouterr().out.splitlines())


@pytest.fixture(scope="session")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    generate_planted(root / "synthetic", n_users=300, n_items=150, seed=0)
    return root


def synthetic_dataset(source: Path, data: Path) -> tuple:
    return "synthetic", {"interactions": source / "interactions.tsv",
                         "profiles": source / "profiles.tsv"}


def ml1m_dataset(source: Path, data: Path) -> tuple:
    with open(source / "interactions.tsv", encoding="utf-8") as fh, \
            open(data / "ratings.dat", "w", encoding="latin-1") as out:
        for line in fh:
            user, item, _name, plays = line.rstrip("\n").split("\t")
            out.write(f"{user}::{int(item.removeprefix('item'))}::{min(int(plays), 5)}::0\n")
    with open(source / "profiles.tsv", encoding="utf-8") as fh, \
            open(data / "users.dat", "w", encoding="latin-1") as out:
        for i, line in enumerate(fh):
            user, gender, age = line.split("\t")[:3]
            # the first user's age lies outside 1-120, so it is missing
            out.write(f"{user}::{gender.upper()}::{999 if i == 0 else age}::0::00000\n")
    return "ml1m", {"ratings": data / "ratings.dat", "users": data / "users.dat"}


def crlf_bom_dataset(source: Path, data: Path) -> tuple:
    text = (source / "interactions.tsv").read_bytes()
    (data / "interactions.tsv").write_bytes(codecs.BOM_UTF8 + text.replace(b"\n", b"\r\n"))
    return "synthetic", {"interactions": data / "interactions.tsv",
                         "profiles": source / "profiles.tsv"}


def quote_dataset(source: Path, data: Path) -> tuple:
    # the first user's id gets a trailing '"' in both files, so the
    # last-digit control chart has '"' as a group label
    first = (source / "interactions.tsv").read_bytes().split(b"\t", 1)[0]
    for name in ("interactions.tsv", "profiles.tsv"):
        with open(data / name, "wb") as out:
            for line in (source / name).read_bytes().splitlines(keepends=True):
                user, sep, rest = line.partition(b"\t")
                out.write((user + b'"' if user == first else user) + sep + rest)
    return "synthetic", {"interactions": data / "interactions.tsv",
                         "profiles": data / "profiles.tsv"}


def cold_start_dataset(source: Path, data: Path) -> tuple:
    provenance, dataset = synthetic_dataset(source, data)
    return provenance, {**dataset, "cold_start_min_items": 40}


VARIANTS = {"synthetic": synthetic_dataset, "ml1m": ml1m_dataset,
            "crlf_bom": crlf_bom_dataset, "quote": quote_dataset,
            "cold_start": cold_start_dataset}


@pytest.fixture(scope="session")
def synthetic_audit(corpus):
    """The config of the corpus as it is, and its audit's output directory."""
    out = corpus / "audit-synthetic"
    ini = write_config(corpus / "synthetic.ini",
                       *synthetic_dataset(corpus / "synthetic", corpus), out)
    assert main(["audit", "--config", str(ini), "--threads", "1"]) == 0
    return ini, out


@pytest.mark.parametrize("variant", VARIANTS)
def test_variant_audits_alike_at_any_threads(variant, corpus, synthetic_audit, tmp_path,
                                             capsys):
    """The variant audits byte-identically at every ``--threads``,
    ``evaluate`` writes the audit's metrics at ``--threads`` 1 and 2,
    ``report`` reproduces every file but the manifest, and every chart
    parses as XML."""
    ini = write_config(tmp_path / f"{variant}.ini",
                       *VARIANTS[variant](corpus / "synthetic", tmp_path), tmp_path / "audit")
    written = []
    for threads in (1, 2, 3) if variant == "synthetic" else (1, 2):
        out = tmp_path / f"t{threads}"
        assert main(["audit", "--config", str(ini), "--threads", str(threads),
                     "--out", str(out)]) == 0
        written.append(output_files(out))
    audited = written[0]
    assert "manifest.json" in audited
    assert all(files == audited for files in written[1:])

    for threads in (1, 2):
        out = tmp_path / f"evaluate-t{threads}"
        assert main(["evaluate", "--config", str(ini), "--threads", str(threads),
                     "--out", str(out)]) == 0
        assert (out / "metrics_per_user.csv").read_bytes() == audited["metrics_per_user.csv"]

    assert main(["report", "--config", str(ini), "--metrics",
                 str(tmp_path / "t1" / "metrics_per_user.csv"),
                 "--out", str(tmp_path / "rerender")]) == 0
    tables = {path: data for path, data in audited.items() if path != "manifest.json"}
    assert output_files(tmp_path / "rerender") == tables

    charts = [path for path in audited if path.endswith(".svg")]
    assert charts
    for path in charts:
        ET.fromstring(audited[path])  # raises ParseError on an ill-formed chart

    if variant == "ml1m":
        summary = audited["group_summary.csv"].decode().splitlines()
        assert any(line.startswith("age_original,N/A,1,") for line in summary)
    elif variant == "crlf_bom":
        plain_ini, plain_audit = synthetic_audit
        assert tables == {path: data for path, data in output_files(plain_audit).items()
                          if path != "manifest.json"}
        assert ingest_stats(ini, capsys) == ingest_stats(plain_ini, capsys)
    elif variant == "quote":
        assert b'data-label="&quot;"' in audited["charts/last_digit.svg"]
    elif variant == "cold_start":
        assert int(ingest_stats(ini, capsys)["removed users"]) > 0


@pytest.mark.parametrize("variant", VARIANTS)
def test_variant_matrices_index_with_int32(variant, corpus, tmp_path):
    """The variant's matrix, its fold 0 training matrix and their item-major
    views hold int32 user and item indices."""
    ini = write_config(tmp_path / f"{variant}.ini",
                       *VARIANTS[variant](corpus / "synthetic", tmp_path), tmp_path / "audit")
    data = load(load_config(ini))
    plan = make_folds(range(data.matrix.n_users), 5, "partition", seed=0)
    assign_holdouts(plan, data.matrix, data.user_ids)
    for m in (data.matrix, fold_training_matrix(data.matrix, plan.folds[0])):
        assert m.indices.dtype == m.entry_rows().dtype == np.int32
        assert als._transpose_csr(m)[1].dtype == np.int32


@pytest.mark.parametrize("metric", ["ndcg", "mrr", "rbp"])
@pytest.mark.parametrize("scheme", ["gender", "last_digit"])
def test_kruskal_wallis_matches_scipy(corpus, synthetic_audit, scheme, metric):
    """The audit's H and p equal ``scipy.stats.kruskal`` over each user's
    mean metric, grouped from the profiles and ids as written."""
    kruskal = pytest.importorskip("scipy.stats").kruskal
    _, audit = synthetic_audit
    totals = defaultdict(lambda: [0.0, 0])
    with open(audit / "metrics_per_user.csv", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            total = totals[row["user_id"]]
            total[0] += float(row[metric])
            total[1] += 1
    genders = {}
    with open(corpus / "synthetic" / "profiles.tsv", encoding="utf-8") as fh:
        for line in fh:
            user, gender = line.rstrip("\n").split("\t")[:2]
            genders[user] = gender.strip().lower()

    def label_of(user):
        if scheme == "last_digit":
            return user[-1].lower()
        return genders.get(user) if genders.get(user) in ("m", "f") else None

    groups = defaultdict(list)
    for user, (total, count) in totals.items():
        label = label_of(user)
        if label is not None:
            groups[label].append(total / count)
    expected = kruskal(*groups.values())
    with open(audit / "stats_summary.csv", encoding="utf-8") as fh:
        row = next(row for row in csv.DictReader(fh)
                   if (row["scheme"], row["metric"]) == (scheme, metric))
    assert math.isclose(float(row["H"]), expected.statistic, rel_tol=1e-9)
    assert math.isclose(float(row["p"]), expected.pvalue, rel_tol=1e-9)


def kernel_variants() -> dict:
    """Environments under which OpenBLAS or numpy picks other kernels on this CPU."""
    variants = {"Prescott": {"OPENBLAS_CORETYPE": "Prescott"}}
    if __cpu_features__.get("AVX2") and __cpu_features__.get("FMA3"):
        variants["Haswell"] = {"OPENBLAS_CORETYPE": "Haswell"}
    if __cpu_features__.get("AVX512_SKX"):
        variants["SkylakeX"] = {"OPENBLAS_CORETYPE": "SkylakeX"}
    avx512 = [name for name in __cpu_dispatch__
              if ("AVX512" in name or name == "X86_V4") and __cpu_features__.get(name)]
    if avx512:
        variants["no AVX-512"] = {"NPY_DISABLE_CPU_FEATURES": " ".join(avx512)}
    return variants


def test_report_bytes_do_not_follow_the_kernel(synthetic_audit, tmp_path):
    """``report --metrics`` writes the same bytes under every OpenBLAS core
    type the CPU can run and with numpy's AVX-512 loops disabled.

    Each run is a child process, since both libraries pick their kernels
    at load.  On a BLAS build that ignores ``OPENBLAS_CORETYPE``, and on a
    CPU with one core type, this passes without testing anything."""
    ini, audit = synthetic_audit
    env = {key: value for key, value in os.environ.items()
           if key not in ("OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES")}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(recaudit.__file__).parents[1]), *filter(None, [env.get("PYTHONPATH")])])
    written = {}
    for name, variant in kernel_variants().items():
        out = tmp_path / name
        subprocess.run([sys.executable, "-m", "recaudit.cli", "report", "--config", str(ini),
                        "--metrics", str(audit / "metrics_per_user.csv"), "--out", str(out)],
                       env={**env, **variant}, check=True, capture_output=True)
        written[name] = output_files(out)
    (first, files), *others = written.items()
    assert "ebm_importance.csv" in files
    for name, other in others:
        assert other.keys() == files.keys()
        assert [path for path in files if other[path] != files[path]] == [], (first, name)
