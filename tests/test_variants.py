"""One 300 x 150 synthetic corpus, with ``configs/synthetic.ini``'s model and
explainer settings, run end to end through the verbs in variants.

The corpus, its ML1M-format copy and its audit are written once per session.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

try:
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
except ImportError:  # numpy 1.x
    from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__

import recaudit
from recaudit.cli import main
from recaudit.synthetic import generate_planted

CONFIG = Path(__file__).parents[1] / "configs" / "synthetic.ini"


def write_config(path: Path, provenance: str, files: dict, out: Path) -> Path:
    """``configs/synthetic.ini`` with its data files and output directory replaced."""
    lines = []
    for line in CONFIG.read_text(encoding="utf-8").splitlines():
        key = line.partition(" = ")[0]
        if key in ("interactions", "profiles"):
            continue
        if key == "provenance":
            line = "\n".join([f"provenance = {provenance}",
                              *(f"{name} = {value}" for name, value in files.items())])
        elif key == "dir":
            line = f"dir = {out}"
        lines.append(line)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def output_files(root: Path) -> dict:
    """Every file under ``root`` by its relative path, as bytes."""
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.fixture(scope="session")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    generate_planted(root / "synthetic", n_users=300, n_items=150, seed=0)
    return root


@pytest.fixture(scope="session")
def synthetic_audit(corpus):
    """The config of the corpus as it is, and its audit's output directory."""
    out = corpus / "audit-synthetic"
    ini = write_config(corpus / "synthetic.ini", "synthetic",
                       {"interactions": corpus / "synthetic" / "interactions.tsv",
                        "profiles": corpus / "synthetic" / "profiles.tsv"}, out)
    assert main(["audit", "--config", str(ini), "--threads", "1"]) == 0
    return ini, out


@pytest.fixture(scope="session")
def ml1m_corpus(corpus):
    """The corpus in the ML1M file format, with the first user's age 999."""
    data = corpus / "ml1m"
    data.mkdir()
    with open(corpus / "synthetic" / "interactions.tsv", encoding="utf-8") as fh, \
            open(data / "ratings.dat", "w", encoding="latin-1") as out:
        for line in fh:
            user, item, _name, plays = line.rstrip("\n").split("\t")
            out.write(f"{user}::{int(item.removeprefix('item'))}::{min(int(plays), 5)}::0\n")
    with open(corpus / "synthetic" / "profiles.tsv", encoding="utf-8") as fh, \
            open(data / "users.dat", "w", encoding="latin-1") as out:
        for i, line in enumerate(fh):
            user, gender, age = line.split("\t")[:3]
            # the first user's age lies outside 1-120, so it is missing
            out.write(f"{user}::{gender.upper()}::{999 if i == 0 else age}::0::00000\n")
    return data


def test_ml1m_copy_audits_alike_at_any_threads(ml1m_corpus, tmp_path):
    """The ML1M-format copy audits byte-identically at ``--threads`` 1 and 2,
    its age of 999 is missing, and ``report`` reproduces its tables and
    charts."""
    written = []
    for threads in (1, 2):
        out = tmp_path / f"t{threads}"
        ini = write_config(tmp_path / "ml1m.ini", "ml1m",
                           {"ratings": ml1m_corpus / "ratings.dat",
                            "users": ml1m_corpus / "users.dat"}, out)
        assert main(["audit", "--config", str(ini), "--threads", str(threads)]) == 0
        written.append(output_files(out))
    assert written[0] == written[1]
    summary = written[0]["group_summary.csv"].decode().splitlines()
    assert any(line.startswith("age_original,N/A,1,") for line in summary)

    assert main(["report", "--config", str(ini), "--metrics",
                 str(tmp_path / "t1" / "metrics_per_user.csv"),
                 "--out", str(tmp_path / "rerender")]) == 0
    audited = {path: data for path, data in written[0].items() if path != "manifest.json"}
    assert any(path.endswith(".svg") for path in audited)
    assert output_files(tmp_path / "rerender") == audited


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
