"""Outputs do not follow Python's string hash seed.

Set and dict order of strings changes with ``PYTHONHASHSEED``; every label
list the audit writes must come from a sort instead.  One corpus with
countries (a literal ``N/A`` and a name holding ``&`` and ``"`` among them),
missing countries and genders and a GDP table is audited in two processes
under different hash seeds, and every output file must be byte-identical.
"""

import csv
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import recaudit
from recaudit.synthetic import generate_planted
from recaudit.util import derive_seed

CONFIG = Path(__file__).parents[1] / "configs" / "synthetic.ini"

COUNTRIES = ("Chile", "Ghana", "Fiji", "N/A", 'Q&A "x"', "Peru", "Laos", "Oman", "Chad")
SHARES = (0.25, 0.18, 0.14, 0.1, 0.1, 0.08, 0.07, 0.05, 0.03)
GDP = {"Chile": 15000.0, "ghana": 2200.0, "Fiji": 5500.0, "N/A": 40000.0,
       'Q&A "x"': 900.0, "Peru": 7000.0}


def write_countries_corpus(root: Path) -> Path:
    """A 300-user planted corpus under ``root`` whose profiles carry
    countries (1 in 7 missing) and genders (1 in 11 missing), a GDP table
    for six of its countries (one written in another case), and the config
    that audits it with every scheme; returns the config's path."""
    data = root / "data"
    generate_planted(data, n_users=300, n_items=150, seed=0)
    rng = np.random.default_rng(derive_seed("hash-seed corpus"))
    picks = rng.choice(len(COUNTRIES), size=300, p=SHARES).tolist()
    profiles = (data / "profiles.tsv").read_text(encoding="utf-8").splitlines()
    with open(data / "profiles.tsv", "w", encoding="utf-8") as out:
        for i, (line, pick) in enumerate(zip(profiles, picks)):
            user, gender, age = line.split("\t")[:3]
            country = "" if i % 7 == 3 else COUNTRIES[pick]
            out.write(f"{user}\t{'' if i % 11 == 5 else gender}\t{age}\t{country}\t\n")
    with open(data / "gdp.csv", "w", encoding="utf-8", newline="") as out:
        csv.writer(out).writerows(GDP.items())

    lines = []
    for line in CONFIG.read_text(encoding="utf-8").splitlines():
        key = line.partition(" = ")[0]
        if key in ("interactions", "profiles"):
            line = f"{key} = {data / f'{key}.tsv'}"
        elif key == "provenance":
            line += f"\ngdp_table = {data / 'gdp.csv'}"
        lines.append(line)
    ini = root / "countries.ini"
    ini.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return ini


def test_audit_bytes_do_not_follow_the_hash_seed(tmp_path):
    ini = write_countries_corpus(tmp_path)
    written = []
    for seed in ("1", "2"):
        out = tmp_path / f"hash-seed-{seed}"
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=str(Path(recaudit.__file__).parents[1]))
        subprocess.run([sys.executable, "-m", "recaudit.cli", "audit", "--config", str(ini),
                        "--out", str(out)], env=env, check=True, capture_output=True)
        written.append({str(p.relative_to(out)): p.read_bytes()
                        for p in sorted(out.rglob("*")) if p.is_file()})
    assert {"charts/country_prevalence.svg", "charts/country_gdp.svg"} <= set(written[0])
    assert written[0] == written[1]
