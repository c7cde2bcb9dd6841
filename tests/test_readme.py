import re
from pathlib import Path

from recaudit.synthetic import generate_planted

README = Path(__file__).parents[1] / "README.md"


def library_use_blocks():
    """The python blocks of README's "Library use" section, in order."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^```python\n(.*?)^```$", section, re.M | re.S)


def test_library_use_examples_run_in_order(tmp_path, monkeypatch, capsys):
    # the examples read configs/synthetic.ini from the working directory:
    # here a small corpus and a quick audit of the same layout
    generate_planted(tmp_path / "data" / "synthetic", n_users=120, n_items=60, seed=4)
    (tmp_path / "configs").mkdir()
    (tmp_path / "configs" / "synthetic.ini").write_text("""
[dataset]
provenance = synthetic
interactions = data/synthetic/interactions.tsv
profiles = data/synthetic/profiles.tsv

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
dir = audit-synthetic
""")
    monkeypatch.chdir(tmp_path)
    blocks = library_use_blocks()
    assert blocks
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert (tmp_path / "audit-synthetic" / "manifest.json").is_file()
    assert capsys.readouterr().out
