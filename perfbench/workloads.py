"""The benchmark's workloads: input sizes, audit settings, the CLI verb each
one drives, and the layers it must reach.

Every input comes from the planted-bias generator at the workload seed, so
the program only ever sees generated files.  Paths in the config are
relative to the child's working directory, which keeps ``manifest.json``
identical from one run to the next.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

DATA_DIR = "data"
OUT_DIR = "out"
CONFIG_FILE = "bench.ini"
METRICS_IN = "metrics_in.csv"

# layers every verb reaches; an audit also folds, trains and scores
COMMON_LAYERS = ("ingest", "cold_start", "interactions", "popindex", "report",
                 "grouping", "stats", "ebm", "emit", "metrics_csv")
AUDIT_LAYERS = COMMON_LAYERS + ("folds", "als", "evaluate")

# planted gap added to the biased users' metric values in the metrics CSV
# that report-rerender reads
METRICS_GAP = 0.05


@dataclass(frozen=True)
class Workload:
    name: str
    verb: str
    users: int
    items: int
    threads: int
    config: str  # INI sections after [dataset]
    layers: tuple[str, ...]

    def config_text(self) -> str:
        return (f"[dataset]\nprovenance = synthetic\n"
                f"interactions = {DATA_DIR}/interactions.tsv\n"
                f"profiles = {DATA_DIR}/profiles.tsv\n\n"
                f"{self.config}"
                f"[output]\ndir = {OUT_DIR}\n")

    def argv(self) -> list[str]:
        args = [self.verb, "--config", CONFIG_FILE, "--threads", str(self.threads)]
        if self.verb == "report":
            args += ["--metrics", METRICS_IN]
        return args

    def expected_files(self) -> list[str]:
        names = ["metrics_per_user.csv", "group_summary.csv", "stats_summary.csv",
                 "ebm_importance.csv", "ebm_solo_importance.csv", "ebm_shapes.csv"]
        if self.verb == "audit":
            names.append("manifest.json")
        return names


def usable_cores() -> int:
    return len(os.sched_getaffinity(0))


# Every bag of the explainer boosts a fixed number of rounds (patience =
# max_rounds turns early stopping off): with early stopping a bag ran from
# 51 to 1000 rounds depending on the seed, and the explainer's work with it.
FIXED_ROUNDS = "max_rounds = 150\npatience = 150\n"

# Why each workload exists is recorded in BENCHMARK.json and README.md.  The
# audit workloads fit two EBM bags instead of eight so that training
# (audit-train) and scoring (audit-rank) dominate their wall time;
# report-rerender keeps the explainer's default eight bags.
WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="audit-train",
            verb="audit", users=1500, items=800,
            threads=min(2, usable_cores()),
            config=("[model]\nfactors = 50\niterations = 2\n\n"
                    "[evaluation]\nscheme = sample\nfolds = 5\n"
                    "sample_size = 100\ndepth = 100\n\n"
                    "[ebm]\nbags = 2\n" + FIXED_ROUNDS + "\n"),
            layers=AUDIT_LAYERS),
        Workload(
            name="audit-rank",
            verb="audit", users=1200, items=4000, threads=1,
            config=("[model]\nfactors = 16\niterations = 1\n\n"
                    "[evaluation]\nscheme = partition\nfolds = 5\n"
                    "depth = 1000\n\n[ebm]\nbags = 2\n" + FIXED_ROUNDS + "\n"),
            layers=AUDIT_LAYERS),
        Workload(
            name="report-rerender",
            verb="report", users=3000, items=1000, threads=1,
            config="[ebm]\n" + FIXED_ROUNDS + "\n",
            layers=COMMON_LAYERS),
    )
}


def write_inputs(workload: Workload, seed: int, workdir: str) -> None:
    """Generate the workload's input files under ``workdir``."""
    from recaudit.synthetic import generate_planted

    truth = generate_planted(os.path.join(workdir, DATA_DIR), n_users=workload.users,
                             n_items=workload.items, seed=seed)
    with open(os.path.join(workdir, CONFIG_FILE), "w", encoding="utf-8") as fh:
        fh.write(workload.config_text())
    if workload.verb == "report":
        write_metrics_csv(os.path.join(workdir, METRICS_IN), workload.users,
                          truth.biased_users, seed)


def write_metrics_csv(path: str, n_users: int, biased_users: frozenset,
                      seed: int) -> None:
    """A per-user metrics CSV in the format ``audit`` writes, with one row
    per user over five folds and the planted gap on the biased users."""
    import numpy as np

    from recaudit.evaluation import MetricFrame, MetricRow
    from recaudit.util import derive_seed

    rng = np.random.default_rng(derive_seed(seed, "bench-metrics"))
    values = rng.beta(2.0, 8.0, size=(n_users, 3))
    frame = MetricFrame()
    for idx in range(n_users):
        uid = str(idx + 1)
        gap = METRICS_GAP if uid in biased_users else 0.0
        ndcg, mrr, rbp = (min(1.0, float(v) + gap) for v in values[idx])
        frame.rows.append(MetricRow(uid, idx % 5, ndcg, mrr, rbp))
    frame.to_csv(path)
