"""Command-line entry point.

Verbs: ingest-stats (dataset statistics after cleanup), train (fit one
model on the full cleaned matrix and dump the factors), evaluate (folds,
training and scoring; writes only the per-user metrics CSV), audit (full
pipeline), report (re-render tables and charts from an existing per-user
metrics CSV).  Each verb is a short composition of the stages in
``recaudit.report``.

Exit codes: 0 success, 2 config error (including an unusable ``--out``,
``--metrics`` or ``--model-out`` path), 3 data error, 4 numerical error,
5 a fold worker process ended without a result (for example killed by a
signal).  An error in a fold worker exits with its own code.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from pathlib import Path

# one BLAS thread per fold process unless the caller chose, before numpy loads
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

import numpy as np

from . import als, evaluation, report
from .config import AuditConfig, apply_overrides, load_config
from .errors import RecauditError
# not called here: the benchmark's tracer (perfbench/tracer.py) checks that
# cli and report share these two functions
from .ingest import cold_start_filter  # noqa: F401
from .interactions import from_triples  # noqa: F401
from .util import fmt_float


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="audit config file (INI sections)")
    parser.add_argument("--seed", type=int, help="override all subsystem seeds")
    parser.add_argument("--out", help="override the output directory")
    parser.add_argument("--dataset", help="dataset directory with conventional file names")
    parser.add_argument("--threads", type=int,
                        help="number of processes the folds run in (>= 1), capped at "
                             "the fold count; outputs are the same at any value")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="recaudit",
                                     description="Recommender fairness audit pipeline")
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb, doc in (
        ("ingest-stats", "parse and clean the dataset, print its statistics"),
        ("train", "fit one model on the full cleaned matrix and dump factors"),
        ("evaluate", "run folds and write the per-user metrics CSV"),
        ("audit", "run the full audit pipeline"),
        ("report", "re-render tables and charts from a per-user metrics CSV"),
    ):
        sp = sub.add_parser(verb, help=doc)
        _add_common(sp)
        if verb == "train":
            sp.add_argument("--model-out", default="model.npz",
                            help="where to write the factor dump")
        if verb == "report":
            sp.add_argument("--metrics", required=True,
                            help="existing metrics_per_user.csv to re-render from")
    return parser


def _load(args: argparse.Namespace) -> AuditConfig:
    config = load_config(args.config)
    return apply_overrides(config, seed=args.seed, out=args.out,
                           threads=args.threads, dataset_dir=args.dataset)


def cmd_ingest_stats(args: argparse.Namespace) -> int:
    stats = report.load(_load(args)).summary()
    sparsity = stats["sparsity"]
    print(f"provenance:     {stats['provenance']}")
    print(f"users:          {stats['n_users']}")
    print(f"items:          {stats['n_items']}")
    print(f"interactions:   {stats['n_interactions']}")
    print(f"sparsity:       {sparsity:.6f} ({100 * sparsity:.2f}%)")
    print(f"skipped rows:   {stats['skipped_rows']}")
    print(f"removed users:  {stats['removed_users']}")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    config = _load(args)
    matrix = report.load(config).matrix
    with report.stage("train"):
        model = als.fit(matrix, config.model)
    with report.stage("emit"):
        als.save_model(model, args.model_out)
    print(f"model written to {args.model_out} "
          f"({matrix.n_users} users x {matrix.n_items} items, k={config.model.factors})")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    config = _load(args)
    data = report.load(config)
    frame = report.score(config, data)
    out_dir = Path(config.output.dir)
    with report.stage("emit"), report.staging(out_dir) as tmp:
        frame.to_csv(tmp / "metrics_per_user.csv")
    ndcg = frame.user_means(data.user_ids)["ndcg"]
    tested = ndcg[~np.isnan(ndcg)]
    # np.mean, not sum(): since Python 3.12 sum() over floats is compensated
    # and would print a different mean
    overall = tested.mean() if tested.size else 0.0
    print(f"metrics for {tested.size} users written to {out_dir / 'metrics_per_user.csv'}")
    print(f"mean NDCG: {fmt_float(overall)}")
    return 0


def cmd_audit(args: argparse.Namespace) -> int:
    config = _load(args)
    audit = report.run_audit(config)
    print(f"audit complete: {audit.manifest['n_tested_users']} users evaluated")
    for name in sorted(audit.schemes):
        kw = audit.schemes[name].kw.get("ndcg")
        if kw is None:
            print(f"  {name:24s} not testable")
        else:
            adj = audit.schemes[name].p_adjusted["ndcg"]
            marker = " *" if adj is not None and adj < config.output.significance else ""
            print(f"  {name:24s} H={kw.H:10.3f}  p={kw.p_value:.3g}  "
                  f"p_bonf={adj:.3g}{marker}")
    print(f"outputs in {config.output.dir}")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    config = _load(args)
    # a bad path fails before any ingest; the rows are read after load's peak
    with report.stage("metrics"), open(args.metrics, "rb"):
        pass
    data = report.load(config)
    with report.stage("metrics"):
        frame = evaluation.MetricFrame.from_csv(args.metrics)
    report.emit(report.rebuild_report(config, frame, data), config.output.dir)
    print(f"re-rendered report into {config.output.dir}")
    return 0


COMMANDS = {
    "ingest-stats": cmd_ingest_stats,
    "train": cmd_train,
    "evaluate": cmd_evaluate,
    "audit": cmd_audit,
    "report": cmd_report,
}


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return COMMANDS[args.verb](args)
    except RecauditError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
