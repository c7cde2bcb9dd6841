"""The audit pipeline as the stages every CLI verb composes: ``load``
(ingest, cold start, matrix), ``score`` (folds, fit and evaluate per fold),
``rebuild_report`` (grouping, tests, explainer) and ``emit`` (tables,
charts, manifest).

Every random decision derives from the seeds recorded in the manifest, all
reductions happen in fixed order, and the per-user metrics CSV is the
single source for every downstream number.  ``score`` runs the folds in
``output.threads`` processes and puts their rows together in fold order.
A failure names the stage it happened in.  Outputs are written into a
staging directory and moved into place only once all of them are written,
so a run that fails before the moves leaves the previous outputs as they
were; ``manifest.json`` moves last, so one that fails during them leaves
the previous manifest in place.
"""

from __future__ import annotations

import csv
import json
import logging
import math
import os
import pickle
import shutil
import signal
import sys
import tempfile
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, NoReturn, Optional, Sequence

import numpy as np

from . import als, ebm, evaluation, grouping, popindex, stats
from .charts import render_scheme_chart
from .config import AuditConfig
from .errors import ConfigError, DataError, RecauditError, WorkerError
from .evaluation import METRICS
from .ingest import (GdpTable, PROVENANCE_ML1M, RawDataset,
                     cold_start_filter, load_gdp, load_lfm, load_ml1m)
from .interactions import (GENDER_NA, IdMap, InteractionMatrix, Triples,
                           UserAttributes, from_triples)
from .interactions import stats as dataset_stats
from .util import derive_seed, fmt_float

log = logging.getLogger(__name__)

MANIFEST = Path("manifest.json")

# schemes whose buckets describe who the user is, rather than how they consume
DEMOGRAPHIC_SCHEMES = ("age_original", "age_equal_range", "age_equal_count",
                       "gender", "country_prevalence", "country_gdp")


@dataclass
class SchemeResult:
    assignment: grouping.GroupAssignment
    counts: dict[str, int] = field(default_factory=dict)  # all matrix users
    tested: dict[str, int] = field(default_factory=dict)  # users with metrics
    means: dict[str, dict[str, float]] = field(default_factory=dict)  # metric -> label -> mean
    ses: dict[str, dict[str, float]] = field(default_factory=dict)
    kw: dict[str, Optional[stats.KwResult]] = field(default_factory=dict)
    p_adjusted: dict[str, Optional[float]] = field(default_factory=dict)
    ebm_shape: dict[str, float] = field(default_factory=dict)  # label -> score
    solo_importance: Optional[float] = None


@dataclass
class AuditReport:
    config: AuditConfig
    frame: evaluation.MetricFrame
    schemes: dict[str, SchemeResult]
    ebm_importance: list[tuple[str, float]]  # all-features run, sorted desc
    ebm_model: Optional[ebm.EbmModel]
    crosstabs: dict[str, "CrossTab"]
    manifest: dict


@dataclass
class Dataset:
    """The cleaned dataset every verb starts from.  ``raw`` keeps the
    attributes, the provenance and the drop counts; its ``Triples`` are
    emptied once ``matrix`` is built, whose rows ``umap`` names."""

    raw: RawDataset
    gdp: Optional[GdpTable]
    matrix: InteractionMatrix
    umap: IdMap

    def summary(self) -> dict:
        """Dataset statistics, as ``ingest-stats`` prints them and the
        manifest records them."""
        ds = dataset_stats(self.matrix)
        return {"provenance": self.raw.provenance, "n_users": ds.n_users,
                "n_items": ds.n_items, "n_interactions": ds.n_interactions,
                "sparsity": ds.sparsity,
                "skipped_rows": self.raw.skipped_interactions,
                "removed_users": self.raw.skipped_users}


@dataclass
class CrossTab:
    """Integer percentage table; each column sums to exactly 100."""

    row_labels: list[str]
    col_labels: list[str]
    percentages: dict[str, dict[str, int]]  # col -> row -> pct
    col_totals: dict[str, int]


def scheme_result(assignment: grouping.GroupAssignment,
                  means: dict[str, np.ndarray]) -> SchemeResult:
    """A scheme's user and tested counts per group, and per metric each
    group's mean and standard error over its tested users and the
    Kruskal-Wallis test; ``means`` as ``MetricFrame.user_means`` gives it."""
    tested = ~np.isnan(means["ndcg"])
    in_group = [tested & (assignment.codes == code)
                for code in range(len(assignment.labels))]
    result = SchemeResult(assignment=assignment, counts=assignment.sizes())
    result.tested = {label: int(np.count_nonzero(mask))
                     for label, mask in zip(assignment.labels, in_group)}
    for metric in METRICS:
        result.means[metric], result.ses[metric] = {}, {}
        for label, mask in zip(assignment.labels, in_group):
            values = means[metric][mask]
            if len(values):
                result.means[metric][label] = float(values.mean())
                result.ses[metric][label] = (
                    float(values.std(ddof=1) / math.sqrt(len(values)))
                    if len(values) > 1 else 0.0)
        result.kw[metric] = stats.test_grouping(means[metric], assignment)
    return result


def _largest_remainder(shares: Sequence[float]) -> list[int]:
    """Round percentage shares to integers that sum to exactly 100."""
    if not shares:
        return []
    floors = [math.floor(s) for s in shares]
    remainder = 100 - sum(floors)
    order = sorted(range(len(shares)), key=lambda i: (floors[i] - shares[i], i))
    for i in order[:remainder]:
        floors[i] += 1
    return floors


def build_crosstab(rows_assignment: grouping.GroupAssignment,
                   cols_assignment: grouping.GroupAssignment) -> CrossTab:
    """Cross-tabulate two assignments: per demographic column, the integer
    percentage of its users in each row bucket.  Users missing the row
    attribute are left out of the column total."""
    row_labels = rows_assignment.non_na_labels()
    col_labels = list(cols_assignment.labels)
    n_rows = len(row_labels)
    has_row = rows_assignment.codes < n_rows
    cells = np.bincount(cols_assignment.codes[has_row] * n_rows
                        + rows_assignment.codes[has_row],
                        minlength=len(col_labels) * n_rows)
    pct: dict[str, dict[str, int]] = {}
    totals: dict[str, int] = {}
    for col, counts in zip(col_labels, cells.reshape(len(col_labels), n_rows).tolist()):
        totals[col] = total = sum(counts)
        if total:
            ints = _largest_remainder([100.0 * count / total for count in counts])
        else:
            ints = [0] * n_rows
        pct[col] = dict(zip(row_labels, ints))
    return CrossTab(row_labels=row_labels, col_labels=col_labels,
                    percentages=pct, col_totals=totals)


@contextmanager
def stage(name: str):
    """Name the pipeline stage in any error raised inside it (also usable
    as a decorator).

    An OSError comes from a path the user gave, such as ``--out`` or
    ``--metrics``, so it becomes a ConfigError (exit 2).
    """
    try:
        yield
    except RecauditError as exc:
        raise type(exc)(f"stage {name}: {exc}") from exc
    except OSError as exc:
        raise ConfigError(f"stage {name}: {exc}") from exc


@stage("ingest")
def load(config: AuditConfig) -> Dataset:
    """Parse the configured files, drop cold-start users, build the matrix."""
    ds = config.dataset
    if ds.provenance == PROVENANCE_ML1M:
        if not ds.ratings or not ds.users:
            raise ConfigError("ml1m provenance needs ratings and users paths")
        raw = load_ml1m(ds.ratings, ds.users)
    else:
        if not ds.interactions:
            raise ConfigError(f"{ds.provenance} provenance needs an interactions path")
        raw = load_lfm(ds.interactions, ds.profiles, provenance=ds.provenance)
    gdp = load_gdp(ds.gdp_table) if ds.gdp_table else None
    raw = cold_start_filter(raw, ds.cold_start_min_items)
    matrix, umap, _ = from_triples(raw.triples)
    if matrix.nnz == 0:
        raise DataError("no interactions after cleanup")
    # nothing reads the row columns once the matrix holds them
    return Dataset(replace(raw, triples=Triples.from_rows(())), gdp, matrix, umap)


@stage("score")
def score(config: AuditConfig, data: Dataset) -> evaluation.MetricFrame:
    """Split the users into folds, then fit and evaluate one model per fold.

    The folds run in ``min(output.threads, folds)`` processes (one where
    ``os.fork`` does not exist); see ``_map_folds``.  Each fold is seeded
    on its own and its rows are concatenated in fold order, so the frame
    is the same at any worker count.
    """
    ev = config.evaluation
    fold_scheme = config.resolved_fold_scheme()
    plan = evaluation.make_folds(
        list(range(data.matrix.n_users)), ev.folds, fold_scheme, ev.seed,
        sample_size=ev.sample_size if fold_scheme == "sample" else None)
    evaluation.assign_holdouts(plan, data.matrix, data.umap.ids, ev.holdout_fraction)

    def run(fold: evaluation.Fold) -> list[evaluation.MetricRow]:
        hp = als.AlsHyperparams(
            factors=config.model.factors,
            regularization=config.model.regularization,
            iterations=config.model.iterations,
            alpha=config.model.alpha,
            seed=derive_seed(config.model.seed, "fold", fold.index))
        train_matrix = evaluation.fold_training_matrix(data.matrix, fold)
        # scoring reads only the test users' factors
        model = als.fit(train_matrix, hp, users=fold.test_users)
        return evaluation.evaluate_fold(
            model, fold, data.matrix, data.umap.ids, n=ev.depth,
            persistence=ev.rbp_persistence, filter_train=ev.filter_train)

    workers = min(config.output.threads, len(plan.folds)) if hasattr(os, "fork") else 1
    rows = _map_folds(run, plan.folds, workers)
    frame = evaluation.MetricFrame()
    for fold in plan.folds:
        frame.rows.extend(rows[fold.index])
    return frame


def _map_folds(run: Callable[[evaluation.Fold], list], folds: list[evaluation.Fold],
               workers: int) -> dict[int, list]:
    """``{fold.index: run(fold)}``, the folds dealt round-robin to
    ``workers`` processes: worker ``w`` runs ``folds[w::workers]``.

    This process is worker 0 and runs its share in place; the others are
    forked from it, so they share the matrix and the holdouts
    copy-on-write and send back only their rows, pickled down a pipe.  A
    ``RecauditError`` in a worker is raised here with its own type; a
    worker that ends without a result raises ``WorkerError``.  However this
    function is left, every worker it forked has been killed and reaped.
    The pipeline starts no threads of its own before this point.
    """
    if workers == 1:
        return {fold.index: run(fold) for fold in folds}
    sys.stdout.flush()
    sys.stderr.flush()
    children: dict[int, tuple] = {}  # pid -> (pipe read end, its folds)
    try:
        for w in range(1, workers):
            share = folds[w::workers]
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if pid == 0:
                _fold_worker(run, share, read_fd, write_fd)
            os.close(write_fd)
            children[pid] = (os.fdopen(read_fd, "rb"), share)
        results = {fold.index: run(fold) for fold in folds[::workers]}
        for pid, (pipe, share) in list(children.items()):
            try:
                outcome = pickle.load(pipe)
            except (EOFError, pickle.UnpicklingError):
                outcome = None
            pipe.close()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del children[pid]
            if isinstance(outcome, RecauditError):
                raise outcome
            if outcome is None:
                ended = (f"killed by signal {-code} ({signal.strsignal(-code)})"
                         if code < 0 else f"exit status {code}")
                raise WorkerError(
                    f"the worker for folds {', '.join(str(f.index) for f in share)} "
                    f"ended without a result: {ended}")
            results.update(outcome)
        return results
    finally:
        for pid, (pipe, _) in children.items():
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _fold_worker(run: Callable[[evaluation.Fold], list], folds: list[evaluation.Fold],
                 read_fd: int, write_fd: int) -> NoReturn:
    """A forked worker: run ``folds``, send ``{fold.index: rows}`` or the
    ``RecauditError`` that stopped them, and exit without returning into
    the caller's stack.  Any other error is printed here, and the parent
    gets no result."""
    code = 1
    try:
        os.close(read_fd)
        try:
            outcome = {fold.index: run(fold) for fold in folds}
        except RecauditError as exc:
            outcome = exc
        with os.fdopen(write_fd, "wb") as pipe:
            pickle.dump(outcome, pipe, pickle.HIGHEST_PROTOCOL)
        code = 0
    except Exception:
        traceback.print_exc()
        sys.stderr.flush()
    finally:
        os._exit(code)


def build_assignments(config: AuditConfig, attributes: Sequence[UserAttributes],
                      gdp: Optional[GdpTable]) -> dict[str, grouping.GroupAssignment]:
    """All configured grouping schemes that the data can support."""
    gc = config.grouping
    ages = [a.age for a in attributes]
    have_ages = any(v is not None for v in ages)
    have_countries = any(a.country is not None for a in attributes)
    raw_ages = have_ages and config.dataset.provenance != PROVENANCE_ML1M

    out: dict[str, grouping.GroupAssignment] = {}
    for scheme in config.resolved_schemes():
        if scheme == "age_original" and have_ages:
            out[scheme] = grouping.bucket_from_brackets(scheme, ages, gc.age_brackets)
        elif scheme == "age_equal_range" and raw_ages:
            out[scheme] = grouping.bucket_equal_range(scheme, ages,
                                                      gc.age_range_width, anchor=1)
        elif scheme == "age_equal_count" and raw_ages:
            try:
                out[scheme] = grouping.bucket_equal_count(scheme, ages, gc.age_count_bins)
            except ValueError as exc:
                log.warning("skipping age_equal_count scheme: %s", exc)
        elif scheme == "gender":
            genders = [a.gender if a.gender != GENDER_NA else None for a in attributes]
            out[scheme] = grouping.bucket_categorical(scheme, genders)
        elif scheme == "country_prevalence" and have_countries:
            out[scheme] = grouping.bucket_countries_by_prevalence(
                scheme, attributes, gc.country_buckets)
        elif scheme == "country_gdp" and have_countries and gdp is not None:
            out[scheme] = grouping.bucket_countries_by_gdp(scheme, attributes, gdp,
                                                           gc.country_buckets)
        elif scheme == "usage":
            usages = [a.usage for a in attributes]
            try:
                out[scheme] = grouping.bucket_equal_count(scheme, usages, gc.usage_bins)
            except ValueError as exc:
                log.warning("skipping usage scheme: %s", exc)
        elif scheme == "popindex":
            pops = [a.pop_index for a in attributes]
            out[scheme] = grouping.bucket_integer_values(scheme, pops,
                                                         gc.popindex_merge_at)
        elif scheme == "last_digit":
            out[scheme] = grouping.control_last_digit(
                scheme, [a.user_id for a in attributes])
    return out


def _ebm_feature_rows(attributes: Sequence[UserAttributes],
                      assignments: dict[str, grouping.GroupAssignment],
                      users: np.ndarray) -> list[dict]:
    """Feature dicts for the all-features explainer run, one per user index
    in ``users``."""
    countries = [assignments[name] for name in ("country_prevalence", "country_gdp")
                 if name in assignments]
    rows = []
    for i in users.tolist():
        attr = attributes[i]
        row = {
            "age": attr.age,
            "gender": None if attr.gender == GENDER_NA else attr.gender,
            "usage": attr.usage,
            "pop_index": attr.pop_index,
            "last_digit": str(attr.user_id)[-1].lower(),
        }
        for assignment in countries:
            label = assignment.labels[assignment.codes[i]]
            row[assignment.name] = None if label == grouping.NA_LABEL else label
        rows.append(row)
    return rows


def _ebm_specs(rows: list[dict], max_bins: int) -> list[ebm.FeatureSpec]:
    specs: list[ebm.FeatureSpec] = []
    names = list(rows[0].keys())
    numeric = {"age", "usage", "pop_index"}
    for name in names:
        values = [row[name] for row in rows]
        if all(v is None for v in values):
            continue
        if name in numeric:
            specs.append(ebm.bin_numeric(name, values, max_bins=max_bins))
        else:
            specs.append(ebm.categorical_spec(name, values))
    return specs


def run_audit(config: AuditConfig) -> AuditReport:
    """The full audit: every stage, then all outputs and the manifest."""
    data = load(config)
    audit = rebuild_report(config, score(config, data), data)
    emit(audit, config.output.dir, with_manifest=True)
    return audit


@stage("report")
def rebuild_report(config: AuditConfig, frame: evaluation.MetricFrame,
                   data: Dataset) -> AuditReport:
    """Grouping, significance testing, explainer runs, and cross-tabs from
    a metric frame, whether just scored or read back from a per-user
    metrics CSV."""
    by_id = {a.user_id: a for a in data.raw.attributes}
    attributes = [by_id.get(uid) or UserAttributes(user_id=uid, gender=GENDER_NA)
                  for uid in data.umap.ids]
    popindex.fill_attributes(attributes, data.matrix, data.umap.index,
                             data.raw.provenance)
    assignments = build_assignments(config, attributes, data.gdp)

    means = frame.user_means(data.umap)
    schemes = {name: scheme_result(assignment, means)
               for name, assignment in assignments.items()}
    family = [(name, metric) for name, result in schemes.items()
              for metric in METRICS if result.kw[metric] is not None]
    p_values = [schemes[n].kw[m].p_value for n, m in family]
    adjusted = stats.bonferroni(p_values)
    for (name, metric), p_adj in zip(family, adjusted):
        schemes[name].p_adjusted[metric] = p_adj

    # the explainers' bootstrap draws depend on row order, so the rows follow
    # the id texts, not the order the dataset lists the users in
    ids = data.umap.ids
    tested_users = np.array(
        sorted(np.flatnonzero(~np.isnan(means["ndcg"])).tolist(),
               key=lambda i: str(ids[i])), dtype=np.intp)
    all_rows = _ebm_feature_rows(attributes, assignments, tested_users)
    targets = means["ndcg"][tested_users]
    ebm_model = None
    ebm_importance: list[tuple[str, float]] = []
    if len(all_rows) >= 10:
        specs = _ebm_specs(all_rows, config.ebm.max_bins)
        if specs:
            ebm_model = ebm.fit_ebm(all_rows, targets, specs, config.ebm)
            ebm_importance = ebm.importance(ebm_model, all_rows)
    _solo_ebm_runs(config, schemes, tested_users, means["ndcg"])

    crosstabs: dict[str, CrossTab] = {}
    for base in ("usage", "popindex"):
        rows_assignment = assignments.get(base)
        if rows_assignment is None:
            continue
        for name in DEMOGRAPHIC_SCHEMES:
            cols = assignments.get(name)
            if cols is not None:
                crosstabs[f"{base}_by_{name}"] = build_crosstab(rows_assignment, cols)

    manifest = {
        "config_hash": config.config_hash(),
        "config": config.canonical_lines(),
        "dataset": data.summary(),
        "seeds": {
            "model": config.model.seed,
            "evaluation": config.evaluation.seed,
            "ebm": config.ebm.seed,
            "per_fold_model": {i: derive_seed(config.model.seed, "fold", i)
                               for i in range(config.evaluation.folds)},
        },
        "fold_scheme": config.resolved_fold_scheme(),
        "schemes": sorted(assignments),
        "n_tested_users": len(tested_users),
        "bonferroni_family_size": len(family),
    }
    return AuditReport(config=config, frame=frame,
                       schemes=schemes, ebm_importance=ebm_importance,
                       ebm_model=ebm_model, crosstabs=crosstabs,
                       manifest=manifest)


def _solo_ebm_runs(config: AuditConfig, schemes: dict[str, SchemeResult],
                   tested_users: np.ndarray, ndcg_means: np.ndarray) -> None:
    """Per-scheme single-feature explainer runs on balanced samples of the
    tested users.

    The scheme label acts as one categorical feature; the resulting shape
    values feed the charts' score row and the solo importance ranking.
    """
    for result in schemes.values():
        assignment = result.assignment
        try:
            sample = grouping.balanced_sample(assignment, config.ebm.seed, tested_users)
        except ValueError:
            continue
        if len(sample) < 10:
            continue
        rows = [{"group": assignment.labels[code]}
                for code in assignment.codes[sample].tolist()]
        spec = ebm.categorical_spec("group", [row["group"] for row in rows])
        model = ebm.fit_ebm(rows, ndcg_means[sample], [spec], config.ebm)
        result.ebm_shape = {label: model.shape_value("group", label)
                            for label in assignment.non_na_labels()}
        result.solo_importance = ebm.importance(model, rows)[0][1]


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


@contextmanager
def staging(out_dir: str | Path):
    """A new directory inside ``out_dir`` to write outputs into.

    When the block succeeds, each file written there replaces its namesake
    in ``out_dir``, one ``os.replace`` at a time, and ``manifest.json``
    moves last: if any move fails, the previous manifest stays, so a
    current manifest means every file beside it is current.  The
    directories the files go to are made before any file moves, so an
    unusable destination fails while the previous outputs are still whole.
    The staging directory is removed either way.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=".staging-", dir=out_dir))
    try:
        yield tmp
        files = sorted((p.relative_to(tmp) for p in tmp.rglob("*") if p.is_file()),
                       key=lambda rel: (rel == MANIFEST, rel))
        for rel in files:
            (out_dir / rel).parent.mkdir(exist_ok=True)
        for rel in files:
            os.replace(tmp / rel, out_dir / rel)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


@stage("emit")
def emit(report: AuditReport, out_dir: str | Path, with_manifest: bool = False) -> None:
    """Write the tables, the charts and optionally ``manifest.json`` into
    ``out_dir``, through a staging directory."""
    with staging(out_dir) as tmp:
        emit_tables(report, tmp)
        emit_charts(report, tmp)
        if with_manifest:
            with open(tmp / MANIFEST, "w", encoding="utf-8") as fh:
                json.dump(report.manifest, fh, indent=2, sort_keys=True)


def emit_tables(report: AuditReport, out_dir: str | Path) -> list[Path]:
    """Write the CSV outputs; returns the paths written."""
    out_dir = Path(out_dir)
    written = []

    path = out_dir / "metrics_per_user.csv"
    report.frame.to_csv(path)
    written.append(path)

    summary_rows = []
    for name in sorted(report.schemes):
        result = report.schemes[name]
        for label in result.assignment.labels:
            row = [name, label, result.counts.get(label, 0),
                   result.tested.get(label, 0)]
            for metric in METRICS:
                mean = result.means[metric].get(label)
                se = result.ses[metric].get(label)
                row.append(fmt_float(mean) if mean is not None else "")
                row.append(fmt_float(se) if se is not None else "")
            summary_rows.append(row)
    path = out_dir / "group_summary.csv"
    _write_csv(path, ["scheme", "group", "n_users", "n_tested",
                      "mean_ndcg", "se_ndcg", "mean_mrr", "se_mrr",
                      "mean_rbp", "se_rbp"], summary_rows)
    written.append(path)

    stats_rows = []
    for name in sorted(report.schemes):
        result = report.schemes[name]
        for metric in METRICS:
            kw = result.kw.get(metric)
            if kw is None:
                stats_rows.append([name, metric, "", "", "", "not_testable",
                                   len(result.assignment.non_na_labels())])
            else:
                stats_rows.append([name, metric, fmt_float(kw.H), kw.df,
                                   fmt_float(kw.p_value),
                                   fmt_float(result.p_adjusted[metric]),
                                   len(kw.group_sizes)])
    path = out_dir / "stats_summary.csv"
    _write_csv(path, ["scheme", "metric", "H", "df", "p", "p_bonferroni",
                      "n_groups"], stats_rows)
    written.append(path)

    imp_rows = [[feat, fmt_float(value), rank + 1]
                for rank, (feat, value) in enumerate(report.ebm_importance)]
    path = out_dir / "ebm_importance.csv"
    _write_csv(path, ["feature", "importance", "rank"], imp_rows)
    written.append(path)

    solo = [(name, res.solo_importance) for name, res in report.schemes.items()
            if res.solo_importance is not None]
    solo.sort(key=lambda pair: (-pair[1], pair[0]))
    solo_rows = [[name, fmt_float(value), rank + 1]
                 for rank, (name, value) in enumerate(solo)]
    path = out_dir / "ebm_solo_importance.csv"
    _write_csv(path, ["feature", "importance", "rank"], solo_rows)
    written.append(path)

    if report.ebm_model is not None:
        shape_rows = [["__intercept__", "", fmt_float(report.ebm_model.intercept)]]
        for spec in report.ebm_model.specs:
            labels = spec.bin_labels()
            for b, score in enumerate(report.ebm_model.shapes[spec.name]):
                shape_rows.append([spec.name, labels[b], fmt_float(score)])
        path = out_dir / "ebm_shapes.csv"
        _write_csv(path, ["feature", "bin", "score"], shape_rows)
        written.append(path)

    for name in sorted(report.crosstabs):
        tab = report.crosstabs[name]
        header = ["bucket"] + [str(c) for c in tab.col_labels]
        rows = [[row] + [tab.percentages[col][row] for col in tab.col_labels]
                for row in tab.row_labels]
        rows.append(["n_users"] + [tab.col_totals[col] for col in tab.col_labels])
        path = out_dir / f"crosstab_{name}.csv"
        _write_csv(path, header, rows)
        written.append(path)
    return written


def emit_charts(report: AuditReport, out_dir: str | Path) -> list[Path]:
    """Write one SVG per scheme.  Chart failures warn instead of aborting."""
    out_dir = Path(out_dir) / "charts"
    out_dir.mkdir(parents=True, exist_ok=True)
    significance = report.config.output.significance
    written = []
    for name in sorted(report.schemes):
        result = report.schemes[name]
        labels = list(result.assignment.labels)
        kw = result.kw.get("ndcg")
        if kw is None:
            annotation = "not testable"
        elif kw.p_value < significance:
            annotation = f"p < {significance:g}"
        else:
            annotation = f"p = {kw.p_value:.3g}"
        try:
            svg = render_scheme_chart(
                scheme=name,
                labels=labels,
                counts=[result.counts.get(lab, 0) for lab in labels],
                means=[result.means["ndcg"].get(lab, 0.0) for lab in labels],
                ses=[result.ses["ndcg"].get(lab, 0.0) for lab in labels],
                ebm_scores=[result.ebm_shape.get(lab, 0.0) for lab in labels]
                if result.ebm_shape else None,
                p_annotation=annotation)
            path = out_dir / f"{name}.svg"
            path.write_text(svg, encoding="utf-8")
            written.append(path)
        except Exception as exc:  # charts are best-effort
            log.warning("chart for %s failed: %s", name, exc)
    return written
