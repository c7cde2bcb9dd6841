"""Per-layer spans recorded from outside the program.

The tracer swaps wrappers onto the module attributes the pipeline calls
through, so no file of the program changes.  Each call records a span with
its parent (the innermost wrapped call still running), wall time and
counts; spans stay in memory and are reduced to per-layer totals once the
verb returns, which ``layer_metric`` turns into the metrics BENCHMARK.json
names.  A layer's self time is its span time minus its child spans.

All wrapped functions are called from the main thread: the pipeline's
thread pools run below them (inside ALS sweeps, fold scoring and EBM bags).
"""

from __future__ import annotations

import functools
import os
import time
from dataclasses import dataclass, field
from typing import Callable, Optional


class TraceError(RuntimeError):
    """A wrapped attribute is gone, or a layer the workload must reach was
    never called."""


@dataclass
class Span:
    layer: str
    parent: Optional[int]
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def wrap(self, layer: str, fn: Callable, pre: Optional[Callable] = None,
             post: Optional[Callable] = None) -> Callable:
        """``fn`` recording a span per call; ``post(result, pre_state, *args)``
        returns the call's counts."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = pre(*args, **kwargs) if pre else None
            span = Span(layer, self._stack[-1] if self._stack else None,
                        time.perf_counter())
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if post:
                span.counts = post(result, state, *args, **kwargs)
            return result
        return wrapper

    def layer_totals(self) -> dict[str, dict]:
        """Per layer: self seconds and summed counts."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.end - span.start
        totals: dict[str, dict] = {}
        for span, inner in zip(self.spans, child_time):
            entry = totals.setdefault(span.layer, {"s": 0.0, "counts": {}})
            entry["s"] += span.end - span.start - inner
            for key, value in span.counts.items():
                entry["counts"][key] = entry["counts"].get(key, 0) + value
        return totals


# ---- counts taken at each boundary -------------------------------------------

def _ingest_counts(raw, _state, *args, **kwargs):
    return {"rows": len(raw.triples), "skipped_rows": raw.skipped_interactions}


def _cold_start_counts(raw, _state, dataset, *args, **kwargs):
    return {"removed_users": raw.skipped_users - dataset.skipped_users}


def _matrix_counts(result, _state, *args, **kwargs):
    return {"nnz": result[0].nnz}


def _popindex_counts(_result, _state, attributes, *args, **kwargs):
    return {"users": sum(1 for a in attributes if a.pop_index is not None)}


def _holdout_pre(plan, *args, **kwargs):
    return sum(len(f.test_users) for f in plan.folds)


def _holdout_counts(plan, before, *args, **kwargs):
    kept = sum(len(f.test_users) for f in plan.folds)
    return {"test_users": kept, "dropped_users": before - kept}


def als_flops(matrix, k: int, iterations: int) -> tuple[int, float]:
    """Row solves and floating-point operations of one ``als.fit``, computed
    from the degrees and k (not counted by hardware).

    Per half-sweep: the Gram matrix of the fixed side (2 n k^2); per
    non-empty row of degree d, the confidence-weighted outer products
    (2 d k^2), the right-hand side (2 d k) and a dense solve (2/3 k^3).
    """
    import numpy as np

    item_degree = np.bincount(matrix.indices, minlength=matrix.n_items)
    user_degree = np.diff(matrix.indptr)
    nonempty = int(np.count_nonzero(user_degree)) + int(np.count_nonzero(item_degree))
    nnz = matrix.nnz
    per_iter = (2 * (2 * nnz * k * k + 2 * nnz * k)
                + nonempty * (2.0 / 3.0) * k ** 3
                + 2 * (matrix.n_users + matrix.n_items) * k * k)
    return nonempty * iterations, per_iter * iterations / 1e9


def _als_counts(_model, _state, matrix, hp, *args, **kwargs):
    solves, gflop = als_flops(matrix, hp.factors, hp.iterations)
    return {"fits": 1, "row_solves": solves, "gflop": gflop}


def _evaluate_counts(rows, _state, model, fold, *args, **kwargs):
    users = len(fold.test_users)
    return {"users": users, "items_scored": users * model.item_factors.shape[0]}


def _stats_counts(result, _state, *args, **kwargs):
    return {"tests": 0 if result is None else 1}


def _ebm_counts(_model, _state, rows, *args, **kwargs):
    return {"fits": 1, "rows": len(rows)}


def _emit_counts(paths, _state, *args, **kwargs):
    return {"files": len(paths), "bytes": sum(os.path.getsize(p) for p in paths)}


def install(tracer: Tracer) -> None:
    """Wrap every pipeline entry point the benchmark attributes time to.

    Raises TraceError if a target attribute no longer exists, so a rename
    in the program cannot silently zero a layer.
    """
    from recaudit import als, cli, ebm, evaluation, popindex, report, stats

    targets = [
        ((report,), "load_lfm", "ingest", None, _ingest_counts),
        ((report, cli), "cold_start_filter", "cold_start", None, _cold_start_counts),
        ((report, cli), "from_triples", "interactions", None, _matrix_counts),
        ((popindex,), "fill_attributes", "popindex", None, _popindex_counts),
        ((evaluation,), "make_folds", "folds", None, None),
        ((evaluation,), "assign_holdouts", "folds", _holdout_pre, _holdout_counts),
        ((evaluation,), "fold_training_matrix", "folds", None, None),
        ((als,), "fit", "als", None, _als_counts),
        ((evaluation,), "evaluate_fold", "evaluate", None, _evaluate_counts),
        ((report,), "rebuild_report", "report", None, None),
        ((report,), "build_assignments", "grouping", None, None),
        ((stats,), "test_grouping", "stats", None, _stats_counts),
        ((ebm,), "fit_ebm", "ebm", None, _ebm_counts),
        ((report,), "emit_tables", "emit", None, _emit_counts),
        ((report,), "emit_charts", "emit", None, _emit_counts),
    ]
    for modules, attr, layer, pre, post in targets:
        original = getattr(modules[0], attr, None)
        if original is None:
            raise TraceError(f"{modules[0].__name__}.{attr} not found")
        wrapped = tracer.wrap(layer, original, pre, post)
        for module in modules:
            if getattr(module, attr, None) is not original:
                raise TraceError(f"{module.__name__}.{attr} is not "
                                 f"{modules[0].__name__}.{attr}")
            setattr(module, attr, wrapped)

    frame_cls = evaluation.MetricFrame
    for attr in ("from_csv", "to_csv"):
        if attr not in vars(frame_cls):
            raise TraceError(f"recaudit.evaluation.MetricFrame.{attr} not found")
    original_from = vars(frame_cls)["from_csv"].__func__
    frame_cls.from_csv = classmethod(tracer.wrap("metrics_csv", original_from))
    frame_cls.to_csv = tracer.wrap("metrics_csv", vars(frame_cls)["to_csv"])


def layer_results(tracer: Tracer, expected_layers, verb_seconds: float) -> dict:
    """Per-layer totals of the recorded spans, and the verb's time outside
    every wrapped call.  An expected layer with no span raises TraceError."""
    totals = tracer.layer_totals()
    missing = sorted(set(expected_layers) - set(totals))
    if missing:
        raise TraceError(f"layers never reached: {', '.join(missing)}")
    unattributed = verb_seconds - sum(
        s.end - s.start for s in tracer.spans if s.parent is None)
    return {"totals": totals, "unattributed_s": unattributed}


def layer_metric(name: str, totals: dict) -> float:
    """The value of per-layer metric ``name`` from the layer totals.

    A name is ``<layer>.<field>``: field ``s`` is the layer's self time,
    ``<count>_per_s`` that count per second of self time, and any other
    field a summed count.  A layer the workload does not reach reads 0; a
    count the layer's boundary does not record raises KeyError.
    """
    layer, field = name.split(".", 1)
    entry = totals.get(layer)
    if entry is None:
        return 0.0
    if field == "s":
        return entry["s"]
    if field.endswith("_per_s"):
        count = entry["counts"][field[:-len("_per_s")]]
        return count / entry["s"] if entry["s"] > 0 else 0.0
    return entry["counts"][field]
