"""Traced memory of each stage of an audit, per stored entry of the full
matrix, on a 4000 x 2000 planted set after the LFM360K cold start (users
with 40 or fewer items dropped), partition fold 0, k = 50.

A matrix holds int32 indices and float64 strengths, 12 bytes per entry.
A fold matrix is cut from the full one by a keep mask over its held-out
positions, one byte per entry, and the item-major view holds int32 user
indices and float64 strengths.

Every other stage is bounded by the model ``a * nnz + b * (n_users +
n_items) * k``: ``nnz``, ``n_users`` and ``n_items`` are the full matrix's,
and ``b`` counts the float64 factor rows.  ``report.load`` with the
profiles, the parent's dataset through every fold, is bounded by ``a *
nnz + c * n_users``: ``c`` counts what each user holds beyond the matrix's
entries (its row start, id text and profile table row).  Each ``a``, ``b``
and ``c`` is the value measured when the bound was set plus a margin of
5% or more, rounded up to half a byte.  A change that raises a bound says
so, with the reason.
"""

import tracemalloc

import pytest

from recaudit import als, report
from recaudit.config import AuditConfig, DatasetConfig
from recaudit.evaluation import (SCHEME_PARTITION, assign_holdouts, evaluate_fold,
                                 fold_training_matrix, make_folds)
from recaudit.ingest import LFM_COLD_START_MAX_ITEMS, cold_start_filter, load_lfm
from recaudit.interactions import from_triples
from recaudit.synthetic import generate_planted

K = 50

# stage -> (a, b) bounding its kept bytes, then (a, b) bounding its peak.
# Measured: load (13.3, 0) and (53.2, 0), its peak in from_triples' stable
# sort; assign_holdouts (1.7, 0) and (2.5, 0); als.fit (0.02, 8.0), the
# factors, and (20.0, 8.0), the item-major view as it is built;
# evaluate_fold (0.7, 0), its rows, and (0.2, 0.95), the test users' factor
# rows copied once
MODEL = {
    "load": ((14, 0), (56, 0)),
    "assign_holdouts": ((2, 0), (3, 0)),
    "als.fit": ((0.5, 8.5), (21, 8.5)),
    "evaluate_fold": ((1, 0), (1, 1)),
}

# (a, c) bounding report.load's kept bytes, then (a, c) bounding its peak.
# Measured: (12.0, 111.5), the entries' int32 items and float64 strengths,
# then per user its row start, its id (a 1-4 digit text) and a pointer to
# it, and its 40-byte row of the profile table; and (53.2, 177.3), the peak
# in from_triples' stable sort while the parsed profiles are alive (one
# tuple per distinct profile)
PROFILED_LOAD = ((13, 117.5), (56, 186.5))


def traced(fn):
    """``fn()``, and the bytes it keeps and peaks at, by ``tracemalloc``."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = fn()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        if started:
            tracemalloc.stop()
    return result, kept - before, peak - before


def load(path):
    raw = cold_start_filter(load_lfm(path, None), LFM_COLD_START_MAX_ITEMS)
    matrix, user_ids, _ = from_triples(raw.triples)
    return matrix, user_ids


@pytest.fixture(scope="module")
def planted(tmp_path_factory):
    """The fold's inputs, and each stage's kept and peak bytes."""
    root = tmp_path_factory.mktemp("planted")
    generate_planted(root, n_users=4000, n_items=2000, seed=1)
    traces = {}
    (matrix, user_ids), *traces["load"] = traced(lambda: load(root / "interactions.tsv"))
    assert matrix.n_users < 4000  # the cold start dropped users
    plan = make_folds(range(matrix.n_users), 5, SCHEME_PARTITION, seed=1)
    _, *traces["assign_holdouts"] = traced(lambda: assign_holdouts(plan, matrix, user_ids))
    fold = plan.folds[0]
    train = fold_training_matrix(matrix, fold)
    hp = als.AlsHyperparams(factors=K, iterations=1, seed=1)
    model, *traces["als.fit"] = traced(lambda: als.fit(train, hp, users=fold.test_users))
    rows, *traces["evaluate_fold"] = traced(
        lambda: evaluate_fold(model, fold, matrix, user_ids))
    assert len(rows) == len(fold.test_users)
    config = AuditConfig(dataset=DatasetConfig(
        provenance="synthetic", interactions=str(root / "interactions.tsv"),
        profiles=str(root / "profiles.tsv"), cold_start_min_items=LFM_COLD_START_MAX_ITEMS))
    data, *traces["report.load"] = traced(lambda: report.load(config))
    assert data.matrix.nnz == matrix.nnz and len(data.attributes) == matrix.n_users
    return matrix, fold, traces


def test_fold_matrix_and_item_view_bytes_per_entry(planted):
    matrix, fold, _ = planted
    train, kept, peak = traced(lambda: fold_training_matrix(matrix, fold))
    assert train.nnz == matrix.nnz - fold.held.size
    assert kept <= 12 * matrix.nnz
    assert peak <= 14 * matrix.nnz
    _, kept, peak = traced(lambda: als._transpose_csr(train))
    assert kept <= 12 * matrix.nnz
    assert peak <= 20.5 * matrix.nnz


def test_profiled_load_bytes_within_model(planted):
    matrix, _, traces = planted
    for (a, c), traced_bytes in zip(PROFILED_LOAD, traces["report.load"]):
        assert traced_bytes <= a * matrix.nnz + c * matrix.n_users


@pytest.mark.parametrize("stage", sorted(MODEL))
def test_stage_bytes_within_model(planted, stage):
    matrix, _, traces = planted
    factors = (matrix.n_users + matrix.n_items) * K
    for (a, b), traced_bytes in zip(MODEL[stage], traces[stage]):
        assert traced_bytes <= a * matrix.nnz + b * factors
