"""Traced memory of a fold's matrices, per stored entry of the full matrix,
on a 4000 x 2000 planted set (partition fold 0).

A matrix holds int32 indices and float64 strengths, 12 bytes per entry.
A fold matrix is cut from the full one by a keep mask over its held-out
positions, one byte per entry, and the item-major view holds int32 user
indices and float64 strengths.
"""

import tracemalloc

import pytest

from recaudit import als
from recaudit.evaluation import (SCHEME_PARTITION, assign_holdouts, fold_training_matrix,
                                 make_folds)
from recaudit.ingest import load_lfm
from recaudit.interactions import from_triples
from recaudit.synthetic import generate_planted


@pytest.fixture(scope="module")
def planted(tmp_path_factory):
    root = tmp_path_factory.mktemp("planted")
    generate_planted(root, n_users=4000, n_items=2000, seed=1)
    matrix, user_ids, _ = from_triples(load_lfm(root / "interactions.tsv", None).triples)
    plan = make_folds(range(matrix.n_users), 5, SCHEME_PARTITION, seed=1)
    assign_holdouts(plan, matrix, user_ids)
    return matrix, plan.folds[0]


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


def test_fold_matrix_and_item_view_bytes_per_entry(planted):
    matrix, fold = planted
    train, kept, peak = traced(lambda: fold_training_matrix(matrix, fold))
    assert train.nnz == matrix.nnz - fold.held.size
    assert kept <= 12 * matrix.nnz
    assert peak <= 14 * matrix.nnz
    _, kept, _ = traced(lambda: als._transpose_csr(train))
    assert kept <= 12 * matrix.nnz
