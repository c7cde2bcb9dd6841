import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from oracles import from_rows, naive_bin_of
from recaudit import als
from recaudit.interactions import PROFILE_DTYPE, from_triples


@pytest.fixture
def rng():
    return np.random.default_rng(20240915)


def random_matrix(rng, n_users, n_items, density=0.2, max_strength=9):
    """Random interaction matrix with at least one entry per user."""
    triples = []
    for u in range(n_users):
        n_owned = max(1, rng.binomial(n_items, density))
        items = rng.choice(n_items, size=n_owned, replace=False)
        for i in items:
            triples.append((f"u{u}", f"i{i}", int(rng.integers(1, max_strength + 1))))
    # make sure every item index exists so shapes stay n_users x n_items
    for i in range(n_items):
        triples.append((f"u{rng.integers(0, n_users)}", f"i{i}",
                        int(rng.integers(1, max_strength + 1))))
    return from_triples(from_rows(triples))


def blank_profiles(n):
    """A profile table of ``n`` users without a profile, as ``report.load``
    builds it before the pop-index stage: no labels, so code 0 is missing,
    and every value NaN."""
    table = np.recarray(n, PROFILE_DTYPE)
    table.gender = table.country = 0
    table.age = table.usage = table.pop_index = np.nan
    return table


def triple_rows(triples):
    """``Triples`` as a list of (user_id, item_id, strength) tuples."""
    return [(triples.user_ids[u], triples.item_ids[i], s) for u, i, s in
            zip(triples.users.tolist(), triples.items.tolist(),
                triples.strengths.tolist())]


def entries(matrix):
    """Every stored (user, item, strength) of a matrix, row by row."""
    return [(u, int(matrix.indices[k]), float(matrix.data[k]))
            for u in range(matrix.n_users)
            for k in range(int(matrix.indptr[u]), int(matrix.indptr[u + 1]))]


def held_items(matrix, fold):
    """``{test user: held-out item indices}`` of a fold, read through the
    entry positions that ``assign_holdouts`` records."""
    return {u: matrix.indices[fold.held[fold.held_ptr[j]:fold.held_ptr[j + 1]]]
            for j, u in enumerate(fold.test_users)}


def hit_positions(ranked, relevant):
    """1-based positions in ``ranked`` of the items in ``relevant``."""
    return [pos for pos, item in enumerate(ranked, start=1) if item in relevant]


def sweep_side(side, model, matrix):
    """Re-solve every factor row of one side, "users" or "items", in place."""
    hp = model.hyperparams
    if side == "users":
        als._sweep(model.user_factors, model.item_factors, matrix.indptr,
                   matrix.indices, matrix.data, hp.regularization, hp.alpha)
    else:
        als._sweep(model.item_factors, model.user_factors, *als._transpose_csr(matrix),
                   hp.regularization, hp.alpha)


def ebm_predict(model, specs, row):
    """Intercept plus the shape lookup of every feature of one row dict,
    each value binned by the oracle's ``specs``, one per model feature."""
    assert [s.name for s in specs] == [s.name for s in model.specs]
    total = model.intercept
    for spec in specs:
        total += model.shapes[spec.name][naive_bin_of(spec, row.get(spec.name))]
    return float(total)


def shape_at(model, specs, feature, value):
    """The shape value of ``feature`` at one value, binned by the oracle's
    spec of that name among ``specs``."""
    spec = next(s for s in specs if s.name == feature)
    return float(model.shapes[feature][naive_bin_of(spec, value)])


@pytest.fixture
def small_random_matrix(rng):
    return random_matrix(rng, 50, 80)
