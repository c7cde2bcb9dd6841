"""The degree-blocked ALS half-sweep against the row-by-row oracle.

Every comparison is exact (``np.array_equal``): each row of a block goes
through the same BLAS and LAPACK calls as a lone row, so any difference in
the last bit is a fault.  Run this file under more than one BLAS thread
count as well, because which kernel runs can depend on it.
"""

import numpy as np
import pytest

from oracles import naive_sweep
from recaudit import als
from recaudit.errors import NumericalError

from conftest import random_matrix

FACTORS = [1, 2, 16, 17, 50]
ALPHAS = [1.0, 40.0]
REGS = [1e-6, 0.01, 1.0]


def random_rows(rng, k, n_other):
    """Shuffled CSR rows covering degrees 0, 1, below k, k and above k, each
    degree held by several rows."""
    base = [0, 1, 2, max(1, k - 1), k, k + 1, 2 * k + 3]
    degrees = np.array(base * 5 + rng.integers(0, 2 * k + 6, size=10).tolist())
    rng.shuffle(degrees)
    indptr = np.zeros(degrees.size + 1, dtype=np.int64)
    np.cumsum(degrees, out=indptr[1:])
    indices = np.concatenate([rng.choice(n_other, size=d, replace=False) for d in degrees])
    data = rng.random(indices.size) * 9.0 + 0.5
    return indptr, indices.astype(np.int64), data


@pytest.mark.parametrize("blocks", ["default", "split"])
@pytest.mark.parametrize("reg", REGS)
@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("k", FACTORS)
def test_sweep_matches_row_by_row(monkeypatch, k, alpha, reg, blocks):
    rng = np.random.default_rng([k, int(alpha), int(reg * 1e6), blocks == "split"])
    n_other = 2 * k + 8
    indptr, indices, data = random_rows(rng, k, n_other)
    other = rng.standard_normal((n_other, k)) * 0.3
    start = rng.random((indptr.size - 1, k))
    if blocks == "split":
        monkeypatch.setattr(als, "_BLOCK_ELEMENTS", 3 * k * k)
        degrees = np.diff(indptr)
        # some run of equal degree is cut into more than one block
        assert any(np.count_nonzero(degrees == d) > max(1, 3 * k * k // (k * max(d, k)))
                   for d in np.unique(degrees[degrees > 0]).tolist())

    expected = start.copy()
    naive_sweep(expected, other, indptr, indices, data, reg, alpha)
    got = start.copy()
    als._sweep(got, other, indptr, indices, data, reg, alpha)
    assert np.array_equal(got, expected)
    assert not got[np.diff(indptr) == 0].any()


@pytest.mark.parametrize("blocks", ["default", "split"])
@pytest.mark.parametrize("k", FACTORS)
def test_fit_matches_row_by_row_fit(monkeypatch, k, blocks):
    rng = np.random.default_rng([k, 7])
    m, _, _ = random_matrix(rng, 30, 40, density=0.25)
    if blocks == "split":
        monkeypatch.setattr(als, "_BLOCK_ELEMENTS", 2 * k * k)
    for alpha in ALPHAS:
        for reg in REGS:
            hp = als.AlsHyperparams(factors=k, regularization=reg, iterations=2,
                                    alpha=alpha, seed=k)
            got = als.fit(m, hp)
            with monkeypatch.context() as patched:
                patched.setattr(als, "_sweep", naive_sweep)
                expected = als.fit(m, hp)
            assert np.array_equal(got.user_factors, expected.user_factors)
            assert np.array_equal(got.item_factors, expected.item_factors)


@pytest.mark.parametrize("k", FACTORS)
def test_restricted_sweep_matches_row_by_row(k):
    rng = np.random.default_rng([k, 13])
    n_other = 2 * k + 8
    indptr, indices, data = random_rows(rng, k, n_other)
    other = rng.standard_normal((n_other, k)) * 0.3
    start = rng.random((indptr.size - 1, k))
    # unsorted, with duplicates, across every degree
    rows = rng.choice(start.shape[0], size=start.shape[0] // 2)
    start[np.setdiff1d(np.arange(start.shape[0]), rows)[0]] = np.nan

    expected = start.copy()
    naive_sweep(expected, other, indptr, indices, data, 0.01, 40.0, rows=rows)
    got = start.copy()
    als._sweep(got, other, indptr, indices, data, 0.01, 40.0, rows=rows)
    assert np.array_equal(got, expected, equal_nan=True)
    full = start.copy()
    als._sweep(full, other, indptr, indices, data, 0.01, 40.0)
    assert np.array_equal(got[rows], full[rows])
    unsolved = np.setdiff1d(np.arange(start.shape[0]), rows)
    assert np.array_equal(got[unsolved], start[unsolved], equal_nan=True)


EMPTY_USER = 3
USER_SETS = {
    "empty": [],
    "single": [17],
    "all": list(range(30)),
    "unsorted-duplicates": [21, 4, 29, 4, 0, 21, 11],
    "degree-0": [8, EMPTY_USER],
}


@pytest.mark.parametrize("users", USER_SETS.values(), ids=USER_SETS.keys())
@pytest.mark.parametrize("k", [1, 16, 50])
@pytest.mark.parametrize("iterations", [1, 2, 3])
def test_fit_restricted_to_users_matches_full_fit(monkeypatch, iterations, k, users):
    rng = np.random.default_rng([k, iterations, 5])
    m, _, _ = random_matrix(rng, 30, 40, density=0.25)
    m = m.drop_entries(np.flatnonzero(m.entry_rows() == EMPTY_USER))
    hp = als.AlsHyperparams(factors=k, iterations=iterations, seed=k)
    full = als.fit(m, hp)
    got = als.fit(m, hp, users)
    assert np.isfinite(full.user_factors).all()
    assert np.array_equal(got.item_factors, full.item_factors)
    assert np.array_equal(got.user_factors[users], full.user_factors[users])
    unsolved = np.setdiff1d(np.arange(m.n_users), users)
    assert np.isnan(got.user_factors[unsolved]).all()
    assert not full.user_factors[EMPTY_USER].any()
    with monkeypatch.context() as patched:
        patched.setattr(als, "_sweep", naive_sweep)
        expected = als.fit(m, hp, users)
    assert np.array_equal(got.user_factors, expected.user_factors, equal_nan=True)
    assert np.array_equal(got.item_factors, expected.item_factors)


def sweep_rows(rows):
    """CSR arrays of rows given as lists of (column, strength) pairs."""
    indptr = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum([len(r) for r in rows], out=indptr[1:])
    indices = np.array([c for r in rows for c, _ in r], dtype=np.int64)
    data = np.array([s for r in rows for _, s in r], dtype=np.float64)
    return indptr, indices, data


@pytest.mark.parametrize("rows,singular_row", [
    # rows 2 and 4 share degree 1 with rows that solve
    ([[], [(0, 1.0)], [(1, -1.0)], [(0, 1.0), (2, 1.0)], [(2, -1.0)], [(0, 2.0)]], 2),
    # the only singular row sits in a run of degree 2
    ([[(0, 1.0)], [(1, 3.0)], [(0, 1.0), (2, 1.0)], [(0, -1.0), (1, -1.0)],
      [(1, 1.0), (2, 2.0)]], 3),
])
def test_singular_system_names_its_row(rows, singular_row):
    # reg = 0 and Y = I: a row's matrix is I + sum (c - 1) e_j e_j', which is
    # singular exactly when some observed column has confidence 0
    other = np.eye(3)
    indptr, indices, data = sweep_rows(rows)
    message = f"singular normal equations at row {singular_row}$"
    with pytest.raises(NumericalError, match=message):
        als._sweep(np.zeros((len(rows), 3)), other, indptr, indices, data, 0.0, 1.0)
    with pytest.raises(NumericalError, match=message):
        naive_sweep(np.zeros((len(rows), 3)), other, indptr, indices, data, 0.0, 1.0)
    fixed = data.copy()
    fixed[fixed < 0] = 1.0
    als._sweep(np.zeros((len(rows), 3)), other, indptr, indices, fixed, 0.0, 1.0)


@pytest.mark.parametrize("sweep", [als._sweep, naive_sweep], ids=["batched", "oracle"])
def test_restricted_sweep_names_only_solved_singular_rows(sweep):
    # rows 2 and 4 are singular (confidence 0 on an observed column)
    rows = [[], [(0, 1.0)], [(1, -1.0)], [(0, 1.0), (2, 1.0)], [(2, -1.0)], [(0, 2.0)]]
    other = np.eye(3)
    indptr, indices, data = sweep_rows(rows)
    with pytest.raises(NumericalError, match="singular normal equations at row 4$"):
        sweep(np.zeros((6, 3)), other, indptr, indices, data, 0.0, 1.0, rows=[5, 4, 1])
    this = np.full((6, 3), 7.0)
    this[2] = np.nan  # never solved, so never checked
    sweep(this, other, indptr, indices, data, 0.0, 1.0, rows=[3, 0, 5, 1, 3])
    assert np.isnan(this[2]).all()
    assert (this[4] == 7.0).all()
    assert not this[0].any()
