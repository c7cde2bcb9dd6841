"""Confidence-weighted alternating least squares for implicit feedback.

The model factorizes a binary preference matrix (1 where an interaction
exists, 0 elsewhere) under per-pair confidence weights c = 1 + alpha * r,
minimizing

    sum_{u,i} c_ui (p_ui - x_u . y_i)^2 + reg * (sum ||x_u||^2 + sum ||y_i||^2)

Each half-sweep solves the k x k regularized normal equations of every row
(Hu, Koren & Volinsky, ICDM 2008), using the precomputed Gram matrix of the
opposite side plus sparse corrections for the observed entries, so a sweep
costs O(nnz * k^2) instead of touching every user-item pair.  Rows of equal
degree are solved together, a block at a time, by stacked matmuls and one
stacked ``np.linalg.solve``; every slice is the BLAS/LAPACK call the row
would get on its own, so the factors do not depend on how rows are grouped.
A sweep can also be restricted to some rows: ``fit(..., users=...)``
solves only those users in its last user half-sweep, because scoring a
fold reads no other user's factors, and sets the rest to NaN.
There is no worker count here: a thread pool over row solves measured
slower than one thread.  Parallelism is one level up, where ``--threads``
is the number of processes the folds run in, one fit each.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import DataError, NumericalError
from .interactions import InteractionMatrix

INIT_SCALE = 0.01
# rows * k * max(degree, k) per stacked block: big enough to amortise numpy's
# per-call cost, small enough that a block's arrays stay in cache
_BLOCK_ELEMENTS = 16384


@dataclass(frozen=True)
class AlsHyperparams:
    factors: int = 50
    regularization: float = 0.01
    iterations: int = 30
    alpha: float = 1.0
    seed: int = 0

    def validate(self) -> None:
        if self.factors <= 0 or self.iterations <= 0:
            raise ValueError("factors and iterations must be positive")
        if self.regularization <= 0 or self.alpha <= 0:
            raise ValueError("regularization and alpha must be positive")


@dataclass
class AlsModel:
    user_factors: np.ndarray  # n_users x k
    item_factors: np.ndarray  # n_items x k
    hyperparams: AlsHyperparams


def init_factors(n: int, k: int, seed: int) -> np.ndarray:
    """Seeded i.i.d. uniform [0, 0.01) factor matrix."""
    rng = np.random.default_rng(seed)
    return rng.random((n, k)) * INIT_SCALE


def confidence(strength: float, alpha: float) -> float:
    """Confidence weight 1 + alpha * strength of one observation."""
    return 1.0 + alpha * strength


def _transpose_csr(m: InteractionMatrix) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Item-major (indptr, user indices, strengths) view of the matrix."""
    order = np.argsort(m.indices, kind="stable")
    rows = m.user_index_of_entries()[order]
    cols = m.indices[order]
    vals = m.data[order]
    indptr = np.zeros(m.n_items + 1, dtype=np.int64)
    np.cumsum(np.bincount(cols, minlength=m.n_items), out=indptr[1:])
    return indptr, rows, vals


def _sweep(this: np.ndarray, other: np.ndarray, indptr: np.ndarray,
           indices: np.ndarray, data: np.ndarray, reg: float, alpha: float,
           rows: np.ndarray | Sequence[int] | None = None) -> None:
    """Solve the normal equations for every row of ``this`` in place, or
    only for ``rows`` (duplicates allowed) when given; other rows are left
    as they are.

    Rows without entries become zero.  The others are taken in (degree,
    index) order and solved in blocks of rows of one degree d: one gather,
    two stacked matmuls and one stacked solve per block, with no padding,
    so each row goes through the same gemm, gemv and gesv calls as it would
    alone and the factors are bit-identical to a row-by-row solve, whichever
    rows are solved.  A singular system names the first singular row in
    that order, by its index in ``this``.  Only the solved rows are checked
    for finiteness.
    """
    k = other.shape[1]
    gram = other.T @ other + reg * np.eye(k)
    degrees = np.diff(indptr)
    if rows is None:
        order = np.argsort(degrees, kind="stable")
    else:
        rows = np.unique(np.asarray(rows, dtype=np.int64))
        order = rows[np.argsort(degrees[rows], kind="stable")]
    sorted_degrees = degrees[order]
    bounds = np.append(np.flatnonzero(np.diff(sorted_degrees, prepend=-1)), order.size)
    for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
        d = int(sorted_degrees[lo])
        if d == 0:
            this[order[lo:hi]] = 0.0
            continue
        step = max(1, _BLOCK_ELEMENTS // (k * max(d, k)))
        for first in range(lo, hi, step):
            block = order[first:min(first + step, hi)]
            pos = indptr[block][:, None] + np.arange(d)
            m = other[indices[pos]]
            cm1 = alpha * data[pos]
            mt = m.transpose(0, 2, 1)
            a = gram + mt @ (cm1[:, :, None] * m)
            b = mt @ (1.0 + cm1)[:, :, None]
            try:
                this[block] = np.linalg.solve(a, b)[:, :, 0]
            except np.linalg.LinAlgError:
                # only on failure: find which system of the block is singular
                for j in range(block.size):
                    try:
                        np.linalg.solve(a[j], b[j])
                    except np.linalg.LinAlgError as exc:
                        raise NumericalError(
                            f"singular normal equations at row {block[j]}") from exc
                raise
    if not np.isfinite(this if rows is None else this[rows]).all():
        raise NumericalError("non-finite factors after half-sweep")


def half_sweep(side: str, model: AlsModel, interactions: InteractionMatrix) -> AlsModel:
    """One alternation step: re-solve all factor rows on one side.

    ``side`` is "users" or "items".  The opposite side's factors are left
    unchanged; the objective never increases.
    """
    hp = model.hyperparams
    if side == "users":
        _sweep(model.user_factors, model.item_factors, interactions.indptr,
               interactions.indices, interactions.data,
               hp.regularization, hp.alpha)
    elif side == "items":
        indptr, rows, vals = _transpose_csr(interactions)
        _sweep(model.item_factors, model.user_factors, indptr, rows, vals,
               hp.regularization, hp.alpha)
    else:
        raise ValueError(f"unknown side {side!r}")
    return model


def fit(interactions: InteractionMatrix, hyperparams: AlsHyperparams,
        users: np.ndarray | Sequence[int] | None = None) -> AlsModel:
    """Train by alternating item-then-user half-sweeps for the configured
    number of iterations.  Deterministic given the seed.

    With ``users`` (indices, in any order, duplicates allowed) the last
    user half-sweep solves only those rows, and every other user row is
    set to NaN so that it cannot be read by mistake.  The item factors and
    the rows of ``users`` are bit-identical to those of a full fit.
    """
    hyperparams.validate()
    if interactions.nnz == 0:
        raise DataError("cannot fit ALS on an empty interaction matrix")
    k = hyperparams.factors
    item_factors = init_factors(interactions.n_items, k, hyperparams.seed)
    user_factors = init_factors(interactions.n_users, k, hyperparams.seed + 1)
    model = AlsModel(user_factors, item_factors, hyperparams)

    item_view = _transpose_csr(interactions)
    hp = hyperparams
    for iteration in range(hp.iterations):
        last = iteration == hp.iterations - 1
        try:
            _sweep(model.item_factors, model.user_factors, *item_view,
                   hp.regularization, hp.alpha)
            _sweep(model.user_factors, model.item_factors, interactions.indptr,
                   interactions.indices, interactions.data,
                   hp.regularization, hp.alpha, rows=users if last else None)
        except NumericalError as exc:
            raise NumericalError(f"iteration {iteration}: {exc}") from exc
    if users is not None:
        unsolved = np.ones(interactions.n_users, dtype=bool)
        unsolved[np.asarray(users, dtype=np.int64)] = False
        model.user_factors[unsolved] = np.nan
    return model


def loss(model: AlsModel, interactions: InteractionMatrix) -> float:
    """Exact objective over all user-item pairs via the Gram identity.

    The weight-1, preference-0 contribution of every pair is
    sum_u x_u' (Y'Y) x_u; observed pairs are then corrected to their
    confidence-weighted value.  Cost O(nnz * k + (n_users + n_items) * k^2).
    """
    x = model.user_factors
    y = model.item_factors
    hp = model.hyperparams
    gram_y = y.T @ y
    full_term = float(np.sum((x @ gram_y) * x))

    rows = interactions.user_index_of_entries()
    scores = np.sum(x[rows] * y[interactions.indices], axis=1)
    conf = 1.0 + hp.alpha * interactions.data
    obs_correction = float(np.sum(conf * (1.0 - scores) ** 2 - scores ** 2))

    reg_term = hp.regularization * (float(np.sum(x * x)) + float(np.sum(y * y)))
    return full_term + obs_correction + reg_term


def _top_n_full(scores: np.ndarray, n: int) -> np.ndarray:
    """Top-n indices by descending score, ties by ascending index."""
    order = np.lexsort((np.arange(scores.shape[0]), -scores))
    return order[:n]


def recommend(model: AlsModel, user: int, n: int,
              exclude: np.ndarray | set | None = None) -> list[tuple[int, float]]:
    """Ranked top-n (item, score) list for one user.

    Items in ``exclude`` are never returned; if fewer than n items remain,
    all remaining items are returned.  Ties break by ascending item index.
    """
    scores = model.item_factors @ model.user_factors[user]
    available = scores.shape[0]
    if exclude is not None:
        excl = np.fromiter(exclude, dtype=np.int64) if not isinstance(exclude, np.ndarray) \
            else exclude.astype(np.int64, copy=False)
        if excl.size:
            scores = scores.copy()
            scores[excl] = -np.inf
            available -= np.unique(excl).shape[0]
    n = min(n, available)
    if n <= 0:
        return []
    return [(int(i), float(scores[i])) for i in _top_n_full(scores, n)]


def save_model(model: AlsModel, path: str | Path) -> None:
    """Dump factor matrices with a small header (see README for the layout)."""
    hp = model.hyperparams
    np.savez(
        path,
        user_factors=model.user_factors,
        item_factors=model.item_factors,
        header=np.array([model.user_factors.shape[0], model.item_factors.shape[0],
                         hp.factors, hp.seed], dtype=np.int64),
        hyperparams=np.array([hp.regularization, hp.alpha, float(hp.iterations)]),
    )


def load_model(path: str | Path) -> AlsModel:
    with np.load(path) as archive:
        header = archive["header"]
        reg, alpha, iterations = archive["hyperparams"]
        hp = AlsHyperparams(factors=int(header[2]), regularization=float(reg),
                            iterations=int(iterations), alpha=float(alpha),
                            seed=int(header[3]))
        return AlsModel(archive["user_factors"].copy(),
                        archive["item_factors"].copy(), hp)
