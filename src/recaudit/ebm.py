"""Additive boosting explainer (EBM-lite): main-effect shape functions fit
by cyclic gradient boosting over pre-binned features, with bagging.

Each boosting round visits every feature in a fixed order and adds the
learning-rate-scaled per-bin mean residual into that feature's shape
function, which is the exact greedy depth-1 step on binned data.  Several
bagged replicates are fit on seeded bootstrap samples and averaged; the
out-of-bootstrap rows provide the held-back loss for early stopping.
The bags are boosted together as one batch, one bincount per feature per
round for all of them.  Each bag keeps its keys b * n_bins + bin for the
whole fit; a bag that stops early has its rows dropped, and the result is
float for float that of fitting the bags one by one.  Shapes are
centered to be mass-weighted mean-zero, with the offset folded into the
intercept, so prediction = intercept + sum of shape lookups.

A fit takes the (rows, features) bin matrix and one ``FeatureSpec``, a name
and bin labels, per column.  ``bin_numeric`` bins a numeric column at
quantile edges and ``bin_categorical`` a coded one by its labels; each
returns the spec and the bins, and keeps its edges or categories to itself.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import NumericalError
from .util import derive_seed, distinct_sorted

log = logging.getLogger(__name__)


@dataclass
class FeatureSpec:
    """One binned feature: bin b is named ``labels[b]``, and the last bin,
    ``missing``, holds the missing values."""

    name: str
    labels: list[str]

    @property
    def n_bins(self) -> int:
        return len(self.labels)


def bin_numeric(name: str, values: Sequence[float],
                max_bins: int = 64) -> tuple[FeatureSpec, np.ndarray]:
    """The spec and the bin of every value of a numeric column (NaN where
    missing), at quantile edges over the non-missing values.  Duplicate edges
    collapse, so constant or all-missing data (which warns) gets one bin."""
    if max_bins < 2:
        raise ValueError("max_bins must be >= 2")
    values = np.asarray(values, dtype=np.float64)
    missing = np.isnan(values)
    present = values[~missing]
    if present.size == 0:
        log.warning("feature %s has no non-missing values", name)
        edges = np.empty(0)
    else:
        # np.quantile's linear rule, step for step, on one sorted copy
        ordered = np.sort(present)
        at = (ordered.size - 1) * (np.arange(1, max_bins) / max_bins)
        lo = at.astype(np.intp)  # at >= 0, so this is its floor
        t = at - lo
        a, b = ordered[lo], ordered[np.minimum(lo + 1, ordered.size - 1)]
        edges = a + (b - a) * t
        np.subtract(b, (b - a) * (1 - t), out=edges, where=t >= 0.5)
        edges = distinct_sorted(edges)
        # an edge at the maximum would leave the top bin empty; a NaN edge
        # (interpolated between infinities) fails the test too.  The sort
        # leaves tied -0.0 and 0.0 in either order: + 0.0 labels an edge at
        # zero "0" whichever of the two it took
        edges = edges[edges < ordered[-1]] + 0.0
    bins = np.searchsorted(edges, values, side="left")
    bins[missing] = len(edges) + 1
    cuts = ["-inf"] + [f"{e:g}" for e in edges]
    labels = [f"({lo}, {hi}]" for lo, hi in zip(cuts, cuts[1:])]
    return FeatureSpec(name, labels + [f"({cuts[-1]}, inf)", "missing"]), bins


def bin_categorical(name: str, codes: np.ndarray,
                    labels: Sequence[str]) -> tuple[FeatureSpec, np.ndarray]:
    """The spec and the bin of every code of a categorical column: one bin
    per label that ``codes`` use, sorted, and a code past ``labels`` is
    missing (the ``GroupAssignment`` form, N/A last)."""
    used = np.flatnonzero(np.bincount(codes))
    categories = sorted(labels[code] for code in used[used < len(labels)].tolist())
    index = {category: b for b, category in enumerate(categories)}
    lookup = np.array([index.get(label, len(categories)) for label in labels]
                      + [len(categories)])
    return FeatureSpec(name, categories + ["missing"]), lookup.take(codes, mode="clip")


@dataclass(frozen=True)
class EbmConfig:
    learning_rate: float = 0.01
    max_rounds: int = 1000
    bags: int = 8
    patience: int = 50
    max_bins: int = 64
    seed: int = 0


@dataclass
class EbmModel:
    intercept: float
    shapes: dict[str, np.ndarray]  # per feature, indexed by bin
    specs: list[FeatureSpec]


def _fit_bags(binned: np.ndarray, y: np.ndarray, specs: Sequence[FeatureSpec],
              config: EbmConfig, bags: Sequence[int]
              ) -> list[tuple[float, list[np.ndarray], list[float]]]:
    """Boost the given bags as one batch: (intercept, shapes, in-bag losses)
    per bag, in order.

    Every bootstrap has exactly n rows, so the in-bag state is a (bags, n)
    residual array, and one bincount over the keys b * n_bins + bin, b the
    bag's index in the batch, gives every bag's per-bin sums.  Bincount adds
    in row order within each key, and both losses are per-bag means over
    contiguous rows (pairwise sums, as for one bag alone), so every float
    equals that of boosting the bag by itself.  The keys never change: a bag
    that stops early has its in-bag and out-of-bag rows dropped, so its bins
    sum to 0.0 and its shape stays as it was.
    """
    n = y.shape[0]
    lr = config.learning_rate
    n_bins = [spec.n_bins for spec in specs]
    intercepts, residual, keys, oob_bag, y_oob, oob_keys = _bootstraps(
        binned, y, n_bins, config.seed, bags)
    oob_pred = np.array(intercepts)[oob_bag]
    shapes = [np.zeros((len(bags), nb)) for nb in n_bins]
    flat_shapes = [shape.reshape(-1) for shape in shapes]
    # an empty bin's sum is exactly 0.0, so dividing it by 1 keeps its step 0.0
    divisors = [np.maximum(np.bincount(key, minlength=shape.size), 1).astype(np.float64)
                for key, shape in zip(keys, flat_shapes)]

    live = np.arange(len(bags))  # the boosting bags, one residual row each
    history: list[list[float]] = [[] for _ in bags]
    best, stale = np.full(len(bags), np.inf), np.zeros(len(bags), dtype=np.int64)
    bounds = np.searchsorted(oob_bag, np.arange(len(bags) + 1)).tolist()
    for _ in range(config.max_rounds):
        flat = residual.reshape(-1)
        for j, flat_shape in enumerate(flat_shapes):
            sums = np.bincount(keys[j], weights=flat, minlength=flat_shape.size)
            step = lr * sums / divisors[j]
            flat_shape += step
            flat -= step[keys[j]]
            oob_pred += step[oob_keys[j]]
        # np.mean's pairwise sum and division per bag; a reduceat would sum
        # sequentially, move last ulps and could flip the 1e-15 stop test
        losses = (np.add.reduce(residual ** 2, axis=1) / n).tolist()
        sq = (y_oob - oob_pred) ** 2
        held = np.array([float(np.add.reduce(sq[lo:hi])) / (hi - lo) if hi > lo
                         else loss for lo, hi, loss in zip(bounds, bounds[1:], losses)])
        for bag, loss in zip(live.tolist(), losses):
            history[bag].append(loss)
        improved = held < best - 1e-15
        best = np.where(improved, held, best)
        stale = np.where(improved, 0, stale + 1)
        keep = improved | (stale < config.patience)
        if not keep.all():
            live = live[keep]
            if not live.size:
                break
            in_kept = np.isin(oob_bag, live)
            residual = residual[keep]
            keys = [key.reshape(-1, n)[keep].ravel() for key in keys]
            oob_bag, y_oob, oob_pred = oob_bag[in_kept], y_oob[in_kept], oob_pred[in_kept]
            oob_keys = [key[in_kept] for key in oob_keys]
            best, stale = best[keep], stale[keep]
            # the live bags' out-of-bag rows stay contiguous, in bag order
            bounds = np.searchsorted(oob_bag, np.append(live, len(bags))).tolist()
    return [(intercepts[b], [shape[b] for shape in shapes], history[b])
            for b in range(len(bags))]


def _bootstraps(binned: np.ndarray, y: np.ndarray, n_bins: list[int], seed: int,
                bags: Sequence[int]):
    """Each bag's seeded bootstrap as batch state: intercepts, the (bags, n)
    residual, and per feature the bin keys b * n_bins + bin of the in-bag
    rows and of the out-of-bag rows (all bags' out-of-bag rows, concatenated
    in bag order, with their bag indices b and targets)."""
    n = y.shape[0]
    boots, oobs = [], []
    for bag in bags:
        rng = np.random.default_rng(derive_seed(seed, "bag", bag))
        boot = rng.integers(0, n, size=n)
        oob_mask = np.ones(n, dtype=bool)
        oob_mask[boot] = False
        boots.append(boot)
        oobs.append(np.flatnonzero(oob_mask))
    intercepts = [float(np.mean(y[boot])) for boot in boots]
    boot = np.stack(boots)
    residual = y[boot] - np.array(intercepts)[:, None]
    keys = [(binned[:, j][boot] + np.arange(len(bags))[:, None] * nb).ravel()
            for j, nb in enumerate(n_bins)]
    oob_rows = np.concatenate(oobs)
    oob_bag = np.repeat(np.arange(len(bags)), [rows.size for rows in oobs])
    oob_keys = [oob_bag * nb + binned[oob_rows, j] for j, nb in enumerate(n_bins)]
    return intercepts, residual, keys, oob_bag, y[oob_rows], oob_keys


def fit_ebm(binned: np.ndarray, targets: Sequence[float],
            specs: Sequence[FeatureSpec], config: EbmConfig = EbmConfig()) -> EbmModel:
    """Fit the additive model on a (rows, features) bin matrix, column j
    binned by ``specs[j]``, and one target per row.

    Deterministic given its arguments: bags derive their bootstrap RNG from
    the config seed, are boosted together and are averaged in index order.
    """
    if len(binned) != len(targets):
        raise ValueError("rows and targets must have equal length")
    if len(binned) < 10:
        raise ValueError("fit_ebm needs at least 10 rows")
    if not specs:
        raise ValueError("fit_ebm needs at least one feature")
    y = np.asarray(targets, dtype=np.float64)
    bad = np.flatnonzero(~np.isfinite(y))
    if bad.size:
        raise NumericalError(f"non-finite target at row {int(bad[0])}")

    bag_results = _fit_bags(binned, y, specs, config, range(config.bags))

    intercept = sum(res[0] for res in bag_results) / config.bags
    shapes: dict[str, np.ndarray] = {}
    for j, spec in enumerate(specs):
        avg = np.zeros(spec.n_bins)
        for _, bag_shapes, _ in bag_results:
            avg += bag_shapes[j]
        avg /= config.bags
        mass = np.bincount(binned[:, j], minlength=spec.n_bins).astype(np.float64)
        offset = float((mass * avg).sum() / mass.sum())
        avg -= offset
        intercept += offset
        shapes[spec.name] = avg
    return EbmModel(intercept=intercept, shapes=shapes, specs=list(specs))


def importance(model: EbmModel, binned: np.ndarray) -> list[tuple[str, float]]:
    """Mean absolute shape contribution per feature over the rows of the
    bin matrix, sorted descending (ties by feature name)."""
    scores = []
    for j, spec in enumerate(model.specs):
        contrib = model.shapes[spec.name][binned[:, j]]
        scores.append((spec.name, float(np.mean(np.abs(contrib)))))
    scores.sort(key=lambda pair: (-pair[1], pair[0]))
    return scores
