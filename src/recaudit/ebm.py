"""Additive boosting explainer (EBM-lite): main-effect shape functions fit
by cyclic gradient boosting over pre-binned features, with bagging.

Each boosting round visits every feature in a fixed order and adds the
learning-rate-scaled per-bin mean residual into that feature's shape
function, which is the exact greedy depth-1 step on binned data.  Several
bagged replicates are fit on seeded bootstrap samples and averaged; the
out-of-bootstrap rows provide the held-back loss for early stopping.
The bags are boosted together as one batch, one bincount per feature per
round for all of them; a bag that stops early leaves the batch, and the
result is float for float that of fitting the bags one by one.  Features
are binned a column at a time.
Shapes are centered to be mass-weighted mean-zero, with the offset folded
into the intercept, so prediction = intercept + sum of shape lookups.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import NumericalError
from .util import derive_seed

log = logging.getLogger(__name__)

KIND_NUMERIC = "numeric"
KIND_CATEGORICAL = "categorical"

MISSING = None  # sentinel in feature rows


@dataclass
class FeatureSpec:
    """Binning recipe for one feature.

    Numeric features use strictly increasing interior edges; categorical
    ones enumerate their categories.  The last bin is always the missing
    bin, which also absorbs categories unseen at fit time.
    """

    name: str
    kind: str
    bin_edges: Optional[np.ndarray] = None  # numeric
    categories: Optional[list] = None  # categorical
    _cat_index: Optional[dict] = field(default=None, repr=False)

    @property
    def n_bins(self) -> int:
        if self.kind == KIND_NUMERIC:
            return len(self.bin_edges) + 2  # interior edges + missing bin
        return len(self.categories) + 1

    @property
    def missing_bin(self) -> int:
        return self.n_bins - 1

    def bin_of(self, value) -> int:
        if value is None:
            return self.missing_bin
        if self.kind == KIND_NUMERIC:
            v = float(value)
            if np.isnan(v):
                return self.missing_bin
            return int(np.searchsorted(self.bin_edges, v, side="left"))
        return self._category_index().get(value, self.missing_bin)

    def bin_column(self, values: Sequence) -> np.ndarray:
        """``bin_of`` of every value, one searchsorted or dict pass per column."""
        missing = self.missing_bin
        if self.kind == KIND_NUMERIC:
            v = np.fromiter((np.nan if x is None else float(x) for x in values),
                            dtype=np.float64, count=len(values))
            bins = np.searchsorted(self.bin_edges, v, side="left")
            bins[np.isnan(v)] = missing
            return bins
        index = self._category_index()
        return np.fromiter((missing if x is None else index.get(x, missing)
                            for x in values), dtype=np.int64, count=len(values))

    def _category_index(self) -> dict:
        if self._cat_index is None:
            self._cat_index = {c: i for i, c in enumerate(self.categories)}
        return self._cat_index

    def bin_labels(self) -> list[str]:
        if self.kind == KIND_CATEGORICAL:
            return [str(c) for c in self.categories] + ["missing"]
        edges = [f"{e:g}" for e in self.bin_edges]
        labels = []
        prev = "-inf"
        for e in edges:
            labels.append(f"({prev}, {e}]")
            prev = e
        labels.append(f"({prev}, inf)")
        labels.append("missing")
        return labels


def bin_numeric(name: str, values: Sequence, max_bins: int = 64) -> FeatureSpec:
    """Quantile-based interior edges over the non-missing values.

    Duplicate edges collapse, so constant data yields a single regular bin.
    All-missing data keeps just the missing bin, with a warning.
    """
    if max_bins < 2:
        raise ValueError("max_bins must be >= 2")
    present = np.array([float(v) for v in values if v is not None and not
                        (isinstance(v, float) and np.isnan(v))])
    if present.size == 0:
        log.warning("feature %s has no non-missing values", name)
        return FeatureSpec(name=name, kind=KIND_NUMERIC, bin_edges=np.empty(0))
    qs = np.arange(1, max_bins) / max_bins
    edges = np.unique(np.quantile(present, qs))
    # an edge at the maximum would leave the top bin empty
    edges = edges[edges < present.max()]
    return FeatureSpec(name=name, kind=KIND_NUMERIC, bin_edges=edges)


def categorical_spec(name: str, values: Sequence) -> FeatureSpec:
    cats = sorted({v for v in values if v is not None}, key=str)
    return FeatureSpec(name=name, kind=KIND_CATEGORICAL, categories=cats)


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
    bin_mass: dict[str, np.ndarray]  # training-row counts per bin
    specs: list[FeatureSpec]
    config: EbmConfig

    def shape_value(self, feature: str, value) -> float:
        spec = next(s for s in self.specs if s.name == feature)
        return float(self.shapes[feature][spec.bin_of(value)])


def _bin_matrix(rows: Sequence[dict], specs: Sequence[FeatureSpec]) -> np.ndarray:
    """The (rows, features) bin of every cell, binned one column at a time."""
    binned = np.empty((len(rows), len(specs)), dtype=np.int64)
    for j, spec in enumerate(specs):
        binned[:, j] = spec.bin_column([row.get(spec.name) for row in rows])
    return binned


def _fit_one_bag(binned: np.ndarray, y: np.ndarray, specs: Sequence[FeatureSpec],
                 config: EbmConfig, bag: int) -> tuple[float, list[np.ndarray], list[float]]:
    return _fit_bags(binned, y, specs, config, [bag])[0]


def _fit_bags(binned: np.ndarray, y: np.ndarray, specs: Sequence[FeatureSpec],
              config: EbmConfig, bags: Sequence[int]
              ) -> list[tuple[float, list[np.ndarray], list[float]]]:
    """Boost the given bags as one batch: (intercept, shapes, in-bag losses)
    per bag, in order.

    Every bootstrap has exactly n rows, so the in-bag state is a (bags, n)
    residual array, and one bincount over the keys position * n_bins + bin
    gives every bag's per-bin sums.  Bincount adds in row order within each key,
    and both losses are per-bag means over contiguous rows (pairwise sums,
    as for one bag alone), so every float equals that of boosting the bag
    by itself.  A bag that stops early leaves the batch.
    """
    n = y.shape[0]
    lr = config.learning_rate
    n_bins = [spec.n_bins for spec in specs]
    intercepts, residual, keys, oob_pos, y_oob, oob_keys = _bootstraps(
        binned, y, n_bins, config.seed, bags)
    oob_pred = np.array(intercepts)[oob_pos]
    shapes = [np.zeros((len(bags), nb)) for nb in n_bins]

    ids = np.arange(len(bags))  # the bag at each batch position
    history: list[list[float]] = [[] for _ in bags]
    best = np.full(len(bags), np.inf)
    stale = np.zeros(len(bags), dtype=np.int64)
    results: list = [None] * len(bags)

    def finish(p: int) -> None:
        bag = ids[p]
        results[bag] = (intercepts[bag], [shape[p].copy() for shape in shapes], history[p])

    batch_changed = True
    for _ in range(config.max_rounds):
        if batch_changed:
            k = ids.size
            # an empty bin's sum is exactly 0.0, so dividing it by 1 keeps its step 0.0
            divisors = [np.maximum(np.bincount(key, minlength=k * nb), 1).astype(np.float64)
                        for key, nb in zip(keys, n_bins)]
            bounds = np.searchsorted(oob_pos, np.arange(k + 1)).tolist()
            flat = residual.reshape(-1)
            flat_shapes = [shape.reshape(-1) for shape in shapes]
            batch_changed = False
        for j, nb in enumerate(n_bins):
            sums = np.bincount(keys[j], weights=flat, minlength=k * nb)
            step = lr * sums / divisors[j]
            flat_shapes[j] += step
            flat -= step[keys[j]]
            oob_pred += step[oob_keys[j]]
        # np.mean's pairwise sum and division per bag; a reduceat would sum
        # sequentially, move last ulps and could flip the 1e-15 stop test
        losses = (np.add.reduce(residual ** 2, axis=1) / n).tolist()
        sq = (y_oob - oob_pred) ** 2
        held = np.array([float(np.add.reduce(sq[lo:hi])) / (hi - lo) if hi > lo
                         else loss for lo, hi, loss in zip(bounds, bounds[1:], losses)])
        for past, loss in zip(history, losses):
            past.append(loss)
        improved = held < best - 1e-15
        best = np.where(improved, held, best)
        stale = np.where(improved, 0, stale + 1)
        stop = ~improved & (stale >= config.patience)
        if stop.any():
            for p in np.flatnonzero(stop):
                finish(p)
            keep = ~stop
            if not keep.any():
                return results
            position = np.cumsum(keep) - 1
            in_kept = keep[oob_pos]
            oob_pos = position[oob_pos[in_kept]]
            y_oob, oob_pred = y_oob[in_kept], oob_pred[in_kept]
            # key % n_bins is the bin: re-key the kept bags by their new positions
            keys = [(key.reshape(k, n)[keep] % nb + position[keep][:, None] * nb).ravel()
                    for key, nb in zip(keys, n_bins)]
            oob_keys = [key[in_kept] % nb + oob_pos * nb for key, nb in zip(oob_keys, n_bins)]
            residual = residual[keep]
            shapes = [shape[keep] for shape in shapes]
            history = [past for past, kept in zip(history, keep) if kept]
            ids, best, stale = ids[keep], best[keep], stale[keep]
            batch_changed = True
    for p in range(ids.size):
        finish(p)
    return results


def _bootstraps(binned: np.ndarray, y: np.ndarray, n_bins: list[int], seed: int,
                bags: Sequence[int]):
    """Each bag's seeded bootstrap as batch state: intercepts, the (bags, n)
    residual, and per feature the bin keys position * n_bins + bin of the
    in-bag rows and of the out-of-bag rows (all bags' out-of-bag rows,
    concatenated in bag order, with their batch positions and targets)."""
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
    oob_pos = np.repeat(np.arange(len(bags)), [rows.size for rows in oobs])
    oob_keys = [oob_pos * nb + binned[oob_rows, j] for j, nb in enumerate(n_bins)]
    return intercepts, residual, keys, oob_pos, y[oob_rows], oob_keys


def fit_ebm(rows: Sequence[dict], targets: Sequence[float],
            specs: Sequence[FeatureSpec], config: EbmConfig = EbmConfig()) -> EbmModel:
    """Fit the additive model on (feature dict, target) rows.

    Deterministic given (rows, specs, config): bags derive their bootstrap
    RNG from the config seed, are boosted together and are averaged in
    index order.
    """
    if len(rows) != len(targets):
        raise ValueError("rows and targets must have equal length")
    if len(rows) < 10:
        raise ValueError("fit_ebm needs at least 10 rows")
    if not specs:
        raise ValueError("fit_ebm needs at least one feature")
    y = np.asarray(targets, dtype=np.float64)
    bad = np.flatnonzero(~np.isfinite(y))
    if bad.size:
        raise NumericalError(f"non-finite target at row {int(bad[0])}")

    binned = _bin_matrix(rows, specs)
    bag_results = _fit_bags(binned, y, specs, config, range(config.bags))

    intercept = sum(res[0] for res in bag_results) / config.bags
    shapes: dict[str, np.ndarray] = {}
    bin_mass: dict[str, np.ndarray] = {}
    for j, spec in enumerate(specs):
        avg = np.zeros(spec.n_bins)
        for _, bag_shapes, _ in bag_results:
            avg += bag_shapes[j]
        avg /= config.bags
        mass = np.bincount(binned[:, j], minlength=spec.n_bins).astype(np.float64)
        offset = float(np.dot(mass, avg) / mass.sum())
        avg -= offset
        intercept += offset
        shapes[spec.name] = avg
        bin_mass[spec.name] = mass
    return EbmModel(intercept=intercept, shapes=shapes, bin_mass=bin_mass,
                    specs=list(specs), config=config)


def predict(model: EbmModel, row: dict) -> float:
    """Intercept plus the shape lookup of every feature."""
    total = model.intercept
    for spec in model.specs:
        total += model.shapes[spec.name][spec.bin_of(row.get(spec.name))]
    return float(total)


def predict_batch(model: EbmModel, rows: Sequence[dict]) -> np.ndarray:
    binned = _bin_matrix(rows, model.specs)
    out = np.full(len(rows), model.intercept)
    for j, spec in enumerate(model.specs):
        out += model.shapes[spec.name][binned[:, j]]
    return out


def importance(model: EbmModel, rows: Sequence[dict]) -> list[tuple[str, float]]:
    """Mean absolute shape contribution per feature over the given rows,
    sorted descending (ties by feature name)."""
    binned = _bin_matrix(rows, model.specs)
    scores = []
    for j, spec in enumerate(model.specs):
        contrib = model.shapes[spec.name][binned[:, j]]
        scores.append((spec.name, float(np.mean(np.abs(contrib)))))
    scores.sort(key=lambda pair: (-pair[1], pair[0]))
    return scores
