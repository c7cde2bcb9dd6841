"""Additive boosting explainer (EBM-lite): main-effect shape functions fit
by cyclic gradient boosting over pre-binned features, with bagging.

Each boosting round visits every feature in a fixed order and adds the
learning-rate-scaled per-bin mean residual into that feature's shape
function, which is the exact greedy depth-1 step on binned data.  Several
bagged replicates are fit on seeded bootstrap samples and averaged; the
out-of-bootstrap rows provide the held-back loss for early stopping.
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
        if self._cat_index is None:
            self._cat_index = {c: i for i, c in enumerate(self.categories)}
        return self._cat_index.get(value, self.missing_bin)

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
    binned = np.empty((len(rows), len(specs)), dtype=np.int64)
    for j, spec in enumerate(specs):
        for i, row in enumerate(rows):
            binned[i, j] = spec.bin_of(row.get(spec.name))
    return binned


def _fit_one_bag(binned: np.ndarray, y: np.ndarray, specs: Sequence[FeatureSpec],
                 config: EbmConfig, bag: int) -> tuple[float, list[np.ndarray], list[float]]:
    n = y.shape[0]
    rng = np.random.default_rng(derive_seed(config.seed, "bag", bag))
    boot = rng.integers(0, n, size=n)
    in_bag = binned[boot]
    y_in = y[boot]
    oob_mask = np.ones(n, dtype=bool)
    oob_mask[np.unique(boot)] = False
    oob_rows = np.flatnonzero(oob_mask)
    have_oob = oob_rows.size > 0

    intercept = float(np.mean(y_in))
    shapes = [np.zeros(spec.n_bins) for spec in specs]
    residual = y_in - intercept
    if have_oob:
        oob_binned = binned[oob_rows]
        oob_pred = np.full(oob_rows.size, intercept)
        y_oob = y[oob_rows]

    best_loss = np.inf
    stale = 0
    lr = config.learning_rate
    inbag_losses: list[float] = []
    for _ in range(config.max_rounds):
        for j, spec in enumerate(specs):
            bins = in_bag[:, j]
            sums = np.bincount(bins, weights=residual, minlength=spec.n_bins)
            counts = np.bincount(bins, minlength=spec.n_bins)
            step = np.zeros(spec.n_bins)
            seen = counts > 0
            step[seen] = lr * sums[seen] / counts[seen]
            shapes[j] += step
            residual -= step[bins]
            if have_oob:
                oob_pred += step[oob_binned[:, j]]
        inbag_losses.append(float(np.mean(residual ** 2)))
        held_loss = float(np.mean((y_oob - oob_pred) ** 2)) if have_oob \
            else inbag_losses[-1]
        if held_loss < best_loss - 1e-15:
            best_loss = held_loss
            stale = 0
        else:
            stale += 1
            if stale >= config.patience:
                break
    return intercept, shapes, inbag_losses


def fit_ebm(rows: Sequence[dict], targets: Sequence[float],
            specs: Sequence[FeatureSpec], config: EbmConfig = EbmConfig()) -> EbmModel:
    """Fit the additive model on (feature dict, target) rows.

    Deterministic given (rows, specs, config): bags derive their bootstrap
    RNG from the config seed, run in index order and are averaged in that
    order.
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
    bag_results = [_fit_one_bag(binned, y, specs, config, b)
                   for b in range(config.bags)]

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
