"""Fairness audit pipeline for implicit-feedback recommenders.

Trains a confidence-weighted ALS factorization on interaction data,
evaluates per-user top-n utility under five-fold holdout, and quantifies
how utility varies across demographic and popularity-derived user groups
via Kruskal-Wallis tests and an additive boosting explainer.
"""

from .als import AlsHyperparams, AlsModel, fit, loss
from .config import AuditConfig, load_config
from .evaluation import MetricFrame, make_folds
from .interactions import DatasetStats, InteractionMatrix, UserAttributes, from_triples
from .report import AuditReport, run_audit
from .stats import KwResult, bonferroni, chi2_sf, kruskal_wallis

__version__ = "0.1.0"

__all__ = [
    "AlsHyperparams", "AlsModel", "AuditConfig", "AuditReport", "DatasetStats",
    "InteractionMatrix", "KwResult", "MetricFrame", "UserAttributes",
    "bonferroni", "chi2_sf", "fit", "from_triples", "kruskal_wallis",
    "load_config", "loss", "make_folds", "run_audit",
]
