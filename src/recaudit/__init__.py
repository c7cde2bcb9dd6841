"""Fairness audit pipeline for implicit-feedback recommenders.

Trains a confidence-weighted ALS factorization on interaction data,
evaluates per-user top-n utility under five-fold holdout, and quantifies
how utility varies across demographic and popularity-derived user groups
via Kruskal-Wallis tests and an additive boosting explainer.

Each export loads its module on first use, so ``import recaudit`` loads no
numpy and ``recaudit.cli`` can set its BLAS thread defaults before it does.
"""

from importlib import import_module

__version__ = "0.1.0"

# export -> the module that defines it
_MODULE_OF = {name: module for module, names in (
    ("als", "AlsHyperparams AlsModel fit loss"),
    ("config", "AuditConfig load_config"),
    ("evaluation", "MetricFrame make_folds"),
    ("interactions", "DatasetStats InteractionMatrix from_triples"),
    ("report", "AuditReport run_audit"),
    ("stats", "KwResult bonferroni chi2_sf kruskal_wallis")) for name in names.split()}
__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
