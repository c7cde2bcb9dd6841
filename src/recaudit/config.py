"""Audit configuration: an INI-style file with sections.

A section is an ``AuditConfig`` field and a key is a field of that
section, which declares the key's type and default.  Any other section
or key, and any value that ``_RULES`` rejects, is a ``ConfigError``.
Every protocol constant has a default, so an empty or minimal file runs
the standard audit (50 factors, 0.01 regularization, 30 iterations,
five folds, 20% holdout, 1000 recommendations per user).  All seeds are
explicit; nothing is ever seeded from the clock.
"""

from __future__ import annotations

import configparser
import hashlib
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Optional, Union, get_args, get_origin, get_type_hints

from .als import AlsHyperparams
from .ebm import EbmConfig
from .errors import ConfigError
from .ingest import PROVENANCE_LFM360K, PROVENANCE_ML1M, PROVENANCES

SCHEME_AUTO = "auto"

ALL_GROUPING_SCHEMES = (
    "age_original",
    "age_equal_range",
    "age_equal_count",
    "gender",
    "country_prevalence",
    "country_gdp",
    "usage",
    "popindex",
    "last_digit",
)


@dataclass(frozen=True)
class DatasetConfig:
    provenance: str = PROVENANCE_LFM360K
    interactions: Optional[str] = None  # LFM-format tsv
    profiles: Optional[str] = None
    ratings: Optional[str] = None  # ML1M-format dat
    users: Optional[str] = None
    gdp_table: Optional[str] = None
    cold_start_min_items: Optional[int] = None  # override of provenance default


@dataclass(frozen=True)
class EvalConfig:
    scheme: str = SCHEME_AUTO  # sample for LFM-style, partition for ML1M
    folds: int = 5
    sample_size: int = 5000
    holdout_fraction: float = 0.2
    depth: int = 1000
    rbp_persistence: float = 0.85
    filter_train: bool = True
    seed: int = 7


@dataclass(frozen=True)
class GroupingConfig:
    age_brackets: tuple[int, ...] = (1, 18, 25, 35, 45, 50, 56)
    age_range_width: int = 15
    age_count_bins: int = 7
    usage_bins: int = 7
    country_buckets: int = 3
    popindex_merge_at: int = 13
    schemes: tuple[str, ...] = (SCHEME_AUTO,)


@dataclass(frozen=True)
class OutputConfig:
    dir: str = "audit-out"  # where outputs go; not hashed
    threads: int = 1  # fold worker processes, capped at the fold count; not hashed
    significance: float = 0.01


@dataclass(frozen=True)
class AuditConfig:
    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    model: AlsHyperparams = field(default_factory=lambda: AlsHyperparams(seed=42))
    evaluation: EvalConfig = field(default_factory=EvalConfig)
    grouping: GroupingConfig = field(default_factory=GroupingConfig)
    ebm: EbmConfig = field(default_factory=lambda: EbmConfig(seed=11))
    output: OutputConfig = field(default_factory=OutputConfig)

    def resolved_fold_scheme(self) -> str:
        if self.evaluation.scheme != SCHEME_AUTO:
            return self.evaluation.scheme
        return "partition" if self.dataset.provenance == PROVENANCE_ML1M else "sample"

    def resolved_schemes(self) -> tuple[str, ...]:
        if self.grouping.schemes != (SCHEME_AUTO,):
            return self.grouping.schemes
        return ALL_GROUPING_SCHEMES

    def config_hash(self) -> str:
        return hashlib.sha256("\n".join(self.canonical_lines()).encode()).hexdigest()

    def canonical_lines(self) -> list[str]:
        """``section.key=value`` for every setting except ``output.dir``
        and ``output.threads``, which do not change the results."""
        lines = []
        for section in fields(self):
            values = getattr(self, section.name)
            for f in fields(values):
                value = getattr(values, f.name)
                if isinstance(value, tuple):
                    value = ",".join(str(v) for v in value)
                if f"{section.name}.{f.name}" not in ("output.dir", "output.threads"):
                    lines.append(f"{section.name}.{f.name}={value}")
        return lines


def _parser(annotation):
    """What parses a raw INI value into a field of this type."""
    if annotation is bool:  # the words configparser's getboolean reads
        return lambda raw: configparser.ConfigParser.BOOLEAN_STATES[raw.lower()]
    if get_origin(annotation) is Union:  # Optional[X]
        return _parser(get_args(annotation)[0])
    if get_origin(annotation) is tuple:  # tuple[X, ...], comma-separated
        part = _parser(get_args(annotation)[0])
        return lambda raw: tuple(part(p.strip()) for p in raw.split(",") if p.strip())
    return annotation


def _at_least(bound: int):
    return (lambda value: value >= bound), f"must be >= {bound}"


_POSITIVE = (lambda value: value > 0), "must be positive"
_OPEN_UNIT = (lambda value: 0.0 < value < 1.0), "must lie in (0, 1)"
_FOLD_SCHEMES = (SCHEME_AUTO, "sample", "partition")
_GROUPING_SCHEMES = (SCHEME_AUTO,) + ALL_GROUPING_SCHEMES

# Every value the audit cannot run, as (section, key): (test, what it must be).
_RULES = {
    ("dataset", "provenance"): (
        (lambda value: value in PROVENANCES), f"must be one of {', '.join(PROVENANCES)}"),
    ("model", "factors"): _POSITIVE,
    ("model", "regularization"): _POSITIVE,
    ("model", "iterations"): _POSITIVE,
    ("model", "alpha"): _POSITIVE,
    # train seeds numpy's generator with it and dumps it as an int64
    ("model", "seed"): ((lambda value: 0 <= value < 2**63), "must lie in [0, 2**63)"),
    ("evaluation", "scheme"): (
        (lambda value: value in _FOLD_SCHEMES), f"must be one of {', '.join(_FOLD_SCHEMES)}"),
    ("evaluation", "folds"): _at_least(2),
    ("evaluation", "sample_size"): _at_least(1),
    ("evaluation", "holdout_fraction"): _OPEN_UNIT,
    ("evaluation", "depth"): _at_least(1),
    ("evaluation", "rbp_persistence"): _OPEN_UNIT,
    ("grouping", "age_brackets"): (bool, "must list at least one bound"),
    ("grouping", "age_range_width"): _at_least(1),
    ("grouping", "age_count_bins"): _at_least(2),
    ("grouping", "usage_bins"): _at_least(2),
    ("grouping", "country_buckets"): _at_least(1),
    ("grouping", "schemes"): ((lambda value: set(value) <= set(_GROUPING_SCHEMES)),
                              f"must each be one of {', '.join(_GROUPING_SCHEMES)}"),
    ("ebm", "learning_rate"): _POSITIVE,
    ("ebm", "max_rounds"): _at_least(1),
    ("ebm", "bags"): _at_least(1),
    ("ebm", "max_bins"): _at_least(2),
    ("output", "threads"): _at_least(1),
    ("output", "significance"): _OPEN_UNIT,
}


def _check(config: AuditConfig, keys=tuple(_RULES)) -> AuditConfig:
    for section, key in keys:
        test, rule = _RULES[section, key]
        value = getattr(getattr(config, section), key)
        if not test(value):
            raise ConfigError(f"[{section}] {key} {rule}, not {value!r}")
    return config


def load_config(path: Optional[str | Path] = None) -> AuditConfig:
    """Load an audit config; a key left out or left empty keeps its default."""
    parser = configparser.ConfigParser()
    base = AuditConfig()
    names = [f.name for f in fields(base)]
    sections = {}
    try:
        if path is not None:
            path = Path(path)
            if not path.exists():
                raise ConfigError(f"config file not found: {path}")
            with open(path, encoding="utf-8") as fh:
                parser.read_file(fh)
        for name in parser.sections() + ([parser.default_section] if parser.defaults() else []):
            if name not in names:
                raise ConfigError(f"unknown section [{name}]; the sections are {', '.join(names)}")
        for name in names:
            types = get_type_hints(type(getattr(base, name)))
            values = {}
            for key, raw in parser.items(name) if parser.has_section(name) else ():
                if key not in types:
                    raise ConfigError(f"[{name}] unknown key {key!r}; "
                                      f"the keys are {', '.join(types)}")
                raw = raw.strip().lower() if key in ("provenance", "scheme") else raw.strip()
                if raw:
                    try:
                        values[key] = _parser(types[key])(raw)
                    except (ValueError, TypeError, KeyError) as exc:
                        raise ConfigError(f"[{name}] {key}: cannot parse {raw!r}") from exc
            sections[name] = replace(getattr(base, name), **values)
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc
    return _check(AuditConfig(**sections))


def apply_overrides(config: AuditConfig, seed: Optional[int] = None,
                    out: Optional[str] = None, threads: Optional[int] = None,
                    dataset_dir: Optional[str] = None) -> AuditConfig:
    """Apply CLI flag overrides on top of a loaded config.

    --seed N re-seeds the three subsystems as N, N+1, N+2; --dataset points
    at a directory holding conventionally named files for the provenance.
    """
    if seed is not None:
        config = replace(
            config,
            model=replace(config.model, seed=seed),
            evaluation=replace(config.evaluation, seed=seed + 1),
            ebm=replace(config.ebm, seed=seed + 2),
        )
    if out is not None:
        config = replace(config, output=replace(config.output, dir=out))
    if threads is not None:
        config = replace(config, output=replace(config.output, threads=threads))
    if dataset_dir is not None:
        root = Path(dataset_dir)
        if config.dataset.provenance == PROVENANCE_ML1M:
            ds = replace(config.dataset, ratings=str(root / "ratings.dat"),
                         users=str(root / "users.dat"))
        elif config.dataset.provenance == PROVENANCE_LFM360K:
            ds = replace(
                config.dataset,
                interactions=str(root / "usersha1-artmbid-artname-plays.tsv"),
                profiles=str(root / "usersha1-profile.tsv"))
        else:
            ds = replace(config.dataset, interactions=str(root / "interactions.tsv"),
                         profiles=str(root / "profiles.tsv"))
        config = replace(config, dataset=ds)
    return _check(config, [("model", "seed"), ("output", "threads")])
