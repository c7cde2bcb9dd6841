"""Audit configuration: an INI-style file with sections.

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
from typing import Optional

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
        for section_name, section in (
            ("dataset", self.dataset), ("model", self.model),
            ("evaluation", self.evaluation), ("grouping", self.grouping),
            ("ebm", self.ebm), ("output", self.output),
        ):
            for f in fields(section):
                if section is self.output and f.name in ("dir", "threads"):
                    continue
                value = getattr(section, f.name)
                if isinstance(value, tuple):
                    value = ",".join(str(v) for v in value)
                lines.append(f"{section_name}.{f.name}={value}")
        return lines


def _get(parser: configparser.ConfigParser, section: str, key: str, cast, default):
    if not parser.has_option(section, key):
        return default
    raw = parser.get(section, key).strip()
    if raw == "":
        return default
    try:
        return cast(raw)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"[{section}] {key}: cannot parse {raw!r}") from exc


def _bool(raw: str) -> bool:
    lowered = raw.lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _int_tuple(raw: str) -> tuple[int, ...]:
    return tuple(int(part.strip()) for part in raw.split(",") if part.strip())


def _str_tuple(raw: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in raw.split(",") if part.strip())


def load_config(path: Optional[str | Path] = None) -> AuditConfig:
    """Load an audit config, falling back to protocol defaults everywhere."""
    parser = configparser.ConfigParser()
    if path is not None:
        path = Path(path)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        try:
            with open(path, encoding="utf-8") as fh:
                parser.read_file(fh)
        except configparser.Error as exc:
            raise ConfigError(f"cannot parse config {path}: {exc}") from exc

    base = AuditConfig()
    dataset = DatasetConfig(
        provenance=_get(parser, "dataset", "provenance", str.lower,
                        base.dataset.provenance),
        interactions=_get(parser, "dataset", "interactions", str, None),
        profiles=_get(parser, "dataset", "profiles", str, None),
        ratings=_get(parser, "dataset", "ratings", str, None),
        users=_get(parser, "dataset", "users", str, None),
        gdp_table=_get(parser, "dataset", "gdp_table", str, None),
        cold_start_min_items=_get(parser, "dataset", "cold_start_min_items", int, None),
    )
    if dataset.provenance not in PROVENANCES:
        raise ConfigError(f"unknown provenance {dataset.provenance!r}")

    model = AlsHyperparams(
        factors=_get(parser, "model", "factors", int, 50),
        regularization=_get(parser, "model", "regularization", float, 0.01),
        iterations=_get(parser, "model", "iterations", int, 30),
        alpha=_get(parser, "model", "alpha", float, 1.0),
        seed=_get(parser, "model", "seed", int, 42),
    )
    try:
        model.validate()
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    evaluation = EvalConfig(
        scheme=_get(parser, "evaluation", "scheme", str.lower, SCHEME_AUTO),
        folds=_get(parser, "evaluation", "folds", int, 5),
        sample_size=_get(parser, "evaluation", "sample_size", int, 5000),
        holdout_fraction=_get(parser, "evaluation", "holdout_fraction", float, 0.2),
        depth=_get(parser, "evaluation", "depth", int, 1000),
        rbp_persistence=_get(parser, "evaluation", "rbp_persistence", float, 0.85),
        filter_train=_get(parser, "evaluation", "filter_train", _bool, True),
        seed=_get(parser, "evaluation", "seed", int, 7),
    )
    if evaluation.scheme not in (SCHEME_AUTO, "sample", "partition"):
        raise ConfigError(f"unknown fold scheme {evaluation.scheme!r}")
    if not 0.0 < evaluation.holdout_fraction < 1.0:
        raise ConfigError("holdout_fraction must lie in (0, 1)")
    if not 0.0 < evaluation.rbp_persistence < 1.0:
        raise ConfigError("rbp_persistence must lie in (0, 1)")
    if evaluation.depth < 1:
        raise ConfigError("depth must be >= 1")
    if evaluation.folds < 2:
        raise ConfigError("need at least 2 folds")

    grouping = GroupingConfig(
        age_brackets=_get(parser, "grouping", "age_brackets", _int_tuple,
                          base.grouping.age_brackets),
        age_range_width=_get(parser, "grouping", "age_range_width", int, 15),
        age_count_bins=_get(parser, "grouping", "age_count_bins", int, 7),
        usage_bins=_get(parser, "grouping", "usage_bins", int, 7),
        country_buckets=_get(parser, "grouping", "country_buckets", int, 3),
        popindex_merge_at=_get(parser, "grouping", "popindex_merge_at", int, 13),
        schemes=_get(parser, "grouping", "schemes", _str_tuple, (SCHEME_AUTO,)),
    )
    for scheme in grouping.schemes:
        if scheme != SCHEME_AUTO and scheme not in ALL_GROUPING_SCHEMES:
            raise ConfigError(f"unknown grouping scheme {scheme!r}")
    if not grouping.age_brackets:
        raise ConfigError("[grouping] age_brackets must list at least one bound")
    for key, minimum in (("age_range_width", 1), ("age_count_bins", 2),
                         ("usage_bins", 2), ("country_buckets", 1)):
        if getattr(grouping, key) < minimum:
            raise ConfigError(f"[grouping] {key} must be >= {minimum}")

    ebm_config = EbmConfig(
        learning_rate=_get(parser, "ebm", "learning_rate", float, 0.01),
        max_rounds=_get(parser, "ebm", "max_rounds", int, 1000),
        bags=_get(parser, "ebm", "bags", int, 8),
        patience=_get(parser, "ebm", "patience", int, 50),
        max_bins=_get(parser, "ebm", "max_bins", int, 64),
        seed=_get(parser, "ebm", "seed", int, 11),
    )
    if ebm_config.learning_rate <= 0 or ebm_config.bags < 1:
        raise ConfigError("ebm learning_rate must be positive and bags >= 1")

    output = OutputConfig(
        dir=_get(parser, "output", "dir", str, "audit-out"),
        threads=_get(parser, "output", "threads", int, 1),
        significance=_get(parser, "output", "significance", float, 0.01),
    )
    if output.threads < 1:
        raise ConfigError("threads must be >= 1")

    return AuditConfig(dataset=dataset, model=model, evaluation=evaluation,
                       grouping=grouping, ebm=ebm_config, output=output)


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
        if threads < 1:
            raise ConfigError("threads must be >= 1")
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
    return config
