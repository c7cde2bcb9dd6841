"""Parsers for the LFM360K and ML1M file formats, the GDP side table, and
the cold-start filter.

Malformed rows are skipped and counted, never fatal: all downstream
statistics are computed on the cleaned data.  Only an unreadable stream
aborts ingestion.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional

import numpy as np

from .errors import DataError
from .interactions import (GENDER_FEMALE, GENDER_MALE, GENDER_NA, Triples,
                           UserAttributes)

log = logging.getLogger(__name__)

PROVENANCE_LFM360K = "lfm360k"
PROVENANCE_ML1M = "ml1m"
PROVENANCE_SYNTHETIC = "synthetic"
PROVENANCES = (PROVENANCE_LFM360K, PROVENANCE_ML1M, PROVENANCE_SYNTHETIC)

# ages outside this window are treated as missing
AGE_MIN, AGE_MAX = 1, 120

# LFM360K cold-start rule: drop users with <= 40 distinct items
LFM_COLD_START_MAX_ITEMS = 40


@dataclass
class RawDataset:
    """Parsed rows plus user attributes, before matrix construction."""

    triples: Triples
    attributes: list[UserAttributes]
    provenance: str
    skipped_interactions: int = 0
    skipped_users: int = 0


@dataclass
class GdpTable:
    """country name -> GDP per capita, matched case-insensitively."""

    values: dict[str, float] = field(default_factory=dict)
    _folded: dict[str, float] = field(default_factory=dict, repr=False)

    def add(self, country: str, gdp: float) -> None:
        self.values[country] = gdp
        self._folded[country.casefold()] = gdp

    def lookup(self, country: Optional[str]) -> Optional[float]:
        if country is None:
            return None
        return self._folded.get(country.casefold())

    def __len__(self) -> int:
        return len(self.values)


def _iter_lines(stream: Iterable[str], what: str):
    """Enumerate lines without line endings; a decode failure raises DataError."""
    lineno = 0
    try:
        for lineno, line in enumerate(stream, 1):
            yield lineno, line.rstrip("\n").rstrip("\r")
    except (UnicodeDecodeError, OSError) as exc:
        raise DataError(f"{what}: unreadable input at line {lineno + 1}: {exc}") from exc


def parse_lfm_interactions(stream: Iterable[str]) -> tuple[Triples, int]:
    """Parse LFM360K play records: user-sha1 \\t artist-mbid \\t artist-name \\t plays.

    Rows with a wrong field count, an empty user, no artist identity, or a
    non-positive-integer play count are skipped and counted.  Artist identity
    is the mbid, falling back to the artist name when the mbid is empty.

    Returns (triples, skipped_row_count).
    """
    skipped = 0

    def valid_rows():
        nonlocal skipped
        for _, line in _iter_lines(stream, "lfm interactions"):
            try:
                user, mbid, name, plays_text = line.split("\t")
                plays = int(plays_text)
            except ValueError:  # wrong field count or non-integer plays
                plays = 0
            if plays > 0 and user and (mbid or name):
                yield user, mbid or name, plays
            else:
                skipped += 1

    triples = Triples.from_rows(valid_rows())
    return triples, skipped


def _parse_age(text: str) -> Optional[int]:
    try:
        age = int(text)
    except ValueError:
        return None
    if not AGE_MIN <= age <= AGE_MAX:
        return None
    return age


def parse_lfm_profiles(stream: Iterable[str]) -> list[UserAttributes]:
    """Parse LFM360K profiles: user-sha1 \\t gender \\t age \\t country \\t signup.

    Empty or unrecognized gender maps to NA; non-integer or out-of-range
    ages and empty countries become missing.  Duplicate user ids keep the
    first occurrence with a warning.
    """
    seen: set = set()
    out: list[UserAttributes] = []
    for lineno, line in _iter_lines(stream, "lfm profiles"):
        if not line:
            continue
        fields = line.split("\t")
        if len(fields) < 5:
            fields = fields + [""] * (5 - len(fields))
        user, gender, age_text, country, signup = fields[:5]
        if not user:
            continue
        if user in seen:
            log.warning("duplicate profile for user %s at line %d; keeping first", user, lineno)
            continue
        seen.add(user)
        gender = gender.strip().lower()
        if gender not in (GENDER_MALE, GENDER_FEMALE):
            gender = GENDER_NA
        out.append(UserAttributes(
            user_id=user,
            gender=gender,
            age=_parse_age(age_text.strip()),
            country=country.strip() or None,
            signup=signup.strip() or None,
        ))
    return out


# ML1M age-bracket codes as published with the dataset
ML1M_AGE_CODES = (1, 18, 25, 35, 45, 50, 56)


def parse_ml1m(ratings_stream: Iterable[str], users_stream: Iterable[str]) -> RawDataset:
    """Parse ML1M "::"-separated ratings and user files.

    Ratings become strengths 1-5; records with a rating outside that range
    are skipped with a warning.  The users file's occupation and zip fields
    are parsed but not carried into the attribute table.
    """
    skipped = 0

    def valid_rows():
        nonlocal skipped
        for lineno, line in _iter_lines(ratings_stream, "ml1m ratings"):
            if not line:
                continue
            fields = line.split("::")
            if len(fields) != 4:
                skipped += 1
                log.warning("ml1m ratings line %d: expected 4 fields, got %d",
                            lineno, len(fields))
                continue
            try:
                user, movie, rating = int(fields[0]), int(fields[1]), int(fields[2])
            except ValueError:
                skipped += 1
                log.warning("ml1m ratings line %d: non-integer field", lineno)
                continue
            if not 1 <= rating <= 5:
                skipped += 1
                log.warning("ml1m ratings line %d: rating %d outside 1-5", lineno, rating)
                continue
            yield user, movie, rating

    triples = Triples.from_rows(valid_rows())

    attributes: list[UserAttributes] = []
    seen: set = set()
    for lineno, line in _iter_lines(users_stream, "ml1m users"):
        if not line:
            continue
        fields = line.split("::")
        if len(fields) != 5:
            log.warning("ml1m users line %d: expected 5 fields, got %d", lineno, len(fields))
            continue
        user_text, gender, age_text, _occupation, _zip = fields
        try:
            user, age = int(user_text), int(age_text)
        except ValueError:
            log.warning("ml1m users line %d: non-integer id or age", lineno)
            continue
        if user in seen:
            log.warning("duplicate ml1m user %d at line %d; keeping first", user, lineno)
            continue
        seen.add(user)
        gender = gender.strip().upper()
        attributes.append(UserAttributes(
            user_id=user,
            gender={"M": GENDER_MALE, "F": GENDER_FEMALE}.get(gender, GENDER_NA),
            age=age,
        ))
    return RawDataset(triples, attributes, PROVENANCE_ML1M, skipped_interactions=skipped)


def load_gdp_table(stream: Iterable[str]) -> GdpTable:
    """Load a two-column CSV "country,gdp_per_capita".

    An optional header row is detected by a non-numeric second field on the
    first line; other rows with non-numeric GDP are skipped with a warning.
    """
    table = GdpTable()
    for lineno, line in _iter_lines(stream, "gdp table"):
        if not line:
            continue
        country, _, gdp_text = line.partition(",")
        country = country.strip()
        try:
            gdp = float(gdp_text.strip())
        except ValueError:
            if lineno > 1:
                log.warning("gdp table line %d: non-numeric value %r, skipped", lineno, gdp_text)
            continue
        if country:
            table.add(country, gdp)
    return table


def cold_start_filter(dataset: RawDataset, max_items: Optional[int] = None) -> RawDataset:
    """Remove users with too few distinct items to train and evaluate.

    For LFM360K provenance the threshold is "40 or fewer distinct items";
    ML1M needs no filtering (every user has at least 20 ratings) and
    synthetic data is left alone unless ``max_items`` overrides the default.
    Items' interactions from other users are untouched.
    """
    if max_items is None:
        if dataset.provenance == PROVENANCE_LFM360K:
            max_items = LFM_COLD_START_MAX_ITEMS
        else:
            return dataset
    t = dataset.triples
    # distinct (user, item) keys by a sort: np.unique's hash was ~15x slower
    pairs = np.sort(t.users.astype(np.int64) * len(t.item_ids) + t.items)
    pairs = pairs[np.diff(pairs, prepend=-1) != 0]
    distinct = np.bincount(pairs // len(t.item_ids), minlength=len(t.user_ids))
    removed = (distinct > 0) & (distinct <= max_items)
    n_removed = int(np.count_nonzero(removed))
    if not n_removed:
        return dataset
    keep = ~removed[t.users]
    triples = Triples(t.users[keep], t.items[keep], t.strengths[keep], t.user_ids, t.item_ids)
    removed_ids = {t.user_ids[u] for u in np.flatnonzero(removed).tolist()}
    attributes = [a for a in dataset.attributes if a.user_id not in removed_ids]
    log.info("cold-start filter removed %d of %d users", n_removed, np.count_nonzero(distinct))
    return RawDataset(triples, attributes, dataset.provenance,
                      skipped_interactions=dataset.skipped_interactions,
                      skipped_users=dataset.skipped_users + n_removed)


def _open(path: str | Path, encoding: str, errors: str = "strict"):
    try:
        return open(path, encoding=encoding, errors=errors)
    except OSError as exc:
        raise DataError(f"cannot open {path}: {exc}") from exc


def load_lfm(interactions_path: str | Path, profiles_path: Optional[str | Path],
             provenance: str = PROVENANCE_LFM360K) -> RawDataset:
    """Load LFM-format files from disk (UTF-8, tolerant of stray bytes)."""
    with _open(interactions_path, "utf-8", errors="replace") as fh:
        triples, skipped = parse_lfm_interactions(fh)
    attributes: list[UserAttributes] = []
    if profiles_path is not None:
        with _open(profiles_path, "utf-8", errors="replace") as fh:
            attributes = parse_lfm_profiles(fh)
    return RawDataset(triples, attributes, provenance, skipped_interactions=skipped)


def load_ml1m(ratings_path: str | Path, users_path: str | Path) -> RawDataset:
    """Load ML1M files from disk with Latin-1 tolerant decoding."""
    with _open(ratings_path, "latin-1") as rfh, _open(users_path, "latin-1") as ufh:
        return parse_ml1m(rfh, ufh)


def load_gdp(path: str | Path) -> GdpTable:
    with _open(path, "utf-8") as fh:
        return load_gdp_table(fh)
