"""Parsers for the LFM360K and ML1M file formats, the GDP side table (a
dict keyed by the case-folded country name), and the cold-start filter.

Malformed rows are skipped and counted, never fatal: all downstream
statistics are computed on the cleaned data.  Only an unreadable stream
aborts ingestion.
"""

from __future__ import annotations

import codecs
import csv
import logging
import math
from array import array
from dataclasses import dataclass, replace
from pathlib import Path
from typing import BinaryIO, Iterable, Optional

import numpy as np

from .errors import DataError
from .interactions import GENDER_FEMALE, GENDER_MALE, Triples
from .util import distinct_sorted

log = logging.getLogger(__name__)

PROVENANCE_LFM360K = "lfm360k"
PROVENANCE_ML1M = "ml1m"
PROVENANCE_SYNTHETIC = "synthetic"
PROVENANCES = (PROVENANCE_LFM360K, PROVENANCE_ML1M, PROVENANCE_SYNTHETIC)

# ages outside this window are treated as missing
AGE_MIN, AGE_MAX = 1, 120

# a UTF-8 byte order mark as the ML1M users file's latin-1 decoding reads it
_LATIN1_BOM = codecs.BOM_UTF8.decode("latin-1")

# LFM360K cold-start rule: drop users with <= 40 distinct items
LFM_COLD_START_MAX_ITEMS = 40


@dataclass
class RawDataset:
    """Parsed rows plus user id -> profile ``(gender, age, country)``,
    before the matrix."""

    triples: Triples
    attributes: dict[str, tuple]
    provenance: str
    skipped_interactions: int = 0
    skipped_users: int = 0


def _iter_lines(stream: Iterable[str], what: str, bom: str):
    """Enumerate lines without line endings, ``bom`` (a byte order mark as
    the stream decodes it) removed from the start of the first; a decode
    failure raises DataError."""
    lineno = 0
    try:
        for lineno, line in enumerate(stream, 1):
            line = line.rstrip("\n").rstrip("\r")
            yield lineno, line.removeprefix(bom) if lineno == 1 else line
    except (UnicodeDecodeError, OSError) as exc:
        raise DataError(f"{what}: unreadable input at line {lineno + 1}: {exc}") from exc


# bytes read from an interactions or ratings file at a time; a chunk's parse
# holds temporaries of a small multiple of it, whatever the field lengths
_CHUNK_BYTES = 1 << 19

# the longest number parsed arithmetically: 18 digits fit an int64
_MAX_DIGITS = 18

# the widest id prefix, in little-endian 8-byte words, that is hashed
_HASH_WORDS = 8

# readable bytes a chunk needs past its last field
PAD = 8 * _HASH_WORDS

# _TAIL[r] keeps the first r bytes of a little-endian word
_TAIL = np.array([(1 << (8 * r)) - 1 for r in range(9)], dtype=np.uint64)

# word j of a field weighs the j-th odd multiple of the golden-ratio increment
_WEIGHTS = (2 * np.arange(_HASH_WORDS, dtype=np.uint64) + np.uint64(1)) * np.uint64(
    0x9E3779B97F4A7C15)


class _Numbering(dict):
    """Field bytes -> the code of the id ``id_of`` decodes them to.  A field
    is decoded when first met and a new id takes the next code, so ids are
    numbered in first-seen order and fields that decode alike share one."""

    def __init__(self, id_of):
        super().__init__()
        self.id_of, self.ids = id_of, {}  # ids: decoded id -> code

    def __missing__(self, field: bytes) -> int:
        code = self[field] = self.ids.setdefault(self.id_of(field), len(self.ids))
        return code


def _read_rows(stream: BinaryIO, what: str, parse, id_of) -> tuple[Triples, int]:
    """The rows that ``parse`` finds in ``stream``, read a chunk of whole lines
    at a time, and the number of lines.  Lines end at \\n, \\r\\n or \\r, and
    one leading UTF-8 byte order mark is ignored.

    ``parse(buf, size, before)`` reads the lines in ``buf[:size]``, which
    ``before`` lines precede and ``PAD`` readable bytes follow.  It returns
    their number, the rows user start, user length, item start and item
    length of the valid rows, and their strengths.  Each side's ids are
    numbered by decoded id in first-seen order: a field's bytes are decoded
    with ``id_of`` when first met, and fields that decode alike share one."""
    users, items = _Numbering(id_of), _Numbering(id_of)
    # user codes, item codes and strengths, each grown a chunk at a time
    columns = (array("i"), array("i"), array("d"))
    lines = 0
    text = bytearray()  # what is read and not yet parsed
    at_start, at_end = True, False
    while not at_end:
        try:
            data = stream.read(_CHUNK_BYTES)
        except OSError as exc:
            raise DataError(f"{what}: unreadable input at line {lines + 1}: {exc}") from exc
        at_end = not data
        text += data
        del data
        if at_start:
            if not at_end and len(text) < len(codecs.BOM_UTF8):
                continue
            at_start = False
            if text.startswith(codecs.BOM_UTF8):
                del text[:len(codecs.BOM_UTF8)]
        if at_end:
            cut = len(text)
        else:
            # a final \r waits for the next byte: it may start a \r\n
            cut = max(text.rfind(b"\n"), text.rfind(b"\r", 0, len(text) - 1)) + 1
        if cut:
            text += bytes(PAD)  # read past the last field, never parsed
            buf = np.frombuffer(text, dtype=np.uint8)
            n_lines, bounds, strengths = parse(buf, cut, lines)
            # frombytes takes only a buffer of 1-byte items
            columns[0].frombytes(_codes(users, buf, *bounds[:2]).view(np.uint8))
            columns[1].frombytes(_codes(items, buf, *bounds[2:]).view(np.uint8))
            columns[2].frombytes(strengths.view(np.uint8))
            del buf, bounds, strengths, text[-PAD:], text[:cut]  # a view of text pins it
            lines += n_lines
    user_codes, item_codes, strengths = (np.frombuffer(c, dtype=c.typecode) for c in columns)
    return Triples(user_codes, item_codes, strengths, list(users.ids), list(items.ids)), lines


def parse_lfm_interactions(stream: BinaryIO) -> tuple[Triples, int]:
    """Parse LFM360K play records: user-sha1 \\t artist-mbid \\t artist-name \\t plays.

    The stream is binary and read as ``_read_rows`` reads it; text is UTF-8
    with invalid bytes replaced, and ids that decode alike are one id.  Rows
    with a wrong field count, an empty user, no artist identity, or a play
    count that is not a positive integer (by ``int``) that a float can hold
    are skipped and counted.  Artist identity is the mbid, falling back to
    the artist name when the mbid is empty.

    Returns (triples, skipped_row_count).
    """
    triples, lines = _read_rows(stream, "lfm interactions", _parse_chunk,
                                lambda key: key.decode("utf-8", "replace"))
    return triples, lines - len(triples)


def _parse_chunk(buf: np.ndarray, size: int, _before: int) -> tuple[int, np.ndarray, np.ndarray]:
    """The LFM lines in ``buf[:size]`` as ``_read_rows`` asks for them."""
    n_lines, _, bounds = _four_field_lines(buf, size, b"\t")
    # an empty mbid falls back to the name
    name = bounds[4] == 0
    bounds[3:5, name] = bounds[5:7, name]
    bounds = bounds[:, (bounds[2] > 0) & (bounds[4] > 0)]
    plays_start, plays_len = bounds[7], bounds[8]
    plays, plain = _plain_counts(buf, plays_start, plays_len)
    strengths = plays.astype(np.float64)
    for k in np.flatnonzero(~plain).tolist():
        # an unusual count takes int()'s rule; one too large for a float is skipped
        field = buf[plays_start[k]:plays_start[k] + plays_len[k]].tobytes()
        try:
            strengths[k] = float(int(field.decode("utf-8", "replace")))
        except (ValueError, OverflowError):
            strengths[k] = 0.0
    keep = strengths > 0.0
    return n_lines, bounds[1:5, keep], strengths[keep]


def _codes(keys: _Numbering, buf: np.ndarray, starts: np.ndarray,
           lengths: np.ndarray) -> np.ndarray:
    """The int32 code in ``keys`` of each field ``buf[s:s + n]`` (n >= 1):
    fields met for the first time are decoded in position order, so their
    ids are numbered in first-seen order.  ``buf`` has ``PAD`` readable
    bytes past its last field.

    A field whose words and length equal those of the first field of its
    hash group takes that field's code; any other field (a group's first,
    one longer than ``PAD`` bytes, one sharing a hash with a different
    field) is looked up by its bytes.  So the hash only decides which
    fields are compared, and Python runs once per distinct field of the
    chunk."""
    if not starts.size:
        return np.empty(0, dtype=np.int32)
    width = min(int(lengths.max() + 7) >> 3, _HASH_WORDS)
    rows = np.ndarray((buf.size - 8 * width + 1, 8 * width), dtype=np.uint8, buffer=buf,
                      strides=(1, 1))
    # each field as a row of words, zero past its end
    words = rows[starts].view("<u8")
    words &= _TAIL[np.clip(lengths[:, None] - 8 * np.arange(width), 0, 8)]
    _, first, group = np.unique(_hash(words, lengths), return_index=True,
                                return_inverse=True)
    head = first[group]
    alone = ((lengths > PAD) | (lengths != lengths[head])
             | (words != words[head]).any(axis=1))
    alone[first] = True
    del words
    looked = np.flatnonzero(alone)
    data = buf.data
    code = np.empty(starts.size, dtype=np.int32)
    code[looked] = [keys[data[s:s + n].tobytes()]
                    for s, n in zip(starts[looked].tolist(), lengths[looked].tolist())]
    return np.where(alone, code, code[head])


def _hash(words: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """A weighted sum of each row of words, xor its field's length."""
    h = (words * _WEIGHTS[:words.shape[1]]).sum(axis=1, dtype=np.uint64)
    h ^= lengths.astype(np.uint64)
    return h


def _four_field_lines(buf: np.ndarray, size: int,
                      sep: bytes) -> tuple[int, np.ndarray, np.ndarray]:
    """The number of lines in ``buf[:size]``; the indices of its lines that
    are neither blank nor of four fields; and for each line of four fields
    the rows line index, then start and length of each field.

    Fields are split at ``sep``, one byte or one byte twice.  A run of a
    twice byte splits as ``str.split`` splits it: at each pair from the
    run's left, with an odd last byte left in a field."""
    text = buf[:size]
    # positions as int32 where they fit, which halves the per-row temporaries
    index = np.int32 if size < np.iinfo(np.int32).max else np.int64
    byte = sep[0]
    # separators and line ends in order, found among the bytes up to \r and sep's
    marks = np.flatnonzero(((text <= 13) | (text == byte)) if byte > 13
                           else text <= 13).astype(index)
    kind = text[marks]
    mark = (kind == byte) | (kind == 10) | (kind == 13)
    # a \r\n ends one line, at its \r
    mark[1:] &= (kind[1:] != 10) | (kind[:-1] != 13) | (marks[1:] != marks[:-1] + 1)
    if len(sep) == 2:
        # a pair starts at an even offset into its run and has a second byte
        at = kind == byte
        pos = marks[at]
        run = np.arange(pos.size, dtype=index)
        first = np.maximum.accumulate(np.where(np.diff(pos, prepend=-2) != 1, run, 0))
        mark[at] = ((run - first) % 2 == 0) & (np.diff(pos, append=-1) == 1)
    if not mark.all():
        marks, kind = marks[mark], kind[mark]
    del mark
    line_ends = np.flatnonzero(kind != byte).astype(index)
    del kind
    # a last line without an end gets one
    if text[-1] not in (10, 13):
        marks = np.append(marks, index(size))
        line_ends = np.append(line_ends, index(marks.size - 1))
    ends = marks[line_ends]
    # a line starts past the previous line's end, and past a \r\n's \n
    starts = np.zeros_like(ends)
    starts[1:] = ends[:-1] + 1 + ((buf[ends[:-1]] == 13) & (buf[ends[:-1] + 1] == 10))

    fields = np.diff(line_ends, prepend=-1)
    odd = np.flatnonzero((fields != 4) & ((fields != 1) | (ends != starts)))
    line = np.flatnonzero(fields == 4)
    bounds = np.empty((9, line.size), dtype=index)
    bounds[0], bounds[1] = line, starts[line]
    # field f of a line ends at the line's (f + 1)-th mark
    field_ends = marks[line_ends[line] + np.arange(-3, 1, dtype=index)[:, None]]
    bounds[3::2] = field_ends[:3] + len(sep)
    np.subtract(field_ends, bounds[1::2], out=bounds[2::2])
    return line_ends.size, odd, bounds


def _plain_counts(buf: np.ndarray, starts: np.ndarray,
                  lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The value of every field that is 1 to ``_MAX_DIGITS`` ASCII digits,
    and which fields are; the others' values are meaningless."""
    plain = (lengths > 0) & (lengths <= _MAX_DIGITS)
    width = int(lengths.max(initial=0, where=plain))
    value = np.zeros(starts.size, dtype=np.int64)
    # fields are right-aligned to ``width``: a position left of a field's
    # start reads as a leading zero
    lead = starts + lengths - width
    for j in range(width):
        digit = buf[np.maximum(lead + j, 0)] - np.uint8(ord("0"))  # wraps below "0"
        digit[lead + j < starts] = 0
        plain &= digit < 10
        value = value * 10 + digit
    return value, plain


def _parse_ml1m_chunk(buf: np.ndarray, size: int, before: int,
                      skips: dict) -> tuple[int, np.ndarray, np.ndarray]:
    """The ML1M rating lines in ``buf[:size]`` as ``_read_rows`` asks for
    them; each skipped line is noted in ``skips``."""
    n_lines, odd, bounds = _four_field_lines(buf, size, b"::")
    integer = np.ones(bounds.shape[1], dtype=bool)
    for start, length in zip(bounds[1:7:2], bounds[2:7:2]):  # user, movie, rating
        value, plain = _plain_counts(buf, start, length)
        for k in np.flatnonzero(~plain).tolist():
            # int()'s rule for an unusual field, clipped: only a rating's 1-5 matters
            try:
                text = buf[start[k]:start[k] + length[k]].tobytes().decode("latin-1")
                value[k] = min(max(int(text), 0), 6)
            except ValueError:
                integer[k] = False
    rated = integer & (value >= 1) & (value <= 5)  # the rating's value
    for reason, lines in (("with other than 4 fields", odd),
                          ("with a non-integer field", bounds[0, ~integer]),
                          ("with a rating outside 1-5", bounds[0, integer & ~rated])):
        if lines.size:
            skips.setdefault(reason, [0, before + 1 + int(lines[0])])[0] += lines.size
    return n_lines, bounds[1:5, rated], value[rated].astype(np.float64)


def _parse_age(text: str) -> Optional[int]:
    try:
        age = int(text)
    except ValueError:
        return None
    return age if AGE_MIN <= age <= AGE_MAX else None


def _read_profiles(stream: Iterable[str], what: str, bom: str, sep: str,
                   fields_of) -> dict[str, tuple]:
    """User id -> ``(gender, age, country)`` of its profile line in
    ``stream``, read as ``_iter_lines`` reads them; users with equal
    profiles share one tuple.  Blank lines are skipped, and
    ``fields_of(line.split(sep), lineno)`` gives a line's user id and its
    gender, age and country texts, or None to skip the line.  A gender
    other than m or f (either case), an age that is not an integer in 1-120
    and an empty country are missing (None).  The first line of each user
    id is kept, and each later one is skipped with a warning."""
    out: dict[str, tuple] = {}
    shared: dict[tuple, tuple] = {}
    for lineno, line in _iter_lines(stream, what, bom):
        fields = fields_of(line.split(sep), lineno) if line else None
        if fields is None:
            continue
        user, gender, age, country = fields
        if user in out:
            log.warning("%s line %d: duplicate user %s; keeping the first", what, lineno, user)
            continue
        gender = gender.strip().lower()
        if gender not in (GENDER_MALE, GENDER_FEMALE):
            gender = None
        profile = (gender, _parse_age(age), country.strip() or None)
        out[user] = shared.setdefault(profile, profile)
    return out


def parse_lfm_profiles(stream: Iterable[str]) -> dict[str, tuple]:
    """Parse LFM360K profiles: user-sha1 \\t gender \\t age \\t country \\t signup,
    as ``_read_profiles`` reads them.  Missing trailing fields are empty, a
    line with an empty user is skipped, and the signup field is not read.
    """
    return _read_profiles(stream, "lfm profiles", "\ufeff", "\t",
                          lambda fields, _: (fields + [""] * 3)[:4] if fields[0] else None)


def parse_ml1m(ratings_stream: BinaryIO, users_stream: Iterable[str]) -> RawDataset:
    """Parse ML1M "::"-separated ratings and user files.

    The ratings stream is binary and read as ``_read_rows`` reads it; text
    is latin-1, and an id is the text of its integer value: ``007``, ``+7``
    and ``7`` are id ``"7"``.  Ratings become strengths 1-5.  A ratings
    line with other than 4 fields, a user, movie or rating that is not an
    integer (by ``int``), or a rating outside 1-5 is skipped and counted,
    and each reason is logged once with its count and first line; blank
    lines are not counted.  The timestamp is not read.  The users file is
    read as ``_read_profiles`` reads it into ``attributes`` (id -> tuple):
    a row without 5 fields, or whose id or age is not an integer, is
    skipped with a warning, and the occupation and zip fields are not read.
    One leading byte order mark is ignored in each file.
    """
    skips: dict[str, list[int]] = {}  # reason -> count, first line
    triples, _ = _read_rows(ratings_stream, "ml1m ratings",
                            lambda buf, size, before: _parse_ml1m_chunk(buf, size, before, skips),
                            lambda key: str(int(key.decode("latin-1"))))
    for reason, (count, first) in skips.items():
        log.warning("ml1m ratings: %d lines %s, the first at line %d", count, reason, first)

    def fields_of(fields: list[str], lineno: int) -> Optional[tuple]:
        if len(fields) != 5:
            log.warning("ml1m users line %d: expected 5 fields, got %d", lineno, len(fields))
            return None
        try:
            user = str(int(fields[0]))
            int(fields[2])  # a non-integer age skips the row, not only the age
        except ValueError:
            log.warning("ml1m users line %d: non-integer id or age", lineno)
            return None
        return user, fields[1], fields[2], ""

    attributes = _read_profiles(users_stream, "ml1m users", _LATIN1_BOM, "::", fields_of)
    return RawDataset(triples, attributes, PROVENANCE_ML1M,
                      skipped_interactions=sum(count for count, _ in skips.values()))


def load_gdp_table(stream: Iterable[str]) -> dict[str, float]:
    """Load a two-column CSV "country,gdp_per_capita", with standard CSV
    quoting (as in World Bank exports: ``"Korea, Rep.",33000``), as a dict
    from the case-folded country name to its GDP per capita.

    An optional header row is detected by a non-numeric second field on the
    first line; other rows with non-numeric GDP, or with other than two
    fields, are skipped with a warning.  A value that is not finite, such
    as ``nan`` or ``inf``, counts as non-numeric.  One leading byte order
    mark is ignored.  The first row of each country, compared
    case-insensitively, is kept, and each later one is skipped with a
    warning.  A row the CSV reader rejects raises DataError.
    """
    table: dict[str, float] = {}
    reader = csv.reader(line for _, line in _iter_lines(stream, "gdp table", "\ufeff"))
    try:
        for fields in reader:
            if not fields:
                continue
            lineno = reader.line_num
            if len(fields) != 2:
                if lineno > 1:
                    log.warning("gdp table line %d: %d fields, not 2, skipped",
                                lineno, len(fields))
                continue
            country, gdp_text = fields[0].strip(), fields[1]
            try:
                gdp = float(gdp_text.strip())
                if not math.isfinite(gdp):
                    raise ValueError
            except ValueError:
                if lineno > 1:
                    log.warning("gdp table line %d: non-numeric value %r, skipped",
                                lineno, gdp_text)
                continue
            if country.casefold() in table:
                log.warning("gdp table line %d: duplicate country %s, skipped", lineno, country)
            elif country:
                table[country.casefold()] = gdp
    except csv.Error as exc:
        raise DataError(f"gdp table line {reader.line_num}: {exc}") from exc
    return table


def cold_start_filter(dataset: RawDataset, max_items: Optional[int] = None) -> RawDataset:
    """Remove users with too few distinct items to train and evaluate.

    For LFM360K provenance the threshold is "40 or fewer distinct items";
    ML1M needs no filtering (every user has at least 20 ratings) and
    synthetic data is left alone unless ``max_items`` overrides the default.
    Items' interactions from other users are untouched, and so are the
    attribute records: ``report.load`` drops those of users outside the
    matrix.
    """
    if max_items is None:
        if dataset.provenance == PROVENANCE_LFM360K:
            max_items = LFM_COLD_START_MAX_ITEMS
        else:
            return dataset
    t = dataset.triples
    pairs = distinct_sorted(t.users.astype(np.int64) * len(t.item_ids) + t.items)
    distinct = np.bincount(pairs // len(t.item_ids), minlength=len(t.user_ids))
    removed = (distinct > 0) & (distinct <= max_items)
    n_removed = int(np.count_nonzero(removed))
    if not n_removed:
        return dataset
    keep = ~removed[t.users]
    triples = Triples(t.users[keep], t.items[keep], t.strengths[keep], t.user_ids, t.item_ids)
    log.info("cold-start filter removed %d of %d users", n_removed, np.count_nonzero(distinct))
    return replace(dataset, triples=triples, skipped_users=dataset.skipped_users + n_removed)


def _open(path: str | Path, encoding: Optional[str], errors: Optional[str] = None):
    """``path`` opened as text, or as bytes without an encoding."""
    try:
        return open(path, "rb" if encoding is None else "r", encoding=encoding,
                    errors=errors)
    except OSError as exc:
        raise DataError(f"cannot open {path}: {exc}") from exc


def load_lfm(interactions_path: str | Path, profiles_path: Optional[str | Path],
             provenance: str = PROVENANCE_LFM360K) -> RawDataset:
    """Load LFM-format files from disk (UTF-8, tolerant of stray bytes)."""
    with _open(interactions_path, None) as fh:
        triples, skipped = parse_lfm_interactions(fh)
    attributes: dict[str, tuple] = {}
    if profiles_path is not None:
        with _open(profiles_path, "utf-8", errors="replace") as fh:
            attributes = parse_lfm_profiles(fh)
    return RawDataset(triples, attributes, provenance, skipped_interactions=skipped)


def load_ml1m(ratings_path: str | Path, users_path: str | Path) -> RawDataset:
    """Load ML1M files from disk; text is latin-1."""
    with _open(ratings_path, None) as rfh, _open(users_path, "latin-1") as ufh:
        return parse_ml1m(rfh, ufh)


def load_gdp(path: str | Path) -> dict[str, float]:
    with _open(path, "utf-8") as fh:
        return load_gdp_table(fh)
