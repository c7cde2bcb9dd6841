import gc
import io
import sys

import numpy as np
import pytest

from oracles import (naive_cold_start, naive_csr, naive_parse_lfm_rows,
                     naive_parse_ml1m_rows)
from recaudit.errors import DataError
from recaudit.ingest import (LFM_COLD_START_MAX_ITEMS, PROVENANCE_LFM360K,
                             PROVENANCE_ML1M, PROVENANCE_SYNTHETIC, PROVENANCES,
                             RawDataset, cold_start_filter, load_gdp_table,
                             parse_lfm_interactions, parse_lfm_profiles,
                             parse_ml1m)
from recaudit.interactions import (GENDER_FEMALE, GENDER_MALE, GENDER_NA, Triples,
                                   UserAttributes, from_triples)

from conftest import triple_rows


def lines(text):
    return io.StringIO(text)


class TestLfmInteractions:
    def test_well_formed_line(self):
        triples, skipped = parse_lfm_interactions(lines("u\ta\tArtist\t42\n"))
        assert triple_rows(triples) == [("u", "a", 42)]
        assert skipped == 0

    def test_three_fields_skipped(self):
        triples, skipped = parse_lfm_interactions(lines("u\ta\tArtist\n"))
        assert triple_rows(triples) == []
        assert skipped == 1

    def test_fixture_with_two_malformed(self):
        rows = [f"u{i}\tmbid{i}\tArtist {i}\t{i + 1}" for i in range(8)]
        rows.insert(3, "broken line without tabs")
        rows.insert(7, "u\tmbid\tArtist\tnot-a-number")
        triples, skipped = parse_lfm_interactions(lines("\n".join(rows) + "\n"))
        assert len(triples) == 8
        assert skipped == 2

    def test_mbid_fallback_to_name(self):
        triples, _ = parse_lfm_interactions(lines("u\t\tThe Artist\t7\n"))
        assert triple_rows(triples) == [("u", "The Artist", 7)]

    def test_empty_user_or_artist_skipped(self):
        triples, skipped = parse_lfm_interactions(
            lines("\tmbid\tArtist\t3\nu\t\t\t3\n"))
        assert triple_rows(triples) == []
        assert skipped == 2

    def test_non_positive_plays_skipped(self):
        triples, skipped = parse_lfm_interactions(
            lines("u\ta\tA\t0\nu\tb\tB\t-2\n"))
        assert triple_rows(triples) == []
        assert skipped == 2

    def test_unreadable_stream_is_fatal_with_line_number(self):
        def broken():
            yield "u\ta\tArtist\t42\n"
            raise UnicodeDecodeError("utf-8", b"\xff", 0, 1, "invalid byte")

        with pytest.raises(DataError, match="line 2"):
            parse_lfm_interactions(broken())


def test_parsed_rows_hold_no_per_row_objects():
    """20 000 rows each of LFM and ML1M over 300 distinct ids per file leave
    (almost) no Python object per row behind once parsed."""
    lfm = [f"{u:040x}\t\tartist {i}\t{300 + u + i}\n"
           for u in range(200) for i in range(100)]
    ml1m = [f"{1000 + u}::{2000 + i}::{1 + (u + i) % 5}::978300760\n"
            for u in range(200) for i in range(100)]
    gc.collect()
    before = sys.getallocatedblocks()
    held = [parse_lfm_interactions(lfm), parse_ml1m(ml1m, [])]
    gc.collect()
    grown = sys.getallocatedblocks() - before
    assert grown < 0.1 * (len(lfm) + len(ml1m)), grown
    del held


class TestLfmProfiles:
    def test_documented_row_format(self):
        attrs = parse_lfm_profiles(lines("u\tm\t19\tMexico\tApr 28, 2008\n"))
        assert len(attrs) == 1
        a = attrs[0]
        assert (a.user_id, a.gender, a.age, a.country) == ("u", "m", 19, "Mexico")
        assert a.signup == "Apr 28, 2008"

    def test_all_empty_fields(self):
        attrs = parse_lfm_profiles(lines("u\t\t\t\t\n"))
        a = attrs[0]
        assert a.gender == GENDER_NA
        assert a.age is None
        assert a.country is None

    def test_age_out_of_range_missing(self):
        attrs = parse_lfm_profiles(lines("u\tf\t250\tBrazil\t\n"))
        assert attrs[0].age is None
        assert attrs[0].gender == GENDER_FEMALE

    def test_non_integer_age_missing(self):
        attrs = parse_lfm_profiles(lines("u\tm\ttwenty\t\t\n"))
        assert attrs[0].age is None

    def test_duplicate_user_keeps_first(self, caplog):
        attrs = parse_lfm_profiles(lines("u\tm\t30\tPeru\t\nu\tf\t40\tChile\t\n"))
        assert len(attrs) == 1
        assert attrs[0].gender == GENDER_MALE
        assert "duplicate" in caplog.text


class TestMl1m:
    def test_documented_row_formats(self):
        raw = parse_ml1m(lines("1::1193::5::978300760\n"),
                         lines("1::F::1::10::48067\n"))
        assert triple_rows(raw.triples) == [(1, 1193, 5)]
        a = raw.attributes[0]
        assert (a.user_id, a.gender, a.age) == (1, GENDER_FEMALE, 1)
        assert raw.provenance == PROVENANCE_ML1M

    def test_rating_outside_range_skipped(self, caplog):
        raw = parse_ml1m(lines("1::10::7::0\n2::10::3::0\n"), lines(""))
        assert triple_rows(raw.triples) == [(2, 10, 3)]
        assert raw.skipped_interactions == 1
        assert "outside 1-5" in caplog.text

    def test_gender_mapping(self):
        raw = parse_ml1m(lines(""), lines("1::M::25::0::11111\n2::F::35::1::22222\n"))
        assert raw.attributes[0].gender == GENDER_MALE
        assert raw.attributes[1].gender == GENDER_FEMALE
        assert raw.attributes[1].age == 35


class TestGdpTable:
    def test_direct_parse(self):
        table = load_gdp_table(lines("Mexico,9926.4\n"))
        assert table.lookup("Mexico") == 9926.4
        assert table.lookup("mexico") == 9926.4  # canonical casing
        assert table.lookup("Atlantis") is None

    def test_empty_file(self):
        assert len(load_gdp_table(lines(""))) == 0

    def test_five_row_fixture(self):
        fixture = {"Mexico": 9926.4, "Brazil": 8917.7, "Japan": 39312.6,
                   "Norway": 89154.3, "India": 2277.4}
        text = "".join(f"{c},{g}\n" for c, g in fixture.items())
        table = load_gdp_table(lines(text))
        assert len(table) == 5
        for country, gdp in fixture.items():
            assert table.lookup(country) == gdp

    def test_header_row_detected(self):
        table = load_gdp_table(lines("country,gdp_per_capita\nMexico,9926.4\n"))
        assert len(table) == 1

    def test_non_numeric_gdp_skipped(self, caplog):
        table = load_gdp_table(lines("Mexico,9926.4\nNowhere,n/a\n"))
        assert len(table) == 1
        assert "non-numeric" in caplog.text


def _dataset(provenance, user_item_counts):
    rows = [(user, f"i{i}", 1) for user, count in user_item_counts.items()
            for i in range(count)]
    return RawDataset(Triples.from_rows(rows), [], provenance)


class TestColdStartFilter:
    def test_boundary_40_removed(self):
        raw = _dataset(PROVENANCE_LFM360K, {"u40": 40, "u41": 41})
        filtered = cold_start_filter(raw)
        users = {t[0] for t in triple_rows(filtered.triples)}
        assert users == {"u41"}
        assert filtered.skipped_users == 1

    def test_ml1m_noop(self):
        raw = _dataset(PROVENANCE_ML1M, {"u": 5})
        assert cold_start_filter(raw) is raw

    def test_synthetic_noop_without_override(self):
        raw = _dataset(PROVENANCE_SYNTHETIC, {"u": 5})
        assert cold_start_filter(raw) is raw

    def test_synthetic_with_override(self):
        raw = _dataset(PROVENANCE_SYNTHETIC, {"small": 3, "big": 10})
        filtered = cold_start_filter(raw, max_items=3)
        assert {t[0] for t in triple_rows(filtered.triples)} == {"big"}

    def test_hundred_user_fixture(self):
        counts = {}
        for i in range(12):
            counts[f"cold{i}"] = 20 + i  # all <= 40
        for i in range(88):
            counts[f"warm{i}"] = 41 + (i % 30)
        raw = _dataset(PROVENANCE_LFM360K, counts)
        filtered = cold_start_filter(raw)
        assert len({t[0] for t in triple_rows(filtered.triples)}) == 88
        assert filtered.skipped_users == 12

    def test_duplicate_items_count_distinct(self):
        # 41 triples over 40 distinct items: still removed
        rows = [("u", f"i{i}", 1) for i in range(40)] + [("u", "i0", 2)]
        raw = RawDataset(Triples.from_rows(rows), [], PROVENANCE_LFM360K)
        assert triple_rows(cold_start_filter(raw).triples) == []

    def test_second_pass_removes_nothing(self):
        raw = _dataset(PROVENANCE_LFM360K, {"cold": 10, "warm": 50})
        filtered = cold_start_filter(raw)
        assert cold_start_filter(filtered) is filtered

    def test_other_users_interactions_untouched(self):
        raw = _dataset(PROVENANCE_LFM360K, {"cold": 10, "warm": 50})
        filtered = cold_start_filter(raw)
        warm_items = [t for t in triple_rows(filtered.triples) if t[0] == "warm"]
        assert len(warm_items) == 50

    def test_min_distinct_items_after_filter(self, rng):
        counts = {f"u{i}": int(rng.integers(1, 120)) for i in range(200)}
        raw = _dataset(PROVENANCE_LFM360K, counts)
        filtered = cold_start_filter(raw)
        distinct = {}
        for user, item, _ in triple_rows(filtered.triples):
            distinct.setdefault(user, set()).add(item)
        assert all(len(items) >= 41 for items in distinct.values())


def _assert_ingest_matches_tuple_path(triples, rows, attribute_ids, provenance, max_items):
    """Cold start and matrix from ``triples`` equal the tuple, dict-of-sets
    and dict-loop path over the same ``rows``."""
    raw = RawDataset(triples, [UserAttributes(uid) for uid in attribute_ids], provenance)
    filtered = cold_start_filter(raw, max_items)
    m, umap, imap = from_triples(filtered.triples)

    if max_items is None and provenance == PROVENANCE_LFM360K:
        max_items = LFM_COLD_START_MAX_ITEMS
    removed = 0
    if max_items is not None:
        rows, attribute_ids, removed = naive_cold_start(rows, attribute_ids, max_items)
    indptr, indices, data, user_ids, user_index, item_ids, item_index = naive_csr(rows)

    assert filtered.skipped_users == removed
    assert [a.user_id for a in filtered.attributes] == attribute_ids
    for got, want in ((m.indptr, indptr), (m.indices, indices), (m.data, data)):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    assert (m.n_users, m.n_items) == (len(user_ids), len(item_ids))
    assert umap.ids == user_ids and list(umap.index.items()) == list(user_index.items())
    assert imap.ids == item_ids and list(imap.index.items()) == list(item_index.items())


def _random_rows(rng, integer_ids):
    """Random rows with duplicate pairs and non-positive strengths; user
    "gone" (code n_users) is seen first, with one item that user 0 sees
    last, and user n_users + 1 has only non-positive rows."""
    n_users, n_items = int(rng.integers(1, 10)), int(rng.integers(1, 8))
    user = (lambda k: 5000 + k) if integer_ids else (lambda k: f"u{k}")
    item = (lambda k: 7000 + k) if integer_ids else (lambda k: f"i{k}")
    strengths = [-1.0, 0.0, 0.5, 1, 2, 3, 7]
    rows = [(user(n_users), item(n_items), 2)]
    rows += [(user(int(rng.integers(n_users))), item(int(rng.integers(n_items))),
              strengths[int(rng.integers(len(strengths)))])
             for _ in range(int(rng.integers(0, 60)))]
    rows += [(user(n_users + 1), item(0), 0), (user(n_users + 1), item(1), -1.0),
             (user(0), item(n_items), 1)]
    attribute_ids = [user(k) for k in range(-1, n_users + 2) if rng.random() < 0.7]
    return rows, attribute_ids


class TestColumnarIngestMatchesTuplePath:
    @pytest.mark.parametrize("seed", range(40))
    def test_random_rows(self, seed):
        rng = np.random.default_rng(seed)
        rows, attribute_ids = _random_rows(rng, integer_ids=seed % 2 == 1)
        provenance = PROVENANCES[seed % 3]
        max_items = (None, 0, 1, 2, 4)[seed % 5]
        _assert_ingest_matches_tuple_path(Triples.from_rows(rows), rows, attribute_ids,
                                          provenance, max_items)

    @pytest.mark.parametrize("provenance", PROVENANCES)
    @pytest.mark.parametrize("max_items", [None, 0, 3])
    def test_zero_rows(self, provenance, max_items):
        _assert_ingest_matches_tuple_path(Triples.from_rows([]), [], ["u"],
                                          provenance, max_items)

    @pytest.mark.parametrize("seed", range(12))
    def test_lfm_text(self, seed):
        rng = np.random.default_rng(100 + seed)
        lines = []
        for _ in range(int(rng.integers(0, 120))):
            user, artist = f"u{rng.integers(8)}", f"a{rng.integers(9)}"
            plays = int(rng.integers(-1, 60))
            lines.append(rng.choice([f"{user}\t{artist}\tName\t{plays}\n",
                                     f"{user}\t\t{artist}\t{plays}\n",
                                     f"{user}\t{artist}\n", "\n",
                                     f"{user}\t{artist}\tName\tmany\n"],
                                    p=[0.7, 0.1, 0.1, 0.05, 0.05]))
        triples, skipped = parse_lfm_interactions(lines)
        rows, want_skipped = naive_parse_lfm_rows(lines)
        assert triple_rows(triples) == rows and skipped == want_skipped
        _assert_ingest_matches_tuple_path(
            triples, rows, [f"u{k}" for k in range(8)], PROVENANCES[seed % 2],
            (None, 2, 5, LFM_COLD_START_MAX_ITEMS)[seed % 4])

    @pytest.mark.parametrize("seed", range(8))
    def test_ml1m_text(self, seed):
        rng = np.random.default_rng(200 + seed)
        lines = []
        for _ in range(int(rng.integers(0, 120))):
            user, movie = 3000 + int(rng.integers(8)), 9000 + int(rng.integers(12))
            rating = int(rng.integers(0, 7))
            lines.append(rng.choice([f"{user}::{movie}::{rating}::978300760\n",
                                     f"{user}::{movie}\n", "\n",
                                     f"{user}::x::{rating}::0\n"], p=[0.8, 0.1, 0.05, 0.05]))
        raw = parse_ml1m(lines, [f"{3000 + k}::M::25::0::1\n" for k in range(9)])
        rows, want_skipped = naive_parse_ml1m_rows(lines)
        assert triple_rows(raw.triples) == rows
        assert raw.skipped_interactions == want_skipped
        _assert_ingest_matches_tuple_path(raw.triples, rows,
                                          [a.user_id for a in raw.attributes],
                                          PROVENANCE_ML1M, (None, 3, 6)[seed % 3])
