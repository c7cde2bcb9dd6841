"""The binary LFM interactions and ML1M ratings parsers against their
line-by-line oracles.

An oracle reads the text that ``open(path, encoding=...)`` yields, UTF-8
with invalid bytes replaced for LFM and latin-1 for ML1M, after one leading
byte order mark is removed.  The parsers read the bytes in chunks; the chunk
size is patched down to a few bytes so that rows, ``\\r\\n`` pairs,
separators and multi-byte characters straddle chunk edges.
"""

import codecs
import io
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import naive_csr, naive_parse_lfm_rows, naive_parse_ml1m_rows
from recaudit import ingest
from recaudit.interactions import from_triples

from conftest import triple_rows

# ids that zero padding or a hashed prefix alone would confuse: a trailing
# NUL, and ids that share their first 8 or 64 bytes (the hashed prefix)
LOOKALIKES = [b"\x00", b"a\x00", b"12345678", b"123456789", b"p" * 64, b"p" * 64 + b"q",
              b"p" * 64 + b"r"]
USERS = [b"u1", b"u2", b"", b"\xff7", b"\xfe7", b"\xc3\xa9t\xc3\xa9", b"\xe2\x82",
         b"0123456789abcdef0123456789abcdef01234567", b"x" * 130, b"\xef\xbb\xbfu1",
         b"a", *LOOKALIKES]
MBIDS = [b"", b"m1", b"m2", b"\xffm", b"\xfem", b"4ec4f078-20ef-3318-311c-5899e1cc8d32",
         b"y" * 75, b"\xe6\x97\xa5\xe6\x9c\xac", b"a", *LOOKALIKES]
NAMES = [b"", b"Name", b"m1", b"Bj\xc3\xb6rk", b"\xff", b"z" * 66]
PLAYS = [b"1", b"42", b"007", b"0", b"-3", b" 5", b"5 ", b"+7", b"1_000", b"1__0",
         "\u0663".encode(), "\uff17".encode(), b"", b"x", b"1.5", b"\xff", b"9" * 18,
         b"1" + b"0" * 18, b"123456789012345678901", b"9" * 400, b"-" + b"9" * 400,
         b"0" * 25 + b"3"]
ENDS = [b"\n", b"\r\n", b"\r"]


def oracle(data: bytes):
    """Rows and skipped count of the line-by-line oracle over ``data``."""
    text = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors="replace").read()
    rows, skipped = naive_parse_lfm_rows(io.StringIO(text.removeprefix("\ufeff")))
    return [(user, artist, float(plays)) for user, artist, plays in rows], skipped


def assert_parse_matches_oracle(data: bytes, chunk_bytes: int):
    with mock.patch.object(ingest, "_CHUNK_BYTES", chunk_bytes):
        triples, skipped = ingest.parse_lfm_interactions(io.BytesIO(data))
    rows, want_skipped = oracle(data)
    assert skipped == want_skipped
    assert triple_rows(triples) == rows
    assert triples.user_ids == list(dict.fromkeys(user for user, _, _ in rows))
    assert triples.item_ids == list(dict.fromkeys(item for _, item, _ in rows))
    assert (triples.users.dtype, triples.items.dtype, triples.strengths.dtype) == (
        np.int32, np.int32, np.float64)

    m, m_user_ids, m_item_ids = from_triples(triples)
    indptr, indices, values, user_ids, item_ids = naive_csr(rows)
    for got, want in ((m.indptr, indptr), (m.indices, indices), (m.data, values)):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    assert m_user_ids == user_ids and m_item_ids == item_ids


@st.composite
def lfm_files(draw):
    lines = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(["row"] * 6 + ["short", "long", "blank"]))
        end = draw(st.sampled_from(ENDS))
        fields = [draw(st.sampled_from(USERS)), draw(st.sampled_from(MBIDS)),
                  draw(st.sampled_from(NAMES)), draw(st.sampled_from(PLAYS))]
        if kind == "short":
            fields = fields[:3]
        elif kind == "long":
            fields.append(draw(st.sampled_from(NAMES)))
        lines.append((b"" if kind == "blank" else b"\t".join(fields)) + end)
    data = b"".join(lines)
    if lines and draw(st.booleans()):
        data = data.rstrip(b"\r\n")  # no final line end
    if draw(st.booleans()):
        data = codecs.BOM_UTF8 + data
    return data


@settings(max_examples=300, deadline=None, derandomize=True)
@given(lfm_files(), st.sampled_from([1, 2, 3, 5, 8, 64, 1 << 20]))
def test_parse_matches_oracle(data, chunk_bytes):
    assert_parse_matches_oracle(data, chunk_bytes)


def _seeded_file(seed: int, n_lines: int) -> bytes:
    rng = np.random.default_rng(seed)
    out = [codecs.BOM_UTF8] if seed % 2 else []
    for _ in range(n_lines):
        fields = [USERS[rng.integers(len(USERS))], MBIDS[rng.integers(len(MBIDS))],
                  NAMES[rng.integers(len(NAMES))], PLAYS[rng.integers(len(PLAYS))]]
        n_fields = rng.choice([3, 4, 4, 4, 4, 4, 4, 5])
        fields = (fields + [b"extra"])[:n_fields]
        out.append(b"\t".join(fields) if rng.random() > 0.05 else b"")
        out.append(ENDS[rng.integers(len(ENDS))])
    return b"".join(out)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("chunk_bytes", [1, 7, 100, 4096])
def test_seeded_files_match_oracle(seed, chunk_bytes):
    assert_parse_matches_oracle(_seeded_file(seed, 400), chunk_bytes)


# ML1M fields: ids that int() reads as another's value, ids past an int64,
# colons that make runs with the "::" next to them, and bytes past ASCII
ML1M_IDS = [b"1", b"7", b"42", b"007", b"+7", b" 7", b"7 ", b"1_0", b"\xa07", b"-7", b"",
            b"x", b"\xff", b"\xb2", b"1\xe9", b":", b"1:", b":2", b"9" * 19,
            b"9223372036854775807", b"9223372036854775808", b"-9223372036854775809",
            b"1" + b"0" * 19, b"12345678901234567890123", b"0" * 24 + b"7", b"-" + b"9" * 25]
RATINGS = [b"1", b"2", b"3", b"4", b"5", b"0", b"6", b"5 ", b"x", b"05", b"+3", b"\xa04", b"",
           b"-1", b"9" * 20, b"3:"]
TIMES = [b"978300760", b"0", b"", b":", b"::", b"x\xff"]


def assert_ml1m_matches_oracle(data: bytes, chunk_bytes: int):
    with mock.patch.object(ingest, "_CHUNK_BYTES", chunk_bytes):
        raw = ingest.parse_ml1m(io.BytesIO(data), [])
    text = io.TextIOWrapper(io.BytesIO(data), encoding="latin-1").read()
    rows, skipped = naive_parse_ml1m_rows(
        io.StringIO(text.removeprefix(codecs.BOM_UTF8.decode("latin-1"))))
    assert raw.skipped_interactions == skipped
    assert triple_rows(raw.triples) == rows
    t = raw.triples
    assert t.user_ids == list(dict.fromkeys(user for user, _, _ in rows))
    assert t.item_ids == list(dict.fromkeys(movie for _, movie, _ in rows))
    assert all(type(i) is str for i in t.user_ids + t.item_ids)
    assert (t.users.dtype, t.items.dtype, t.strengths.dtype) == (np.int32, np.int32, np.float64)


@st.composite
def ml1m_files(draw):
    lines = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(["row"] * 6 + ["short", "long", "blank", "colons"]))
        fields = [draw(st.sampled_from(ML1M_IDS)), draw(st.sampled_from(ML1M_IDS)),
                  draw(st.sampled_from(RATINGS)), draw(st.sampled_from(TIMES))]
        if kind == "short":
            fields = fields[:3]
        elif kind == "long":
            fields.append(draw(st.sampled_from(TIMES)))
        sep = draw(st.sampled_from([b":::", b"::::"])) if kind == "colons" else b"::"
        line = b"" if kind == "blank" else sep.join(fields)
        lines.append(line + draw(st.sampled_from(ENDS)))
    data = b"".join(lines)
    if lines and draw(st.booleans()):
        data = data.rstrip(b"\r\n")  # no final line end
    if draw(st.booleans()):
        data = codecs.BOM_UTF8 + data
    return data


@settings(max_examples=300, deadline=None, derandomize=True)
@given(ml1m_files(), st.sampled_from([1, 2, 3, 5, 8, 64, 1 << 20]))
def test_ml1m_parse_matches_oracle(data, chunk_bytes):
    assert_ml1m_matches_oracle(data, chunk_bytes)


@pytest.mark.parametrize("chunk_bytes", [1, 2, 7, 1 << 20])
def test_ml1m_colon_runs_split_as_str_split(chunk_bytes):
    data = (b"1::2::3:::\n1:::2::3::0\n1::::2::3::0\n1::2::3::::\n1::2::3::0::\n"
            b"1::2:::3::0\r\n:::1::2::3\r1::2::3:::::\n")
    assert_ml1m_matches_oracle(data, chunk_bytes)
    raw = ingest.parse_ml1m(io.BytesIO(data), [])
    assert triple_rows(raw.triples) == [("1", "2", 3)]  # the first line, timestamp ":"


def test_ml1m_ids_past_int64_stay_apart():
    """Ids past an int64 keep their own codes, and one value written
    differently is one id, with the code of its first appearance."""
    ids = [b"9223372036854775807", b"9223372036854775808", b"1" + b"0" * 19, b"+7", b"7",
           b"-9223372036854775808", b"-9223372036854775809", b"00009223372036854775808"]
    data = b"".join(user + b"::" + movie + b"::3::0\n" for user in ids for movie in ids)
    for chunk_bytes in (5, 1 << 20):
        assert_ml1m_matches_oracle(data, chunk_bytes)
    raw = ingest.parse_ml1m(io.BytesIO(data), [])
    want = [str(i) for i in (2 ** 63 - 1, 2 ** 63, 10 ** 19, 7, -2 ** 63, -2 ** 63 - 1)]
    assert raw.triples.user_ids == raw.triples.item_ids == want
    assert raw.triples.users.tolist() == [code for code in (0, 1, 2, 3, 3, 4, 5, 1)
                                          for _ in ids]


def one_hash(words, lengths):
    return np.full(lengths.size, 12345, dtype=np.uint64)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("chunk_bytes", [97, 1 << 20])
def test_every_hash_colliding(seed, chunk_bytes):
    """With one hash for every field, each field after a chunk's first is
    looked up by its bytes alone."""
    with mock.patch.object(ingest, "_hash", one_hash):
        assert_parse_matches_oracle(_seeded_file(seed, 300), chunk_bytes)


@pytest.mark.parametrize("chunk_bytes", [1, 7, 1 << 20])
def test_lookalike_ids_under_one_hash(chunk_bytes):
    """Ids whose zero-padded words or first 64 bytes are equal stay apart
    when every field shares one hash: the length is compared too."""
    ids = [b"a", *LOOKALIKES]
    data = b"".join(user + b"\t" + artist + b"\tN\t1\n"
                    for user in ids for artist in reversed(ids))
    with mock.patch.object(ingest, "_hash", one_hash):
        assert_parse_matches_oracle(data, chunk_bytes)
        triples, _ = ingest.parse_lfm_interactions(io.BytesIO(data))
    assert triples.user_ids == [i.decode() for i in ids]
    assert triples.item_ids == [i.decode() for i in reversed(ids)]


def test_invalid_bytes_that_decode_alike_are_one_id():
    data = b"\xff7\tm\tN\t1\n\xfe7\tm\tN\t2\nu\t\xffm\tN\t3\nu\t\xfem\tN\t4\n"
    for chunk_bytes in (1, 4, 1 << 20):
        assert_parse_matches_oracle(data, chunk_bytes)
    triples, _ = ingest.parse_lfm_interactions(io.BytesIO(data))
    assert triples.user_ids == ["\ufffd7", "u"]
    assert triples.item_ids == ["m", "\ufffdm"]
    assert triples.users.tolist() == [0, 0, 1, 1]
    assert triples.items.tolist() == [0, 0, 1, 1]


@pytest.mark.parametrize("provenance, data, user_ids, users", [
    ("lfm", b"\xff7\tm\tN\t1\nx\tm\tN\t2\n\xfe7\tn\tN\t3\nx\tn\tN\t4\n",
     ["\ufffd7", "x"], [0, 1, 0, 1]),
    ("ml1m", b"007::1::3::0\n8::1::3::0\n7::2::3::0\n+8::2::3::0\n", ["7", "8"], [0, 1, 0, 1]),
])
def test_ids_that_decode_alike_share_a_code_across_chunks(provenance, data, user_ids, users):
    """A byte form first met in a later chunk takes the code its decoded id
    got in an earlier one, and ids keep their first-seen order."""
    calls = []
    codes = ingest._codes

    def counted(*args):  # keeps no argument: a view of the read buffer would pin it
        calls.append(None)
        return codes(*args)

    with mock.patch.object(ingest, "_CHUNK_BYTES", 4), \
            mock.patch.object(ingest, "_codes", counted):
        if provenance == "lfm":
            triples, _ = ingest.parse_lfm_interactions(io.BytesIO(data))
        else:
            triples = ingest.parse_ml1m(io.BytesIO(data), []).triples
    assert len(calls) == 2 * 4  # each line its own chunk, coded per side
    assert triples.user_ids == user_ids
    assert triples.users.tolist() == users
    assert triples.items.tolist() == [0, 0, 1, 1]


def test_ids_longer_than_any_word_group():
    ids = [b"a" * n for n in (1, 7, 8, 9, 63, 64, 65, 200, 1000)] + [b"b" * 1000]
    data = b"".join(user + b"\t" + artist + b"\tN\t1\n"
                    for user in ids for artist in reversed(ids))
    for chunk_bytes in (3, 512, 1 << 20):
        assert_parse_matches_oracle(data, chunk_bytes)


def test_only_one_byte_order_mark_is_ignored():
    bom = codecs.BOM_UTF8
    for data in (bom, bom + bom + b"u\ta\tN\t1\n", bom + b"u\ta\tN\t1"):
        for chunk_bytes in (1, 2, 3, 1 << 20):
            assert_parse_matches_oracle(data, chunk_bytes)
