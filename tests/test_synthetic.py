"""The planted-bias generator writes the same bytes as the row-by-row
oracle, with the same draws, across seeds and shapes."""

from collections import Counter

import pytest

from oracles import naive_generate_planted
from recaudit.synthetic import generate_planted

FILES = ("interactions.tsv", "profiles.tsv")


def assert_same_corpus(tmp_path, **kwargs):
    truth = generate_planted(tmp_path / "new", **kwargs)
    expected = naive_generate_planted(tmp_path / "naive", **kwargs)
    assert truth == expected
    for name in FILES:
        assert (tmp_path / "new" / name).read_bytes() == \
            (tmp_path / "naive" / name).read_bytes(), name
    return truth


@pytest.mark.parametrize("seed", [0, 2, 3, 11])
def test_seeds(tmp_path, seed):
    truth = assert_same_corpus(tmp_path, n_users=200, n_items=150, seed=seed)
    assert len(truth.biased_users) == len(truth.uniform_users) == 100


# the benchmark's three workload shapes (users, items)
@pytest.mark.parametrize("n_users,n_items", [(1500, 800), (1200, 4000), (3000, 1000)])
def test_benchmark_shapes(tmp_path, n_users, n_items):
    assert_same_corpus(tmp_path, n_users=n_users, n_items=n_items, seed=1)


def test_variants_corpus(tmp_path):
    # the corpus that tests/test_variants.py audits in variants
    assert_same_corpus(tmp_path, n_users=300, n_items=150, seed=0)


@pytest.mark.parametrize("n_items", [40, 20])
def test_fewer_items_than_max_items(tmp_path, n_items):
    # max_items is clamped to n_items, and min_items to the clamped max
    assert_same_corpus(tmp_path, n_users=60, n_items=n_items, seed=5)
    lines = (tmp_path / "new" / "interactions.tsv").read_text().splitlines()
    per_user = Counter(line.split("\t")[0] for line in lines)
    assert set(per_user.values()) <= set(range(min(30, n_items), n_items + 1))


def test_min_items_equal_max_items(tmp_path):
    assert_same_corpus(tmp_path, n_users=50, n_items=80, seed=6,
                       min_items=12, max_items=12)
    lines = (tmp_path / "new" / "interactions.tsv").read_text().splitlines()
    assert len(lines) == 50 * 12


def test_odd_user_count(tmp_path):
    truth = assert_same_corpus(tmp_path, n_users=101, n_items=90, seed=8)
    assert len(truth.biased_users) == 50 and len(truth.uniform_users) == 51


def test_single_user(tmp_path):
    truth = assert_same_corpus(tmp_path, n_users=1, n_items=90, seed=9)
    assert truth.biased_users == frozenset() and truth.uniform_users == {"1"}


@pytest.mark.parametrize("zipf_exponent", [0.7, 1.6])
def test_zipf_exponent(tmp_path, zipf_exponent):
    assert_same_corpus(tmp_path, n_users=120, n_items=200, seed=10,
                       zipf_exponent=zipf_exponent)
