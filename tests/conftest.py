import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from recaudit.interactions import from_triples


@pytest.fixture
def rng():
    return np.random.default_rng(20240915)


def random_matrix(rng, n_users, n_items, density=0.2, max_strength=9):
    """Random interaction matrix with at least one entry per user."""
    triples = []
    for u in range(n_users):
        n_owned = max(1, rng.binomial(n_items, density))
        items = rng.choice(n_items, size=n_owned, replace=False)
        for i in items:
            triples.append((f"u{u}", f"i{i}", int(rng.integers(1, max_strength + 1))))
    # make sure every item index exists so shapes stay n_users x n_items
    for i in range(n_items):
        triples.append((f"u{rng.integers(0, n_users)}", f"i{i}",
                        int(rng.integers(1, max_strength + 1))))
    return from_triples(triples)


def triple_rows(triples):
    """``Triples`` as a list of (user_id, item_id, strength) tuples."""
    return [(triples.user_ids[u], triples.item_ids[i], s) for u, i, s in
            zip(triples.users.tolist(), triples.items.tolist(),
                triples.strengths.tolist())]


@pytest.fixture
def small_random_matrix(rng):
    return random_matrix(rng, 50, 80)
