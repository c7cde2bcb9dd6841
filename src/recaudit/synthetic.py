"""Synthetic dataset generator with a planted utility gap.

Writes LFM-format interaction and profile files where one user group
("m" in the profile) preferentially consumes globally popular items while
the other ("f") consumes uniformly at random.  A factorization model should
serve the popularity-leaning group better, so a fairness audit over the
gender scheme must flag the gap, while the last-digit control stays quiet.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .util import derive_seed


@dataclass(frozen=True)
class PlantedTruth:
    """Ground truth of a generated dataset: which users are popularity-biased."""

    biased_users: frozenset  # user ids drawn from the popularity distribution
    uniform_users: frozenset


def generate_planted(out_dir: str | Path, n_users: int = 2000, n_items: int = 500,
                     seed: int = 0, min_items: int = 30, max_items: int = 70,
                     zipf_exponent: float = 1.0) -> PlantedTruth:
    """Write interactions.tsv and profiles.tsv under ``out_dir``.

    User ids are sequential integers starting at 1; the biased/uniform split
    is a seeded random half, independent of the id digits.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(derive_seed(seed, "planted"))

    max_items = min(max_items, n_items)
    min_items = min(min_items, max_items)

    weights = 1.0 / np.arange(1, n_items + 1) ** zipf_exponent
    weights /= weights.sum()

    user_ids = np.arange(1, n_users + 1)
    biased_mask = np.zeros(n_users, dtype=bool)
    biased_mask[rng.permutation(n_users)[: n_users // 2]] = True

    ages = rng.integers(18, 61, size=n_users).tolist()
    # formatting numpy scalars row by row cost more than the draws, so the
    # item columns are formatted once and a user's rows written in one call
    item_cols = [f"\titem{i:05d}\tItem {i}\t" for i in range(n_items)]

    with open(out_dir / "interactions.tsv", "w", encoding="utf-8") as ifh, \
            open(out_dir / "profiles.tsv", "w", encoding="utf-8") as pfh:
        for idx, biased in enumerate(biased_mask.tolist()):
            n_owned = int(rng.integers(min_items, max_items + 1))
            if biased:
                items = rng.choice(n_items, size=n_owned, replace=False, p=weights)
            else:
                items = rng.choice(n_items, size=n_owned, replace=False)
            plays = (1 + rng.poisson(3.0, size=n_owned)).tolist()
            uid = str(idx + 1)
            ifh.write("".join([f"{uid}{item_cols[item]}{play}\n"
                               for item, play in zip(items.tolist(), plays)]))
            pfh.write(f"{uid}\t{'m' if biased else 'f'}\t{ages[idx]}\t\t\n")

    # ids as strings, matching what the LFM-format parser yields
    return PlantedTruth(
        biased_users=frozenset(str(u) for u in user_ids[biased_mask]),
        uniform_users=frozenset(str(u) for u in user_ids[~biased_mask]),
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Generate a synthetic planted-bias dataset in LFM format")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--users", type=int, default=2000)
    parser.add_argument("--items", type=int, default=500)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    truth = generate_planted(args.out, n_users=args.users, n_items=args.items,
                             seed=args.seed)
    print(f"wrote {args.users} users x {args.items} items to {args.out} "
          f"({len(truth.biased_users)} popularity-biased)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
