"""Small shared helpers: seed derivation, float formatting, distinct values."""

from __future__ import annotations

import hashlib

import numpy as np


def derive_seed(*parts) -> int:
    """Derive a 64-bit RNG seed from a tuple of hashable parts.

    Uses blake2b over the string forms, so the result is stable across
    processes and Python hash randomization.  Used wherever a per-unit
    RNG is needed (per user, per fold, per bag) so that evaluation order
    and parallelism cannot change random decisions.
    """
    h = hashlib.blake2b(digest_size=8)
    for part in parts:
        h.update(str(part).encode("utf-8"))
        h.update(b"\x1f")
    return int.from_bytes(h.digest(), "big")


def fmt_float(x: float) -> str:
    """Shortest round-trip decimal form, identical on every run."""
    return repr(float(x))


def distinct_sorted(values: np.ndarray) -> np.ndarray:
    """``np.unique(values)`` for an array without NaN, as one sort keeping the
    first of each run of equal values: under numpy 2.x a plain ``np.unique``
    imports ``numpy.ma``, which no verb needs."""
    ordered = np.sort(values)
    first = np.ones(ordered.size, dtype=bool)
    first[1:] = ordered[1:] != ordered[:-1]
    return ordered[first]
