"""Vectorized trace-preparation primitives.

Everything here is a pure function of the key column, computed in one
sort-based pass: dense key factorization (the in-memory grid's stack
ids) and previous/next-occurrence indices (the Olken batch kernel and
SHARDS's stack rebuild).  All outputs are plain ``int64`` arrays.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = [
    "factorize_keys",
    "next_occurrence",
    "prev_occurrence",
]


def factorize_keys(keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Dense factorization: ``(unique_keys, key_ids)``.

    ``key_ids`` maps every request to a compact id in ``[0, U)`` such that
    ``unique_keys[key_ids] == keys``; one sort-based pass over the column.
    """
    unique_keys, inverse = np.unique(
        np.ascontiguousarray(keys, dtype=np.int64), return_inverse=True
    )
    return unique_keys, np.ascontiguousarray(inverse, dtype=np.int64)


def prev_occurrence(keys: np.ndarray) -> np.ndarray:
    """Index of each request's previous access to the same key (-1 = cold).

    Works on raw keys or dense ids alike: one stable argsort groups equal
    keys while preserving request order within each group, so consecutive
    entries of a group are consecutive occurrences.
    """
    keys = np.ascontiguousarray(keys, dtype=np.int64)
    n = int(keys.shape[0])
    prev = np.full(n, -1, dtype=np.int64)
    if n > 1:
        order = np.argsort(keys, kind="stable")
        same = keys[order[1:]] == keys[order[:-1]]
        prev[order[1:][same]] = order[:-1][same]
    return prev


def next_occurrence(keys: np.ndarray) -> np.ndarray:
    """Index of each request's next access to the same key (``n`` = last)."""
    keys = np.ascontiguousarray(keys, dtype=np.int64)
    n = int(keys.shape[0])
    nxt = np.full(n, n, dtype=np.int64)
    if n > 1:
        order = np.argsort(keys, kind="stable")
        same = keys[order[1:]] == keys[order[:-1]]
        nxt[order[:-1][same]] = order[1:][same]
    return nxt

