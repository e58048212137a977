"""Vectorized trace-preparation primitives.

Everything here is a pure function of the key column, computed in one
sort-based pass: previous/next-occurrence indices (the Olken batch
kernel and SHARDS's stack rebuild).  All outputs are plain ``int64``
arrays.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "next_occurrence",
    "prev_occurrence",
]


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

