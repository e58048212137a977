"""Batched exact LRU stack distances: Olken's oracle as NumPy passes.

The per-access oracles in :mod:`repro.stack.lru_stack` pay interpreted
Python per reference — ``O(log N)`` Fenwick loop iterations each for
:class:`~repro.stack.lru_stack.TreeLRUStack`.  This module computes the
same distances for a *whole trace at once* from a purely offline
reformulation:

With ``P[i]`` the index of request ``i``'s previous access to the same key
(-1 when cold), the object-granularity stack distance is the number of
distinct keys touched in the reuse window, which reduces to a prefix
dominance count (every non-negative value appears in ``P`` at most once,
so counting positions ``j < i`` with ``P[j] <= P[i]`` counts window-first
occurrences plus everything at or below the window start)::

    d(i) = #{j < i : P[j] <= P[i]} - P[i]

The byte-granularity distance subtracts, from the total bytes requested in
the window, the bytes of window-internal *re*-accesses (a request ``j < i``
with ``P[j] > P[i]`` is exactly a re-access whose superseded copy sat at
``P[j]`` inside the window)::

    d_byte(i) = sum(size[P[i]:i]) - sum_{j<i, P[j] > P[i]} size[P[j]]

Both prefix statistics — the count of dominated predecessors and the
weighted sum over them — come from one **chunked merge-doubling pass**:
base chunks of ``base_block`` requests are resolved by direct broadcast
comparison, then block-sorted chunks are merged level by level (a 2D
stable argsort per level merges every pair of adjacent chunks at once),
accumulating cross-chunk contributions from exclusive cumulative sums.
``O(N log**2 N)`` work, but every op is a whole-array NumPy pass — ~30x
faster than the per-access Fenwick loop at 500k requests, bit-identical
output (enforced by property tests against the linked-list oracle).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .prep import prev_occurrence

__all__ = [
    "batch_stack_distances",
    "prefix_leq",
]


_INT64_MAX = np.iinfo(np.int64).max

#: Default base-chunk size for the merge-doubling pass.  Chunks up to this
#: size are resolved by direct broadcast comparison (O(chunk) vectorized
#: rows); larger scales go through argsort merge levels.  64-256 all
#: perform within a few percent of each other; 128 is the sweet spot
#: measured on 500k-request traces.
DEFAULT_BASE_BLOCK = 128


def prefix_leq(
    values: np.ndarray,
    weights: Optional[np.ndarray] = None,
    base_block: int = DEFAULT_BASE_BLOCK,
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Per-element dominated-prefix statistics, fully vectorized.

    Returns ``(counts, wsums)`` where ``counts[i] = #{j < i : v[j] <= v[i]}``
    and ``wsums[i] = sum_{j < i, v[j] <= v[i]} w[j]`` (``None`` when no
    weights are given).  Ties resolve to "counted", matching the ``<=``;
    the only repeated value the stack-distance caller produces is -1.
    """
    values = np.ascontiguousarray(values, dtype=np.int64)
    n = int(values.shape[0])
    weighted = weights is not None
    counts = np.zeros(n, dtype=np.int64)
    wsums: Optional[np.ndarray] = np.zeros(n, dtype=np.int64) if weighted else None
    if n <= 1:
        return counts, wsums
    if values.max() >= _INT64_MAX:
        raise ValueError("values must be < int64 max (reserved for padding)")
    base = 1 << max(1, (int(base_block) - 1).bit_length())
    m = base
    while m < n:
        m <<= 1
    # Padded working copies: the tail pads with +inf / weight 0, which can
    # never count toward a real element's prefix statistics.
    v = np.full(m, _INT64_MAX, dtype=np.int64)
    v[:n] = values
    cnt = np.zeros(m, dtype=np.int64)
    v2 = v.reshape(-1, base)
    if weighted:
        w = np.zeros(m, dtype=np.int64)
        w[:n] = weights
        ws = np.zeros(m, dtype=np.int64)
        w2 = w.reshape(-1, base)
    # Base chunks: direct prefix comparison, one vectorized row per offset.
    cnt2 = cnt.reshape(-1, base)
    for i in range(1, base):
        cmp = v2[:, :i] <= v2[:, i : i + 1]
        cnt2[:, i] = cmp.sum(axis=1)
        if weighted:
            ws.reshape(-1, base)[:, i] = np.where(cmp, w2[:, :i], 0).sum(axis=1)
    # Merge-doubling levels over block-sorted index order: each level
    # merges every pair of adjacent sorted chunks with one stable argsort,
    # and right-chunk elements absorb their left-chunk contributions from
    # exclusive cumulative sums over the merged rows.
    order = (
        np.argsort(v2, axis=1, kind="stable")
        + (np.arange(v2.shape[0], dtype=np.int64) * base)[:, None]
    ).reshape(-1)
    b = base
    while b < m:
        nb = 2 * b
        idx = order.reshape(-1, nb)
        perm = np.argsort(v[idx], axis=1, kind="stable")
        midx = np.take_along_axis(idx, perm, axis=1)
        fromleft = perm < b
        lcnt_excl = np.cumsum(fromleft, axis=1) - fromleft
        right = ~fromleft
        gi = midx[right]
        cnt[gi] += lcnt_excl[right]
        if weighted:
            wl = np.where(fromleft, w[midx], 0)
            ws[gi] += (np.cumsum(wl, axis=1) - wl)[right]
        order = midx.reshape(-1)
        b = nb
    counts[:] = cnt[:n]
    if weighted:
        assert wsums is not None
        wsums[:] = ws[:n]
    return counts, wsums


def batch_stack_distances(
    keys: np.ndarray,
    sizes: Optional[np.ndarray] = None,
    *,
    base_block: int = DEFAULT_BASE_BLOCK,
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Exact pre-access LRU stack distances for a whole trace.

    Returns ``(distances, byte_distances)``: 1-based object-granularity
    stack positions with -1 marking cold accesses, elementwise identical
    to streaming the trace through
    :class:`~repro.stack.lru_stack.LinkedListLRUStack` /
    :class:`~repro.stack.lru_stack.TreeLRUStack`.  ``byte_distances`` is
    ``None`` unless ``sizes`` is given, in which case it is the inclusive
    byte-level distance (bytes of all more recent objects at their
    last-access sizes, plus the object's own pre-access size).
    """
    keys = np.ascontiguousarray(keys, dtype=np.int64)
    n = int(keys.shape[0])
    prev = prev_occurrence(keys)
    if n == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, (np.empty(0, dtype=np.int64) if sizes is not None else None)
    warm = prev >= 0
    if sizes is None:
        counts, _ = prefix_leq(prev, base_block=base_block)
        return np.where(warm, counts - prev, np.int64(-1)), None
    sizes = np.ascontiguousarray(sizes, dtype=np.int64)
    if int(sizes.shape[0]) != n:
        raise ValueError("sizes length does not match keys")
    # Weight of request j: the superseded copy's size (its key's size as
    # of the previous access), 0 for cold requests.
    w = np.zeros(n, dtype=np.int64)
    w[warm] = sizes[prev[warm]]
    counts, wsums = prefix_leq(prev, w, base_block=base_block)
    assert wsums is not None
    size_cumsum = np.concatenate((np.zeros(1, dtype=np.int64), np.cumsum(sizes)))
    window_bytes = size_cumsum[:-1] - size_cumsum[np.maximum(prev, 0)]
    # sum_{j<i, P[j] > P[i]} w[j] == (all prior weight) - (dominated weight)
    w_cumsum = np.concatenate((np.zeros(1, dtype=np.int64), np.cumsum(w)))[:-1]
    stale_bytes = w_cumsum - wsums
    distances = np.where(warm, counts - prev, np.int64(-1))
    byte_distances = np.where(warm, window_bytes - stale_bytes, np.int64(-1))
    return distances, byte_distances
