"""TracePlan: all trace-global preparation, computed once and shared.

Every consumer of a trace repeats the same preparation: spatial sampling
hashes the key column, the batch kernels factorize keys and build
previous-occurrence indices, and a :class:`~repro.engine.sweep.ModelSweep`
does all of it once *per grid cell*.  :class:`TracePlan` hoists that work
to a single vectorized pass per trace:

* **hash columns** — batched ``splitmix64`` over the keys, one column per
  hash seed, from which every spatial-sampling mask is a single compare;
* **sampling masks/indices** — cached per ``(seed, modulus, threshold)``
  so a sweep with repeated rates filters each rate exactly once;
* **dense key factorization** — ``key_ids`` in ``[0, U)`` plus the unique
  key table;
* **occurrence indices** — previous/next-occurrence columns feeding the
  Olken batch kernel, and per-chunk first/last-occurrence masks for
  chunked passes.

Plans are cached by the trace's CRC32 fingerprint — the same fingerprint
:class:`~repro.engine.checkpoint.SweepCheckpoint` uses — so repeated
models over one trace (a sweep, a benchmark loop) hit the cache.  The
columns are plain ``int64``/``uint64`` arrays, which is what lets
:class:`~repro.engine.shm.SharedTraceStore` publish them zero-copy next
to the trace columns: every pool worker then *attaches* the finished
preparation instead of redoing it.

All fields are lazy: a plan built only for sampling never pays for the
factorization argsort, and vice versa.
"""

from __future__ import annotations

import zlib
from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..kernels.prep import (
    chunk_occurrence_masks,
    factorize_keys,
    next_occurrence,
    prev_occurrence,
)
from ..sampling.hashing import splitmix64
from ..workloads.trace import Trace

__all__ = [
    "StreamingTracePlan",
    "TracePlan",
    "clear_plan_cache",
    "trace_fingerprint",
]


def trace_fingerprint(trace: Trace) -> int:
    """CRC32 over the trace columns — the engine-wide trace identity.

    The same value fingerprints sweep checkpoints
    (:meth:`~repro.engine.sweep.ModelSweep._signature`) and keys the plan
    cache, so "same fingerprint" means "same preparation applies".
    """
    crc = zlib.crc32(trace.keys.tobytes())
    crc = zlib.crc32(trace.sizes.tobytes(), crc)
    return zlib.crc32(trace.ops.tobytes(), crc)


class TracePlan:
    """Lazily-computed, shareable preparation for one trace's key column."""

    def __init__(self, keys: np.ndarray, fingerprint: int) -> None:
        self._keys = np.ascontiguousarray(keys, dtype=np.int64)
        self.fingerprint = int(fingerprint)
        self._hashes: Dict[int, np.ndarray] = {}
        self._sample_indices: Dict[Tuple[int, int, int], np.ndarray] = {}
        self._unique_keys: Optional[np.ndarray] = None
        self._key_ids: Optional[np.ndarray] = None
        self._prev: Optional[np.ndarray] = None
        self._next: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def for_trace(cls, trace: Trace) -> "TracePlan":
        """The cached plan for ``trace`` (built on first request)."""
        key = (trace_fingerprint(trace), len(trace))
        plan = _PLAN_CACHE.get(key)
        if plan is None:
            plan = cls(trace.keys, key[0])
            _PLAN_CACHE[key] = plan
            while len(_PLAN_CACHE) > _PLAN_CACHE_MAX:
                _PLAN_CACHE.popitem(last=False)
        else:
            _PLAN_CACHE.move_to_end(key)
        return plan

    @classmethod
    def from_columns(
        cls,
        keys: np.ndarray,
        fingerprint: int,
        *,
        key_ids: np.ndarray,
        prev: np.ndarray,
        hashes: np.ndarray,
        hash_seed: int = 0,
    ) -> "TracePlan":
        """Rehydrate a plan from precomputed (e.g. shared-memory) columns.

        The unique-key table is not shipped across processes; consumers
        that need it (none of the hot paths do) trigger a local rebuild.
        """
        plan = cls(keys, fingerprint)
        plan._key_ids = np.ascontiguousarray(key_ids, dtype=np.int64)
        plan._prev = np.ascontiguousarray(prev, dtype=np.int64)
        plan._hashes[int(hash_seed)] = np.ascontiguousarray(
            hashes, dtype=np.uint64
        )
        return plan

    # ------------------------------------------------------------------
    # lazy columns
    # ------------------------------------------------------------------
    @property
    def n_requests(self) -> int:
        return int(self._keys.shape[0])

    @property
    def keys(self) -> np.ndarray:
        return self._keys

    def hashes(self, seed: int = 0) -> np.ndarray:
        """Batched ``splitmix64`` of the key column under ``seed``."""
        column = self._hashes.get(int(seed))
        if column is None:
            hashed = splitmix64(self._keys, int(seed))
            assert isinstance(hashed, np.ndarray)
            column = np.ascontiguousarray(hashed, dtype=np.uint64)
            self._hashes[int(seed)] = column
        return column

    @property
    def key_ids(self) -> np.ndarray:
        """Dense key ids in ``[0, n_unique_keys)``."""
        if self._key_ids is None:
            self._unique_keys, self._key_ids = factorize_keys(self._keys)
        return self._key_ids

    @property
    def unique_keys(self) -> np.ndarray:
        """Sorted distinct keys (``unique_keys[key_ids] == keys``)."""
        if self._unique_keys is None:
            self._unique_keys, self._key_ids = factorize_keys(self._keys)
        return self._unique_keys

    @property
    def n_unique_keys(self) -> int:
        if self._key_ids is not None and self._unique_keys is None:
            # Rehydrated from shared columns: the id range is the count.
            return int(self._key_ids.max()) + 1 if self.n_requests else 0
        return int(self.unique_keys.shape[0])

    @property
    def prev_occurrence(self) -> np.ndarray:
        """Previous same-key access index per request (-1 = cold)."""
        if self._prev is None:
            self._prev = prev_occurrence(self._keys)
        return self._prev

    @property
    def next_occurrence(self) -> np.ndarray:
        """Next same-key access index per request (``n_requests`` = last)."""
        if self._next is None:
            self._next = next_occurrence(self._keys)
        return self._next

    def chunk_masks(self, chunk_size: int) -> Tuple[np.ndarray, np.ndarray]:
        """Per-chunk ``(first_in_chunk, last_in_chunk)`` occurrence masks."""
        return chunk_occurrence_masks(
            self.prev_occurrence, self.next_occurrence, chunk_size
        )

    # ------------------------------------------------------------------
    # spatial sampling
    # ------------------------------------------------------------------
    def sample_mask(
        self, threshold: int, modulus: int, seed: int = 0
    ) -> np.ndarray:
        """Boolean keep-mask for ``hash(key) mod modulus < threshold``.

        Identical to :meth:`repro.sampling.spatial.SpatialSampler.mask`
        for a sampler with the same parameters, but reuses the cached hash
        column instead of re-hashing the trace.
        """
        hashed = self.hashes(seed)
        mask = (hashed % np.uint64(modulus)) < np.uint64(threshold)
        assert isinstance(mask, np.ndarray)
        return mask

    def sample_indices(
        self, threshold: int, modulus: int, seed: int = 0
    ) -> np.ndarray:
        """Indices of sampled requests, cached per filter parameters."""
        cache_key = (int(seed), int(modulus), int(threshold))
        idx = self._sample_indices.get(cache_key)
        if idx is None:
            idx = np.flatnonzero(self.sample_mask(threshold, modulus, seed))
            self._sample_indices[cache_key] = idx
        return idx

    # ------------------------------------------------------------------
    def materialize(self) -> None:
        """Force the shareable columns (ids, prev, seed-0 hashes)."""
        _ = self.key_ids
        _ = self.prev_occurrence
        _ = self.hashes(0)


class StreamingTracePlan:
    """The out-of-core sibling of :class:`TracePlan`: per-chunk columns.

    A :class:`TracePlan` hoists whole-trace preparation; with a bounded-
    memory :class:`~repro.workloads.stream.TraceStream` the whole columns
    never exist, so the same preparation is computed *incrementally*:

    * :meth:`intern` — dense key ids assigned in first-seen order (new
      keys of a chunk in ascending key order), kept as sorted runs of
      keys beside their ids, so a chunk is one unique-pass plus a
      ``searchsorted`` per run, with no per-key Python.  A chunk's new
      keys become a run that absorbs the smallest runs while they are at
      most twice its size, so each run is more than twice the next, there
      are O(log U) runs for U distinct keys, and a key takes part in
      O(log U) merges: a chunk does not rewrite all U keys, as a single
      sorted array would for every chunk that brings a new key.  Id *values*
      differ from :attr:`TracePlan.key_ids` (sorted-table order) but the
      key<->id bijection is equivalent, which is all the SoA stacks need
      (distances depend on stack positions, not id values — see
      :meth:`~repro.stack.soa.SoAKRRStack.access_many_interned`).
    * :meth:`chunk_hashes` — per-chunk ``splitmix64`` columns, memoized
      per hash seed *for the current chunk only* so a grid with many
      cells sharing one sampler seed hashes each chunk once.  The hash is
      stateless per key, so chunked masks select exactly the rows a
      whole-column mask would.
    * :meth:`observe` — running request count and a chained CRC32
      fingerprint over the chunks (chunk-layout dependent; stable for
      replays of the same stream).
    """

    def __init__(self) -> None:
        #: Every key seen so far as sorted ``(keys, ids)`` runs, largest first.
        self._runs: List[Tuple[np.ndarray, np.ndarray]] = []
        self._n_keys = 0
        self.n_requests = 0
        self.n_chunks = 0
        self.fingerprint = 0
        self._hash_chunk_id = -1
        self._hash_cache: Dict[int, np.ndarray] = {}

    @property
    def n_unique_keys(self) -> int:
        return self._n_keys

    def observe(self, chunk: Trace) -> None:
        """Fold one chunk into the running counters and fingerprint."""
        crc = zlib.crc32(chunk.keys.tobytes(), self.fingerprint)
        crc = zlib.crc32(chunk.sizes.tobytes(), crc)
        self.fingerprint = zlib.crc32(chunk.ops.tobytes(), crc)
        self.n_requests += len(chunk)
        self.n_chunks += 1

    def intern(self, keys: np.ndarray) -> np.ndarray:
        """Dense first-seen ids for one chunk's key column (stateful)."""
        uniq, inverse = np.unique(
            np.asarray(keys, dtype=np.int64), return_inverse=True
        )
        lut = np.empty(uniq.shape[0], dtype=np.int64)
        todo = np.arange(uniq.shape[0])  # chunk keys not found in a run yet
        for run_keys, run_ids in self._runs:
            if not todo.shape[0]:
                break
            want = uniq[todo]
            at = np.minimum(np.searchsorted(run_keys, want), run_keys.shape[0] - 1)
            hit = run_keys[at] == want
            lut[todo[hit]] = run_ids[at[hit]]
            todo = todo[~hit]
        if todo.shape[0]:
            # New keys take the next ids in ascending key order.
            new_keys = uniq[todo]
            new_ids = np.arange(
                self._n_keys, self._n_keys + todo.shape[0], dtype=np.int64
            )
            lut[todo] = new_ids
            self._n_keys += int(todo.shape[0])
            runs = self._runs
            while runs and runs[-1][0].shape[0] <= 2 * new_keys.shape[0]:
                run_keys, run_ids = runs.pop()
                at = np.searchsorted(run_keys, new_keys)
                new_keys = np.insert(run_keys, at, new_keys)
                new_ids = np.insert(run_ids, at, new_ids)
            runs.append((new_keys, new_ids))
        return np.ascontiguousarray(lut[inverse], dtype=np.int64)

    def chunk_hashes(self, keys: np.ndarray, seed: int = 0) -> np.ndarray:
        """``splitmix64`` of one chunk's keys, memoized for the current chunk.

        The memo is keyed by ``(chunk identity, seed)`` where chunk
        identity is the per-plan chunk counter — call :meth:`observe`
        *before* hashing a new chunk so the memo rolls over.
        """
        if self._hash_chunk_id != self.n_chunks:
            self._hash_cache.clear()
            self._hash_chunk_id = self.n_chunks
        column = self._hash_cache.get(int(seed))
        if column is None:
            hashed = splitmix64(keys, int(seed))
            assert isinstance(hashed, np.ndarray)
            column = np.ascontiguousarray(hashed, dtype=np.uint64)
            self._hash_cache[int(seed)] = column
        return column

    def chunk_sample_mask(
        self, keys: np.ndarray, threshold: int, modulus: int, seed: int = 0
    ) -> np.ndarray:
        """Per-chunk keep-mask, identical to the whole-column mask's rows."""
        hashed = self.chunk_hashes(keys, seed)
        mask = (hashed % np.uint64(modulus)) < np.uint64(threshold)
        assert isinstance(mask, np.ndarray)
        return mask


_PLAN_CACHE_MAX = 8
_PLAN_CACHE: "OrderedDict[Tuple[int, int], TracePlan]" = OrderedDict()


def clear_plan_cache() -> None:
    """Drop every cached plan (tests and memory-pressure hooks)."""
    _PLAN_CACHE.clear()
