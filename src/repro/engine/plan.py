"""Trace identity and per-chunk preparation for streamed traces.

* :func:`trace_fingerprint` — the CRC32 over a trace's columns that
  identifies it in sweep and fleet checkpoint signatures.
* :class:`StreamingTracePlan` — the preparation a streamed grid pass
  shares across its cells, computed chunk by chunk: dense key ids
  (interned in first-seen order) and ``splitmix64`` hash columns, from
  which every spatial-sampling mask is a single compare.  A chunk's
  columns are computed once and reused by every cell that needs them.
"""

from __future__ import annotations

import zlib
from typing import Dict, List, Tuple

import numpy as np

from ..sampling.hashing import splitmix64
from ..workloads.trace import Trace

__all__ = [
    "StreamingTracePlan",
    "trace_fingerprint",
]


def trace_fingerprint(trace: Trace) -> int:
    """CRC32 over the trace columns — the engine-wide trace identity.

    The same value fingerprints sweep checkpoints
    (:meth:`~repro.engine.sweep.ModelSweep._signature`) and an in-memory
    trace's fleet checkpoint label, so "same fingerprint" means "same
    trace".
    """
    crc = zlib.crc32(trace.keys.tobytes())
    crc = zlib.crc32(trace.sizes.tobytes(), crc)
    return zlib.crc32(trace.ops.tobytes(), crc)


class StreamingTracePlan:
    """Per-chunk preparation for a bounded-memory trace stream.

    With a :class:`~repro.workloads.stream.TraceStream` the whole columns
    never exist, so the preparation is computed *incrementally*:

    * :meth:`intern` — dense key ids assigned in first-seen order (new
      keys of a chunk in ascending key order), kept as sorted runs of
      keys beside their ids, so a chunk is one unique-pass plus a
      ``searchsorted`` per run, with no per-key Python.  A chunk's new
      keys become a run that absorbs the smallest runs while they are at
      most twice its size, so each run is more than twice the next, there
      are O(log U) runs for U distinct keys, and a key takes part in
      O(log U) merges: a chunk does not rewrite all U keys, as a single
      sorted array would for every chunk that brings a new key.  Id
      *values* depend on the order keys arrive in, but every stack needs
      only the key<->id bijection: distances depend on stack positions,
      not id values (see
      :meth:`~repro.stack.soa.SoAKRRStack.access_many_interned`), and the
      scalar stack keeps ids as opaque key labels.
    * :meth:`chunk_hashes` — per-chunk ``splitmix64`` columns, memoized
      per hash seed *for the current chunk only* so a grid with many
      cells sharing one sampler seed hashes each chunk once.  The hash is
      stateless per key, so chunked masks select exactly the rows a
      whole-column mask would.
    * :meth:`observe` — running request and chunk counts.
    """

    def __init__(self) -> None:
        #: Every key seen so far as sorted ``(keys, ids)`` runs, largest first.
        self._runs: List[Tuple[np.ndarray, np.ndarray]] = []
        self._n_keys = 0
        self.n_requests = 0
        self.n_chunks = 0
        self._hash_chunk_id = -1
        self._hash_cache: Dict[int, np.ndarray] = {}

    @property
    def n_unique_keys(self) -> int:
        return self._n_keys

    def observe(self, chunk: Trace) -> None:
        """Count one chunk (the chunk count rolls the hash memo over)."""
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

