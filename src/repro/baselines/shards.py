"""SHARDS: spatially sampled LRU MRC construction (Waldspurger, FAST'15).

The baseline the paper compares against in Table 5.4.  SHARDS feeds only
spatially sampled references (``hash(key) mod P < T``) to an exact LRU
reuse-distance tracker, then rescales each measured distance by ``1/R``.
Two refinements from the paper are included:

* **fixed-size mode** (``s_max``): the threshold self-lowers to cap tracked
  objects, with eviction of ejected keys from the distance tracker;
* **SHARDS-adj**: corrects the histogram's first bucket by the difference
  between expected and actual sampled counts, compensating rate drift.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .._util import check_positive
from ..kernels.olken import batch_stack_distances
from ..kernels.prep import next_occurrence
from ..mrc.builder import from_distance_histogram
from ..mrc.curve import MissRatioCurve
from ..sampling.hashing import splitmix64
from ..sampling.spatial import FixedSizeSpatialSampler, SpatialSampler
from ..stack.histogram import ByteDistanceHistogram, DistanceHistogram
from ..stack.lru_stack import TreeLRUStack
from ..workloads.trace import Trace

__all__ = [
    "FixedSizeShards",
    "Shards",
    "shards_mrc",
]



class Shards:
    """Streaming SHARDS estimator (fixed-rate mode).

    ``byte_bin`` > 0 additionally collects byte-granularity distances (for
    variable-object-size workloads), readable via :meth:`byte_mrc`.
    """

    def __init__(
        self,
        rate: float = 0.001,
        seed: int = 0,
        adjustment: bool = True,
        byte_bin: int = 0,
    ) -> None:
        self._sampler = SpatialSampler(rate, seed=seed)
        self._stack = TreeLRUStack()
        self._hist = DistanceHistogram(scale=self._sampler.scale)
        self._byte_hist = (
            ByteDistanceHistogram(bin_bytes=byte_bin, scale=self._sampler.scale)
            if byte_bin
            else None
        )
        self._adjust = bool(adjustment)
        self.requests_seen = 0
        self.requests_sampled = 0

    @property
    def rate(self) -> float:
        return self._sampler.rate

    def access(self, key: int, size: int = 1) -> None:
        if not self._sampler.keep(key):
            self.requests_seen += 1
            return
        self._force_access(key, size)

    def process(self, trace: "Trace | Iterable[Trace]") -> "Shards":
        """Feed a whole trace; batch-kernel fast path on a fresh instance.

        The spatial filter is applied to the key column in one vectorized
        pass.  On a fresh estimator the sampled subsequence then goes
        through the offline Olken batch kernel instead of the per-access
        Fenwick loop — identical distances, hence identical histograms —
        and the streaming stack state is rebuilt so subsequent :meth:`access`
        calls continue exactly where the per-access path would have.  An
        estimator that already holds stack state falls back to streaming.

        ``trace`` also accepts a bounded-memory stream of chunks
        (:class:`~repro.workloads.stream.TraceStream`): the first chunk
        takes the batch-kernel path, the stack-rebuild makes each later
        chunk a plain streaming continuation, and SHARDS is RNG-free, so
        the result is identical to the concatenated in-memory run.
        """
        if not isinstance(trace, Trace):
            for chunk in trace:
                self.process(chunk)
            return self
        keys = trace.keys
        sizes = trace.sizes
        idx = self._sampler.filter_indices(keys)
        if len(self._stack) == 0 and self.requests_sampled == 0:
            skeys = keys[idx]
            ssizes = sizes[idx]
            distances, byte_distances = batch_stack_distances(
                skeys, ssizes if self._byte_hist is not None else None
            )
            self.requests_seen += int(keys.shape[0])
            self.requests_sampled += int(skeys.shape[0])
            self._hist.record_many(distances)
            if self._byte_hist is not None:
                self._byte_hist.record_many(byte_distances.astype(np.float64))
            self._rebuild_stack(skeys, ssizes)
            return self
        # Unsampled requests only bump the seen counter; sampled ones go
        # through the shared recording path (pre-filtered, no re-hash).
        self.requests_seen += int(keys.shape[0]) - int(idx.shape[0])
        for i in idx:
            self._force_access(int(keys[i]), int(sizes[i]))
        return self

    def _rebuild_stack(self, skeys: np.ndarray, ssizes: np.ndarray) -> None:
        """Recreate the streaming stack state after a batch-kernel pass.

        Future distances depend only on the recency *order* of the most
        recent access per object (and its size on the byte tree), not on
        absolute timestamps — so replaying just each object's last
        occurrence, in trace order, leaves a stack whose every subsequent
        ``access`` returns exactly what the streamed equivalent would.
        """
        if skeys.shape[0] == 0:
            return
        last = np.flatnonzero(next_occurrence(skeys) == skeys.shape[0])
        for key, size in zip(skeys[last].tolist(), ssizes[last].tolist()):
            self._stack.access(key, size)

    def _force_access(self, key: int, size: int) -> None:
        self.requests_seen += 1
        self.requests_sampled += 1
        dist, byte_dist = self._stack.access(key, size)
        self._hist.record(dist if dist > 0 else 0)
        if self._byte_hist is not None:
            if dist > 0:
                self._byte_hist.record(float(byte_dist))
            else:
                self._byte_hist.record_cold()

    # ------------------------------------------------------------------
    STATE_KIND = "repro-shards"
    STATE_VERSION = 1

    def state_dict(self) -> dict:
        """JSON-safe snapshot (behaviorally exact restore).

        SHARDS is RNG-free (the spatial filter is a pure key hash), so the
        snapshot is the recency order, the histograms and the counters;
        :meth:`from_state` replays the order into a fresh Fenwick stack,
        after which every subsequent access returns exactly what the
        uninterrupted estimator would have returned.
        """
        return {
            "kind": self.STATE_KIND,
            "version": self.STATE_VERSION,
            "sampler": self._sampler.state_dict(),
            "adjust": self._adjust,
            "byte_bin": self._byte_hist.bin_bytes if self._byte_hist else 0,
            "stack": [
                [int(k), int(s)] for k, s in self._stack.items_in_recency_order()
            ],
            "hist": self._hist.state_dict(),
            "byte_hist": (
                self._byte_hist.state_dict() if self._byte_hist else None
            ),
            "requests_seen": self.requests_seen,
            "requests_sampled": self.requests_sampled,
        }

    @classmethod
    def from_state(cls, state: dict) -> "Shards":
        if state.get("kind") != cls.STATE_KIND:
            raise ValueError("not a Shards state dict")
        if int(state.get("version", -1)) != cls.STATE_VERSION:
            raise ValueError(
                f"unsupported Shards state version {state.get('version')!r}"
            )
        est = cls(rate=1.0, byte_bin=int(state["byte_bin"]))
        est._sampler = SpatialSampler.from_state(state["sampler"])
        est._adjust = bool(state["adjust"])
        for key, size in state["stack"]:
            est._stack.access(int(key), int(size))
        est._hist.load_state(state["hist"])
        if est._byte_hist is not None and state["byte_hist"] is not None:
            est._byte_hist.load_state(state["byte_hist"])
        est.requests_seen = int(state["requests_seen"])
        est.requests_sampled = int(state["requests_sampled"])
        return est

    def byte_mrc(self, label: str = "SHARDS-bytes") -> MissRatioCurve:
        """Byte-granularity LRU MRC (requires ``byte_bin`` > 0)."""
        if self._byte_hist is None:
            raise RuntimeError("construct Shards with byte_bin > 0 for byte_mrc")
        from ..mrc.builder import from_byte_histogram

        return from_byte_histogram(self._byte_hist, label=label)

    def mrc(self, max_size: int | None = None, label: str = "SHARDS") -> MissRatioCurve:
        """MRC with the SHARDS-adj first-bucket correction applied."""
        curve = from_distance_histogram(self._hist, max_size=max_size, label=label)
        if not self._adjust or self.requests_seen == 0:
            return curve
        # SHARDS-adj: expected sampled count is N*R; the surplus/deficit is
        # attributed to the smallest-distance bucket.  In miss-ratio space
        # that shifts every ratio by delta/N_sampled at sizes >= 1.
        expected = self.requests_seen * self.rate
        diff = expected - self.requests_sampled
        if self.requests_sampled <= 0:
            return curve
        adjusted = np.clip(
            (curve.miss_ratios * self.requests_sampled + 0.0)
            / max(1.0, self.requests_sampled + diff),
            0.0,
            1.0,
        )
        return MissRatioCurve(curve.sizes, adjusted, unit="objects", label=label)


def shards_mrc(
    trace: Trace,
    rate: float = 0.001,
    seed: int = 0,
    adjustment: bool = True,
    max_size: int | None = None,
) -> MissRatioCurve:
    """Convenience: SHARDS MRC for one trace."""
    return Shards(rate, seed, adjustment).process(trace).mrc(max_size=max_size)


class FixedSizeShards:
    """SHARDS ``s_max`` mode: bounded tracking state, adaptive rate.

    Ejected objects are *removed from the LRU stack state* lazily: their
    future accesses are filtered (hash above the lowered threshold), and
    distances measured before ejection were taken at the then-current
    scale.  Following the SHARDS paper, each distance is rescaled by the
    sampling rate in effect when it was measured.
    """

    def __init__(self, s_max: int = 8192, seed: int = 0) -> None:
        check_positive("s_max", s_max)
        self._stack = TreeLRUStack()
        self._hist = DistanceHistogram()
        self._sampler = FixedSizeSpatialSampler(s_max, seed=seed)
        self.requests_seen = 0
        self.requests_sampled = 0

    @property
    def rate(self) -> float:
        return self._sampler.rate

    def access(self, key: int, size: int = 1) -> None:
        self.requests_seen += 1
        if not self._sampler.offer(key):
            return
        self.requests_sampled += 1
        dist, _ = self._stack.access(key, size)
        self._record(dist)

    def _record(self, dist: int) -> None:
        """Record a distance scaled by the rate in effect right now."""
        if dist <= 0:
            self._hist.record_cold()
        else:
            self._hist.record(max(1, int(round(dist / self._sampler.rate))))

    def process(self, trace: "Trace | Iterable[Trace]") -> "FixedSizeShards":
        """Feed a whole trace, hashing the key column in one batch pass.

        The adaptive threshold makes the sampling decision inherently
        sequential, but the per-key ``splitmix64`` is not: it is computed
        vectorized up front and streamed into
        :meth:`FixedSizeSpatialSampler.offer_hashed`, leaving only the
        threshold compare and stack update in the Python loop.

        Accepts a stream of chunks like :meth:`Shards.process`; the
        sampler's adaptive threshold and the stack persist across chunks,
        so streamed and in-memory runs are identical.
        """
        if not isinstance(trace, Trace):
            for chunk in trace:
                self.process(chunk)
            return self
        hashed = splitmix64(trace.keys, self._sampler.seed)
        assert isinstance(hashed, np.ndarray)
        keys = trace.keys.tolist()
        sizes = trace.sizes.tolist()
        hashes = hashed.tolist()
        sampler = self._sampler
        stack = self._stack
        record = self._record
        for key, size, h in zip(keys, sizes, hashes):
            self.requests_seen += 1
            if not sampler.offer_hashed(key, h):
                continue
            self.requests_sampled += 1
            dist, _ = stack.access(key, size)
            record(dist)
        return self

    def mrc(self, max_size: int | None = None, label: str = "SHARDS-smax") -> MissRatioCurve:
        return from_distance_histogram(self._hist, max_size=max_size, label=label)
