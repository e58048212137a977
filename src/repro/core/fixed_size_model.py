"""Bounded-memory KRR: fixed-size (``s_max``) spatial sampling.

The fixed-rate model's memory grows with the workload's sampled working
set.  SHARDS's ``s_max`` mode caps it: track at most ``s_max`` distinct
objects; when a new object would exceed the cap, eject the tracked object
with the largest key hash and lower the threshold below it.  Ejected
objects leave the KRR stack (``KRRStack.remove``), and every distance is
rescaled by the sampling rate *in effect when it was measured* and
recorded into the histograms right then.

So memory does not grow with the request count — the deployment mode
§5.6's space numbers assume: the stack holds at most ``s_max`` objects,
and the histograms grow only with the largest scaled distance.
"""

from __future__ import annotations

from typing import Optional

from .._util import RngLike, check_positive, check_sampling_size, ensure_rng
from ..mrc.curve import MissRatioCurve
from ..sampling.spatial import FixedSizeSpatialSampler
from ..stack.histogram import ByteDistanceHistogram, DistanceHistogram
from ..workloads.trace import Trace
from .correction import DEFAULT_EXPONENT, corrected_k
from .krr import KRRStack

__all__ = [
    "FixedSizeKRRModel",
]



class FixedSizeKRRModel:
    """One-pass K-LRU MRC model that tracks at most ``s_max`` objects.

    Parameters mirror :class:`~repro.core.model.KRRModel`; ``s_max`` caps
    the tracked distinct objects instead of a fixed sampling rate.
    """

    def __init__(
        self,
        k: int = 5,
        s_max: int = 8_192,
        strategy: str = "backward",
        correction: bool = True,
        correction_exponent: float = DEFAULT_EXPONENT,
        track_sizes: bool = False,
        byte_bin: int = 4096,
        seed: RngLike = None,
        hash_seed: int = 0,
    ) -> None:
        self.k = check_sampling_size(k)
        check_positive("s_max", s_max)
        self.effective_k = (
            corrected_k(self.k, correction_exponent) if correction else float(self.k)
        )
        self._stack = KRRStack(
            self.effective_k,
            strategy=strategy,
            rng=ensure_rng(seed),
            track_sizes=track_sizes,
        )
        self._sampler = FixedSizeSpatialSampler(
            s_max, seed=hash_seed, on_evict=self._stack.remove
        )
        self._hist = DistanceHistogram()
        self._byte_hist: Optional[ByteDistanceHistogram] = (
            ByteDistanceHistogram(bin_bytes=byte_bin) if track_sizes else None
        )
        self.requests_seen = 0
        self.requests_sampled = 0

    # ------------------------------------------------------------------
    @property
    def rate(self) -> float:
        """Current (monotonically non-increasing) sampling rate."""
        return self._sampler.rate

    @property
    def tracked_objects(self) -> int:
        return len(self._stack)

    def access(self, key: int, size: int = 1) -> None:
        self.requests_seen += 1
        if not self._sampler.offer(key):
            return
        self.requests_sampled += 1
        dist, byte_dist = self._stack.access(key, size)
        if dist <= 0:
            self._hist.record_cold()
            if self._byte_hist is not None:
                self._byte_hist.record_cold()
            return
        rate = self._sampler.rate
        self._hist.record(max(1, int(round(dist / rate))))
        if self._byte_hist is not None:
            self._byte_hist.record(byte_dist / rate)

    def process(self, trace: Trace) -> "FixedSizeKRRModel":
        keys = trace.keys
        sizes = trace.sizes
        for i in range(keys.shape[0]):
            self.access(int(keys[i]), int(sizes[i]))
        return self

    # ------------------------------------------------------------------
    def mrc(self, max_size: int | None = None, label: str | None = None) -> MissRatioCurve:
        from ..mrc.builder import from_distance_histogram

        return from_distance_histogram(
            self._hist, max_size=max_size, label=label or f"KRR-smax(K={self.k})"
        )

    def byte_mrc(self, label: str | None = None) -> MissRatioCurve:
        if self._byte_hist is None:
            raise RuntimeError("byte_mrc requires track_sizes=True")
        from ..mrc.builder import from_byte_histogram

        return from_byte_histogram(
            self._byte_hist, label=label or f"var-KRR-smax(K={self.k})"
        )
