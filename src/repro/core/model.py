"""The public one-pass K-LRU MRC modeler.

:class:`KRRModel` is the API a downstream user adopts: construct it with the
cache's eviction sampling size ``K``, stream requests (or feed a whole
:class:`~repro.workloads.trace.Trace`), and read out miss ratio curves at
object or byte granularity.  Internally it wires together:

* one KRR stack, picked by the configuration in :func:`build_stack`:
  the array-native :class:`~repro.stack.soa.SoAKRRStack` for the backward
  strategy at object granularity, the scalar
  :class:`~repro.core.krr.KRRStack` for ``linear``, ``topdown`` and byte
  distances (every grid cell of :class:`~repro.core.vkrr.MultiKRR` gets
  its stack from the same function),
* the ``K' = K^1.4`` correction (§4.2, on by default),
* SHARDS-style spatial sampling (§2.4, optional; ``sampling_rate="auto"``
  applies the paper's rate-selection rule),
* object- and byte-level stack-distance histograms.

Example
-------
>>> from repro import KRRModel
>>> from repro.workloads import ycsb
>>> trace = ycsb.workload_c(5_000, 50_000, alpha=0.99, rng=1)
>>> model = KRRModel(k=4, seed=1)
>>> result = model.process(trace)
>>> round(float(result.mrc(1000)), 3)  # doctest: +SKIP
0.42
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Union

import numpy as np

from .._util import RngLike, check_sampling_size, ensure_rng
from ..mrc.builder import from_byte_histogram, from_distance_histogram
from ..mrc.curve import MissRatioCurve
from ..sampling.spatial import SpatialSampler, choose_rate
from ..stack.histogram import ByteDistanceHistogram, DistanceHistogram
from ..stack.soa import SoAKRRStack, int64_keys
from ..workloads.trace import Trace
from .correction import DEFAULT_EXPONENT, corrected_k
from .krr import KRRStack

__all__ = [
    "KRRModel",
    "KRRResult",
    "ModelStats",
    "model_trace",
]


def build_stack(
    effective_k: float,
    strategy: str,
    rng: RngLike,
    track_sizes: bool = False,
    size_array_base: int = 2,
) -> Union[SoAKRRStack, KRRStack]:
    """The stack one configuration runs on, for a model and a grid cell alike.

    Backward updates at object granularity run on
    :class:`~repro.stack.soa.SoAKRRStack`; ``linear``, ``topdown`` and
    byte distances run on the scalar :class:`~repro.core.krr.KRRStack`.
    """
    if strategy == "backward" and not track_sizes:
        return SoAKRRStack(effective_k, rng=rng)
    return KRRStack(
        effective_k,
        strategy=strategy,
        rng=rng,
        track_sizes=track_sizes,
        size_array_base=size_array_base,
    )


@dataclass
class ModelStats:
    """Counters describing one modeling run."""

    requests_seen: int = 0
    requests_sampled: int = 0
    cold_misses: int = 0
    stack_updates: int = 0
    swap_positions: int = 0

    @property
    def effective_rate(self) -> float:
        if self.requests_seen == 0:
            return 0.0
        return self.requests_sampled / self.requests_seen

    @property
    def mean_swaps_per_update(self) -> float:
        if self.stack_updates == 0:
            return 0.0
        return self.swap_positions / self.stack_updates


class KRRModel:
    """One-pass MRC model for a K-LRU cache with sampling size ``K``.

    Parameters
    ----------
    k:
        The *cache's* eviction sampling size (Redis default: 5).
    strategy:
        Stack update strategy: ``"backward"`` (default), ``"topdown"`` or
        ``"linear"``.
    sampling_rate:
        ``None`` disables spatial sampling; a float in (0, 1] fixes the
        rate; ``"auto"`` defers to :func:`~repro.sampling.spatial.choose_rate`
        when processing a full trace (falls back to 0.001 for streaming use).
    correction:
        Apply the ``K' = K^exponent`` correction (default on; §4.2).
    correction_exponent:
        The correction exponent (paper: 1.4).
    track_sizes:
        Maintain byte-level distances (var-KRR).  Required for
        :meth:`byte_mrc`.
    byte_bin:
        Byte-histogram bucket width.
    seed:
        Seed for the stack's probabilistic update draws.
    """

    def __init__(
        self,
        k: int = 5,
        strategy: str = "backward",
        sampling_rate: Union[None, float, str] = None,
        correction: bool = True,
        correction_exponent: float = DEFAULT_EXPONENT,
        track_sizes: bool = False,
        size_array_base: int = 2,
        byte_bin: int = 4096,
        seed: RngLike = None,
    ) -> None:
        self.k = check_sampling_size(k)
        self.effective_k = (
            corrected_k(self.k, correction_exponent) if correction else float(self.k)
        )
        # Constructor arguments (minus the seed — RNG state is snapshotted
        # exactly) so state_dict() can rebuild an identical instance.
        self._config: dict = {
            "k": int(k),
            "strategy": strategy,
            "sampling_rate": sampling_rate,
            "correction": bool(correction),
            "correction_exponent": float(correction_exponent),
            "track_sizes": bool(track_sizes),
            "size_array_base": int(size_array_base),
            "byte_bin": int(byte_bin),
        }
        self._rng = ensure_rng(seed)
        self._auto_rate = sampling_rate == "auto"
        if sampling_rate is None:
            self._sampler: Optional[SpatialSampler] = None
        elif self._auto_rate:
            self._sampler = None  # resolved per trace in process()
        else:
            self._sampler = SpatialSampler(float(sampling_rate))
        self._stack = build_stack(
            self.effective_k, strategy, self._rng, track_sizes, size_array_base
        )
        scale = self._sampler.scale if self._sampler else 1.0
        self._obj_hist = DistanceHistogram(scale=scale)
        self._byte_hist = (
            ByteDistanceHistogram(bin_bytes=byte_bin, scale=scale)
            if track_sizes
            else None
        )
        self.stats = ModelStats()

    # ------------------------------------------------------------------
    @property
    def sampling_rate(self) -> Optional[float]:
        return self._sampler.rate if self._sampler else None

    @property
    def tracks_sizes(self) -> bool:
        return self._stack.tracks_sizes

    def _set_sampler(self, rate: float) -> None:
        self._sampler = SpatialSampler(rate)
        self._obj_hist.scale = self._sampler.scale
        if self._byte_hist is not None:
            self._byte_hist.scale = self._sampler.scale

    def _default_stream_rate(self) -> None:
        if self._auto_rate and self._sampler is None:
            # Streaming use without a trace: fall back to the default rate.
            self._set_sampler(0.001)

    # ------------------------------------------------------------------
    def access(self, key: int, size: int = 1) -> None:
        """Stream one request into the model.

        Draw-for-draw identical to :meth:`access_many` of the one
        request.  On the SoA stack each call pays for a whole batch call
        (tens of microseconds), so feed batches where there are any.
        """
        self._default_stream_rate()
        self.stats.requests_seen += 1
        if self._sampler is not None and not self._sampler.keep(key):
            return
        self.stats.requests_sampled += 1
        dist, byte_dist = self._stack.access(key, size)
        self._sync_stats()
        if dist < 0:
            self.stats.cold_misses += 1
            self._obj_hist.record_cold()
            if self._byte_hist is not None:
                self._byte_hist.record_cold()
        else:
            self._obj_hist.record(dist)
            if self._byte_hist is not None:
                self._byte_hist.record(byte_dist)

    def access_many(
        self,
        keys: "list[int] | np.ndarray",
        sizes: "list[int] | np.ndarray | None" = None,
    ) -> None:
        """Stream a batch of requests, without snapshotting.

        Draw-for-draw identical to calling :meth:`access` per request —
        same sampling decisions, same RNG consumption, same histograms —
        but batched: the spatial filter runs one vectorized hash pass and
        the stack consumes the batch in one call.  This is the one feed
        path: :meth:`process` hands it a whole trace, a stream hands it
        one chunk at a time, and the service, the cache and the adaptive
        cache hand it their buffered batches.

        ``keys`` may be a list of Python ints or a NumPy integer column
        (a ``uint64`` column is reinterpreted mod 2^64, exactly as scalar
        ``splitmix64`` wraps).  ``sizes``, a list or a NumPy column, must
        be parallel to ``keys``; a length mismatch raises ``ValueError``
        before the model changes.
        """
        n = len(keys)
        if sizes is not None and len(sizes) != n:
            raise ValueError(f"{len(sizes)} sizes for {n} keys")
        self._default_stream_rate()
        if n == 0:
            return
        self.stats.requests_seen += n
        # The scalar stack keeps raw keys as labels; everything else sees
        # them reduced mod 2^64.
        key_list = None if isinstance(keys, np.ndarray) else list(keys)
        arr = int64_keys(keys if key_list is None else key_list)
        if self._sampler is not None:
            idx = self._sampler.filter_indices(arr)
            if int(idx.shape[0]) != n:
                arr = arr[idx]
                if key_list is not None:
                    key_list = [key_list[i] for i in idx.tolist()]
                if isinstance(sizes, np.ndarray):
                    sizes = sizes[idx]
                elif sizes is not None:
                    sizes = [sizes[i] for i in idx.tolist()]
                n = int(arr.shape[0])
        self.stats.requests_sampled += n
        if n == 0:
            return
        if isinstance(self._stack, SoAKRRStack):
            distances, _ = self._stack.access_many(arr, sizes)
            self._obj_hist.record_many(distances)
            self.stats.cold_misses += int(np.count_nonzero(distances == -1))
        else:
            if isinstance(sizes, np.ndarray):
                sizes = sizes.tolist()
            distances, byte_distances = self._stack.access_many(
                key_list if key_list is not None else arr.tolist(), sizes
            )
            self._obj_hist.record_many(distances)
            if self._byte_hist is not None:
                self._byte_hist.record_many(byte_distances)
            self.stats.cold_misses += distances.count(-1)
        self._sync_stats()

    def process(
        self,
        trace: Optional[Trace] = None,
        stream: Optional["Iterable[Trace]"] = None,
    ) -> "KRRResult":
        """Feed a whole trace through the batched hot path and snapshot.

        The trace goes through :meth:`access_many` in one call: the
        spatial filter runs over the key column vectorized, the surviving
        rows are selected by index, and the stack consumes them in one
        batch (the scalar stack as Python lists, converted once, since
        NumPy scalar unboxing inside its loop is ~10x slower), with one
        ``bincount`` pass per histogram.  Draw-for-draw identical to
        streaming :meth:`access` per request, given the same seed and
        sampler.  The SoA stack consumes the seed's stream in the scalar
        reference's refill pattern with the same update arithmetic, so
        distances, histograms and counters match the scalar
        :class:`~repro.core.krr.KRRStack` draw for draw
        (property-tested in ``tests/test_soa_engine``).

        ``stream`` accepts a bounded-memory
        :class:`~repro.workloads.stream.TraceStream` (any iterable of
        trace chunks) instead of ``trace``: each chunk goes through the
        same :meth:`access_many` call.  Because the spatial filter is
        stateless per key and both stacks buffer their draws across
        calls, a streamed run is **bit-identical** to processing the
        concatenated trace in one shot, for any chunk size
        (property-tested in ``tests/test_stream.py``).  A stream has no
        whole-trace unique-object count, so ``sampling_rate="auto"`` is
        refused — pass an explicit rate.
        """
        if stream is not None:
            if trace is not None:
                raise ValueError("pass either trace= or stream=, not both")
            return self._process_stream(stream)
        if trace is None:
            raise ValueError("process() needs a trace or a stream")
        if self._auto_rate and self._sampler is None:
            self._set_sampler(choose_rate(max(1, trace.unique_objects())))
        self.access_many(trace.keys, trace.sizes)
        return self.result()

    def _process_stream(self, stream: "Iterable[Trace]") -> "KRRResult":
        """Streamed half of :meth:`process`: one hot-path pass per chunk."""
        if self._auto_rate and self._sampler is None:
            raise ValueError(
                "sampling_rate='auto' needs the whole trace's unique-object "
                "count up front; pass an explicit rate when streaming"
            )
        for chunk in stream:
            self.access_many(chunk.keys, chunk.sizes)
        return self.result()

    def _sync_stats(self) -> None:
        """Copy the stack's counters into ``stats`` (every feed and restore
        calls this, so ``stats`` and snapshots never lag the stack)."""
        self.stats.stack_updates = self._stack.updates
        self.stats.swap_positions = self._stack.total_swaps

    # ------------------------------------------------------------------
    def mrc(self, max_size: int | None = None, label: str | None = None) -> MissRatioCurve:
        """Object-granularity MRC snapshot."""
        return from_distance_histogram(
            self._obj_hist,
            max_size=max_size,
            label=label or f"KRR(K={self.k})",
        )

    def byte_mrc(self, label: str | None = None) -> MissRatioCurve:
        """Byte-granularity MRC snapshot (requires ``track_sizes=True``)."""
        if self._byte_hist is None:
            raise RuntimeError("byte_mrc requires track_sizes=True")
        return from_byte_histogram(
            self._byte_hist, label=label or f"var-KRR(K={self.k})"
        )

    def result(self) -> "KRRResult":
        return KRRResult(self)

    # ------------------------------------------------------------------
    STATE_KIND = "repro-krr-model"
    STATE_VERSION = 1

    def state_dict(self) -> dict:
        """JSON-safe snapshot of the full model state.

        Captures the constructor configuration, the PCG64 generator state,
        the strategy's buffered draws, the stack, both histograms, the
        sampler's exact threshold and the counters — everything needed for
        :meth:`load_state`/:meth:`from_state` to resume *bit-identically*:
        a restored model consumes the identical draw stream and reports
        the identical curves as one that never stopped (floats survive
        JSON via ``repr`` round-tripping).  Both stacks write one layout
        (:meth:`KRRStack.state_dict <repro.core.krr.KRRStack.state_dict>`),
        so a snapshot restores whichever stack this configuration builds.
        """
        rng_state = self._rng.bit_generator.state
        return {
            "kind": self.STATE_KIND,
            "version": self.STATE_VERSION,
            "config": dict(self._config),
            "rng": rng_state,
            "stack": self._stack.state_dict(),
            "obj_hist": self._obj_hist.state_dict(),
            "byte_hist": (
                self._byte_hist.state_dict()
                if self._byte_hist is not None
                else None
            ),
            "sampler": (
                self._sampler.state_dict() if self._sampler is not None else None
            ),
            "auto_rate": self._auto_rate,
            "stats": {
                "requests_seen": self.stats.requests_seen,
                "requests_sampled": self.stats.requests_sampled,
                "cold_misses": self.stats.cold_misses,
                "stack_updates": self.stats.stack_updates,
                "swap_positions": self.stats.swap_positions,
            },
        }

    def load_state(self, state: dict) -> None:
        """Restore :meth:`state_dict` output into this (compatible) model."""
        if state.get("kind") != self.STATE_KIND:
            raise ValueError("not a KRRModel state dict")
        if int(state.get("version", -1)) != self.STATE_VERSION:
            raise ValueError(
                f"unsupported KRRModel state version {state.get('version')!r}"
            )
        if state["config"] != self._config:
            raise ValueError(
                "model state was captured under a different configuration: "
                f"{state['config']!r} != {self._config!r}"
            )
        self._rng.bit_generator.state = state["rng"]
        self._stack.load_state(state["stack"])
        self._obj_hist.load_state(state["obj_hist"])
        if self._byte_hist is not None and state["byte_hist"] is not None:
            self._byte_hist.load_state(state["byte_hist"])
        if state["sampler"] is not None:
            self._sampler = SpatialSampler.from_state(state["sampler"])
        else:
            self._sampler = None
        self._auto_rate = bool(state["auto_rate"])
        s = state["stats"]
        self.stats = ModelStats(
            requests_seen=int(s["requests_seen"]),
            requests_sampled=int(s["requests_sampled"]),
            cold_misses=int(s["cold_misses"]),
        )
        self._sync_stats()  # the stack's counters, not a stale copy

    @classmethod
    def from_state(cls, state: dict) -> "KRRModel":
        """Reconstruct a model solely from a :meth:`state_dict` snapshot."""
        if state.get("kind") != cls.STATE_KIND:
            raise ValueError("not a KRRModel state dict")
        model = cls(seed=0, **state["config"])
        model.load_state(state)
        return model


class KRRResult:
    """Snapshot of a finished modeling run (curves + stats)."""

    def __init__(self, model: KRRModel) -> None:
        self._model = model
        self.stats = model.stats
        self.k = model.k
        self.effective_k = model.effective_k
        self.sampling_rate = model.sampling_rate

    def mrc(self, max_size: int | None = None) -> MissRatioCurve:
        return self._model.mrc(max_size=max_size)

    def byte_mrc(self) -> MissRatioCurve:
        return self._model.byte_mrc()


def model_trace(
    trace: Trace,
    k: int = 5,
    sampling_rate: Union[None, float, str] = None,
    strategy: str = "backward",
    track_sizes: Optional[bool] = None,
    seed: RngLike = None,
    **kwargs: object,
) -> KRRResult:
    """Convenience: model one trace and return the result.

    ``track_sizes=None`` auto-enables byte tracking when the trace carries
    non-uniform sizes.
    """
    if track_sizes is None:
        track_sizes = not trace.is_uniform_size()
    model = KRRModel(
        k=k,
        strategy=strategy,
        sampling_rate=sampling_rate,
        track_sizes=track_sizes,
        seed=seed,
        **kwargs,
    )
    return model.process(trace)
