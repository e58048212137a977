"""A production sampling-LRU cache that models itself online.

:class:`SamplingLRUCache` turns the reproduction inside-out: instead of
*modeling* a K-sampling cache, it *is* one — a thread-safe, byte-limited
``MutableMapping`` whose eviction is the paper's K-sampling (the exact
:func:`~repro.cache.eviction.select_victim` core the ground-truth
simulators run) — and every instance carries its own low-overhead KRR
model, so a deployed cache can answer "what would my miss ratio be at
size S?" and "how big must I be for a 95% hit rate?" about *itself*,
live, from a few percent of its own traffic.

Self-instrumentation
--------------------
References are buffered (two list appends on the hot path) and drained
in batches through a vectorized
:class:`~repro.sampling.spatial.SpatialSampler` prefilter (rate
``model_rate``, default 1%); only kept references reach the embedded
:class:`~repro.core.windowed.WindowedKRRModel` (and, when adaptive re-K
is enabled, the per-candidate :class:`~repro.core.model.KRRModel` bank).
The prefilter and the models' internal samplers share the same
``splitmix64`` threshold (seed 0), so they keep the identical key set —
the prefilter only hoists the common drop out of the model call.  Every
model read flushes the buffer first, so batching is invisible except as
amortized cost.  The uninstrumented hot path (``instrument=False``)
skips all of it.

Resident state
--------------
One slot table holds the residents: ``_residents`` maps key -> slot,
and the slot columns ``_keys``, ``_values`` and ``_atime`` (the recency
clock of the slot's last touch) are swap-removed together, so a hit, a
store and a victim draw each index the same table after one dict probe.
Victims are drawn by the shared
:func:`~repro.cache.eviction.select_victim` over slot numbers, with
``_atime`` as the recency column.  ``_sizes`` maps key -> bytes.

Lock discipline
---------------
One ``threading.Lock`` guards *all* mutable state (slot table, byte
accounting, recency clock, PRNG, stats, models).  Every public method
acquires it exactly once and never calls another public method while
holding it; ``_locked``-suffixed helpers require it held.  The three hot
paths (:meth:`get`, :meth:`access`, :meth:`put`) hold it with
``acquire()``/``try``/``finally: release()``, which saves the lock's
``__enter__``/``__exit__`` calls on every request (docs/CACHE.md has
the numbers).  Curve queries (:meth:`mrc`, :meth:`miss_ratio_at`, …)
snapshot model state under the lock, then interpolate outside it.
``MutableMapping`` mixin compounds (``pop``, ``setdefault``, ``update``)
are each a sequence of atomic primitives, not atomic as a whole.

What counts as a modeled reference
----------------------------------
Lookups (:meth:`get`, ``cache[key]``, :meth:`access`) feed the model —
hit or miss.  Stores (:meth:`put`, ``cache[key] = v``) only update the
cache: in the canonical *get-miss then put* fill pattern the get already
recorded the reference, and counting the fill again would double every
miss at distance ~0.  Pure write-heavy workloads can opt stores in with
``model_stores=True``.  ``key in cache`` is a pure probe: no recency
touch, no stats, no model.
"""

from __future__ import annotations

import random
import sys
import threading
from collections.abc import Iterator, MutableMapping
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Hashable,
    List,
    Optional,
    Sequence,
)

import numpy as np

from .._util import (
    RngLike,
    check_in_range,
    check_positive,
    check_sampling_size,
    ensure_rng,
)
from ..core.model import KRRModel
from ..core.windowed import WindowedKRRModel
from ..mrc.curve import MissRatioCurve
from ..sampling.spatial import SpatialSampler
from ..simulator.base import CacheStats
from .eviction import select_victim

if TYPE_CHECKING:  # runtime import is deferred to break the cycle
    from ..adaptive.dlru import RetuneEvent

__all__ = [
    "SamplingLRUCache",
    "default_sizeof",
]


class _Missing:
    __slots__ = ()


_MISSING = _Missing()


def default_sizeof(value: Any) -> int:
    """Byte size of a cached value: ``value.nbytes`` if present (arrays,
    the uproot idiom), else ``sys.getsizeof``."""
    nbytes = getattr(value, "nbytes", None)
    if nbytes is not None:
        return int(nbytes)
    return int(sys.getsizeof(value))


_U64_MASK = 0xFFFFFFFFFFFFFFFF

#: Buffered model references are hashed/filtered in batches of this many
#: (vectorized splitmix64), so the per-request cost of instrumentation is
#: a memo probe plus, for sampled keys, a list append.
_FLUSH_EVERY = 8192

#: Sampling decisions are per-key-deterministic (SHARDS), so they are
#: memoized; the memo is cleared wholesale past this size to bound memory
#: on unbounded key spaces (it re-warms in one flush cycle).
_MEMO_MAX = 1 << 20


class SamplingLRUCache(MutableMapping[Hashable, Any]):
    """Thread-safe byte-limited K-sampling LRU cache with a built-in MRC model.

    Parameters
    ----------
    capacity_bytes:
        Byte budget; eviction keeps ``used_bytes <= capacity_bytes``
        after every operation (invariant, property-tested).
    k:
        Eviction sampling size (Redis ``maxmemory-samples``; default 5).
    with_replacement:
        "Placing back" sampling (Redis semantics) when True.
    sizeof:
        Value -> byte size; default :func:`default_sizeof`.  An explicit
        per-object ``size=`` on :meth:`put` overrides it.
    instrument:
        Enable the self-model (default True).  ``False`` leaves a plain
        thread-safe sampling-LRU cache with zero modeling overhead.
    model_rate:
        Spatial sampling rate of the self-model (default 0.01).
    model_window:
        Rolling-window length in *references*; the reported curve covers
        between half and one window of recent traffic (converted to
        sampled units internally).
    model_k:
        Modeled sampling size; defaults to ``k``.  Note that after an
        adaptive re-K the main model keeps modeling ``model_k`` — the
        candidate bank covers the candidates.
    track_sizes:
        Model byte-granularity distances (var-KRR): curve sizes and
        :meth:`miss_ratio_at` arguments are then bytes instead of
        objects.
    adaptive_candidates:
        Candidate Ks for online re-tuning (e.g. ``(1, 2, 4, 8, 16)``);
        ``None`` disables adaptation.
    retune_interval:
        References between re-tune decisions (with candidates set).
    name:
        Instance name, used by the registry / service introspection.
    seed:
        Seeds eviction draws and model RNGs (reproducible by construction).
    model_stores:
        Feed stores (not just lookups) to the model; see module docstring.
    """

    def __init__(
        self,
        capacity_bytes: int,
        k: int = 5,
        with_replacement: bool = True,
        sizeof: Optional[Callable[[Any], int]] = None,
        instrument: bool = True,
        model_rate: float = 0.01,
        model_window: int = 1_000_000,
        model_k: Optional[int] = None,
        track_sizes: bool = False,
        adaptive_candidates: Optional[Sequence[int]] = None,
        retune_interval: int = 50_000,
        name: str = "cache",
        seed: RngLike = None,
        model_stores: bool = False,
    ) -> None:
        check_positive("capacity_bytes", capacity_bytes)
        check_positive("model_window", model_window)
        check_positive("retune_interval", retune_interval)
        check_in_range("model_rate", model_rate, 0.0, 1.0, low_open=True)
        self._capacity_bytes = int(capacity_bytes)
        self._k = check_sampling_size(k)
        self.with_replacement = bool(with_replacement)
        self.name = str(name)
        self._sizeof = sizeof if sizeof is not None else default_sizeof
        self.model_rate = float(model_rate)
        self.model_window = int(model_window)
        self.retune_interval = int(retune_interval)
        self._model_stores = bool(model_stores)
        self.track_sizes = bool(track_sizes)

        self._lock = threading.Lock()
        # The slot table (see the module docstring).
        self._residents: Dict[Hashable, int] = {}
        self._keys: List[Hashable] = []
        self._values: List[Any] = []
        self._atime: List[int] = []
        self._sizes: Dict[Hashable, int] = {}
        self._clock = 0
        self._used = 0
        self.stats = CacheStats()
        #: Stores rejected because the object alone exceeds the budget.
        self.rejected = 0
        self._references = 0

        rng = ensure_rng(seed)
        self._rnd = random.Random(int(ensure_rng(rng).integers(0, 2**63)))

        self._instrumented = bool(instrument)
        self._sampler: Optional[SpatialSampler] = None
        self._model: Optional[WindowedKRRModel] = None
        self._bank: Dict[int, KRRModel] = {}
        self.retune_events: List["RetuneEvent"] = []
        # Model references are buffered and flushed in vectorized batches;
        # an adaptive cache flushes at least once per retune interval so
        # decisions are at most one interval late.  ``None`` doubles as
        # the uninstrumented flag on the inlined hot paths.
        self._pending_keys: Optional[List[Hashable]] = (
            [] if self._instrumented else None
        )
        self._pending_sizes: List[int] = []
        # Keys a flush has already decided to drop.  Unknown keys are
        # buffered (treated as kept) until a flush hashes them; after
        # that, dropped keys cost one set probe per reference.  Stays
        # empty on adaptive caches — see _drain_buffer_locked.
        self._drop_memo: set[Hashable] = set()
        self._flush_every = (
            min(_FLUSH_EVERY, self.retune_interval)
            if adaptive_candidates
            else _FLUSH_EVERY
        )
        self._last_retune_at = 0
        if self._instrumented:
            self._sampler = SpatialSampler(self.model_rate)
            # The window is measured in raw references; the model only
            # sees the sampled subset, so convert via the exact rate.
            sampled_window = max(2, int(self.model_window * self._sampler.rate))
            self._model = WindowedKRRModel(
                k=int(model_k) if model_k is not None else self._k,
                window=sampled_window,
                sampling_rate=self.model_rate,
                track_sizes=self.track_sizes,
                seed=int(rng.integers(0, 2**63)),
            )
            if adaptive_candidates:
                for kc in sorted(set(int(c) for c in adaptive_candidates)):
                    self._bank[check_sampling_size(kc)] = KRRModel(
                        k=kc,
                        sampling_rate=self.model_rate,
                        track_sizes=self.track_sizes,
                        seed=int(rng.integers(0, 2**63)),
                    )
        elif adaptive_candidates:
            raise ValueError("adaptive_candidates requires instrument=True")

    # ------------------------------------------------------------------
    # introspection properties (reads of a single int/word are atomic)
    @property
    def capacity_bytes(self) -> int:
        return self._capacity_bytes

    @property
    def used_bytes(self) -> int:
        return self._used

    @property
    def k(self) -> int:
        """The active eviction sampling size (re-tuned when adaptive)."""
        return self._k

    @property
    def instrumented(self) -> bool:
        return self._instrumented

    @property
    def references(self) -> int:
        """Modeled references seen so far (lookups, plus stores if opted in)."""
        return self._references

    def __repr__(self) -> str:
        return (
            f"<SamplingLRUCache {self.name!r} {self._used}/{self._capacity_bytes} "
            f"bytes, {len(self._keys)} objects, K={self._k} "
            f"at 0x{id(self):012x}>"
        )

    # ------------------------------------------------------------------
    # mapping protocol
    def __len__(self) -> int:
        return len(self._keys)

    def __contains__(self, key: object) -> bool:
        # Pure probe: no recency touch, no stats, no model feed.
        return key in self._residents

    def __iter__(self) -> Iterator[Hashable]:
        with self._lock:
            return iter(list(self._residents))

    def __getitem__(self, key: Hashable) -> Any:
        out = self.get(key, _MISSING)
        if out is _MISSING:
            raise KeyError(key)
        return out

    def __setitem__(self, key: Hashable, value: Any) -> None:
        self.put(key, value)

    def __delitem__(self, key: Hashable) -> None:
        with self._lock:
            slot = self._residents.get(key)
            if slot is None:
                raise KeyError(key)
            self._remove_locked(slot)

    # ------------------------------------------------------------------
    # primary API
    def get(self, key: Hashable, default: Any = None) -> Any:
        """Look the key up; a reference, hit or miss, feeds the model.

        The model feed is inlined (`_reference_locked`'s body) — this and
        :meth:`access` are the measured hot paths and a Python call per
        request is most of the instrumentation budget.
        """
        lock = self._lock
        lock.acquire()
        try:
            self._clock += 1
            self._references += 1
            pending = self._pending_keys
            slot = self._residents.get(key)
            if slot is not None:
                self._atime[slot] = self._clock
                self.stats.hits += 1
                if pending is not None:
                    if key not in self._drop_memo:
                        pending.append(key)
                        if self.track_sizes:
                            self._pending_sizes.append(self._sizes[key])
                        if len(pending) >= self._flush_every:
                            self._flush_pending_locked()
                return self._values[slot]
            self.stats.misses += 1
            if pending is not None:
                if key not in self._drop_memo:
                    pending.append(key)
                    if self.track_sizes:
                        self._pending_sizes.append(1)
                    if len(pending) >= self._flush_every:
                        self._flush_pending_locked()
            return default
        finally:
            lock.release()

    def access(self, key: Hashable, size: int = 1) -> bool:
        """Simulator-style access: touch-or-insert, returns hit.

        A miss inserts a placeholder value of ``size`` bytes — this is
        the :class:`~repro.simulator.base.CacheSimulator` protocol, used
        to drive the cache with the same traces as the simulators.
        The model feed is inlined, as in :meth:`get`.
        """
        lock = self._lock
        lock.acquire()
        try:
            self._clock += 1
            self._references += 1
            pending = self._pending_keys
            slot = self._residents.get(key)
            if slot is not None:
                self._atime[slot] = self._clock
                self.stats.hits += 1
                if pending is not None:
                    if key not in self._drop_memo:
                        pending.append(key)
                        if self.track_sizes:
                            self._pending_sizes.append(self._sizes[key])
                        if len(pending) >= self._flush_every:
                            self._flush_pending_locked()
                return True
            self.stats.misses += 1
            if pending is not None:
                if key not in self._drop_memo:
                    pending.append(key)
                    if self.track_sizes:
                        self._pending_sizes.append(size)
                    if len(pending) >= self._flush_every:
                        self._flush_pending_locked()
            self._insert_locked(key, None, int(size))
            return False
        finally:
            lock.release()

    def put(self, key: Hashable, value: Any, size: Optional[int] = None) -> bool:
        """Store ``key -> value``; returns True iff the key is resident after.

        ``size`` overrides the ``sizeof`` accounting.  An object larger
        than the whole budget is rejected (and any stale resident copy
        dropped); an overwrite that outgrows the budget evicts — the key
        that just hit is shielded while alternatives exist, but if it
        alone no longer fits it is dropped too, keeping the
        ``used_bytes <= capacity_bytes`` invariant unconditional.
        """
        nbytes = int(size) if size is not None else self._sizeof(value)
        if nbytes < 0:
            raise ValueError(f"object size must be >= 0, got {nbytes}")
        lock = self._lock
        lock.acquire()
        try:
            self._clock += 1
            if self._model_stores:
                self._reference_locked(key, nbytes)
            slot = self._residents.get(key)
            if slot is None:
                return self._insert_locked(key, value, nbytes)
            if nbytes > self._capacity_bytes:
                # Uncacheable: drop the stale smaller copy.
                self._remove_locked(slot)
                self.rejected += 1
                return False
            self._values[slot] = value
            self._atime[slot] = self._clock
            old = self._sizes[key]
            if old != nbytes:
                # As in _insert_locked: the grown bytes are published
                # after eviction, and the key itself is never the victim.
                budget = self._capacity_bytes - (nbytes - old)
                if self._used > budget:
                    self._evict_until_fits_locked(slot, budget)
                self._sizes[key] = nbytes
                self._used += nbytes - old
            return True
        finally:
            lock.release()

    def discard(self, key: Hashable) -> bool:
        """Remove the key if resident; returns whether it was."""
        with self._lock:
            slot = self._residents.get(key)
            if slot is None:
                return False
            self._remove_locked(slot)
            return True

    def clear(self) -> None:
        with self._lock:
            self._residents.clear()
            self._keys.clear()
            self._values.clear()
            self._atime.clear()
            self._sizes.clear()
            self._used = 0

    # ------------------------------------------------------------------
    # locked internals
    def _insert_locked(self, key: Hashable, value: Any, nbytes: int) -> bool:
        """Admit a key that is not resident; returns whether it was."""
        capacity = self._capacity_bytes
        if nbytes > capacity:
            # Uncacheable: never admit.
            self.rejected += 1
            return False
        slot = len(self._keys)
        self._residents[key] = slot
        self._keys.append(key)
        self._values.append(value)
        self._atime.append(self._clock)
        # The new bytes are published only after eviction made room, so
        # a lock-free used_bytes read never exceeds capacity_bytes.  The
        # key itself is never the victim here: it is shielded while other
        # residents exist, and alone it fits (nbytes <= capacity).
        if self._used > capacity - nbytes:
            self._evict_until_fits_locked(slot, capacity - nbytes)
        self._sizes[key] = nbytes
        self._used += nbytes
        return True

    def _remove_locked(self, slot: int) -> None:
        """Swap-remove ``slot``: the last slot's entry moves into it."""
        keys = self._keys
        key = keys[slot]
        del self._residents[key]
        self._used -= self._sizes.pop(key)
        last_key = keys.pop()
        last_value = self._values.pop()
        last_atime = self._atime.pop()
        if slot < len(keys):
            keys[slot] = last_key
            self._values[slot] = last_value
            self._atime[slot] = last_atime
            self._residents[last_key] = slot

    def _evict_until_fits_locked(self, protect: int, budget: int) -> None:
        """Evict until ``used`` fits ``budget``: the capacity less the
        bytes a store adds, or a new, smaller capacity.  Callers publish
        those bytes, or that capacity, only afterwards.  ``protect`` is
        the slot of the key that triggered the eviction, or -1."""
        while self._used > budget and self._keys:
            n = len(self._keys)
            victim = select_victim(
                range(n),
                self._atime,
                self._rnd,
                self._k,
                self.with_replacement,
                protect=protect,
            )
            if victim is None:  # pragma: no cover - n > 0 always selects
                break
            if protect == n - 1:
                # The swap-remove moves the protected last slot into the
                # victim's (a no-op when it is the victim: n was 1).
                protect = victim
            self._remove_locked(victim)
            self.stats.evictions += 1

    def _reference_locked(self, key: Hashable, size: int) -> None:
        # Buffer a modeled reference; `get`/`access` inline this body.
        # Hashing, sampling and model feeds all happen vectorized in the
        # batched flush; sizes are only buffered when the model uses them,
        # and keys the memo already knows are dropped skip the buffer.
        self._references += 1
        pending = self._pending_keys
        if pending is None:
            return
        if key not in self._drop_memo:
            pending.append(key)
            if self.track_sizes:
                self._pending_sizes.append(size)
            if len(pending) >= self._flush_every:
                self._flush_pending_locked()

    def _flush_pending_locked(self) -> None:
        """Drain the reference buffer, then retune if a decision is due."""
        self._drain_buffer_locked()
        if self._bank:
            self._maybe_retune_locked()

    def _drain_buffer_locked(self) -> None:
        """Push buffered references through the vectorized prefilter.

        Keys are reduced to 64-bit ids (ints mod 2**64, other hashables
        via ``hash``), hashed in one ``splitmix64`` sweep, and only the
        sampled survivors — ``model_rate`` of them — reach the models.
        Decisions are memoized so already-known dropped keys never reach
        the buffer again.  Every model read (:meth:`mrc`, :meth:`info`, …)
        flushes first, so buffering is invisible except as amortized cost.
        """
        keys = self._pending_keys
        if keys:
            sizes = self._pending_sizes
            self._pending_keys = []
            self._pending_sizes = []
            try:
                # all-int fast path; the uint64 view wraps negatives to
                # the same 64-bit id the fallback produces
                kids = np.asarray(keys, dtype=np.int64).view(np.uint64)
            except (TypeError, ValueError, OverflowError):
                kids = np.fromiter(
                    (
                        (k if type(k) is int else hash(k)) & _U64_MASK
                        for k in keys
                    ),
                    dtype=np.uint64,
                    count=len(keys),
                )
            assert self._sampler is not None
            mask = self._sampler.mask(kids)
            if not self._bank:
                # Adaptive caches skip the memo: retune decisions are
                # clocked by the buffer filling up, so every reference
                # must keep reaching it.
                memo = self._drop_memo
                if len(memo) >= _MEMO_MAX:
                    memo.clear()
                memo.update(
                    k for k, kept in zip(keys, mask.tolist()) if not kept
                )
            idx = np.nonzero(mask)[0]
            if idx.size:
                kept_kids = kids[idx]
                if self.track_sizes:
                    kept_sizes = [sizes[i] for i in idx.tolist()]
                else:
                    # object-granularity models ignore sizes entirely
                    kept_sizes = None
                # Batched feed: each model consumes the survivors through
                # access_many (draw-for-draw identical to per-reference
                # access; the models hold independent RNGs, so feeding
                # whole batches per model commutes).
                if self._model is not None:
                    self._model.access_many(kept_kids, kept_sizes)
                for candidate in self._bank.values():
                    candidate.access_many(kept_kids, kept_sizes)

    def _maybe_retune_locked(self) -> None:
        if self._references - self._last_retune_at >= self.retune_interval:
            self._last_retune_at = self._references
            self._drain_buffer_locked()  # bring the bank current first
            self._retune_locked()

    def _model_capacity_locked(self) -> float:
        """This cache's capacity in the model's unit (bytes or objects)."""
        if self.track_sizes:
            return float(self._capacity_bytes)
        n = len(self._residents)
        mean = (self._used / n) if n else 1.0
        return self._capacity_bytes / max(1.0, mean)

    def _retune_locked(self) -> None:
        from ..adaptive.dlru import RetuneEvent, choose_best_k

        best, predicted, skipped = choose_best_k(
            self._bank, self._model_capacity_locked()
        )
        if best is None:
            return
        self.retune_events.append(
            RetuneEvent(
                at_request=self._references,
                chosen_k=best,
                predicted=predicted,
                skipped=skipped,
            )
        )
        self._k = best

    # ------------------------------------------------------------------
    # sizing controls
    def resize(self, capacity_bytes: int) -> int:
        """Change the byte budget; shrinking evicts down.  Returns evictions."""
        check_positive("capacity_bytes", capacity_bytes)
        with self._lock:
            before = self.stats.evictions
            self._evict_until_fits_locked(-1, int(capacity_bytes))
            self._capacity_bytes = int(capacity_bytes)
            return self.stats.evictions - before

    def set_k(self, k: int) -> None:
        """Pin the eviction sampling size (overrides adaptive choice)."""
        self._k = check_sampling_size(k)

    def autosize(
        self,
        target_hit_rate: float,
        max_bytes: Optional[int] = None,
        min_bytes: int = 1,
    ) -> Optional[int]:
        """Resize toward the model's size for ``target_hit_rate``.

        Returns the new capacity, or ``None`` when the model cannot name
        one yet (cold model, or target unattainable in the observed
        range — the cache is then left untouched).  With
        ``track_sizes=False`` the recommendation is in objects and is
        converted through the current mean resident size.
        """
        recommended = self.size_for_hit_rate(target_hit_rate)
        if recommended is None:
            return None
        with self._lock:
            if not self.track_sizes:
                n = len(self._residents)
                mean = (self._used / n) if n else 1.0
                recommended = recommended * max(1.0, mean)
            new_capacity = int(max(min_bytes, recommended))
            if max_bytes is not None:
                new_capacity = min(new_capacity, int(max_bytes))
            self._evict_until_fits_locked(-1, new_capacity)
            self._capacity_bytes = new_capacity
            return new_capacity

    # ------------------------------------------------------------------
    # the self-model's answers
    def _require_model(self) -> WindowedKRRModel:
        if self._model is None:
            raise RuntimeError(
                "this cache was built with instrument=False and has no model"
            )
        return self._model

    def mrc(self, max_size: Optional[int] = None) -> MissRatioCurve:
        """Self-reported object-granularity MRC over the rolling window."""
        model = self._require_model()
        with self._lock:
            self._flush_pending_locked()
            curve = model.mrc(max_size=max_size)
        return MissRatioCurve(
            curve.sizes, curve.miss_ratios, unit=curve.unit,
            label=f"{self.name} self-model",
        )

    def byte_mrc(self) -> MissRatioCurve:
        """Self-reported byte-granularity MRC (``track_sizes=True`` only)."""
        model = self._require_model()
        with self._lock:
            self._flush_pending_locked()
            curve = model.byte_mrc()
        return MissRatioCurve(
            curve.sizes, curve.miss_ratios, unit=curve.unit,
            label=f"{self.name} self-model",
        )

    def _planning_curve(self) -> MissRatioCurve:
        return self.byte_mrc() if self.track_sizes else self.mrc()

    def miss_ratio_at(self, size: float) -> float:
        """Predicted miss ratio of *this* cache at a hypothetical size
        (bytes with ``track_sizes=True``, objects otherwise)."""
        return float(self._planning_curve()(size))

    def size_for_hit_rate(self, target: float) -> Optional[float]:
        """Smallest size whose predicted hit rate reaches ``target``.

        Units as :meth:`miss_ratio_at`.  ``None`` when the target is not
        attainable within the observed curve range.
        """
        check_in_range("target", target, 0.0, 1.0)
        try:
            curve = self._planning_curve()
        except ValueError:
            # Cold model: no sampled accesses recorded yet.
            return None
        want_miss = 1.0 - target
        for size, ratio in zip(curve.sizes, curve.miss_ratios):
            if ratio <= want_miss + 1e-12:
                return float(size)
        return None

    # ------------------------------------------------------------------
    def info(self) -> Dict[str, Any]:
        """JSON-safe introspection snapshot (the service endpoint payload)."""
        with self._lock:
            if self._instrumented:
                self._flush_pending_locked()
            body: Dict[str, Any] = {
                "name": self.name,
                "capacity_bytes": self._capacity_bytes,
                "used_bytes": self._used,
                "objects": len(self._keys),
                "k": self._k,
                "with_replacement": self.with_replacement,
                "instrumented": self._instrumented,
                "track_sizes": self.track_sizes,
                "stats": {
                    "hits": self.stats.hits,
                    "misses": self.stats.misses,
                    "evictions": self.stats.evictions,
                    "miss_ratio": self.stats.miss_ratio,
                    "rejected": self.rejected,
                },
                "references": self._references,
                "retunes": [
                    {
                        "at_request": e.at_request,
                        "chosen_k": e.chosen_k,
                        "predicted": {str(k): v for k, v in e.predicted.items()},
                        "skipped": list(e.skipped),
                    }
                    for e in self.retune_events[-5:]
                ],
            }
            if self._model is not None:
                body["model"] = dict(self._model.counters())
                body["model"]["rate"] = self.model_rate
        return body
