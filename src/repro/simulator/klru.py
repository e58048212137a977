"""K-LRU: random sampling-based LRU cache simulators (Chapter 3).

On eviction the cache samples ``K`` residents uniformly (with "placing
back", i.e. with replacement, as Redis does — or without, Proposition 2's
variant) and evicts the least recently used of the sample.  Residents live
in an array with a key→index map so sampling and swap-remove eviction are
``O(1)``; recency is a monotone access counter.

These simulators are the ground truth the KRR model is validated against
(§5.3): run one per cache size and interpolate (see
:mod:`repro.simulator.sweep`).

Victim selection lives in :mod:`repro.cache.eviction` — the production
:class:`~repro.cache.lru.SamplingLRUCache` runs the identical policy
through the same :func:`~repro.cache.eviction.select_victim` core, so
simulated and deployed eviction can never drift apart.  The inlined loop
in :meth:`KLRUCache.access_many` is a hoisted copy of that core and must
keep its PRNG contract: exactly K ``randrange(n)``-equivalent draws per
with-replacement eviction, each ``randrange`` inlined as the same
``getrandbits`` loop, and one ``sample`` draw otherwise.
"""

from __future__ import annotations

import random
from typing import Sequence

from .._util import RngLike, check_positive, check_sampling_size, ensure_rng
from ..cache.eviction import NO_PROTECT as _NO_PROTECT
from ..cache.eviction import ResidentSet as _ResidentSet
from ..cache.eviction import select_victim
from .base import CacheStats

__all__ = [
    "ByteKLRUCache",
    "KLRUCache",
]


class KLRUCache:
    """K-LRU over a fixed number of objects.

    Parameters
    ----------
    capacity:
        Maximum resident objects.
    k:
        Eviction sampling size (Redis's ``maxmemory-samples``; default 5).
    with_replacement:
        "Placing back" sampling (Redis semantics, Proposition 1) when True;
        distinct-resident sampling (Proposition 2) when False.
    """

    def __init__(
        self,
        capacity: int,
        k: int = 5,
        with_replacement: bool = True,
        rng: RngLike = None,
    ) -> None:
        check_positive("capacity", capacity)
        self.capacity = int(capacity)
        self.k = check_sampling_size(k)
        self.with_replacement = bool(with_replacement)
        if not with_replacement and self.k > self.capacity:
            raise ValueError("K cannot exceed capacity when sampling without replacement")
        # A fast stdlib PRNG seeded from the (seedable) NumPy generator keeps
        # the hot path cheap while staying reproducible.
        self._rnd = random.Random(int(ensure_rng(rng).integers(0, 2**63)))
        self._residents = _ResidentSet()
        self._last_access: dict[int, int] = {}
        self._clock = 0
        self.stats = CacheStats()

    def __len__(self) -> int:
        return len(self._residents)

    def __contains__(self, key: int) -> bool:
        return key in self._residents

    def access(self, key: int, size: int = 1) -> bool:
        self._clock += 1
        if key in self._residents:
            self._last_access[key] = self._clock
            self.stats.hits += 1
            return True
        self.stats.misses += 1
        if len(self._residents) >= self.capacity:
            self._evict_one()
        self._residents.add(key)
        self._last_access[key] = self._clock
        return False

    def access_many(
        self, keys: Sequence[int], sizes: Sequence[int] | None = None
    ) -> list[bool]:
        """Batched :meth:`access`; returns the per-request hit flags.

        One flat loop with every attribute lookup hoisted and the
        resident-set bookkeeping inlined — the simulator's ground-truth
        sweeps spend their time here.  The PRNG is consumed in exactly
        the per-access order (one inlined ``randrange`` per
        with-replacement draw, one ``sample`` per distinct draw), so
        stats, evictions and final residency are identical to streaming
        the requests one by one.
        ``sizes`` is accepted for interface symmetry and ignored, as in
        :meth:`access`.
        """
        key_list = keys.tolist() if hasattr(keys, "tolist") else list(keys)
        res_keys = self._residents.keys
        res_index = self._residents.index
        last = self._last_access
        rnd = self._rnd
        getrandbits = rnd.getrandbits
        capacity = self.capacity
        k = self.k
        with_replacement = self.with_replacement
        clock = self._clock
        hits = 0
        evictions = 0
        out: list[bool] = []
        record = out.append
        for key in key_list:
            clock += 1
            if key in res_index:
                last[key] = clock
                hits += 1
                record(True)
                continue
            record(False)
            if len(res_keys) >= capacity:
                n = len(res_keys)
                if with_replacement:
                    # randrange(n), inlined as in select_victim
                    bits = n.bit_length()
                    i = getrandbits(bits)
                    while i >= n:
                        i = getrandbits(bits)
                    victim = res_keys[i]
                    vt = last[victim]
                    for _ in range(k - 1):
                        i = getrandbits(bits)
                        while i >= n:
                            i = getrandbits(bits)
                        cand = res_keys[i]
                        ct = last[cand]
                        if ct < vt:
                            victim, vt = cand, ct
                else:
                    victim = None
                    vt = None
                    for i in rnd.sample(range(n), k if k < n else n):
                        cand = res_keys[i]
                        ct = last[cand]
                        if vt is None or ct < vt:
                            victim, vt = cand, ct
                i = res_index.pop(victim)
                moved = res_keys.pop()
                if moved != victim:
                    res_keys[i] = moved
                    res_index[moved] = i
                del last[victim]
                evictions += 1
            res_index[key] = len(res_keys)
            res_keys.append(key)
            last[key] = clock
        self._clock = clock
        self.stats.hits += hits
        self.stats.misses += len(key_list) - hits
        self.stats.evictions += evictions
        return out

    def _evict_one(self) -> None:
        # No ``protect`` needed here (unlike the byte variant): eviction
        # runs *before* the missed key is inserted, so the key that
        # triggered it can never be sampled as its own victim.
        victim = select_victim(
            self._residents.keys,
            self._last_access,
            self._rnd,
            self.k,
            self.with_replacement,
        )
        self._residents.remove(victim)
        del self._last_access[victim]
        self.stats.evictions += 1

    def resident_keys(self) -> list[int]:
        return list(self._residents.keys)


class ByteKLRUCache:
    """K-LRU over a byte budget (variable object sizes).

    A miss (or a size-growing overwrite) evicts sampled-LRU victims until
    the new object fits, mirroring Redis's eviction loop under
    ``maxmemory``.
    """

    def __init__(
        self,
        capacity_bytes: int,
        k: int = 5,
        with_replacement: bool = True,
        rng: RngLike = None,
    ) -> None:
        check_positive("capacity_bytes", capacity_bytes)
        self.capacity_bytes = int(capacity_bytes)
        self.k = check_sampling_size(k)
        self.with_replacement = bool(with_replacement)
        self._rnd = random.Random(int(ensure_rng(rng).integers(0, 2**63)))
        self._residents = _ResidentSet()
        self._last_access: dict[int, int] = {}
        self._sizes: dict[int, int] = {}
        self._used = 0
        self._clock = 0
        self.stats = CacheStats()

    def __len__(self) -> int:
        return len(self._residents)

    def __contains__(self, key: int) -> bool:
        return key in self._residents

    @property
    def used_bytes(self) -> int:
        return self._used

    def access(self, key: int, size: int = 1) -> bool:
        self._clock += 1
        if key in self._residents:
            self._last_access[key] = self._clock
            old = self._sizes[key]
            if old != size:
                self._used += size - old
                self._sizes[key] = size
                # The key just hit: shield it while shrinking, exactly as
                # on insert.  (If it alone outgrew the whole budget it is
                # still dropped — hit counted, residency lost.)
                self._evict_until_fits(protect=key)
            self.stats.hits += 1
            return True
        self.stats.misses += 1
        if size > self.capacity_bytes:
            return False
        self._residents.add(key)
        self._last_access[key] = self._clock
        self._sizes[key] = size
        self._used += size
        self._evict_until_fits(protect=key)
        return False

    def access_many(
        self, keys: Sequence[int], sizes: Sequence[int]
    ) -> list[bool]:
        """Batched :meth:`access` (draw-for-draw identical to streaming)."""
        key_list = keys.tolist() if hasattr(keys, "tolist") else list(keys)
        size_list = sizes.tolist() if hasattr(sizes, "tolist") else list(sizes)
        access = self.access
        return [access(key, size) for key, size in zip(key_list, size_list)]

    def _evict_until_fits(self, protect: int | None = None) -> None:
        # The loop must be able to empty the cache: guarding on ``> 1``
        # residents let a lone object resized past ``capacity_bytes``
        # keep the cache over budget forever.  ``select_victim`` returns
        # the protected key itself only when it is the last resident.
        while self._used > self.capacity_bytes and len(self._residents) > 0:
            self._evict_one(protect)

    def _evict_one(self, protect: int | None = None) -> None:
        victim = select_victim(
            self._residents.keys,
            self._last_access,
            self._rnd,
            self.k,
            self.with_replacement,
            protect=protect if protect is not None else _NO_PROTECT,
        )
        if victim is None:  # pragma: no cover - empty resident set
            return
        self._residents.remove(victim)
        del self._last_access[victim]
        self._used -= self._sizes.pop(victim)
        self.stats.evictions += 1
