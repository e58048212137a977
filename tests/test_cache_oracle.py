"""Differential oracle for ``SamplingLRUCache``'s slot table.

``_DictLayoutCache`` keeps the cache's residents the way it did before
the slot table: a :class:`~repro.cache.eviction.ResidentSet` of keys,
and dicts for values and recency, with victims drawn by the same
``select_victim`` over the resident keys.  Everything else (locking,
stats, the model feed) is inherited.  Hypothesis drives it and the real
cache through the same operations; after every one both must agree on
the return value, stats, rejections, bytes, resident keys in slot order,
iteration order, the eviction PRNG state and, when instrumented, the
self-model's curve and counters.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import SamplingLRUCache
from repro.cache.eviction import NO_PROTECT, ResidentSet, select_victim


class _DictLayoutCache(SamplingLRUCache):
    """The dict layout: a ResidentSet, ``_data`` and ``_last_access``."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._residents = ResidentSet()
        self._keys = self._residents.keys  # read by __len__ and info()
        self._data = {}
        self._last_access = {}

    def __contains__(self, key):
        return key in self._residents

    def __iter__(self):
        return iter(list(self._data))

    def __delitem__(self, key):
        if key not in self._residents:
            raise KeyError(key)
        self._remove_locked(key)

    def get(self, key, default=None):
        with self._lock:
            self._clock += 1
            if key in self._residents:
                self._last_access[key] = self._clock
                self.stats.hits += 1
                self._reference_locked(key, self._sizes[key])
                return self._data[key]
            self.stats.misses += 1
            self._reference_locked(key, 1)
            return default

    def access(self, key, size=1):
        with self._lock:
            self._clock += 1
            if key in self._residents:
                self._last_access[key] = self._clock
                self.stats.hits += 1
                self._reference_locked(key, self._sizes[key])
                return True
            self.stats.misses += 1
            self._reference_locked(key, size)
            self._store_locked(key, None, int(size))
            return False

    def put(self, key, value, size=None):
        nbytes = int(size) if size is not None else self._sizeof(value)
        with self._lock:
            self._clock += 1
            if self._model_stores:
                self._reference_locked(key, nbytes)
            return self._store_locked(key, value, nbytes)

    def discard(self, key):
        if key not in self._residents:
            return False
        self._remove_locked(key)
        return True

    def clear(self):
        self._data.clear()
        self._sizes.clear()
        self._last_access.clear()
        self._residents = ResidentSet()
        self._keys = self._residents.keys
        self._used = 0

    def _store_locked(self, key, value, nbytes):
        if nbytes > self._capacity_bytes:
            if key in self._residents:
                self._remove_locked(key)
            self.rejected += 1
            return False
        if key in self._residents:
            old = self._sizes[key]
            self._data[key] = value
            self._last_access[key] = self._clock
            if old != nbytes:
                self._evict_until_fits_locked(
                    key, self._capacity_bytes - (nbytes - old)
                )
                self._sizes[key] = nbytes
                self._used += nbytes - old
            return key in self._residents
        self._residents.add(key)
        self._data[key] = value
        self._last_access[key] = self._clock
        self._evict_until_fits_locked(key, self._capacity_bytes - nbytes)
        self._sizes[key] = nbytes
        self._used += nbytes
        return True

    def _remove_locked(self, key):
        self._residents.remove(key)
        del self._data[key]
        del self._last_access[key]
        self._used -= self._sizes.pop(key)

    def _evict_until_fits_locked(self, protect, budget):
        if protect == -1:  # resize/autosize pass the slot table's "none"
            protect = NO_PROTECT
        while self._used > budget and len(self._residents) > 0:
            victim = select_victim(
                self._residents.keys, self._last_access, self._rnd,
                self._k, self.with_replacement, protect=protect,
            )
            self._remove_locked(victim)
            self.stats.evictions += 1


# A hot subset of the 30 keys makes hits and overwrites common; most
# sizes fit many times over, and a few exceed any budget (the reject path).
NAMES = ["get"] * 4 + ["put"] * 4 + ["access"] * 3 + [
    "discard", "del", "resize", "set_k", "clear"]
OPS = st.tuples(
    st.sampled_from(NAMES),
    st.integers(0, 5) | st.integers(0, 29),
    st.integers(0, 120) | st.integers(0, 1200),
)


def _apply(cache, op):
    name, key, size = op
    try:
        if name == "get":
            return cache.get(key, "absent")
        if name == "put":
            return cache.put(key, ("value", key, size), size=size)
        if name == "access":
            return cache.access(key, size)
        if name == "discard":
            return cache.discard(key)
        if name == "del":
            del cache[key]
            return None
        if name == "resize":
            return cache.resize(size + 1)
        if name == "set_k":
            return cache.set_k(key % 8 + 1)
        return cache.clear()
    except KeyError as exc:
        return ("KeyError", exc.args)


def _curve(cache):
    try:
        curve = cache.mrc()
    except ValueError as exc:  # cold model
        return ("ValueError", str(exc))
    return (curve.sizes.tolist(), curve.miss_ratios.tolist())


def _state(cache, instrument):
    out = [
        (cache.stats.hits, cache.stats.misses, cache.stats.evictions),
        cache.rejected,
        cache.used_bytes,
        list(cache._keys),
        list(cache),
        len(cache),
        cache._rnd.getstate(),
    ]
    if instrument:
        out += [_curve(cache), cache.info()["model"]]
    return out


@settings(max_examples=150, deadline=None)
@given(
    ops=st.lists(OPS, min_size=10, max_size=80),
    capacity=st.integers(1, 1000),
    k=st.integers(1, 8),
    with_replacement=st.booleans(),
    instrument=st.booleans(),
    model_stores=st.booleans(),
    seed=st.integers(0, 2**20),
)
def test_slot_table_matches_dict_layout(
    ops, capacity, k, with_replacement, instrument, model_stores, seed
):
    kwargs = dict(
        k=k, with_replacement=with_replacement, instrument=instrument,
        model_rate=0.5, model_window=64, model_stores=model_stores, seed=seed,
    )
    cache = SamplingLRUCache(capacity, **kwargs)
    oracle = _DictLayoutCache(capacity, **kwargs)
    assert cache._rnd.getstate() == oracle._rnd.getstate()
    for op in ops:
        assert _apply(cache, op) == _apply(oracle, op), op
        assert _state(cache, instrument) == _state(oracle, instrument), op
        assert cache.used_bytes <= cache.capacity_bytes


def test_keys_the_dict_layout_mishandled():
    """Where the layouts differ on purpose.  Over keys, a ``None`` key
    drawn as the sampled LRU came back as "no victim", the eviction loop
    stopped, and the store left the cache over budget; slot numbers are
    never ``None``.  A NaN key is unequal to itself, so the ResidentSet's
    swap-remove indexed past the end when it held the last position."""
    evicted = 0
    for seed in range(20):
        cache = SamplingLRUCache(30, k=8, seed=seed, instrument=False)
        for key in (None, 1, 2, 3):  # None is the oldest; 3 evicts one
            cache.put(key, b"v", size=10)
        evicted += None not in cache
        assert len(cache) == 3 and cache.used_bytes == 30
    assert evicted > 0
    nan = float("nan")
    cache = SamplingLRUCache(100, seed=0, instrument=False)
    cache.put(nan, b"v", size=10)
    del cache[nan]
    assert len(cache) == 0 and cache.used_bytes == 0
