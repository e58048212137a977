"""Concurrency smoke tests: N writer threads hammer one SamplingLRUCache.

Checks the lock discipline promises from ``docs/CACHE.md``: no deadlock
(joins bounded by a timeout), no torn accounting (byte budget and
recounts agree after the storm), no lost model feeds, and no leaked
threads.  Python's allocator plus one coarse lock make true data races
unlikely to corrupt interpreter state, so the interesting failures are
exactly these logical ones.
"""

import threading

import numpy as np
import pytest

from repro.cache import CacheRegistry, SamplingLRUCache

N_THREADS = 4
OPS_PER_THREAD = 5_000
JOIN_TIMEOUT = 60.0


def _worker(cache, thread_idx, errors):
    rng = np.random.default_rng(1000 + thread_idx)
    try:
        for i in range(OPS_PER_THREAD):
            key = int(rng.integers(0, 200))
            op = i % 10
            if op < 6:
                if cache.get(key) is None:
                    cache.put(key, thread_idx, size=int(rng.integers(1, 100)))
            elif op < 8:
                cache.put(key, thread_idx, size=int(rng.integers(1, 100)))
            elif op == 8:
                key in cache  # noqa: B015 - pure probe on purpose
            else:
                cache.discard(key)
            # opportunistic invariant probe from inside the storm; both
            # reads under the cache's lock, since a concurrent resize may
            # land between two unlocked reads
            with cache._lock:
                assert cache.used_bytes <= cache.capacity_bytes
    except BaseException as exc:  # pragma: no cover - failure path
        errors.append(exc)


def _run_storm(cache):
    before = set(threading.enumerate())
    errors = []
    threads = [
        threading.Thread(target=_worker, args=(cache, i, errors), daemon=True)
        for i in range(N_THREADS)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=JOIN_TIMEOUT)
        assert not t.is_alive(), "writer thread wedged: deadlock"
    assert not errors, f"worker raised: {errors[0]!r}"
    leaked = set(threading.enumerate()) - before
    assert not leaked, f"threads leaked: {leaked}"


class TestThreadedStress:
    def test_instrumented_storm_invariants(self):
        cache = SamplingLRUCache(5_000, k=5, seed=0, model_rate=0.1)
        _run_storm(cache)
        # post-storm: accounting is coherent
        assert cache.used_bytes == sum(cache._sizes.values())
        assert len(cache) == len(cache._residents) == len(cache._sizes)
        assert cache.used_bytes <= cache.capacity_bytes
        assert cache.stats.hits + cache.stats.misses > 0
        # every lookup was counted exactly once by the reference clock
        assert cache.references == cache.stats.hits + cache.stats.misses

    def test_uninstrumented_storm(self):
        cache = SamplingLRUCache(5_000, k=5, seed=0, instrument=False)
        _run_storm(cache)
        assert cache.used_bytes == sum(cache._sizes.values())
        assert cache.used_bytes <= cache.capacity_bytes

    def test_storm_with_adaptive_retuning(self):
        cache = SamplingLRUCache(
            5_000,
            k=5,
            seed=0,
            model_rate=0.5,
            adaptive_candidates=(2, 5, 10),
            retune_interval=1_000,
        )
        _run_storm(cache)
        assert cache.used_bytes <= cache.capacity_bytes
        assert cache.k in (2, 5, 10)

    def test_concurrent_resize_during_storm(self):
        cache = SamplingLRUCache(10_000, k=5, seed=0, model_rate=0.1)
        stop = threading.Event()

        def resizer():
            caps = [2_000, 10_000, 500, 10_000]
            i = 0
            while not stop.is_set():
                cache.resize(caps[i % len(caps)])
                cache.set_k(3 if i % 2 else 7)
                i += 1

        t = threading.Thread(target=resizer, daemon=True)
        t.start()
        try:
            _run_storm(cache)
        finally:
            stop.set()
            t.join(timeout=JOIN_TIMEOUT)
        assert not t.is_alive()
        assert cache.used_bytes <= cache.capacity_bytes
        assert cache.used_bytes == sum(cache._sizes.values())

    def test_registry_concurrent_register_unregister(self):
        registry = CacheRegistry()
        errors = []

        def churn(idx):
            try:
                for i in range(200):
                    name = f"c{idx}-{i % 5}"
                    try:
                        registry.register(SamplingLRUCache(100, name=name, seed=0))
                    except ValueError:
                        pass  # raced with a leftover duplicate
                    registry.names()
                    registry.unregister(name)
            except BaseException as exc:  # pragma: no cover
                errors.append(exc)

        threads = [
            threading.Thread(target=churn, args=(i,), daemon=True) for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=JOIN_TIMEOUT)
            assert not t.is_alive()
        assert not errors

    def test_model_answers_readable_during_storm(self):
        cache = SamplingLRUCache(5_000, k=5, seed=0, model_rate=1.0,
                                 model_window=10**8)
        errors = []
        stop = threading.Event()

        def reader():
            try:
                while not stop.is_set():
                    try:
                        mr = cache.miss_ratio_at(100)
                        assert 0.0 <= mr <= 1.0
                    except ValueError:
                        pass  # model still cold
                    cache.info()
            except BaseException as exc:  # pragma: no cover
                errors.append(exc)

        t = threading.Thread(target=reader, daemon=True)
        t.start()
        try:
            _run_storm(cache)
        finally:
            stop.set()
            t.join(timeout=JOIN_TIMEOUT)
        assert not t.is_alive()
        assert not errors


if __name__ == "__main__":
    import sys

    sys.exit(pytest.main([__file__, "-v"]))
