"""Tests for repro.cache: SamplingLRUCache, the registry, and the service routes."""

import io
import json

import numpy as np
import pytest

from repro.cache import CacheRegistry, SamplingLRUCache
from repro.cache.lru import default_sizeof
from repro.core.model import KRRModel
from repro.simulator.base import CacheSimulator
from repro.workloads.zipf import ScrambledZipfGenerator


def _fill(cache, n_keys=200, n_requests=5_000, seed=1, size=10):
    gen = ScrambledZipfGenerator(n_keys, 1.0, rng=seed)
    for k in gen.sample(n_requests):
        if cache.get(int(k)) is None:
            cache.put(int(k), b"v", size=size)


class TestMappingProtocol:
    def test_set_get_del(self):
        c = SamplingLRUCache(1000, seed=0)
        c["a"] = b"xy"
        assert c["a"] == b"xy"
        assert "a" in c
        assert len(c) == 1
        del c["a"]
        assert "a" not in c
        with pytest.raises(KeyError):
            c["a"]
        with pytest.raises(KeyError):
            del c["a"]

    def test_mixin_methods(self):
        c = SamplingLRUCache(10_000, seed=0)
        c.update({"a": b"1", "b": b"22"})
        assert c.setdefault("a", b"zzz") == b"1"
        assert c.pop("b") == b"22"
        assert "b" not in c
        assert sorted(c) == ["a"]

    def test_arbitrary_hashable_keys(self):
        c = SamplingLRUCache(10_000, seed=0)
        for key in ("name", ("tuple", 3), frozenset({1}), None, 42):
            c[key] = b"v"
            assert key in c
        assert len(c) == 5

    def test_iteration_snapshot(self):
        c = SamplingLRUCache(10_000, seed=0)
        c["a"], c["b"] = b"1", b"2"
        keys = iter(c)
        c["c"] = b"3"  # mutation after the snapshot must not break iteration
        assert sorted(keys) == ["a", "b"]

    def test_contains_is_pure_probe(self):
        c = SamplingLRUCache(1000, seed=0)
        c["a"] = b"1"
        before = (c.stats.hits, c.stats.misses, c.references)
        assert "a" in c and "zzz" not in c
        assert (c.stats.hits, c.stats.misses, c.references) == before


class TestByteAccounting:
    def test_default_sizeof_prefers_nbytes(self):
        arr = np.zeros(100, dtype=np.int64)
        assert default_sizeof(arr) == 800
        assert default_sizeof(b"abcd") > default_sizeof(b"")
        assert default_sizeof("s") > 0

    def test_explicit_size_overrides(self):
        c = SamplingLRUCache(1000, seed=0)
        c.put("a", b"tiny", size=600)
        assert c.used_bytes == 600

    def test_budget_invariant_under_churn(self):
        c = SamplingLRUCache(1000, k=3, seed=0)
        rng = np.random.default_rng(2)
        for k in rng.integers(0, 60, size=2000):
            c.put(int(k), None, size=int(rng.integers(1, 300)))
            assert c.used_bytes <= c.capacity_bytes
        assert c.stats.evictions > 0

    def test_oversized_object_rejected(self):
        c = SamplingLRUCache(100, seed=0)
        assert c.put("big", None, size=500) is False
        assert "big" not in c and c.used_bytes == 0
        assert c.rejected == 1

    def test_oversized_overwrite_drops_stale_copy(self):
        c = SamplingLRUCache(100, seed=0)
        c.put("a", b"old", size=40)
        assert c.put("a", b"new", size=500) is False
        assert "a" not in c and c.used_bytes == 0

    def test_grow_on_overwrite_protects_key(self):
        for seed in range(20):
            c = SamplingLRUCache(100, k=8, seed=seed)
            c.put(1, None, size=40)
            c.put(2, None, size=40)
            c.put(1, None, size=90)  # grows: must evict 2, never 1
            assert 1 in c and 2 not in c
            assert c.used_bytes == 90

    def test_lone_resident_outgrowing_budget_is_dropped(self):
        c = SamplingLRUCache(100, seed=0)
        c.put(1, None, size=50)
        assert c.put(1, None, size=200) is False
        assert len(c) == 0 and c.used_bytes == 0

    def test_eviction_count_consistency(self):
        c = SamplingLRUCache(500, k=4, seed=3)
        rng = np.random.default_rng(4)
        inserts = 0
        for k in rng.integers(0, 100, size=3000):
            if int(k) not in c:
                inserts += 1
            c.put(int(k), None, size=int(rng.integers(1, 50)))
        # every insert either still resides, was evicted, or was rejected
        assert inserts == len(c) + c.stats.evictions + c.rejected

    def test_access_protocol_compatible(self):
        c = SamplingLRUCache(1000, seed=0)
        assert isinstance(c, CacheSimulator)
        assert c.access(1, 10) is False
        assert c.access(1, 10) is True
        assert c.stats.hits == 1 and c.stats.misses == 1


def _spy_budget(monkeypatch, cache):
    """Check the lock-free budget reads at every victim selection.

    ``select_victim`` runs mid-eviction, so the spy sees exactly what a
    concurrent ``used_bytes``/``capacity_bytes`` reader could see then.
    """
    import repro.cache.lru as lru_mod

    real = lru_mod.select_victim
    seen = []

    def spy(keys, *args, **kwargs):
        seen.append((cache.used_bytes, cache.capacity_bytes))
        assert cache.used_bytes <= cache.capacity_bytes, seen[-1]
        return real(keys, *args, **kwargs)

    monkeypatch.setattr(lru_mod, "select_victim", spy)
    return seen


class TestLockFreeBudgetReads:
    def _full_cache(self):
        c = SamplingLRUCache(1000, k=3, seed=0)
        for key in range(16):
            c.put(key, None, size=60)
        assert c.used_bytes == 960 and c.stats.evictions == 0
        return c

    def test_new_put_publishes_bytes_after_eviction(self, monkeypatch):
        c = self._full_cache()
        seen = _spy_budget(monkeypatch, c)
        c.put(16, None, size=60)
        assert seen and c.stats.evictions == 1
        assert 16 in c and c.used_bytes == 960

    def test_resize_on_hit_publishes_bytes_after_eviction(self, monkeypatch):
        c = self._full_cache()
        seen = _spy_budget(monkeypatch, c)
        c.put(0, None, size=200)
        assert seen and c.stats.evictions == 2  # 1100 bytes -> 980
        assert 0 in c and c.used_bytes == 960 - 60 + 200 - 2 * 60

    def test_resize_shrink_publishes_budget_after_eviction(self, monkeypatch):
        c = self._full_cache()
        seen = _spy_budget(monkeypatch, c)
        assert c.resize(500) == 8
        assert len(seen) == 8
        assert c.capacity_bytes == 500 and c.used_bytes == 480


class TestSizingControls:
    def test_resize_shrinks(self):
        c = SamplingLRUCache(1000, k=4, seed=0)
        for k in range(10):
            c.put(k, None, size=100)
        evicted = c.resize(300)
        assert c.capacity_bytes == 300
        assert c.used_bytes <= 300
        assert evicted >= 7

    def test_set_k(self):
        c = SamplingLRUCache(1000, k=5, seed=0)
        c.set_k(2)
        assert c.k == 2
        with pytest.raises(ValueError):
            c.set_k(0)

    def test_autosize_follows_model(self):
        c = SamplingLRUCache(100_000, k=5, seed=0, model_rate=1.0, model_window=10**8)
        _fill(c, n_keys=300, n_requests=20_000)
        new_cap = c.autosize(0.5, max_bytes=50_000)
        assert new_cap is not None
        assert c.capacity_bytes == new_cap <= 50_000
        assert c.used_bytes <= c.capacity_bytes

    def test_autosize_cold_model_is_noop(self):
        c = SamplingLRUCache(1000, seed=0, model_rate=1.0)
        # a hit-rate target no observed curve point can reach yet
        assert c.autosize(1.0) is None or c.capacity_bytes >= 1


class TestSelfModel:
    def test_self_mrc_matches_offline_krr(self):
        """Scaled-down acceptance check (the full 500k run lives in
        benchmarks/bench_cache.py): the cache's self-reported MRC must
        track an offline KRR run over the same reference stream."""
        gen = ScrambledZipfGenerator(5_000, 1.0, rng=1)
        keys = gen.sample(80_000)
        cache = SamplingLRUCache(
            20_000, k=5, seed=0, model_rate=0.05, model_window=10**9
        )
        offline = KRRModel(k=5, sampling_rate=0.05, seed=99)
        for k in keys:
            if cache.get(int(k)) is None:
                cache.put(int(k), None, size=10)
            offline.access(int(k))
        self_curve, off_curve = cache.mrc(), offline.mrc()
        for size in (500, 1500, 3000):
            assert abs(float(self_curve(size)) - float(off_curve(size))) < 0.03

    def test_miss_ratio_at_and_size_for_hit_rate(self):
        c = SamplingLRUCache(50_000, seed=0, model_rate=1.0, model_window=10**8)
        _fill(c, n_keys=400, n_requests=30_000)
        mr = c.miss_ratio_at(200)
        assert 0.0 <= mr <= 1.0
        size = c.size_for_hit_rate(0.5)
        assert size is not None
        assert c.miss_ratio_at(size) <= 0.5 + 1e-9
        # monotone: a stricter target needs at least as much cache
        easier = c.size_for_hit_rate(0.3)
        assert easier is not None and easier <= size

    def test_unattainable_target_returns_none(self):
        c = SamplingLRUCache(10_000, seed=0, model_rate=1.0)
        _fill(c, n_keys=50, n_requests=500)
        assert c.size_for_hit_rate(1.0) is None

    def test_uninstrumented_has_no_model(self):
        c = SamplingLRUCache(1000, instrument=False, seed=0)
        _fill(c, n_keys=20, n_requests=200)
        assert c.references == 0 or c.references > 0  # counter still ticks
        with pytest.raises(RuntimeError):
            c.mrc()
        with pytest.raises(RuntimeError):
            c.miss_ratio_at(10)
        with pytest.raises(ValueError):
            SamplingLRUCache(1000, instrument=False, adaptive_candidates=(1, 2))

    def test_byte_mrc_with_track_sizes(self):
        c = SamplingLRUCache(
            100_000, seed=0, model_rate=1.0, track_sizes=True, model_window=10**8
        )
        rng = np.random.default_rng(7)
        for k in rng.integers(0, 300, size=8_000):
            if c.get(int(k)) is None:
                c.put(int(k), None, size=int(rng.integers(100, 5000)))
        curve = c.byte_mrc()
        assert curve.unit == "bytes"
        assert 0.0 <= c.miss_ratio_at(50_000) <= 1.0

    def test_string_keys_feed_the_model(self):
        c = SamplingLRUCache(10_000, seed=0, model_rate=1.0, model_window=10**8)
        rng = np.random.default_rng(8)
        for k in rng.integers(0, 100, size=3_000):
            name = f"user:{int(k)}"
            if c.get(name) is None:
                c.put(name, None, size=10)
        assert c.info()["model"]["requests_seen"] == c.references

    def test_reproducible_with_seed(self):
        runs = []
        for _ in range(2):
            c = SamplingLRUCache(500, k=3, seed=42, model_rate=0.5)
            _fill(c, n_keys=100, n_requests=4_000, seed=9)
            runs.append((c.stats.hits, c.stats.misses, c.stats.evictions,
                         sorted(map(str, c))))
        assert runs[0] == runs[1]


class TestAdaptiveReK:
    def test_retunes_toward_better_k(self):
        """On a loop larger than the cache, small K (random-ish) beats
        large K; the embedded bank must discover that, as DLRU does."""
        c = SamplingLRUCache(
            2_000,
            k=16,
            seed=0,
            model_rate=0.5,
            adaptive_candidates=(1, 16),
            retune_interval=4_000,
        )
        loop = np.tile(np.arange(400, dtype=np.int64), 60)
        for k in loop:
            c.access(int(k), 10)
        assert c.retune_events, "expected at least one retune decision"
        assert c.k == c.retune_events[-1].chosen_k == 1

    def test_cold_candidates_recorded_as_skipped(self):
        c = SamplingLRUCache(
            1_000,
            seed=0,
            model_rate=1.0,
            adaptive_candidates=(2, 8),
            retune_interval=100,
        )
        _fill(c, n_keys=50, n_requests=400)
        c._flush_pending_locked()  # drain buffered references into the bank
        # freeze one candidate cold, then force a decision
        c._bank[8].stats.requests_sampled = 0
        c._retune_locked()
        event = c.retune_events[-1]
        assert event.skipped == (8,)
        assert set(event.predicted) == {2}


class TestRegistry:
    def _registered(self):
        registry = CacheRegistry()
        a = SamplingLRUCache(5_000, name="a", seed=0, model_rate=1.0,
                             model_window=10**8)
        b = SamplingLRUCache(5_000, name="b", seed=1, model_rate=1.0,
                             model_window=10**8)
        registry.register(a)
        registry.register(b)
        _fill(a, n_keys=500, n_requests=8_000, seed=2)   # big working set
        _fill(b, n_keys=20, n_requests=8_000, seed=3)    # tiny working set
        return registry, a, b

    def test_register_and_lookup(self):
        registry, a, _ = self._registered()
        assert registry.names() == ["a", "b"]
        assert registry.get("a") is a
        assert "a" in registry and len(registry) == 2
        assert registry.unregister("a") is True
        assert registry.unregister("a") is False

    def test_duplicate_name_rejected(self):
        registry = CacheRegistry()
        registry.register(SamplingLRUCache(100, name="x", seed=0))
        with pytest.raises(ValueError):
            registry.register(SamplingLRUCache(100, name="x", seed=1))

    def test_summaries(self):
        registry, _, _ = self._registered()
        rows = registry.summaries()
        assert [r["name"] for r in rows] == ["a", "b"]
        for r in rows:
            assert r["used_bytes"] <= r["capacity_bytes"]

    def test_partition_advice_favors_big_working_set(self):
        registry, a, b = self._registered()
        result = registry.partition_advice(budget=1000)
        assert set(result.allocations) == {"a", "b"}
        assert sum(result.allocations.values()) <= 1000
        # cache "a" cycles 500 objects, "b" only 20: "a" needs the space
        assert result.allocations["a"] > result.allocations["b"]

    def test_partition_advice_requires_instrumented(self):
        registry = CacheRegistry()
        registry.register(SamplingLRUCache(100, name="x", instrument=False, seed=0))
        with pytest.raises(ValueError):
            registry.partition_advice(budget=100)


# ----------------------------------------------------------------------
# service routes (in-process introspection endpoints)
# ----------------------------------------------------------------------
def _call(app, method, path):
    path, _, query = path.partition("?")
    environ = {
        "REQUEST_METHOD": method,
        "PATH_INFO": path,
        "QUERY_STRING": query,
        "CONTENT_LENGTH": "0",
        "wsgi.input": io.BytesIO(b""),
    }
    captured = {}

    def start_response(status, headers):
        captured["status"] = status

    payload = b"".join(app(environ, start_response))
    return int(captured["status"][:3]), json.loads(payload)


class _StubSupervisor:
    registry = ()

    def health(self):
        return {"tenants": {}}


class TestCacheEndpoints:
    @pytest.fixture
    def api(self):
        from repro.service.handlers import Api

        registry = CacheRegistry()
        cache = SamplingLRUCache(10_000, name="web", seed=0, model_rate=1.0,
                                 model_window=10**8)
        _fill(cache, n_keys=100, n_requests=5_000)
        registry.register(cache)
        registry.register(
            SamplingLRUCache(1_000, name="plain", instrument=False, seed=1)
        )
        return Api(_StubSupervisor(), cache_registry=registry)

    def test_list_caches(self, api):
        code, body = _call(api, "GET", "/caches")
        assert code == 200
        assert [c["name"] for c in body["caches"]] == ["plain", "web"]

    def test_cache_info(self, api):
        code, body = _call(api, "GET", "/caches/web")
        assert code == 200
        assert body["name"] == "web"
        assert body["used_bytes"] <= body["capacity_bytes"]
        assert body["model"]["requests_seen"] > 0
        json.dumps(body)  # payload must be JSON-safe

    def test_cache_mrc(self, api):
        code, body = _call(api, "GET", "/caches/web/mrc?max_size=50")
        assert code == 200
        assert body["unit"] == "objects"
        assert len(body["sizes"]) == len(body["miss_ratios"]) > 0
        assert max(body["sizes"]) <= 50

    def test_unknown_cache_is_404(self, api):
        code, _ = _call(api, "GET", "/caches/nope")
        assert code == 404

    def test_uninstrumented_mrc_is_400(self, api):
        code, _ = _call(api, "GET", "/caches/plain/mrc")
        assert code == 400

    def test_partition_endpoint(self, api):
        code, body = _call(api, "GET", "/caches/partition?budget=500")
        assert code == 200
        assert body["budget"] == 500
        assert "web" in body["allocations"]

    def test_method_not_allowed(self, api):
        code, _ = _call(api, "POST", "/caches")
        assert code == 405
        code, _ = _call(api, "DELETE", "/caches/web")
        assert code == 405
