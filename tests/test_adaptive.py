"""Tests for the DLRU adaptive sampling-size cache."""

import numpy as np
import pytest

from repro.adaptive import AdaptiveKLRUCache
from repro.adaptive.dlru import RetuneEvent, choose_best_k
from repro.simulator import KLRUCache, run_trace
from repro.workloads import Trace, patterns
from repro.workloads.zipf import ScrambledZipfGenerator


def _loop_trace(n_keys=400, n_requests=40_000):
    return Trace(patterns.loop(np.arange(n_keys), n_requests), name="loop")


def _zipf_trace(n_objects=800, n_requests=40_000, seed=0):
    gen = ScrambledZipfGenerator(n_objects, 1.0, rng=seed)
    return Trace(gen.sample(n_requests), name="zipf")


class TestConstruction:
    def test_validation(self):
        with pytest.raises(ValueError):
            AdaptiveKLRUCache(0)
        with pytest.raises(ValueError):
            AdaptiveKLRUCache(10, candidates=[])
        with pytest.raises(ValueError):
            AdaptiveKLRUCache(10, retune_interval=0)
        with pytest.raises(ValueError):
            AdaptiveKLRUCache(10, retune_interval=100, window=50)
        with pytest.raises(ValueError):
            AdaptiveKLRUCache(10, candidates=[2, 4], initial_k=3)

    def test_initial_k(self):
        c = AdaptiveKLRUCache(10, candidates=[2, 8], initial_k=8, rng=0)
        assert c.k == 8

    def test_capacity_respected(self):
        c = AdaptiveKLRUCache(20, retune_interval=1000, rng=0)
        for k in range(500):
            c.access(k)
        assert len(c) == 20


class TestRetuning:
    def test_retune_events_recorded(self):
        c = AdaptiveKLRUCache(100, retune_interval=5_000, sampling_rate=0.5, rng=1)
        trace = _zipf_trace()
        for key in trace.keys:
            c.access(int(key))
        assert len(c.events) >= 4
        for e in c.events:
            assert e.chosen_k in c.candidates
            assert set(e.predicted) == set(c.candidates)

    def test_loop_workload_chooses_small_k(self):
        """On a loop larger than the cache, random-like eviction (small K)
        wins; the controller must discover that."""
        cache = AdaptiveKLRUCache(
            200, candidates=(1, 4, 16), retune_interval=5_000,
            sampling_rate=0.5, initial_k=16, rng=2,
        )
        trace = _loop_trace()
        for key in trace.keys:
            cache.access(int(key))
        assert cache.k == 1
        assert cache.events[-1].predicted[1] < cache.events[-1].predicted[16]

    def test_zipf_workload_chooses_large_k(self):
        cache = AdaptiveKLRUCache(
            150, candidates=(1, 16), retune_interval=8_000,
            sampling_rate=0.5, initial_k=1, rng=3,
        )
        trace = _zipf_trace(seed=4)
        for key in trace.keys:
            cache.access(int(key))
        assert cache.k == 16

    def test_adaptive_beats_or_matches_bad_fixed_k(self):
        """End to end: on the loop workload the adaptive cache must land
        close to the best fixed K and clearly beat the worst fixed K."""
        trace = _loop_trace()
        adaptive = AdaptiveKLRUCache(
            200, candidates=(1, 16), retune_interval=4_000,
            sampling_rate=0.5, initial_k=16, rng=5,
        )
        for key in trace.keys:
            adaptive.access(int(key))
        fixed = {}
        for k in (1, 16):
            cache = KLRUCache(200, k, rng=6)
            run_trace(cache, trace)
            fixed[k] = cache.stats.miss_ratio
        assert adaptive.stats.miss_ratio < fixed[16] - 0.01
        assert adaptive.stats.miss_ratio < fixed[1] + 0.05

    def test_windowed_models_reset(self):
        cache = AdaptiveKLRUCache(
            100, retune_interval=2_000, window=4_000, sampling_rate=0.5, rng=7
        )
        trace = _zipf_trace(n_requests=9_000, seed=8)
        for key in trace.keys:
            cache.access(int(key))
        # After a window reset the models' sampled counts restart.
        sampled = [m.stats.requests_sampled for m in cache._models.values()]
        assert all(s <= 4_000 for s in sampled)

    def test_predicted_miss_ratios_exposed(self):
        cache = AdaptiveKLRUCache(50, sampling_rate=1.0, retune_interval=10_000, rng=9)
        for key in _zipf_trace(n_requests=2_000, seed=10).keys:
            cache.access(int(key))
        preds = cache.predicted_miss_ratios()
        assert set(preds) == set(cache.candidates)
        assert all(0 <= v <= 1 for v in preds.values())


class TestColdCandidateRetuning:
    """Regression: _retune used to early-return when ANY candidate was
    cold, so one starved model (large K at a low spatial rate) blocked
    retuning forever.  Decisions now run over the warm subset and record
    the cold candidates in RetuneEvent.skipped."""

    def test_cold_candidate_does_not_block_retune(self):
        cache = AdaptiveKLRUCache(
            100, candidates=(2, 8), retune_interval=2_000,
            sampling_rate=1.0, rng=20,
        )
        # keep candidate 8 permanently cold: its model is never fed
        cache._models[8].access_many = lambda keys, sizes=None: None
        trace = _zipf_trace(n_requests=10_000, seed=21)
        for key in trace.keys:
            cache.access(int(key))
        assert cache.events, "warm-subset retunes must still happen"
        for event in cache.events:
            assert event.skipped == (8,)
            assert set(event.predicted) == {2}
            assert event.chosen_k == 2

    def test_all_cold_keeps_current_k(self):
        from repro.adaptive.dlru import choose_best_k

        cache = AdaptiveKLRUCache(
            100, candidates=(2, 8), retune_interval=100,
            sampling_rate=1.0, initial_k=8, rng=22,
        )
        best, predicted, skipped = choose_best_k(cache._models, cache.capacity)
        assert best is None
        assert predicted == {}
        assert skipped == (2, 8)
        assert cache.k == 8

    def test_batched_bank_feed_matches_per_request_loop(self):
        """The bank is fed in batches; every decision must equal that of
        the same loop feeding each model one request at a time."""
        kwargs = dict(
            capacity=150, retune_interval=1_500, window=4_500,
            sampling_rate=0.2, rng=31,
        )
        trace = _zipf_trace(n_requests=12_000, seed=32)
        cache = AdaptiveKLRUCache(**kwargs)
        for key in trace.keys:
            cache.access(int(key))

        ref = AdaptiveKLRUCache(**kwargs)
        for i, key in enumerate(trace.keys.tolist(), start=1):
            for model in ref._models.values():
                model.access(key)
            ref._cache.access(key)
            if i % ref.retune_interval == 0:
                best, predicted, skipped = choose_best_k(
                    ref._models, ref.capacity
                )
                if best is not None:
                    ref.events.append(RetuneEvent(i, best, predicted, skipped))
                    ref._cache.k = best
            if i % ref.window == 0:
                ref._build_models()

        assert len(ref.events) == 12_000 // 1_500
        assert len({e.chosen_k for e in ref.events}) > 1
        assert cache.events == ref.events
        assert cache.stats == ref._cache.stats

    def test_warm_retune_has_no_skips(self):
        cache = AdaptiveKLRUCache(
            100, candidates=(1, 4), retune_interval=3_000,
            sampling_rate=1.0, rng=23,
        )
        for key in _zipf_trace(n_requests=9_000, seed=24).keys:
            cache.access(int(key))
        assert cache.events
        assert all(e.skipped == () for e in cache.events)
        assert all(set(e.predicted) == {1, 4} for e in cache.events)
