"""End-to-end tests for KRRModel — the paper's headline accuracy claims at
test-friendly scale."""

from dataclasses import astuple

import numpy as np
import pytest

from repro import KRRModel, model_trace
from repro.core.correction import corrected_k
from repro.core.model import ModelStats
from repro.mrc import mean_absolute_error
from repro.simulator import byte_klru_mrc, klru_mrc
from repro.workloads import Trace, msr, twitter
from repro.workloads.zipf import ScrambledZipfGenerator

from .conftest import scalar_model_reference


def _zipf_trace(n_objects=800, n_requests=15_000, alpha=1.0, seed=0):
    gen = ScrambledZipfGenerator(n_objects, alpha, rng=seed)
    return Trace(gen.sample(n_requests), name=f"zipf{n_objects}")


class TestConstruction:
    def test_defaults(self):
        m = KRRModel()
        assert m.k == 5
        assert m.effective_k == pytest.approx(corrected_k(5))
        assert m.sampling_rate is None

    def test_correction_off(self):
        m = KRRModel(k=8, correction=False)
        assert m.effective_k == 8.0

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            KRRModel(k=0)

    def test_byte_mrc_requires_tracking(self):
        m = KRRModel(track_sizes=False)
        m.access(1)
        with pytest.raises(RuntimeError):
            m.byte_mrc()


class TestStreamingVsBatch:
    def test_access_equals_process(self):
        trace = _zipf_trace(200, 3000)
        a = KRRModel(k=4, seed=1)
        for key in trace.keys:
            a.access(int(key))
        b = KRRModel(k=4, seed=1)
        b.process(trace)
        np.testing.assert_allclose(a.mrc().miss_ratios, b.mrc().miss_ratios)

    def test_stats_populated(self):
        trace = _zipf_trace(200, 3000)
        m = KRRModel(k=3, seed=2)
        m.process(trace)
        assert m.stats.requests_seen == 3000
        assert m.stats.requests_sampled == 3000
        assert m.stats.cold_misses == trace.unique_objects()
        assert m.stats.stack_updates == 3000
        assert m.stats.mean_swaps_per_update >= 1

    def test_access_many_equals_access_bit_for_bit(self):
        # The incremental batch path must be draw-for-draw identical to
        # per-request streaming, including the RNG cursor and counters.
        trace = _zipf_trace(150, 2500)
        keys = [int(k) for k in trace.keys]
        a = KRRModel(k=4, sampling_rate=0.5, seed=7)
        for key in keys:
            a.access(key)
        b = KRRModel(k=4, sampling_rate=0.5, seed=7)
        for start in range(0, len(keys), 700):  # uneven chunks on purpose
            b.access_many(keys[start:start + 700])
        assert a.state_dict() == b.state_dict()
        assert (a.stats.requests_seen, a.stats.requests_sampled,
                a.stats.cold_misses) == (
            b.stats.requests_seen, b.stats.requests_sampled,
            b.stats.cold_misses)

    def test_access_many_uint64_keys(self):
        # Raw 64-bit hash ids (>= 2^63) must take the wrap-around path
        # and agree with scalar access.
        keys = [(0x9E3779B97F4A7C15 * (i % 40)) & (2**64 - 1)
                for i in range(800)]
        a = KRRModel(k=3, sampling_rate=0.5, seed=9)
        for key in keys:
            a.access(key)
        b = KRRModel(k=3, sampling_rate=0.5, seed=9)
        b.access_many(keys)
        assert a.state_dict() == b.state_dict()

    def test_access_many_soa_engine_matches_scalar(self):
        # A backward model runs on the SoA stack; its curve and counters
        # must match the scalar reference draw for draw.
        trace = _zipf_trace(150, 2500)
        m = KRRModel(k=4, sampling_rate=0.5, seed=13)
        m.access_many(trace.keys)
        curve, counters = scalar_model_reference(
            trace.keys, 4, rate=0.5, seed=13
        )
        np.testing.assert_array_equal(m.mrc().sizes, curve.sizes)
        np.testing.assert_array_equal(m.mrc().miss_ratios, curve.miss_ratios)
        assert astuple(m.stats) == counters

    def test_windowed_access_many_equals_access(self):
        from repro.core.windowed import WindowedKRRModel

        trace = _zipf_trace(150, 4000)
        keys = [int(k) for k in trace.keys]
        # window small enough that the batch spans several rotations
        a = WindowedKRRModel(k=3, window=900, seed=11)
        for key in keys:
            a.access(key)
        b = WindowedKRRModel(k=3, window=900, seed=11)
        for start in range(0, len(keys), 1100):
            b.access_many(keys[start:start + 1100])
        assert a.rotations == b.rotations
        assert a.counters() == b.counters()
        assert a.state_dict() == b.state_dict()

    @pytest.mark.parametrize("feed", ["scalar", "soa", "windowed"])
    def test_access_many_rejects_sizes_not_parallel_to_keys(self, feed):
        # Sizes not parallel to keys must raise before any counter or
        # stack update, on either stack (topdown runs on the scalar one);
        # the windowed model must not apply a first rotation segment.
        from repro.core.windowed import WindowedKRRModel

        for sizes in ([5], [5, 6], [5, 6, 7, 8, 9]):
            if feed == "windowed":
                w = WindowedKRRModel(k=2, window=4, seed=0)
                with pytest.raises(ValueError):
                    w.access_many([1, 2, 3, 4], sizes)
                assert w.requests_seen == 0 and w.rotations == 0
                models = [w._current, w._warming]
            else:
                strategy = "topdown" if feed == "scalar" else "backward"
                m = KRRModel(k=2, strategy=strategy, seed=0)
                with pytest.raises(ValueError):
                    m.access_many([1, 2, 3, 4], sizes)
                models = [m]
            for m in models:
                assert m.stats == ModelStats()
                assert len(m._stack) == 0 and m._stack.updates == 0

    def test_sampling_reduces_sampled_count(self):
        trace = _zipf_trace(2000, 10_000)
        m = KRRModel(k=2, sampling_rate=0.2, seed=3)
        m.process(trace)
        assert m.stats.requests_sampled < 0.45 * m.stats.requests_seen
        assert m.stats.effective_rate < 0.45

    def test_auto_rate_small_working_set_is_full(self):
        trace = _zipf_trace(500, 4000)
        m = KRRModel(k=2, sampling_rate="auto", seed=4)
        m.process(trace)
        # 500 objects << 8000 minimum: auto resolves to rate 1.0.
        assert m.sampling_rate == 1.0


class TestAccuracy:
    @pytest.mark.parametrize("k", [1, 4, 16])
    def test_zipf_accuracy(self, k):
        trace = _zipf_trace()
        truth = klru_mrc(trace, k, n_points=10, rng=5)
        pred = model_trace(trace, k=k, seed=6).mrc()
        assert mean_absolute_error(truth, pred) < 0.02

    def test_type_a_trace_accuracy(self):
        trace = msr.make_trace("src2", 20_000, scale=0.1)
        truth = klru_mrc(trace, 4, n_points=10, rng=7)
        pred = model_trace(trace, k=4, seed=8).mrc()
        assert mean_absolute_error(truth, pred) < 0.03

    def test_correction_helps_on_loop_pattern(self):
        """§4.2: on loop-like traces the K' correction reduces error."""
        trace = msr.make_trace("src2", 20_000, scale=0.1)
        truth = klru_mrc(trace, 8, n_points=10, rng=9)
        with_corr = model_trace(trace, k=8, seed=10).mrc()
        without = KRRModel(k=8, correction=False, seed=10)
        without_curve = without.process(trace).mrc()
        err_with = mean_absolute_error(truth, with_corr)
        err_without = mean_absolute_error(truth, without_curve)
        assert err_with <= err_without + 0.005

    def test_k1_matches_random_replacement(self):
        """KRR(K=1) is statistically identical to random replacement."""
        trace = _zipf_trace(seed=11)
        truth = klru_mrc(trace, 1, n_points=10, rng=12)
        pred = model_trace(trace, k=1, seed=13).mrc()
        assert mean_absolute_error(truth, pred) < 0.015

    def test_klru_mrcs_ordered_by_k(self):
        """On a Type-A trace the predicted MRCs for growing K move toward
        the LRU curve monotonically at mid cache sizes (the Fig 1.1 fan)."""
        trace = msr.make_trace("src2", 20_000, scale=0.1)
        mid = trace.unique_objects() // 2
        values = [
            float(model_trace(trace, k=k, seed=14).mrc()(mid)) for k in (1, 4, 16)
        ]
        # The scan/loop structure makes higher K *worse* at mid sizes (LRU
        # pathology) — ordering must be monotone one way or the other.
        assert values == sorted(values) or values == sorted(values, reverse=True)


class TestVariableSizes:
    def test_var_krr_accuracy(self):
        trace = twitter.make_trace("cluster26.0", 20_000, scale=0.15, seed=15)
        truth = byte_klru_mrc(trace, 4, n_points=8, rng=16)
        pred = model_trace(trace, k=4, seed=17).byte_mrc()
        assert mean_absolute_error(truth, pred) < 0.03

    def test_model_trace_auto_detects_sizes(self):
        trace = twitter.make_trace("cluster26.0", 3000, scale=0.1, seed=18)
        result = model_trace(trace, k=2, seed=19)
        result.byte_mrc()  # must not raise

    def test_uniform_trace_skips_tracking(self):
        trace = _zipf_trace(100, 1000)
        result = model_trace(trace, k=2, seed=20)
        with pytest.raises(RuntimeError):
            result.byte_mrc()


class TestSpatialSampling:
    def test_sampled_mrc_close_to_unsampled(self):
        trace = _zipf_trace(3000, 40_000, alpha=0.9, seed=21)
        full = model_trace(trace, k=4, seed=22).mrc()
        sampled = model_trace(trace, k=4, sampling_rate=0.3, seed=23).mrc()
        grid = np.linspace(100, 3000, 20)
        err = np.mean(np.abs(full(grid) - sampled(grid)))
        assert err < 0.05

    def test_histogram_scale_set(self):
        m = KRRModel(k=2, sampling_rate=0.1, seed=24)
        assert m._obj_hist.scale == pytest.approx(1 / m.sampling_rate)
