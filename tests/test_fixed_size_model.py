"""Tests for the bounded-memory (s_max) KRR model and KRRStack.remove."""

import tracemalloc

import numpy as np
import pytest

from repro.baselines.shards import FixedSizeShards
from repro.core import FixedSizeKRRModel
from repro.core.krr import KRRStack
from repro.mrc import mean_absolute_error
from repro.simulator import klru_mrc
from repro.workloads import Trace, twitter
from repro.workloads.zipf import ScrambledZipfGenerator


def _zipf_trace(n_objects=4_000, n_requests=60_000, seed=0):
    gen = ScrambledZipfGenerator(n_objects, 1.0, rng=seed)
    return Trace(gen.sample(n_requests), name="zipf")


class TestKRRStackRemove:
    def test_remove_shifts_positions(self):
        s = KRRStack(1e9, rng=0)  # huge K: deterministic LRU order
        for k in (1, 2, 3, 4):
            s.access(k)
        # Stack (top first): 4 3 2 1.
        s.remove(3)
        assert s.keys_in_stack_order() == [4, 2, 1]
        for i, key in enumerate(s.keys_in_stack_order(), start=1):
            assert s.position_of(key) == i

    def test_remove_absent_key_noop(self):
        s = KRRStack(2, rng=0)
        s.access(1)
        s.remove(99)
        assert len(s) == 1

    def test_remove_with_size_tracking_rebuilds_anchors(self):
        s = KRRStack(1e9, rng=0, track_sizes=True)
        for k, size in ((1, 10), (2, 20), (3, 30), (4, 40)):
            s.access(k, size)
        s.remove(2)
        sizes = s.sizes_in_stack_order()
        sa = s._size_array
        assert sa.total_bytes == sum(sizes)
        for boundary, stored in sa.anchors:
            assert stored == sum(sizes[:boundary])

    def test_access_after_remove_consistent(self):
        rng = np.random.default_rng(1)
        s = KRRStack(4, rng=2)
        keys = [int(x) for x in rng.integers(0, 30, size=300)]
        for i, k in enumerate(keys):
            s.access(k)
            if i % 37 == 0 and len(s) > 2:
                s.remove(s.keys_in_stack_order()[-1])
        order = s.keys_in_stack_order()
        assert len(order) == len(set(order))
        for i, key in enumerate(order, start=1):
            assert s.position_of(key) == i


class TestFixedSizeKRRModel:
    def test_memory_bound_holds(self):
        model = FixedSizeKRRModel(k=4, s_max=300, seed=1)
        model.process(_zipf_trace(seed=2))
        assert model.tracked_objects <= 300

    def test_rate_decreases_monotonically(self):
        model = FixedSizeKRRModel(k=2, s_max=200, seed=3)
        trace = _zipf_trace(seed=4)
        last = 1.0
        for i in range(len(trace)):
            model.access(int(trace.keys[i]))
            assert model.rate <= last + 1e-12
            last = model.rate

    def test_accuracy_vs_ground_truth(self):
        trace = _zipf_trace(seed=5)
        truth = klru_mrc(trace, 4, n_points=8, rng=6)
        model = FixedSizeKRRModel(k=4, s_max=1_500, seed=7)
        pred = model.process(trace).mrc()
        assert mean_absolute_error(truth, pred) < 0.05

    def test_large_smax_matches_unbounded_model(self):
        """With s_max above the working set no ejection happens and the
        model must agree with the plain (unsampled) KRR model."""
        from repro import model_trace

        trace = _zipf_trace(n_objects=800, n_requests=15_000, seed=8)
        bounded = FixedSizeKRRModel(k=3, s_max=10_000, seed=9).process(trace).mrc()
        plain = model_trace(trace, k=3, seed=9).mrc()
        grid = np.linspace(50, 800, 16)
        assert float(np.max(np.abs(bounded(grid) - plain(grid)))) < 1e-9

    def test_byte_mode(self):
        trace = twitter.make_trace("cluster26.0", 20_000, scale=0.2, seed=10)
        model = FixedSizeKRRModel(k=4, s_max=1_000, track_sizes=True, seed=11)
        curve = model.process(trace).byte_mrc()
        assert curve.unit == "bytes"
        assert curve.miss_ratios[0] <= 1.0

    def test_byte_mode_requires_tracking(self):
        model = FixedSizeKRRModel(k=2, s_max=10, seed=0)
        model.access(1)
        with pytest.raises(RuntimeError):
            model.byte_mrc()

    def test_validation(self):
        with pytest.raises(ValueError):
            FixedSizeKRRModel(k=0)
        with pytest.raises(ValueError):
            FixedSizeKRRModel(s_max=0)


@pytest.mark.parametrize(
    "make",
    [
        lambda s_max: FixedSizeKRRModel(k=4, s_max=s_max, track_sizes=True, seed=1),
        lambda s_max: FixedSizeShards(s_max=s_max, seed=2),
    ],
    ids=["krr-bytes", "shards"],
)
def test_memory_stays_flat_as_sampled_requests_grow(make):
    """Distances go into the histograms as they are measured: from 10x to
    100x ``s_max`` sampled requests over a fixed key set, traced memory
    must not grow with the request count.  (``FixedSizeShards``'s
    ``TreeLRUStack`` still adds 16 B a sampled request, about 128 KiB
    here: inside the bound at this size.)"""
    s_max = 64
    keys = np.random.default_rng(0).integers(0, 200, 100_000).tolist()
    model = make(s_max)
    fed = iter(keys)

    def feed_until(sampled: int) -> int:
        while model.requests_sampled < sampled:
            model.access(next(fed))
        return tracemalloc.get_traced_memory()[0]

    tracemalloc.start()
    try:
        at_10x = feed_until(10 * s_max)
        at_100x = feed_until(100 * s_max)
    finally:
        tracemalloc.stop()
    assert at_100x - at_10x < 256 * 1024
