"""Bit-identity and behavior of the SoA streaming engine.

The contract under test: for any (k, strategy, seed, request stream,
chunking), :class:`repro.stack.soa.SoAKRRStack` — native kernel or
pure-Python fallback — consumes the generator stream and updates the
stack exactly like the scalar :class:`repro.core.krr.KRRStack`, and
``KRRModel.process(engine=...)`` therefore yields engine-invariant
results.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.correction import corrected_k
from repro.core.eviction import expected_swap_positions
from repro.core.krr import KRRStack
from repro.core.model import KRRModel
from repro.engine.plan import TracePlan, clear_plan_cache
from repro.kernels.prep import factorize_keys
from repro.sampling.spatial import SpatialSampler
from repro.stack._native import native_kernel_active
from repro.stack.soa import SOA_STRATEGIES, SoAKRRStack, walk_backward_lanes
from repro.workloads.trace import Trace
from repro.workloads.zipf import zipf_trace_keys


def scalar_reference(keys, k, strategy, seed):
    stack = KRRStack(k, strategy=strategy, rng=np.random.default_rng(seed))
    distances, _ = stack.access_many([int(x) for x in keys])
    return np.asarray(distances, dtype=np.int64), stack


def soa_run(keys, k, strategy, seed, chunk, use_native):
    stack = SoAKRRStack(
        k, strategy=strategy, rng=np.random.default_rng(seed), use_native=use_native
    )
    keys = np.asarray(keys, dtype=np.int64)
    parts = []
    for lo in range(0, keys.shape[0], chunk):
        distances, _ = stack.access_many(keys[lo : lo + chunk])
        parts.append(distances)
    return np.concatenate(parts) if parts else np.empty(0, np.int64), stack


key_streams = st.lists(st.integers(min_value=0, max_value=40), min_size=1, max_size=300)


class TestDrawForDrawParity:
    @settings(max_examples=40, deadline=None)
    @given(
        keys=key_streams,
        k=st.sampled_from([1, 2, 5, 9.56]),
        strategy=st.sampled_from(SOA_STRATEGIES),
        seed=st.integers(min_value=0, max_value=2**31),
        chunk=st.sampled_from([1, 7, 64, 10_000]),
    )
    def test_soa_matches_scalar_oracle(self, keys, k, strategy, seed, chunk):
        """Distances, counters and final order are all bit-identical —
        independent of how the stream is chunked."""
        expected, ref = scalar_reference(keys, k, strategy, seed)
        got, stack = soa_run(keys, k, strategy, seed, chunk, use_native=None)
        assert np.array_equal(expected, got)
        assert stack.total_swaps == ref.total_swaps
        assert stack.updates == ref.updates
        assert stack.keys_in_stack_order() == ref.keys_in_stack_order()

    @pytest.mark.skipif(
        not native_kernel_active(), reason="no C compiler available"
    )
    @settings(max_examples=20, deadline=None)
    @given(
        keys=key_streams,
        k=st.sampled_from([1, 3, 7.2]),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_native_equals_python_fallback(self, keys, k, seed):
        """The compiled kernel and the pure-Python walk are the same
        machine: identical distances, counters, and stack order."""
        d_native, s_native = soa_run(keys, k, "backward", seed, 50, use_native=True)
        d_python, s_python = soa_run(keys, k, "backward", seed, 50, use_native=False)
        assert np.array_equal(d_native, d_python)
        assert s_native.total_swaps == s_python.total_swaps
        assert s_native.keys_in_stack_order() == s_python.keys_in_stack_order()

    def test_mid_chain_buffer_refill_resumes_exactly(self):
        """A long-tailed stream forces draw-buffer exhaustion mid-chain;
        the resumable kernel state must not lose or repeat a draw."""
        rng = np.random.default_rng(0)
        keys = rng.integers(0, 5_000, size=30_000)
        expected, ref = scalar_reference(keys, 5, "backward", 3)
        got, stack = soa_run(keys, 5, "backward", 3, 4_097, use_native=None)
        assert np.array_equal(expected, got)
        assert stack.total_swaps == ref.total_swaps


class TestSwapCountOracle:
    """The walk's swap count against the paper's expectation, not against
    another implementation: a mistake every engine shares fails here.

    Position ``i < phi`` joins a backward update's swap set with
    probability ``p_i = 1 - ((i-1)/i)^K'`` independently of the others,
    and ``phi`` itself always swaps, so an update at pre-update position
    ``phi`` swaps ``1 + expected_swap_positions(phi, K')`` slots on
    average, with variance ``sum p_i (1 - p_i)``.
    """

    def test_each_lane_of_a_small_grid(self):
        keys = zipf_trace_keys(20_000, 40_000, 0.99, rng=3)
        _, kids = factorize_keys(keys)
        sampled = kids[SpatialSampler(0.1).mask(keys)]
        lanes = [
            (corrected_k(k), stream)
            for k in (1, 2, 5, 10)
            for stream in (kids, sampled)
        ]
        stacks = [SoAKRRStack(k, rng=7 + c) for c, (k, _) in enumerate(lanes)]
        distances = [[] for _ in lanes]
        for part in range(3):
            chunks = [np.array_split(stream, 3)[part] for _, stream in lanes]
            for got, d in zip(distances, walk_backward_lanes(stacks, chunks)):
                got.append(d)
        for (k, stream), stack, parts in zip(lanes, stacks, distances):
            d = np.concatenate(parts)
            assert d.shape == stream.shape and stack.updates == stream.shape[0]
            # phi before the update: the distance of a hit; the k-th cold
            # access lands at the bottom of a k-deep stack.
            phi = d.copy()
            cold = d == -1
            phi[cold] = np.arange(1, int(cold.sum()) + 1)
            i = np.arange(1, int(phi.max()), dtype=np.float64)
            p = 1.0 - ((i - 1) / i) ** k
            mean = np.concatenate(([0.0], np.cumsum(p)))  # mean[phi-1] = E(phi)
            var = np.concatenate(([0.0], np.cumsum(p * (1.0 - p))))
            for at in (1, 2, 10, int(phi.max())):
                assert mean[at - 1] == pytest.approx(
                    expected_swap_positions(at, k), rel=1e-12, abs=1e-12
                )
            expected = phi.shape[0] + mean[phi - 1].sum()
            sigma = np.sqrt(var[phi - 1].sum())
            assert abs(stack.total_swaps - expected) <= 5 * sigma, (k, stream.shape)


class TestStackApi:
    def test_basic_accessors(self):
        s = SoAKRRStack(4, rng=0)
        dist, byte_dist = s.access(7)
        assert dist == -1 and byte_dist == -1.0
        assert len(s) == 1
        assert 7 in s and 8 not in s
        assert s.position_of(7) == 1
        assert s.position_of(8) == -1

    def test_sizes_follow_last_write(self):
        s = SoAKRRStack(2, rng=0)
        s.access_many([1, 2, 1], sizes=[10, 20, 30])
        assert sorted(s.sizes_in_stack_order()) == [20, 30]
        assert s.total_bytes == 50

    def test_rejects_unsupported_strategy(self):
        with pytest.raises(ValueError):
            SoAKRRStack(4, strategy="topdown")

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            SoAKRRStack(0)

    def test_rejects_mismatched_buffers(self):
        with pytest.raises(ValueError):
            SoAKRRStack(4, stack_buffer=np.zeros(8, dtype=np.int64))

    def test_fixed_capacity_overflow_raises(self):
        s = SoAKRRStack(
            4,
            rng=0,
            stack_buffer=np.zeros(2, dtype=np.int64),
            pos_buffer=np.zeros(2, dtype=np.int64),
        )
        with pytest.raises(ValueError):
            s.access_many([1, 2, 3])

    def test_external_ids_reject_raw_key_mixing(self):
        s = SoAKRRStack(4, rng=0)
        table = np.asarray([10, 20], dtype=np.int64)
        s.access_many_ids(np.asarray([0, 1], dtype=np.int64), table)
        assert s.uses_external_ids
        with pytest.raises(RuntimeError):
            s.access_many([10, 20])
        with pytest.raises(ValueError):
            s.access_many_ids(
                np.asarray([0], dtype=np.int64),
                np.asarray([10, 30], dtype=np.int64),
            )

    def test_interned_keys_reject_external_ids(self):
        s = SoAKRRStack(4, rng=0)
        s.access_many([10, 20])
        assert s.has_interned_keys
        with pytest.raises(RuntimeError):
            s.access_many_ids(
                np.asarray([0], dtype=np.int64),
                np.asarray([10, 20], dtype=np.int64),
            )

    def test_lanes_walk_rejects_bad_lanes(self):
        kids = np.asarray([1, 2, 1], dtype=np.int64)
        s = SoAKRRStack(4, rng=0)
        with pytest.raises(ValueError):
            walk_backward_lanes([s, s], [kids, kids])
        with pytest.raises(ValueError):
            walk_backward_lanes([s], [kids, kids])
        with pytest.raises(ValueError):
            walk_backward_lanes([SoAKRRStack(4, strategy="linear", rng=0)], [kids])
        assert s.updates == 0
        # Same id-space guard as access_many_interned: a stack that holds
        # raw-key or key-table ids refuses streamed ids, and a stack the
        # lanes walk fed refuses reverse lookups.
        raw = SoAKRRStack(4, rng=0)
        raw.access_many([10, 20])
        tabled = SoAKRRStack(4, rng=0)
        tabled.access_many_ids(kids[:1], np.asarray([5, 6, 7], dtype=np.int64))
        for bound in (raw, tabled):
            with pytest.raises(RuntimeError):
                walk_backward_lanes([s, bound], [kids, kids])
        assert s.updates == 0 and raw.updates == 2 and tabled.updates == 1
        walk_backward_lanes([s], [kids])
        assert s.updates == 3
        with pytest.raises(RuntimeError):
            s.access_many([1])
        with pytest.raises(RuntimeError):
            s.position_of(1)

    def test_use_native_false_disables_kernel(self):
        s = SoAKRRStack(4, rng=0, use_native=False)
        assert not s.uses_native_kernel


class TestModelEngine:
    def make_trace(self, n=5_000, u=400, seed=1):
        rng = np.random.default_rng(seed)
        return Trace(rng.integers(0, u, size=n), name=f"t{seed}")

    @pytest.mark.parametrize("strategy", SOA_STRATEGIES)
    @pytest.mark.parametrize("rate", [None, 0.5, 1.0])
    def test_process_engine_invariant(self, strategy, rate):
        trace = self.make_trace()
        curves = {}
        stats = {}
        for engine in ("scalar", "soa"):
            m = KRRModel(k=3, strategy=strategy, sampling_rate=rate, seed=7)
            m.process(trace, engine=engine)
            curve = m.mrc()
            curves[engine] = (curve.sizes, curve.miss_ratios)
            stats[engine] = (
                m.stats.requests_sampled,
                m.stats.cold_misses,
                m.stats.stack_updates,
                m.stats.swap_positions,
            )
        assert np.array_equal(curves["scalar"][0], curves["soa"][0])
        assert np.array_equal(curves["scalar"][1], curves["soa"][1])
        assert stats["scalar"] == stats["soa"]

    def test_auto_resolves_soa_when_capable(self):
        m = KRRModel(k=3, seed=0)
        m.process(self.make_trace())
        assert m.engine == "soa"

    def test_auto_falls_back_for_topdown_and_sizes(self):
        m = KRRModel(k=3, strategy="topdown", seed=0)
        m.process(self.make_trace())
        assert m.engine == "scalar"
        m = KRRModel(k=3, track_sizes=True, seed=0)
        m.process(self.make_trace())
        assert m.engine == "scalar"

    def test_explicit_soa_rejects_unsupported(self):
        m = KRRModel(k=3, strategy="topdown", seed=0)
        with pytest.raises(ValueError):
            m.process(self.make_trace(), engine="soa")
        m = KRRModel(k=3, track_sizes=True, seed=0)
        with pytest.raises(ValueError):
            m.process(self.make_trace(), engine="soa")
        with pytest.raises(ValueError):
            KRRModel(k=3, seed=0).process(self.make_trace(), engine="vector")

    def test_engine_is_sticky(self):
        trace = self.make_trace()
        m = KRRModel(k=3, seed=0)
        m.process(trace, engine="soa")
        with pytest.raises(RuntimeError):
            m.process(trace, engine="scalar")
        with pytest.raises(RuntimeError):
            m.access(1)
        # auto keeps following the pinned engine instead of raising.
        m.process(trace, engine="auto")
        assert m.engine == "soa"

    def test_streaming_access_pins_scalar(self):
        trace = self.make_trace()
        m = KRRModel(k=3, seed=0)
        m.access(1)
        assert m.engine == "scalar"
        m.process(trace)  # auto -> stays scalar
        assert m.engine == "scalar"

    def test_process_with_plan_matches_without(self):
        clear_plan_cache()
        trace = self.make_trace(seed=5)
        plan = TracePlan.for_trace(trace)
        for rate in (None, 0.5):
            a = KRRModel(k=4, sampling_rate=rate, seed=11)
            a.process(trace, engine="soa")
            b = KRRModel(k=4, sampling_rate=rate, seed=11)
            b.process(trace, plan=plan, engine="soa")
            ca, cb = a.mrc(), b.mrc()
            assert np.array_equal(ca.sizes, cb.sizes)
            assert np.array_equal(ca.miss_ratios, cb.miss_ratios)
            assert a.stats.cold_misses == b.stats.cold_misses
