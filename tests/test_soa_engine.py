"""Bit-identity and behavior of the SoA streaming engine.

The contract under test: for any (k, seed, request stream, chunking),
:class:`repro.stack.soa.SoAKRRStack` — native kernel or pure-Python
fallback — consumes the generator stream and updates the stack exactly
like a backward :class:`repro.core.krr.KRRStack`, and a ``KRRModel`` on
its SoA stack therefore matches a scalar reference built from the parts.
"""

from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._util import ensure_rng
from repro.core.correction import corrected_k
from repro.core.eviction import expected_swap_positions
from repro.core.krr import KRRStack
from repro.core.model import KRRModel, build_stack
from repro.core.vkrr import MultiKRR, SweepConfig
from repro.sampling.spatial import SpatialSampler
from repro.stack._native import native_kernel_active
from repro.stack.soa import SoAKRRStack, walk_backward_lanes
from repro.workloads.trace import Trace
from repro.workloads.zipf import zipf_trace_keys

from .conftest import scalar_model_reference


def scalar_reference(keys, k, seed):
    stack = KRRStack(k, rng=ensure_rng(seed))
    distances, _ = stack.access_many([int(x) for x in keys])
    return np.asarray(distances, dtype=np.int64), stack


def soa_run(keys, k, seed, chunk, use_native):
    stack = SoAKRRStack(k, rng=ensure_rng(seed), use_native=use_native)
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
        seed=st.integers(min_value=0, max_value=2**31),
        chunk=st.sampled_from([1, 7, 64, 10_000]),
    )
    def test_soa_matches_scalar_oracle(self, keys, k, seed, chunk):
        """Distances, counters and final order are all bit-identical —
        independent of how the stream is chunked."""
        expected, ref = scalar_reference(keys, k, seed)
        got, stack = soa_run(keys, k, seed, chunk, use_native=None)
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
        d_native, s_native = soa_run(keys, k, seed, 50, use_native=True)
        d_python, s_python = soa_run(keys, k, seed, 50, use_native=False)
        assert np.array_equal(d_native, d_python)
        assert s_native.total_swaps == s_python.total_swaps
        assert s_native.keys_in_stack_order() == s_python.keys_in_stack_order()

    def test_mid_chain_buffer_refill_resumes_exactly(self):
        """A long-tailed stream forces draw-buffer exhaustion mid-chain;
        the resumable kernel state must not lose or repeat a draw."""
        rng = np.random.default_rng(0)
        keys = rng.integers(0, 5_000, size=30_000)
        expected, ref = scalar_reference(keys, 5, 3)
        got, stack = soa_run(keys, 5, 3, 4_097, use_native=None)
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
        _, kids = np.unique(keys, return_inverse=True)
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

    def test_keys_wrap_mod_2_64_on_every_path(self):
        s = SoAKRRStack(4, rng=0)
        s.access(2**63 + 5)
        s.access_many([3, 2**64 - 1])
        assert s.keys_in_stack_order()[-1] == 2**63 + 5 - 2**64
        for key in (2**63 + 5, 2**63 + 5 - 2**64, 2**64 - 1, -1):
            assert s.position_of(key) > 0 and key in s

    def test_sizes_follow_last_write(self):
        s = SoAKRRStack(2, rng=0)
        s.access_many([1, 2, 1], sizes=[10, 20, 30])
        assert sorted(s.sizes_in_stack_order()) == [20, 30]
        assert s.total_bytes == 50

    def test_rejects_unsupported_strategy(self):
        """The stack walks backward only and takes no strategy at all."""
        for strategy in ("backward", "linear", "topdown"):
            with pytest.raises(TypeError):
                SoAKRRStack(4, strategy=strategy)

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            SoAKRRStack(0)

    def test_interned_keys_reject_external_ids(self):
        s = SoAKRRStack(4, rng=0)
        s.access_many([10, 20])
        with pytest.raises(RuntimeError):
            s.access_many_interned(np.asarray([0], dtype=np.int64))
        assert s.updates == 2 and sorted(s.keys_in_stack_order()) == [10, 20]

    def test_lanes_walk_rejects_bad_lanes(self):
        kids = np.asarray([1, 2, 1], dtype=np.int64)
        s = SoAKRRStack(4, rng=0)
        with pytest.raises(ValueError):
            walk_backward_lanes([s, s], [kids, kids])
        with pytest.raises(ValueError):
            walk_backward_lanes([s], [kids, kids])
        assert s.updates == 0
        # Same id-space guard as access_many_interned: a stack that holds
        # raw-key ids refuses streamed ids, and a stack the lanes walk fed
        # refuses reverse lookups.
        raw = SoAKRRStack(4, rng=0)
        raw.access_many([10, 20])
        with pytest.raises(RuntimeError):
            walk_backward_lanes([s, raw], [kids, kids])
        assert s.updates == 0 and raw.updates == 2
        walk_backward_lanes([s], [kids])
        assert s.updates == 3
        with pytest.raises(RuntimeError):
            s.access_many([1])
        with pytest.raises(RuntimeError):
            s.position_of(1)

    @pytest.mark.parametrize(
        "use_native",
        [
            False,
            pytest.param(True, marks=pytest.mark.skipif(
                not native_kernel_active(), reason="no C compiler available"
            )),
        ],
    )
    def test_negative_ids_are_refused_and_change_nothing(self, use_native):
        """A negative dense id would index ``pos`` from its end (the
        kernel reads before the array); both entry points refuse it before
        they mark, grow or walk anything."""
        fresh = SoAKRRStack(5.0, rng=0, use_native=use_native)
        walked = SoAKRRStack(5.0, rng=1, use_native=use_native)
        walked.access_many_interned(np.array([0, 4, 2, 4, 9, 0]))

        def snapshot(s):
            return (
                s._stack[: len(s)].tolist(), s._pos.tolist(), s.updates,
                s.total_swaps, s._bpos, s._external_dense,
                s._rng.bit_generator.state,
            )

        bad = [np.array([3, 7, -2, 3, -2, 7]), np.array([1, -5_000_000, 1])]
        for stack in (fresh, walked):
            before = snapshot(stack)
            for kids in bad:
                with pytest.raises(ValueError):
                    stack.access_many_interned(kids)
                with pytest.raises(ValueError):
                    walk_backward_lanes([stack], [kids])
            assert snapshot(stack) == before
        fresh.access_many([5, 6])  # still free to intern raw keys

    def test_lanes_walk_refuses_a_shared_generator(self):
        """Each lane draws from its generator as if it were the only one,
        so two lanes on one generator (or one bit generator under two
        ``Generator`` objects) would take the same draws."""
        kids = np.asarray([1, 2, 1], dtype=np.int64)
        shared = np.random.default_rng(1)
        bit_generator = np.random.PCG64(2)
        pairs = [
            (SoAKRRStack(5, rng=shared), SoAKRRStack(2, rng=shared)),
            (
                SoAKRRStack(5, rng=np.random.Generator(bit_generator)),
                SoAKRRStack(2, rng=np.random.Generator(bit_generator)),
            ),
        ]
        for a, b in pairs:
            with pytest.raises(ValueError):
                walk_backward_lanes([a, b], [kids, kids])
            assert a.updates == b.updates == 0
        walk_backward_lanes([pairs[0][0]], [kids])  # one at a time is fine
        assert pairs[0][0].updates == 3

    def test_use_native_false_disables_kernel(self):
        s = SoAKRRStack(4, rng=0, use_native=False)
        assert not s.uses_native_kernel


class TestModelEngine:
    def make_trace(self, n=5_000, u=400, seed=1):
        rng = np.random.default_rng(seed)
        return Trace(rng.integers(0, u, size=n), name=f"t{seed}")

    @pytest.mark.parametrize("strategy", ["backward", "linear"])
    @pytest.mark.parametrize("rate", [None, 0.5, 1.0])
    def test_process_engine_invariant(self, strategy, rate):
        """``process`` on the model's stack (SoA for backward, scalar for
        linear) matches the scalar reference built from the parts, on
        curves and all counters."""
        trace = self.make_trace()
        m = KRRModel(k=3, strategy=strategy, sampling_rate=rate, seed=7)
        m.process(trace)
        curve, counters = scalar_model_reference(
            trace.keys, 3, strategy, rate, seed=7
        )
        assert np.array_equal(m.mrc().sizes, curve.sizes)
        assert np.array_equal(m.mrc().miss_ratios, curve.miss_ratios)
        assert astuple(m.stats) == counters

    @pytest.mark.parametrize(
        "strategy, track_sizes, kind",
        [
            ("backward", False, SoAKRRStack),
            ("linear", False, KRRStack),
            ("topdown", False, KRRStack),
            ("backward", True, KRRStack),
            ("linear", True, KRRStack),
            ("topdown", True, KRRStack),
        ],
    )
    def test_build_stack_gives_soa_to_backward_objects_only(
        self, strategy, track_sizes, kind
    ):
        """One table for a model and a grid cell alike: ``backward`` at
        object granularity runs on SoA, everything else on the scalar
        stack."""
        assert type(build_stack(3.0, strategy, 0, track_sizes)) is kind
        m = KRRModel(k=3, strategy=strategy, track_sizes=track_sizes, seed=0)
        assert type(m._stack) is kind
        config = SweepConfig(k=3, strategy=strategy, track_sizes=track_sizes)
        cells, _ = MultiKRR([config])._cells()
        assert type(cells[0].stack) is kind

    def assert_stack(self, strategy, track_sizes, kind, access_first=False):
        m = KRRModel(k=3, strategy=strategy, track_sizes=track_sizes, seed=0)
        assert type(m._stack) is kind
        if access_first:
            m.access(1)
        m.process(self.make_trace())
        assert type(m._stack) is kind

    def test_auto_resolves_soa_when_capable(self):
        """Backward walks without sizes build the SoA stack."""
        self.assert_stack("backward", False, SoAKRRStack)

    def test_auto_falls_back_for_topdown_and_sizes(self):
        """Linear and top-down walks and size tracking build the scalar
        stack."""
        for strategy in ("linear", "topdown"):
            self.assert_stack(strategy, False, KRRStack)
        for strategy in ("backward", "linear"):
            self.assert_stack(strategy, True, KRRStack)

    def test_configuration_picks_one_stack(self):
        """A per-request access before ``process`` does not move the model
        to another stack than its configuration picks."""
        for strategy, track_sizes, kind in [
            ("backward", False, SoAKRRStack),
            ("linear", False, KRRStack),
            ("topdown", False, KRRStack),
            ("backward", True, KRRStack),
            ("linear", True, KRRStack),
        ]:
            self.assert_stack(strategy, track_sizes, kind, access_first=True)
