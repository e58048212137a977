"""Tests for the SHARDS batch paths and the streaming plan's interning.

Covers: the SHARDS batch fast paths against per-access streaming, and
the streaming plan's chunk interning.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.shards import FixedSizeShards, Shards
from repro.engine import StreamingTracePlan
from repro.workloads.trace import Trace
from repro.workloads.zipf import ScrambledZipfGenerator


@pytest.fixture
def mixed_trace(rng) -> Trace:
    gen = ScrambledZipfGenerator(800, 0.9, rng=3)
    keys = gen.sample(12_000)
    sizes = rng.integers(1, 700, size=keys.shape[0])
    return Trace(keys, sizes, name="mixed")


class TestPlanAwareConsumers:
    def test_shards_batch_path_matches_streaming(self, mixed_trace):
        fast = Shards(rate=0.1, byte_bin=1024).process(mixed_trace)
        slow = Shards(rate=0.1, byte_bin=1024)
        for i in range(len(mixed_trace)):
            slow.access(int(mixed_trace.keys[i]), int(mixed_trace.sizes[i]))
        assert fast.requests_seen == slow.requests_seen
        assert fast.requests_sampled == slow.requests_sampled
        assert np.array_equal(
            fast.mrc().miss_ratios, slow.mrc().miss_ratios
        )
        assert np.array_equal(
            fast.byte_mrc().miss_ratios, slow.byte_mrc().miss_ratios
        )

    def test_shards_stack_state_continues_after_batch(self, mixed_trace):
        """After the kernel fast path, streamed follow-up accesses must
        measure the same distances the fully streamed estimator would."""
        fast = Shards(rate=0.2, seed=1).process(mixed_trace)
        slow = Shards(rate=0.2, seed=1)
        for i in range(len(mixed_trace)):
            slow.access(int(mixed_trace.keys[i]), int(mixed_trace.sizes[i]))
        follow_up = np.tile(mixed_trace.keys[:500], 2)
        for k in follow_up.tolist():
            fast.access(k)
            slow.access(k)
        assert np.array_equal(
            fast.mrc().miss_ratios, slow.mrc().miss_ratios
        )

    def test_shards_with_existing_state_streams(self, mixed_trace):
        """A non-fresh estimator cannot take the batch path; process()
        falls back to streaming with identical results."""
        warm = Shards(rate=0.2, seed=1)
        warm.access(123)  # any prior traffic disables the batch path
        ref = Shards(rate=0.2, seed=1)
        ref.access(123)
        warm.process(mixed_trace)
        for i in range(len(mixed_trace)):
            ref.access(int(mixed_trace.keys[i]), int(mixed_trace.sizes[i]))
        assert np.array_equal(warm.mrc().miss_ratios, ref.mrc().miss_ratios)

    def test_fixed_size_shards_batch_matches_streaming(self, mixed_trace):
        fast = FixedSizeShards(s_max=300, seed=2).process(mixed_trace)
        slow = FixedSizeShards(s_max=300, seed=2)
        for i in range(len(mixed_trace)):
            slow.access(int(mixed_trace.keys[i]), int(mixed_trace.sizes[i]))
        assert fast.requests_sampled == slow.requests_sampled
        assert np.array_equal(
            fast.mrc().miss_ratios, slow.mrc().miss_ratios
        )


def _dict_intern(ids: dict, keys: np.ndarray) -> np.ndarray:
    """Reference interning: a persistent dict, new keys in ascending order."""
    uniq, inverse = np.unique(keys, return_inverse=True)
    lut = np.empty(uniq.shape[0], dtype=np.int64)
    for j, key in enumerate(uniq.tolist()):
        lut[j] = ids.setdefault(key, len(ids))
    return lut[inverse]


_INT64 = np.iinfo(np.int64)
_chunk_keys = st.lists(
    st.one_of(
        st.integers(min_value=-8, max_value=24),
        st.sampled_from([_INT64.min, _INT64.min + 1, _INT64.max - 1, _INT64.max]),
    ),
    max_size=40,
)


class TestStreamingIntern:
    @settings(max_examples=60, deadline=None)
    @given(chunks=st.lists(_chunk_keys, max_size=16))
    def test_matches_dict_reference(self, chunks):
        """Repeated, negative, int64-edge keys and empty chunks: the same
        id for every request and the same distinct-key count as a dict."""
        plan = StreamingTracePlan()
        ids: dict = {}
        for chunk in chunks:
            keys = np.asarray(chunk, dtype=np.int64)
            got = plan.intern(keys)
            assert got.dtype == np.int64 and got.flags.c_contiguous
            assert got.tolist() == _dict_intern(ids, keys).tolist()
            assert plan.n_unique_keys == len(ids)

    def test_long_stream_keeps_few_runs(self):
        """New keys in every chunk: ids still match the dict, and the
        sorted runs stay logarithmic in the distinct-key count."""
        rng = np.random.default_rng(11)
        plan = StreamingTracePlan()
        ids: dict = {}
        for c in range(300):
            n = int(rng.integers(0, 400))
            keys = np.concatenate([
                rng.integers(-64, 64 * (c + 1), size=n),  # mostly seen before
                rng.integers(-(1 << 40), 1 << 40, size=n // 4),  # mostly new
            ])
            assert plan.intern(keys).tolist() == _dict_intern(ids, keys).tolist()
        assert plan.n_unique_keys == len(ids)
        sizes = [run_keys.shape[0] for run_keys, _ in plan._runs]
        assert sum(sizes) == len(ids)
        assert all(big > 2 * small for big, small in zip(sizes, sizes[1:]))
