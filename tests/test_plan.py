"""Tests for the TracePlan preparation cache and its consumers.

Covers: plan-cache identity and eviction, shared-memory publication and
worker-side rehydration, mask equivalence against the streaming samplers,
the plan-aware fast paths in KRRModel / SHARDS, the ModelSweep task
batching that must stay bit-identical for any chunk size and worker
count, and the streaming plan's chunk interning.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.shards import FixedSizeShards, Shards
from repro.core.model import KRRModel
from repro.engine import (
    ModelSweep,
    SharedTraceStore,
    StreamingTracePlan,
    TracePlan,
    clear_plan_cache,
    trace_fingerprint,
)
from repro.engine.shm import AttachedTrace
from repro.kernels import next_occurrence, prev_occurrence
from repro.sampling.spatial import SpatialSampler
from repro.workloads.trace import Trace
from repro.workloads.zipf import ScrambledZipfGenerator


@pytest.fixture
def mixed_trace(rng) -> Trace:
    gen = ScrambledZipfGenerator(800, 0.9, rng=3)
    keys = gen.sample(12_000)
    sizes = rng.integers(1, 700, size=keys.shape[0])
    return Trace(keys, sizes, name="mixed")


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_plan_cache()
    yield
    clear_plan_cache()


class TestPlanCache:
    def test_same_trace_same_plan(self, mixed_trace):
        assert TracePlan.for_trace(mixed_trace) is TracePlan.for_trace(
            mixed_trace
        )

    def test_fingerprint_matches_module_function(self, mixed_trace):
        plan = TracePlan.for_trace(mixed_trace)
        assert plan.fingerprint == trace_fingerprint(mixed_trace)

    def test_cache_bounded(self, rng):
        first = TracePlan.for_trace(Trace(np.arange(10), name="t0"))
        for i in range(1, 12):
            TracePlan.for_trace(Trace(np.arange(10) + i, name=f"t{i}"))
        # More insertions than the LRU bound: the first plan was evicted
        # and a re-request builds a fresh object.
        assert TracePlan.for_trace(Trace(np.arange(10), name="t0")) is not first

    def test_clear(self, mixed_trace):
        plan = TracePlan.for_trace(mixed_trace)
        clear_plan_cache()
        assert TracePlan.for_trace(mixed_trace) is not plan


class TestPlanColumns:
    def test_occurrence_columns(self, mixed_trace):
        plan = TracePlan.for_trace(mixed_trace)
        assert np.array_equal(
            plan.prev_occurrence, prev_occurrence(mixed_trace.keys)
        )
        assert np.array_equal(
            plan.next_occurrence, next_occurrence(mixed_trace.keys)
        )

    def test_factorization(self, mixed_trace):
        plan = TracePlan.for_trace(mixed_trace)
        assert np.array_equal(
            plan.unique_keys[plan.key_ids], mixed_trace.keys
        )
        assert plan.n_unique_keys == plan.unique_keys.shape[0]

    def test_hash_column_per_seed(self, mixed_trace):
        plan = TracePlan.for_trace(mixed_trace)
        h0, h1 = plan.hashes(0), plan.hashes(1)
        assert h0 is plan.hashes(0)  # cached
        assert not np.array_equal(h0, h1)

    def test_sample_mask_matches_sampler(self, mixed_trace):
        plan = TracePlan.for_trace(mixed_trace)
        for rate in (0.01, 0.1, 0.5):
            s = SpatialSampler(rate)
            assert np.array_equal(
                plan.sample_mask(s.threshold, s.modulus, s.seed),
                s.mask(mixed_trace.keys),
            )
            assert np.array_equal(
                plan.sample_indices(s.threshold, s.modulus, s.seed),
                s.filter_indices(mixed_trace.keys),
            )

    def test_sample_indices_cached(self, mixed_trace):
        plan = TracePlan.for_trace(mixed_trace)
        s = SpatialSampler(0.05)
        idx = plan.sample_indices(s.threshold, s.modulus, s.seed)
        assert idx is plan.sample_indices(s.threshold, s.modulus, s.seed)

    def test_chunk_masks_delegate(self, mixed_trace):
        plan = TracePlan.for_trace(mixed_trace)
        first, last = plan.chunk_masks(64)
        assert first.shape == (len(mixed_trace),)
        assert first.dtype == np.bool_ and last.dtype == np.bool_


class TestSharedMemoryPlan:
    def test_round_trip(self, mixed_trace):
        plan = TracePlan.for_trace(mixed_trace)
        with SharedTraceStore(mixed_trace, plan=plan) as store:
            assert store.spec.with_plan
            assert store.spec.fingerprint == plan.fingerprint
            with AttachedTrace(store.spec) as att:
                assert np.array_equal(att.keys, mixed_trace.keys)
                assert np.array_equal(att.sizes, mixed_trace.sizes)
                assert np.array_equal(att.ops, mixed_trace.ops)
                remote = att.plan()
                assert remote is att.plan()  # cached per attachment
                assert remote.fingerprint == plan.fingerprint
                assert np.array_equal(remote.key_ids, plan.key_ids)
                assert np.array_equal(
                    remote.prev_occurrence, plan.prev_occurrence
                )
                assert np.array_equal(remote.hashes(0), plan.hashes(0))
                assert remote.n_unique_keys == plan.n_unique_keys

    def test_without_plan_raises(self, mixed_trace):
        with SharedTraceStore(mixed_trace) as store:
            assert not store.spec.with_plan
            with AttachedTrace(store.spec) as att:
                with pytest.raises(ValueError):
                    att.plan()

    def test_wrong_trace_rejected(self, mixed_trace):
        plan = TracePlan.for_trace(mixed_trace)
        other = Trace(np.arange(17), name="other")
        with pytest.raises(ValueError):
            SharedTraceStore(other, plan=plan)


class TestPlanAwareConsumers:
    def test_krr_model_identical_with_plan(self, mixed_trace):
        plan = TracePlan.for_trace(mixed_trace)
        a = KRRModel(k=4, sampling_rate=0.1, seed=11, track_sizes=True)
        b = KRRModel(k=4, sampling_rate=0.1, seed=11, track_sizes=True)
        ra = a.process(mixed_trace, plan=plan)
        rb = b.process(mixed_trace)
        assert a.stats.requests_sampled == b.stats.requests_sampled
        assert np.array_equal(ra.mrc().miss_ratios, rb.mrc().miss_ratios)
        assert np.array_equal(
            ra.byte_mrc().miss_ratios, rb.byte_mrc().miss_ratios
        )

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

    def test_shards_plan_argument(self, mixed_trace):
        plan = TracePlan.for_trace(mixed_trace)
        with_plan = Shards(rate=0.1).process(mixed_trace, plan=plan)
        without = Shards(rate=0.1).process(mixed_trace)
        assert np.array_equal(
            with_plan.mrc().miss_ratios, without.mrc().miss_ratios
        )

    def test_fixed_size_shards_batch_matches_streaming(self, mixed_trace):
        plan = TracePlan.for_trace(mixed_trace)
        fast = FixedSizeShards(s_max=300, seed=2).process(
            mixed_trace, plan=plan
        )
        slow = FixedSizeShards(s_max=300, seed=2)
        for i in range(len(mixed_trace)):
            slow.access(int(mixed_trace.keys[i]), int(mixed_trace.sizes[i]))
        assert fast.requests_sampled == slow.requests_sampled
        assert np.array_equal(
            fast.mrc().miss_ratios, slow.mrc().miss_ratios
        )


class TestSweepChunking:
    @pytest.fixture
    def sweep_trace(self) -> Trace:
        gen = ScrambledZipfGenerator(600, 0.9, rng=5)
        return Trace(gen.sample(6_000), name="sweep")

    def test_chunked_bit_identical(self, sweep_trace):
        sweep = ModelSweep.grid(
            ks=[1, 4], sampling_rates=[None, 0.1], seed=3
        )
        base = sweep.run(sweep_trace, max_workers=1)
        for workers, chunk in [(1, 2), (2, 2), (2, "auto"), (2, 100)]:
            got = sweep.run(
                sweep_trace, max_workers=workers, chunk_size=chunk
            )
            for a, b in zip(base, got):
                assert np.array_equal(a.miss_ratios, b.miss_ratios)
                assert np.array_equal(a.sizes, b.sizes)
                assert a.requests_sampled == b.requests_sampled

    def test_chunked_checkpoint_resume(self, sweep_trace, tmp_path):
        ck = tmp_path / "sweep.jsonl"
        sweep = ModelSweep.grid(ks=[1, 2], sampling_rates=[None, 0.1], seed=9)
        full, _ = sweep.run_with_report(
            sweep_trace, max_workers=1, checkpoint=ck
        )
        # Truncate to two finished rows, then resume with chunking on:
        # chunk size is not part of the signature, so this must succeed.
        lines = ck.read_text().strip().split("\n")
        ck.write_text("\n".join(lines[:3]) + "\n")
        resumed, report = sweep.run_with_report(
            sweep_trace, max_workers=2, checkpoint=ck, chunk_size="auto"
        )
        assert report.from_checkpoint == 2
        for a, b in zip(full, resumed):
            assert np.array_equal(a.miss_ratios, b.miss_ratios)

    def test_invalid_chunk_size(self, sweep_trace):
        sweep = ModelSweep.grid(ks=[1], seed=0)
        with pytest.raises(ValueError):
            sweep.run(sweep_trace, chunk_size=0)

    def test_resolve_chunk_size(self, monkeypatch):
        resolve = ModelSweep._resolve_chunk_size
        assert resolve(None, 12, 4) == 1
        assert resolve(1, 12, 4) == 1
        assert resolve(5, 12, 4) == 5
        assert resolve("auto", 12, 1) == 12
        # "auto" divides over min(workers, cpus): pin the CPU count so the
        # expectation is machine-independent.
        import repro.engine.sweep as sweep_mod

        monkeypatch.setattr(sweep_mod.os, "cpu_count", lambda: 4)
        assert resolve("auto", 12, 4) == 3
        assert resolve("auto", 13, 4) == 4
        assert resolve("auto", 3, 4) == 3
        monkeypatch.setattr(sweep_mod.os, "cpu_count", lambda: 1)
        assert resolve("auto", 12, 4) == 12


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
