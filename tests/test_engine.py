"""Engine tests: shared-memory store, ModelSweep, batched hot path.

The load-bearing guarantees:

* ``SharedTraceStore`` round-trips trace columns bit-exactly and cleans up.
* Every ``ModelSweep`` cell — SoA, scalar and byte-granularity alike —
  equals an independent ``KRRModel.process`` run with its spawned seed.
* ``parallel_klru_mrc`` produces bit-identical curves for
  ``max_workers=1`` vs ``max_workers=4`` under a fixed seed (worker count
  must never influence results).
* ``KRRStack.access_many`` matches a loop of ``access()`` calls
  draw-for-draw (same RNG consumption, same distances, same final stack).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.krr import KRRStack
from repro.core.model import KRRModel
from repro.core.vkrr import spawn_seeds
from repro.engine import ModelSweep, SharedTraceStore, SweepConfig
from repro.engine.shm import AttachedTrace
from repro.simulator.parallel import parallel_klru_mrc
from repro.workloads.trace import Trace
from repro.workloads.zipf import zipf_trace_keys


def _zipf_trace(n_objects=600, n_requests=12_000, seed=0, variable_size=False):
    keys = zipf_trace_keys(n_objects, n_requests, 0.9, rng=seed)
    sizes = None
    if variable_size:
        sizes = np.random.default_rng(seed + 1).integers(
            64, 8192, size=keys.shape[0]
        )
    return Trace(keys, sizes, name="engine-zipf")


class TestSharedTraceStore:
    def test_round_trip_columns(self):
        trace = _zipf_trace(variable_size=True)
        with SharedTraceStore(trace) as store:
            view = store.view()
            np.testing.assert_array_equal(view.keys, trace.keys)
            np.testing.assert_array_equal(view.sizes, trace.sizes)
            np.testing.assert_array_equal(view.ops, trace.ops)

    def test_attach_sees_same_data(self):
        trace = _zipf_trace()
        with SharedTraceStore(trace) as store:
            with AttachedTrace(store.spec) as attached:
                np.testing.assert_array_equal(attached.keys, trace.keys)
                att = attached.as_trace()
                assert att.name == trace.name
                np.testing.assert_array_equal(att.sizes, trace.sizes)

    def test_columns_as_lists_cached(self):
        trace = _zipf_trace(n_requests=500)
        with SharedTraceStore(trace) as store:
            with AttachedTrace(store.spec) as attached:
                a = attached.columns_as_lists()
                b = attached.columns_as_lists()
                assert a is b  # converted once
                assert a[0] == trace.keys.tolist()

    def test_close_unlinks_segment(self):
        trace = _zipf_trace(n_requests=100)
        store = SharedTraceStore(trace)
        spec = store.spec
        store.close()
        store.close()  # idempotent
        with pytest.raises(FileNotFoundError):
            AttachedTrace(spec)

    def test_view_after_close_raises(self):
        store = SharedTraceStore(_zipf_trace(n_requests=100))
        store.close()
        with pytest.raises(ValueError):
            store.view()


class TestAccessManyEquivalence:
    @pytest.mark.parametrize("strategy", ["backward", "topdown", "linear"])
    def test_matches_access_loop_draw_for_draw(self, strategy):
        keys = zipf_trace_keys(200, 4_000, 0.8, rng=3).tolist()
        a = KRRStack(4.0, strategy=strategy, rng=7)
        b = KRRStack(4.0, strategy=strategy, rng=7)
        serial = [a.access(k)[0] for k in keys]
        batched, byte_distances = b.access_many(keys)
        assert byte_distances is None
        assert serial == batched
        assert a.keys_in_stack_order() == b.keys_in_stack_order()
        assert a.total_swaps == b.total_swaps
        assert a.updates == b.updates

    def test_matches_with_size_tracking(self):
        rng = np.random.default_rng(5)
        keys = zipf_trace_keys(150, 2_000, 0.8, rng=4).tolist()
        sizes = rng.integers(1, 4096, size=len(keys)).tolist()
        a = KRRStack(3.0, rng=11, track_sizes=True)
        b = KRRStack(3.0, rng=11, track_sizes=True)
        serial = [a.access(k, s) for k, s in zip(keys, sizes)]
        dist, byte_dist = b.access_many(keys, sizes)
        assert [d for d, _ in serial] == dist
        assert [bd for _, bd in serial] == byte_dist
        assert a.keys_in_stack_order() == b.keys_in_stack_order()

    def test_default_sizes_are_one(self):
        stack = KRRStack(2.0, rng=1)
        stack.access_many([1, 2, 3, 1])
        assert stack.total_bytes == 3

    def test_process_matches_streaming_access(self):
        trace = _zipf_trace(seed=6)
        m_batch = KRRModel(k=5, seed=9)
        m_stream = KRRModel(k=5, seed=9)
        m_batch.process(trace)
        for k in trace.keys.tolist():
            m_stream.access(k)
        np.testing.assert_array_equal(
            m_batch.mrc().miss_ratios, m_stream.mrc().miss_ratios
        )
        assert m_batch.stats.cold_misses == m_stream.stats.cold_misses
        assert m_batch.stats.swap_positions == m_stream.stats.swap_positions

    def test_process_matches_streaming_with_bytes(self):
        trace = _zipf_trace(seed=8, variable_size=True)
        m_batch = KRRModel(k=4, seed=2, track_sizes=True)
        m_stream = KRRModel(k=4, seed=2, track_sizes=True)
        m_batch.process(trace)
        for k, s in zip(trace.keys.tolist(), trace.sizes.tolist()):
            m_stream.access(k, s)
        np.testing.assert_array_equal(
            m_batch.byte_mrc().miss_ratios, m_stream.byte_mrc().miss_ratios
        )

    def test_process_matches_streaming_with_sampling(self):
        trace = _zipf_trace(seed=10)
        m_batch = KRRModel(k=5, sampling_rate=0.3, seed=13)
        m_stream = KRRModel(k=5, sampling_rate=0.3, seed=13)
        m_batch.process(trace)
        for k in trace.keys.tolist():
            m_stream.access(k)
        assert m_batch.stats.requests_sampled == m_stream.stats.requests_sampled
        np.testing.assert_array_equal(
            m_batch.mrc().miss_ratios, m_stream.mrc().miss_ratios
        )


class TestModelSweep:
    def test_grid_cross_product(self):
        sweep = ModelSweep.grid(
            ks=[1, 5, 10], strategies=["backward", "linear"],
            sampling_rates=[None, 0.1],
        )
        assert len(sweep) == 12
        assert sweep.configs[0] == SweepConfig(k=1, strategy="backward")

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            ModelSweep([])

    def test_seeds_fixed_by_position(self):
        sweep = ModelSweep.grid(ks=[1, 2, 3], seed=42)
        assert sweep.config_seeds() == sweep.config_seeds()
        assert len(set(sweep.config_seeds())) == 3

    def test_serial_matches_direct_model(self):
        trace = _zipf_trace(seed=21, variable_size=True)
        mixed = ModelSweep.grid(
            ks=[1, 4],
            strategies=["backward", "linear", "topdown"],
            sampling_rates=[None, 0.5],
        ).configs + [SweepConfig(k=3, sampling_rate=0.5, track_sizes=True)]
        # One SoA cell alone, then a grid mixing both passes with max_size.
        for configs, max_size in (([SweepConfig(k=4)], None), (mixed, 120)):
            results = ModelSweep(configs, seed=9).run(trace, max_size=max_size)
            seeds = spawn_seeds(len(configs), 9)
            for cfg, seed, result in zip(configs, seeds, results):
                model = KRRModel(
                    k=cfg.k,
                    strategy=cfg.strategy,
                    sampling_rate=cfg.sampling_rate,
                    track_sizes=cfg.track_sizes,
                    seed=seed,
                )
                model.process(trace)
                if cfg.track_sizes:
                    direct, unit = model.byte_mrc(), "bytes"
                else:
                    direct, unit = model.mrc(max_size=max_size), "objects"
                assert result.config == cfg
                assert result.seed == seed
                assert result.unit == unit
                assert result.sizes.dtype == direct.sizes.dtype
                np.testing.assert_array_equal(result.sizes, direct.sizes)
                np.testing.assert_array_equal(
                    result.miss_ratios, direct.miss_ratios
                )
                for name in (
                    "requests_seen",
                    "requests_sampled",
                    "cold_misses",
                    "stack_updates",
                    "swap_positions",
                ):
                    assert getattr(result, name) == getattr(model.stats, name)

    def test_byte_granularity_config(self):
        trace = _zipf_trace(seed=22, variable_size=True)
        sweep = ModelSweep([SweepConfig(k=3, track_sizes=True)], seed=1)
        result = sweep.run(trace)[0]
        assert result.unit == "bytes"
        assert result.mrc().unit == "bytes"

    def test_max_size_caps_grid(self):
        trace = _zipf_trace(seed=23)
        sweep = ModelSweep([SweepConfig(k=2)], seed=3)
        result = sweep.run(trace, max_size=50)[0]
        assert result.sizes[-1] <= 50


class TestParallelSimulationSweep:
    def test_bit_identical_across_worker_counts(self):
        trace = _zipf_trace(n_objects=300, n_requests=5_000, seed=30)
        one = parallel_klru_mrc(trace, 3, n_points=4, rng=19, max_workers=1)
        four = parallel_klru_mrc(trace, 3, n_points=4, rng=19, max_workers=4)
        np.testing.assert_array_equal(one.sizes, four.sizes)
        np.testing.assert_array_equal(one.miss_ratios, four.miss_ratios)


class TestSweepCLI:
    def test_sweep_subcommand_writes_grid(self, tmp_path):
        from repro.cli import main
        from repro.workloads import io

        trace = _zipf_trace(n_objects=200, n_requests=3_000, seed=40)
        trace_path = tmp_path / "t.csv"
        io.save_csv(trace, trace_path)
        out = tmp_path / "grid.csv"
        rc = main([
            "sweep", str(trace_path), "--ks", "1,5", "--rates", "none,0.5",
            "--seed", "3", "-o", str(out),
        ])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "k,strategy,rate,size,miss_ratio"
        assert len(lines) > 4
        ks = {line.split(",")[0] for line in lines[1:]}
        assert ks == {"1", "5"}
