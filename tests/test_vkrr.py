"""MultiKRR grid evaluator: one pass, bit-identical to N independent runs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.model import KRRModel
from repro.core.vkrr import MultiKRR, SweepConfig, spawn_seeds
from repro.engine.sweep import ModelSweep
from repro.workloads.stream import iter_chunks
from repro.workloads.trace import Trace


def make_trace(n=4_000, u=300, seed=2):
    rng = np.random.default_rng(seed)
    return Trace(rng.integers(0, u, size=n), name=f"grid{seed}")


class TestSeeding:
    def test_spawn_seeds_matches_model_sweep(self):
        sweep = ModelSweep.grid(ks=[1, 2, 5], sampling_rates=[None, 0.1], seed=99)
        grid = MultiKRR.grid(ks=[1, 2, 5], sampling_rates=[None, 0.1], seed=99)
        assert sweep.config_seeds() == grid.config_seeds()
        assert grid.config_seeds() == spawn_seeds(6, 99)

    def test_seeds_fixed_by_position(self):
        assert spawn_seeds(4, 7)[:2] == spawn_seeds(2, 7)


class TestGridIdentity:
    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        strategy=st.sampled_from(["backward", "linear"]),
        trace_seed=st.integers(min_value=0, max_value=50),
    )
    def test_grid_matches_independent_models(self, seed, strategy, trace_seed):
        """Every cell of a MultiKRR run equals a standalone KRRModel.process
        with the matching spawned seed — including the rate=1.0 and K=1
        corner cells."""
        trace = make_trace(n=1_500, u=120, seed=trace_seed)
        ks = [1, 4]
        rates = [None, 1.0, 0.5]
        grid = MultiKRR.grid(ks, strategies=[strategy], sampling_rates=rates, seed=seed)
        results = grid.run(trace, chunk_size=701)
        seeds = grid.config_seeds()
        for i, (cfg, res) in enumerate(zip(grid.configs, results)):
            model = KRRModel(
                k=cfg.k,
                strategy=cfg.strategy,
                sampling_rate=cfg.sampling_rate,
                seed=seeds[i],
            )
            model.process(trace)
            curve = model.mrc()
            assert np.array_equal(curve.sizes, res.sizes)
            assert np.array_equal(curve.miss_ratios, res.miss_ratios)
            assert model.stats.requests_seen == res.requests_seen
            assert model.stats.requests_sampled == res.requests_sampled
            assert model.stats.cold_misses == res.cold_misses
            assert model.stats.stack_updates == res.stack_updates
            assert model.stats.swap_positions == res.swap_positions

    def test_grid_matches_model_sweep_serial(self):
        """ModelSweep and MultiKRR both equal independent models per cell."""
        trace = make_trace()
        kwargs = dict(
            ks=[1, 2, 5],
            strategies=("backward", "linear"),
            sampling_rates=(None, 0.1),
            seed=13,
        )
        sweep_rows = ModelSweep.grid(**kwargs).run(trace)
        grid_rows = MultiKRR.grid(**kwargs).run(trace)
        assert len(sweep_rows) == len(grid_rows) == 12
        seeds = spawn_seeds(12, 13)
        for i, (a, b) in enumerate(zip(sweep_rows, grid_rows)):
            assert a.config == b.config
            model = KRRModel(
                k=a.config.k,
                strategy=a.config.strategy,
                sampling_rate=a.config.sampling_rate,
                seed=seeds[i],
            )
            model.process(trace)
            curve = model.mrc()
            for row in (a, b):
                assert row.seed == seeds[i]
                assert np.array_equal(row.sizes, curve.sizes)
                assert np.array_equal(row.miss_ratios, curve.miss_ratios)
                assert row.swap_positions == model.stats.swap_positions

    def test_mixed_grid_matches_independent_models(self):
        """Scalar cells (linear, topdown, track_sizes) ride the one pass
        beside the SoA cells, and every row equals a standalone
        KRRModel.process run with its seed, in memory at any chunk size
        and streamed from a one-shot generator (the pass iterates its
        source once)."""
        rng = np.random.default_rng(4)
        trace = Trace(
            rng.integers(0, 90, size=700),
            rng.integers(1, 5_000, size=700),
            name="mixed",
        )
        rates = [None, 0.5, 1.0]
        configs = MultiKRR.grid(
            [1, 4], strategies=["backward", "linear", "topdown"], sampling_rates=rates
        ).configs + [
            SweepConfig(k=k, strategy=s, sampling_rate=r, track_sizes=True)
            for k, s in ((2, "backward"), (3, "topdown"))
            for r in rates
        ]
        seeds = spawn_seeds(len(configs), 17)
        reference = []
        for cfg, seed in zip(configs, seeds):
            model = KRRModel(
                k=cfg.k,
                strategy=cfg.strategy,
                sampling_rate=cfg.sampling_rate,
                correction=cfg.correction,
                track_sizes=cfg.track_sizes,
                seed=seed,
            )
            model.process(trace)
            if cfg.track_sizes:
                reference.append((model.byte_mrc(), "bytes", model.stats))
            else:
                reference.append((model.mrc(), "objects", model.stats))
        runs = {
            f"chunk_size={chunk}": MultiKRR(configs, seed=17).run(
                trace, chunk_size=chunk
            )
            for chunk in (1, 37, 701)
        }
        one_shot = (chunk for chunk in iter_chunks(trace, 53))
        runs["one-shot stream"] = MultiKRR(configs, seed=17).run(stream=one_shot)
        for feed, rows in runs.items():
            assert len(rows) == len(configs), feed
            for cfg, seed, row, (curve, unit, stats) in zip(
                configs, seeds, rows, reference
            ):
                where = (feed, cfg.label(), cfg.track_sizes)
                assert row.config == cfg and row.seed == seed, where
                assert row.unit == unit, where
                assert row.sizes.dtype == curve.sizes.dtype, where
                assert np.array_equal(row.sizes, curve.sizes), where
                assert np.array_equal(row.miss_ratios, curve.miss_ratios), where
                for name in (
                    "requests_seen",
                    "requests_sampled",
                    "cold_misses",
                    "stack_updates",
                    "swap_positions",
                ):
                    assert getattr(row, name) == getattr(stats, name), where

    def test_chunk_size_cannot_change_results(self):
        trace = make_trace(seed=9)
        grid = MultiKRR.grid([3], sampling_rates=[None, 0.2], seed=1)
        base = grid.run(trace, chunk_size=10_000)
        for chunk in (1, 37, 999):
            rows = MultiKRR.grid([3], sampling_rates=[None, 0.2], seed=1).run(
                trace, chunk_size=chunk
            )
            for a, b in zip(base, rows):
                assert np.array_equal(a.miss_ratios, b.miss_ratios)

    def test_max_size_caps_curve(self):
        trace = make_trace()
        rows = MultiKRR.grid([2], seed=0).run(trace, max_size=50)
        assert rows[0].sizes[-1] == 50


class TestValidation:
    def test_accepts_sweep_configs_directly(self):
        trace = make_trace()
        cfgs = [SweepConfig(k=2), SweepConfig(k=5, sampling_rate=0.5)]
        rows = MultiKRR(cfgs, seed=3).run(trace)
        assert rows[0].config is cfgs[0]
        assert rows[1].requests_sampled < rows[1].requests_seen

    def test_rejects_empty_grid_and_bad_chunk(self):
        with pytest.raises(ValueError):
            MultiKRR([])
        with pytest.raises(ValueError):
            MultiKRR.grid([2]).run(make_trace(), chunk_size=0)

    def test_run_has_no_native_switch(self):
        """Whether SoA cells walk natively is the process-wide kernel's
        call (``REPRO_NATIVE``), not a per-run argument."""
        with pytest.raises(TypeError):
            MultiKRR.grid([2]).run(make_trace(), use_native=True)

    def test_result_mrc_roundtrip(self):
        rows = MultiKRR.grid([2], seed=0).run(make_trace())
        curve = rows[0].mrc()
        assert curve.label == "K=2/backward/full"
        assert curve.sizes.shape == rows[0].sizes.shape

