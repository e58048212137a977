"""FleetSweep: scheduling, hierarchical checkpoints, resume identity.

The fleet contract under test:

* a fleet grid equals independent ``KRRModel.process`` runs with the
  spawned per-trace, per-cell seeds, for any mix of source formats and
  of cells (SoA or scalar stack, object or byte curves);
* an in-memory trace is identified by its columns, not only by its name
  and length;
* resume is bit-identical at both levels — finished traces come back
  from their checkpoints without re-running, and a partially-finished
  trace recomputes only its missing cells on position-correct seeds;
* a checkpoint directory written by a different fleet is refused.
"""

import json
import os

import numpy as np
import pytest

from repro.core.model import KRRModel
from repro.core.vkrr import SweepConfig, SweepResult, spawn_seeds
from repro.engine.checkpoint import CheckpointMismatch
from repro.engine.fleet import FleetSweep, fleet_sweep
from repro.workloads.io import save_csv, save_npz
from repro.workloads.stream import iter_chunks, save_chunked
from repro.workloads.trace import Trace


def _trace(i, n=1_500, objects=300):
    rng = np.random.default_rng(100 + i)
    keys = rng.integers(0, objects, size=n).astype(np.int64)
    sizes = rng.integers(1, 64, size=n).astype(np.int64)
    return Trace(keys, sizes, name=f"t{i}")


@pytest.fixture
def fleet():
    # Every kind of cell shares each trace's one MultiKRR pass: backward
    # cells on the SoA stack, topdown and byte (track_sizes) cells on the
    # scalar stack.
    grid = FleetSweep.grid(
        ks=[1, 4],
        strategies=["backward", "topdown"],
        sampling_rates=[None, 0.5],
    )
    byte_cell = SweepConfig(k=2, sampling_rate=0.5, track_sizes=True)
    return FleetSweep(grid.configs + [byte_cell], seed=21)


@pytest.fixture
def sources(tmp_path):
    t0, t1, t2 = _trace(0), _trace(1), _trace(2)
    p0 = tmp_path / "t0.csv.gz"
    save_csv(t0, p0)
    p1 = tmp_path / "t1.npz"
    save_npz(t1, p1)
    p2 = tmp_path / "t2.chunks"
    save_chunked(iter_chunks(t2, 256), p2, chunk_size=256)
    return [t0, t1, t2], [str(p0), str(p1), str(p2)]


def _assert_same_grids(results, reference):
    for got, want in zip(results, reference):
        assert got.config == want.config
        assert got.seed == want.seed
        assert np.array_equal(got.sizes, want.sizes)
        assert np.array_equal(got.miss_ratios, want.miss_ratios)
        assert got.unit == want.unit
        for f in (
            "requests_seen",
            "requests_sampled",
            "cold_misses",
            "stack_updates",
            "swap_positions",
        ):
            assert getattr(got, f) == getattr(want, f)


def _independent_models(configs, grid_seed, trace):
    """The oracle: one standalone ``KRRModel.process`` run per cell."""
    reference = []
    for cfg, seed in zip(configs, spawn_seeds(len(configs), grid_seed)):
        model = KRRModel(
            k=cfg.k,
            strategy=cfg.strategy,
            sampling_rate=cfg.sampling_rate,
            correction=cfg.correction,
            track_sizes=cfg.track_sizes,
            seed=seed,
        )
        model.process(trace)
        curve = model.byte_mrc() if cfg.track_sizes else model.mrc()
        s = model.stats
        reference.append(
            SweepResult(
                config=cfg,
                seed=seed,
                sizes=curve.sizes,
                miss_ratios=curve.miss_ratios,
                unit="bytes" if cfg.track_sizes else "objects",
                requests_seen=s.requests_seen,
                requests_sampled=s.requests_sampled,
                cold_misses=s.cold_misses,
                stack_updates=s.stack_updates,
                swap_positions=s.swap_positions,
            )
        )
    return reference


def test_fleet_matches_per_trace_model_sweep(fleet, sources):
    traces, paths = sources
    results, report = fleet.run(paths, chunk_size=400, max_workers=1)
    assert report.completed == 3
    grid_seeds = fleet.trace_seeds(3)
    for i, trace in enumerate(traces):
        reference = _independent_models(fleet.configs, grid_seeds[i], trace)
        _assert_same_grids(results[i].results, reference)


def test_fleet_in_memory_traces_keyed_by_columns(rng, tmp_path):
    """Same name, same length, different keys: two different traces."""
    t1 = Trace(rng.integers(0, 500, size=5_000), name="day")
    t2 = Trace(rng.integers(0, 500, size=5_000), name="day")
    fleet = FleetSweep.grid(ks=[2], seed=1)
    ck = tmp_path / "ckpt"
    fleet.run([t1], checkpoint_dir=ck, max_workers=1)
    # t1's checkpoint must not answer for t2.
    with pytest.raises(CheckpointMismatch):
        fleet.run([t2], checkpoint_dir=ck, max_workers=1)
    both, _ = fleet.run([t1, t2], max_workers=1)
    grid_seeds = fleet.trace_seeds(2)
    for i, trace in enumerate((t1, t2)):
        reference = _independent_models(fleet.configs, grid_seeds[i], trace)
        _assert_same_grids(both[i].results, reference)


def test_fleet_chunk_size_invariance(fleet, sources):
    _, paths = sources
    a, _ = fleet.run(paths, chunk_size=97, max_workers=1)
    b, _ = fleet.run(paths, chunk_size=100_000, max_workers=1)
    for ra, rb in zip(a, b):
        _assert_same_grids(ra.results, rb.results)


def test_fleet_accepts_in_memory_traces(fleet, sources):
    traces, paths = sources
    mem, _ = fleet.run(traces, chunk_size=500, max_workers=1)
    disk, _ = fleet.run(paths, chunk_size=500, max_workers=1)
    for ra, rb in zip(mem, disk):
        _assert_same_grids(ra.results, rb.results)


def test_fleet_full_resume_from_checkpoints(fleet, sources, tmp_path):
    _, paths = sources
    ck = tmp_path / "ckpt"
    first, rep1 = fleet.run(paths, checkpoint_dir=ck, max_workers=1)
    assert rep1.from_checkpoint == 0
    resumed, rep2 = fleet.run(paths, checkpoint_dir=ck, max_workers=1)
    assert rep2.from_checkpoint == 3
    for ra, rb in zip(first, resumed):
        _assert_same_grids(ra.results, rb.results)
        assert rb.resumed_cells == len(fleet)
        assert rb.computed_cells == 0


def test_fleet_cell_level_resume(fleet, sources, tmp_path):
    _, paths = sources
    ck = tmp_path / "ckpt"
    clean, _ = fleet.run(paths, checkpoint_dir=ck, max_workers=1)
    # lose one whole trace checkpoint and half of another
    (ck / "trace-0000.jsonl").unlink()
    partial = ck / "trace-0001.jsonl"
    lines = partial.read_text().splitlines(keepends=True)
    half = len(fleet) // 2
    partial.write_text("".join(lines[: 1 + half]))
    resumed, report = fleet.run(paths, checkpoint_dir=ck, max_workers=1)
    assert report.from_checkpoint == 1  # only trace 2 was complete
    assert resumed[1].resumed_cells == half
    assert resumed[1].computed_cells == len(fleet) - half
    for ra, rb in zip(clean, resumed):
        _assert_same_grids(ra.results, rb.results)


def test_fleet_resume_after_worker_crash(fleet, sources, tmp_path):
    _, paths = sources
    ck = tmp_path / "ckpt"
    clean, _ = fleet.run(paths, max_workers=1)
    os.environ["REPRO_FAULTS"] = (
        f"crash-once@1;state={tmp_path / 'faults'}"
    )
    try:
        crashed, report = fleet.run(paths, checkpoint_dir=ck, max_workers=2)
    finally:
        del os.environ["REPRO_FAULTS"]
    assert report.pool_rebuilds >= 1 or report.retries >= 1
    for ra, rb in zip(clean, crashed):
        _assert_same_grids(ra.results, rb.results)


def test_fleet_manifest_mismatch_refused(fleet, sources, tmp_path):
    _, paths = sources
    ck = tmp_path / "ckpt"
    fleet.run(paths, checkpoint_dir=ck, max_workers=1)
    other = FleetSweep(fleet.configs, seed=fleet.seed + 1)
    with pytest.raises(CheckpointMismatch):
        other.run(paths, checkpoint_dir=ck, max_workers=1)
    # different trace list is a different fleet too
    with pytest.raises(CheckpointMismatch):
        fleet.run(paths[:2], checkpoint_dir=ck, max_workers=1)


def test_fleet_report_shape(fleet, sources, tmp_path):
    _, paths = sources
    results, report = fleet.run(
        paths, checkpoint_dir=tmp_path / "ck", max_workers=1
    )
    payload = fleet.fleet_report(results, report)
    json.dumps(payload)  # must be JSON-safe
    assert payload["kind"] == "repro-fleet-report"
    assert payload["n_traces"] == 3
    assert payload["n_configs"] == len(fleet)
    assert len(payload["traces"]) == 3
    assert all(
        len(t["final_miss_ratios"]) == len(fleet) for t in payload["traces"]
    )


def test_fleet_rejects_bad_inputs(fleet):
    with pytest.raises(ValueError):
        fleet.run([])
    with pytest.raises(ValueError):
        fleet.run(["same.csv", "same.csv"])
    with pytest.raises(ValueError):
        FleetSweep([], seed=0)


def test_fleet_sweep_convenience(sources):
    traces, _ = sources
    results = fleet_sweep(traces[:2], ks=[1, 4], seed=5, max_workers=1)
    assert len(results) == 2
    assert all(len(r.results) == 2 for r in results)
