"""Engine scaling benchmark: streaming engines + grid evaluation throughput.

Measures, on a 500k-request zipf trace (50k objects, alpha=0.99):

1. **Streaming engines** — the same K=5 model three ways: (a) a faithful
   replica of the original per-access loop over the scalar `KRRStack`
   (`stack.access(int(keys[i]))` + per-request histogram record, i.e.
   the pre-engine code path), (b) the scalar `KRRStack.access_many`
   batch loop — the unfused reference, which draws each swap chain
   through `BackwardUpdate.swap_positions` as Algorithm 2 is written —
   and (c) `KRRModel.process`, which runs on the array-native SoA stack
   (native chain-walk kernel when a C compiler is available).  (a) and
   (b) build their `KRRStack` and `DistanceHistogram` directly on the
   model's seed, and all three must produce bit-identical curves.  The
   SoA run is also split into stages: its swap count, its wall time per
   swap, and the cost per draw of a standalone NumPy refill loop over as
   many draws as the run consumed, in its two stages: `random` +
   `subtract` (which the native walk does itself for PCG64 generators)
   and the power (which stays in NumPy).
2. **MultiKRR one-pass grid** — the 12-config (K x sampling-rate) grid
   evaluated in one streaming pass, bit-identity-checked against an
   oracle of 12 independent scalar references (spatial filter, `KRRStack`
   and `DistanceHistogram`, built directly) with the same spawned seeds.
   Its swap count and wall time per swap sit beside the single-config
   SoA figures (ungated).
3. **ModelSweep one pass** — the same grid through `ModelSweep.run`
   (the streamed one-pass body) against the per-cell loop it replaced:
   one `KRRModel.process(trace)` run per config with the spawned seeds,
   each hashing and interning the trace itself.  Best of 5, interleaved;
   curves and counters must match bit for bit.

This run doubles as the CI perf gate (see ``_gate``): the SoA engine must
never be slower than the legacy loop, must clear 5x when the native
kernel is active, every engine/grid curve must be bit-identical, the
one-pass grid must stay under 3x the single-config SoA time, and the
one-pass sweep must run at >= 1.05x the per-cell loop's speed.  Any
violation makes the process exit nonzero.

Writes machine-readable results to ``BENCH_engine.json`` at the repo root
so future PRs can track the perf trajectory, plus a text summary under
``benchmarks/results/``.  ``--quick`` shrinks the trace for CI smoke runs.

Run:  PYTHONPATH=src python benchmarks/bench_engine_scaling.py [--quick]
"""

import argparse
import json
import os
import sys
import time
from dataclasses import astuple
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).parent))
from _common import write_result  # noqa: E402

REPO_ROOT = Path(__file__).resolve().parents[1]

K = 5
SWEEP_KS = (1, 2, 5, 10)
SWEEP_RATES = (0.1, 0.05, 0.01)  # 4 x 3 = 12 configs
SWEEP_REPEATS = 5
COUNTERS = (
    "requests_seen",
    "requests_sampled",
    "cold_misses",
    "stack_updates",
    "swap_positions",
)


def _legacy_process(trace, seed):
    """The pre-engine per-access loop, preserved verbatim as the baseline.

    One scalar ``stack.access`` call per request with NumPy scalar
    unboxing (``int(keys[i])``), a result tuple per access, and one
    histogram ``record`` call per request.  Returns the curve.
    """
    from repro._util import ensure_rng
    from repro.core.correction import corrected_k
    from repro.core.krr import KRRStack
    from repro.mrc.builder import from_distance_histogram
    from repro.stack.histogram import DistanceHistogram

    keys = trace.keys
    sizes = trace.sizes
    stack = KRRStack(corrected_k(K), rng=ensure_rng(seed))
    obj_hist = DistanceHistogram()
    for i in range(keys.shape[0]):
        dist, _byte_dist = stack.access(int(keys[i]), int(sizes[i]))
        if dist < 0:
            obj_hist.record_cold()
        else:
            obj_hist.record(dist)
    return from_distance_histogram(obj_hist)


def _scalar_reference(trace, k, seed, rate=None, strategy="backward"):
    """``KRRModel`` rebuilt from its parts on the scalar stack.

    The spatial filter, a ``KRRStack`` at ``corrected_k(k)`` on ``seed``
    fed through its ``access_many`` loop, and a ``DistanceHistogram``;
    returns the curve and the five ``ModelStats`` counters in order.
    """
    from repro._util import ensure_rng
    from repro.core.correction import corrected_k
    from repro.core.krr import KRRStack
    from repro.mrc.builder import from_distance_histogram
    from repro.sampling.spatial import SpatialSampler
    from repro.stack.histogram import DistanceHistogram

    keys = trace.keys
    sampler = SpatialSampler(rate) if rate is not None else None
    kept = keys[sampler.filter_indices(keys)] if sampler is not None else keys
    stack = KRRStack(corrected_k(k), strategy=strategy, rng=ensure_rng(seed))
    hist = DistanceHistogram(scale=sampler.scale if sampler is not None else 1.0)
    distances, _ = stack.access_many(kept.tolist())
    hist.record_many(distances)
    counters = (
        int(keys.shape[0]),
        int(kept.shape[0]),
        distances.count(-1),
        stack.updates,
        stack.total_swaps,
    )
    return from_distance_histogram(hist), counters


def bench_engines(trace, seed=1):
    from repro import KRRModel
    from repro.stack import native_kernel_active

    n = len(trace)
    t0 = time.perf_counter()
    legacy_curve = _legacy_process(trace, seed)
    legacy_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    scalar_curve, _ = _scalar_reference(trace, K, seed)
    scalar_s = time.perf_counter() - t0

    soa_model = KRRModel(k=K, seed=seed)
    t0 = time.perf_counter()
    soa_model.process(trace)
    soa_s = time.perf_counter() - t0
    soa_swaps = soa_model.stats.swap_positions
    draw_ns = _draw_ns_per_draw(
        soa_model.effective_k, soa_swaps - soa_model.stats.stack_updates, seed
    )

    identical = bool(
        np.array_equal(legacy_curve.miss_ratios, scalar_curve.miss_ratios)
        and np.array_equal(legacy_curve.miss_ratios, soa_model.mrc().miss_ratios)
    )
    return {
        "requests": n,
        "k": K,
        "native_kernel": bool(native_kernel_active()),
        "legacy_s": round(legacy_s, 4),
        "scalar_s": round(scalar_s, 4),
        "soa_s": round(soa_s, 4),
        "legacy_requests_per_s": round(n / legacy_s),
        "scalar_requests_per_s": round(n / scalar_s),
        "soa_requests_per_s": round(n / soa_s),
        "scalar_speedup_vs_legacy": round(legacy_s / scalar_s, 3),
        "soa_speedup_vs_legacy": round(legacy_s / soa_s, 3),
        "soa_speedup_vs_scalar": round(scalar_s / soa_s, 3),
        "soa_swaps": soa_swaps,
        "soa_ns_per_swap": round(soa_s / soa_swaps * 1e9, 2),
        "fill_ns_per_draw": round(draw_ns["fill"], 2),
        "pow_ns_per_draw": round(draw_ns["pow"], 2),
        "curves_identical": identical,
    }


def _draw_ns_per_draw(k, draws, seed):
    """Cost per draw of the two stages of a NumPy draw refill, in ns.

    ``fill`` is ``random`` + ``subtract`` (``1 - U``), the half the native
    walk draws itself, beside its swap chains, for a PCG64 generator;
    ``pow`` is the ``**= 1/K`` that stays in NumPy.  Every swap step but
    the first of each update consumes one draw, so a run's draws are its
    swaps minus its updates; they arrive in whole ``DRAW_BLOCK`` refills
    of one reused buffer, as in the SoA stack.
    """
    from repro._util import ensure_rng
    from repro.core.updates import DRAW_BLOCK, backward_draw_power

    blocks = max(1, -(-draws // DRAW_BLOCK))
    rng = ensure_rng(seed)
    buf = np.empty(DRAW_BLOCK, dtype=np.float64)
    inv_k = 1.0 / k
    fill_s = pow_s = 0.0
    for _ in range(blocks):
        t0 = time.perf_counter()
        rng.random(out=buf)
        np.subtract(1.0, buf, out=buf)
        t1 = time.perf_counter()
        backward_draw_power(buf, inv_k)
        fill_s += t1 - t0
        pow_s += time.perf_counter() - t1
    per = blocks * DRAW_BLOCK / 1e9
    return {"fill": fill_s / per, "pow": pow_s / per}


def _per_cell_models(trace, configs, seeds):
    """One independent ``KRRModel.process`` run per config: each cell's
    ``(curve, counters)``."""
    from repro import KRRModel

    cells = []
    for cfg, cell_seed in zip(configs, seeds):
        model = KRRModel(
            k=cfg.k,
            strategy=cfg.strategy,
            sampling_rate=cfg.sampling_rate,
            correction=cfg.correction,
            seed=cell_seed,
        )
        model.process(trace)
        cells.append((model.mrc(), astuple(model.stats)))
    return cells


def _rows_match(rows, cells):
    """Curves and all five counters bit-identical, cell by cell."""
    for row, (curve, counters) in zip(rows, cells):
        if not (
            np.array_equal(row.sizes, curve.sizes)
            and row.sizes.dtype == curve.sizes.dtype
            and np.array_equal(row.miss_ratios, curve.miss_ratios)
            and tuple(getattr(row, name) for name in COUNTERS) == counters
        ):
            return False
    return len(rows) == len(cells)


def bench_multi_krr(trace, seed=3):
    from repro.core.vkrr import MultiKRR

    grid = MultiKRR.grid(ks=SWEEP_KS, sampling_rates=SWEEP_RATES, seed=seed)
    t0 = time.perf_counter()
    rows = grid.run(trace)
    multi_s = time.perf_counter() - t0

    # The oracle: N fully independent scalar references with the same
    # spawned per-config seeds.
    t0 = time.perf_counter()
    oracle = [
        _scalar_reference(
            trace, cfg.k, cell_seed, cfg.sampling_rate, cfg.strategy
        )
        for cfg, cell_seed in zip(grid.configs, grid.config_seeds())
    ]
    oracle_s = time.perf_counter() - t0

    identical = _rows_match(rows, oracle)
    multi_swaps = sum(row.swap_positions for row in rows)
    return {
        "n_configs": len(grid),
        "multi_s": round(multi_s, 4),
        "multi_swaps": multi_swaps,
        "multi_ns_per_swap": round(multi_s / max(multi_swaps, 1) * 1e9, 2),
        "scalar_oracle_s": round(oracle_s, 4),
        "speedup_vs_scalar_oracle": round(oracle_s / multi_s, 3),
        "identical_to_scalar_oracle": bool(identical),
    }


def bench_sweep(trace, seed=3):
    from repro.engine import ModelSweep

    sweep = ModelSweep.grid(ks=SWEEP_KS, sampling_rates=SWEEP_RATES, seed=seed)
    seeds = sweep.config_seeds()
    one_pass_s = per_cell_s = float("inf")
    identical = True
    # Interleaved best-of-N: both legs see the same machine state.
    for _ in range(SWEEP_REPEATS):
        t0 = time.perf_counter()
        rows = sweep.run(trace)
        one_pass_s = min(one_pass_s, time.perf_counter() - t0)

        t0 = time.perf_counter()
        cells = _per_cell_models(trace, sweep.configs, seeds)
        per_cell_s = min(per_cell_s, time.perf_counter() - t0)
        identical = identical and _rows_match(rows, cells)
    return {
        "n_configs": len(sweep),
        "repeats": SWEEP_REPEATS,
        "one_pass_s": round(one_pass_s, 4),
        "per_cell_s": round(per_cell_s, 4),
        "speedup": round(per_cell_s / one_pass_s, 3),
        "bit_identical_grids": bool(identical),
    }


def _gate(payload):
    """The CI perf contract; returns a list of failure strings."""
    failures = []
    eng = payload["engines"]
    if not eng["curves_identical"]:
        failures.append("engine curves differ (scalar/soa vs legacy loop)")
    if eng["soa_requests_per_s"] < eng["legacy_requests_per_s"]:
        failures.append(
            f"SoA engine slower than legacy loop "
            f"({eng['soa_requests_per_s']} < {eng['legacy_requests_per_s']} req/s)"
        )
    if eng["native_kernel"] and eng["soa_speedup_vs_legacy"] < 5.0:
        failures.append(
            f"native SoA speedup {eng['soa_speedup_vs_legacy']}x < 5x vs legacy"
        )
    multi = payload["multi_krr"]
    if not multi["identical_to_scalar_oracle"]:
        failures.append("MultiKRR grid differs from the scalar per-cell oracle")
    if multi["multi_s"] > 3.0 * max(eng["soa_s"], 1e-3):
        failures.append(
            f"MultiKRR {multi['n_configs']}-config grid took {multi['multi_s']}s "
            f"> 3x single-config SoA time ({eng['soa_s']}s)"
        )
    swept = payload["model_sweep"]
    if not swept["bit_identical_grids"]:
        failures.append("one-pass sweep grid differs from the per-cell loop")
    if swept["speedup"] < 1.05:
        failures.append(
            "one-pass sweep regresses vs the per-cell loop "
            f"({swept['speedup']:.2f}x < 1.05x)"
        )
    return failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="CI smoke mode: 40k requests instead of 500k",
    )
    args = parser.parse_args(argv)

    from repro.workloads.trace import Trace
    from repro.workloads.zipf import zipf_trace_keys

    n_requests = 40_000 if args.quick else 500_000
    n_objects = 8_000 if args.quick else 50_000
    keys = zipf_trace_keys(n_objects, n_requests, 0.99, rng=1)
    trace = Trace(keys, name=f"zipf{n_requests // 1000}k")

    engines = bench_engines(trace)
    multi = bench_multi_krr(trace)
    swept = bench_sweep(trace)

    payload = {
        "bench": "engine_scaling",
        "quick": args.quick,
        "cpus": os.cpu_count(),
        "trace": {
            "kind": "zipf",
            "n_requests": n_requests,
            "n_objects": n_objects,
            "alpha": 0.99,
        },
        "engines": engines,
        "multi_krr": multi,
        "model_sweep": swept,
    }
    failures = _gate(payload)
    payload["gate_failures"] = failures
    out = REPO_ROOT / "BENCH_engine.json"
    out.write_text(json.dumps(payload, indent=2) + "\n")

    lines = [
        f"trace: {n_requests} requests, {n_objects} objects (zipf 0.99), "
        f"{os.cpu_count()} cpu(s)",
        "",
        f"streaming engines (K=5, native kernel: {engines['native_kernel']}):",
        f"  per-access  {engines['legacy_s']:8.2f}s  "
        f"{engines['legacy_requests_per_s']:>10,} req/s",
        f"  scalar ref  {engines['scalar_s']:8.2f}s  "
        f"{engines['scalar_requests_per_s']:>10,} req/s  "
        f"({engines['scalar_speedup_vs_legacy']:.2f}x)",
        f"  soa         {engines['soa_s']:8.2f}s  "
        f"{engines['soa_requests_per_s']:>10,} req/s  "
        f"({engines['soa_speedup_vs_legacy']:.2f}x)",
        f"  soa stages: {engines['soa_swaps']:,} swaps, "
        f"{engines['soa_ns_per_swap']:.2f} ns/swap wall, "
        f"refill fill {engines['fill_ns_per_draw']:.2f} + "
        f"pow {engines['pow_ns_per_draw']:.2f} ns/draw",
        f"  curves identical: {engines['curves_identical']}",
        "",
        f"MultiKRR one-pass {multi['n_configs']}-config grid "
        f"(K in {list(SWEEP_KS)}, R in {list(SWEEP_RATES)}):",
        f"  one pass    {multi['multi_s']:8.2f}s  "
        f"({multi['multi_swaps']:,} swaps, "
        f"{multi['multi_ns_per_swap']:.2f} ns/swap wall)",
        f"  scalar orc  {multi['scalar_oracle_s']:8.2f}s  "
        f"({multi['speedup_vs_scalar_oracle']:.2f}x)",
        f"  identical to scalar oracle: {multi['identical_to_scalar_oracle']}",
        "",
        f"ModelSweep {swept['n_configs']}-config grid "
        f"(best of {swept['repeats']}):",
        f"  one pass    {swept['one_pass_s']:8.2f}s",
        f"  per cell    {swept['per_cell_s']:8.2f}s",
        f"  speedup     {swept['speedup']:.2f}x  "
        f"(grids bit-identical: {swept['bit_identical_grids']})",
        "",
        f"wrote {out.relative_to(REPO_ROOT)}",
    ]
    if failures:
        lines += ["", "PERF GATE FAILURES:"] + [f"  - {f}" for f in failures]
    write_result("bench_engine_scaling", "\n".join(lines))
    return 1 if failures else 0


def test_engine_scaling_quick(benchmark):
    """Pytest-benchmark entry point: quick mode only."""
    benchmark.pedantic(lambda: main(["--quick"]), rounds=1, iterations=1)


if __name__ == "__main__":
    raise SystemExit(main())
