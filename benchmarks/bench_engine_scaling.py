"""Engine scaling benchmark: streaming engines + grid evaluation throughput.

Measures, on a 500k-request zipf trace (50k objects, alpha=0.99):

1. **Streaming engines** — `KRRModel.process` through (a) a faithful
   replica of the original per-access loop (`stack.access(int(keys[i]))` +
   per-request histogram record, i.e. the pre-engine code path), (b) the
   fused scalar `access_many` batch path, and (c) the array-native SoA
   engine (`engine="soa"`, native chain-walk kernel when a C compiler is
   available).  All three must produce bit-identical curves.  The SoA
   run is also split into stages: its swap count, its wall time per swap,
   and the cost per draw of a standalone `backward_draw_block` loop over
   as many draws as the run consumed, so walk time and draw time can be
   told apart.
2. **MultiKRR one-pass grid** — the 12-config (K x sampling-rate) grid
   evaluated in one streaming pass, bit-identity-checked against the
   scalar-engine `ModelSweep` oracle.  Its swap count and wall time per
   swap sit beside the single-config SoA figures (ungated).
3. **ModelSweep fan-out** — the same grid run serially and with 4 workers
   over the shared-memory trace store, with a bit-identity check.

This run doubles as the CI perf gate (see ``_gate``): the SoA engine must
never be slower than the legacy loop, must clear 5x when the native
kernel is active, every engine/grid curve must be bit-identical, and the
one-pass grid must stay under 3x the single-config SoA time.  Any
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
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).parent))
from _common import write_result  # noqa: E402

REPO_ROOT = Path(__file__).resolve().parents[1]

K = 5
SWEEP_WORKERS = 4
SWEEP_KS = (1, 2, 5, 10)
SWEEP_RATES = (0.1, 0.05, 0.01)  # 4 x 3 = 12 configs


def _legacy_process(model, trace):
    """The pre-engine per-access loop, preserved verbatim as the baseline.

    One ``stack.access`` call per request with NumPy scalar unboxing
    (``int(keys[i])``), a result tuple per access, and one histogram
    ``record`` call per request.
    """
    keys = trace.keys
    sizes = trace.sizes
    model.stats.requests_seen += int(keys.shape[0])
    model.stats.requests_sampled += int(keys.shape[0])
    stack = model._stack
    obj_hist = model._obj_hist
    cold = 0
    for i in range(keys.shape[0]):
        dist, _byte_dist = stack.access(int(keys[i]), int(sizes[i]))
        if dist < 0:
            cold += 1
            obj_hist.record_cold()
        else:
            obj_hist.record(dist)
    model.stats.cold_misses += cold


def bench_engines(trace, seed=1):
    from repro import KRRModel
    from repro.stack import native_kernel_active

    n = len(trace)
    legacy_model = KRRModel(k=K, seed=seed)
    t0 = time.perf_counter()
    _legacy_process(legacy_model, trace)
    legacy_s = time.perf_counter() - t0

    scalar_model = KRRModel(k=K, seed=seed)
    t0 = time.perf_counter()
    scalar_model.process(trace, engine="scalar")
    scalar_s = time.perf_counter() - t0

    soa_model = KRRModel(k=K, seed=seed)
    t0 = time.perf_counter()
    soa_model.process(trace, engine="soa")
    soa_s = time.perf_counter() - t0
    soa_swaps = soa_model.stats.swap_positions
    draw_ns = _draw_ns_per_draw(
        soa_model._stack.k, soa_swaps - soa_model.stats.stack_updates, seed
    )

    legacy_curve = legacy_model.mrc().miss_ratios
    identical = bool(
        np.array_equal(legacy_curve, scalar_model.mrc().miss_ratios)
        and np.array_equal(legacy_curve, soa_model.mrc().miss_ratios)
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
        "draw_ns_per_draw": round(draw_ns, 2),
        "curves_identical": identical,
    }


def _draw_ns_per_draw(k, draws, seed):
    """Cost per draw of the SoA stack's refill, in ns, over ``draws``.

    Every swap step but the first of each update consumes one draw, so a
    run's draws are its swaps minus its updates; they arrive in whole
    ``DRAW_BLOCK`` refills of one reused buffer, as in the SoA stack.
    """
    from repro._util import ensure_rng
    from repro.core.updates import DRAW_BLOCK, backward_draw_block

    blocks = max(1, -(-draws // DRAW_BLOCK))
    rng = ensure_rng(seed)
    buf = np.empty(DRAW_BLOCK, dtype=np.float64)
    inv_k = 1.0 / k
    t0 = time.perf_counter()
    for _ in range(blocks):
        backward_draw_block(rng, inv_k, DRAW_BLOCK, out=buf)
    return (time.perf_counter() - t0) / (blocks * DRAW_BLOCK) * 1e9


def bench_multi_krr(trace, seed=3):
    from repro.core.vkrr import MultiKRR
    from repro.engine import ModelSweep

    grid = MultiKRR.grid(ks=SWEEP_KS, sampling_rates=SWEEP_RATES, seed=seed)
    t0 = time.perf_counter()
    rows = grid.run(trace)
    multi_s = time.perf_counter() - t0

    # The scalar-engine serial sweep is the oracle: N fully independent
    # KRRModel runs with the same spawned per-config seeds.
    sweep = ModelSweep.grid(ks=SWEEP_KS, sampling_rates=SWEEP_RATES, seed=seed)
    t0 = time.perf_counter()
    oracle = sweep.run(trace, max_workers=1, engine="scalar")
    oracle_s = time.perf_counter() - t0

    identical = all(
        np.array_equal(a.sizes, b.sizes)
        and np.array_equal(a.miss_ratios, b.miss_ratios)
        and a.swap_positions == b.swap_positions
        for a, b in zip(oracle, rows)
    )
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
    t0 = time.perf_counter()
    serial = sweep.run(trace, max_workers=1)
    serial_s = time.perf_counter() - t0

    # Oversubscribing a small box (e.g. a 1-CPU CI runner) just measures
    # scheduler thrash, so cap the fan-out at the actual core count and
    # record what was effectively used alongside the request.
    workers = min(SWEEP_WORKERS, os.cpu_count() or 1)
    t0 = time.perf_counter()
    parallel = sweep.run(trace, max_workers=workers)
    parallel_s = time.perf_counter() - t0

    identical = all(
        np.array_equal(a.sizes, b.sizes)
        and np.array_equal(a.miss_ratios, b.miss_ratios)
        for a, b in zip(serial, parallel)
    )
    return {
        "n_configs": len(sweep),
        "workers_requested": SWEEP_WORKERS,
        "workers": workers,
        "serial_s": round(serial_s, 4),
        "parallel_s": round(parallel_s, 4),
        "speedup": round(serial_s / parallel_s, 3),
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
        failures.append("MultiKRR grid differs from scalar ModelSweep oracle")
    if multi["multi_s"] > 3.0 * max(eng["soa_s"], 1e-3):
        failures.append(
            f"MultiKRR {multi['n_configs']}-config grid took {multi['multi_s']}s "
            f"> 3x single-config SoA time ({eng['soa_s']}s)"
        )
    swept = payload["model_sweep"]
    if not swept["bit_identical_grids"]:
        failures.append("serial and parallel sweep grids differ")
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
        f"  scalar      {engines['scalar_s']:8.2f}s  "
        f"{engines['scalar_requests_per_s']:>10,} req/s  "
        f"({engines['scalar_speedup_vs_legacy']:.2f}x)",
        f"  soa         {engines['soa_s']:8.2f}s  "
        f"{engines['soa_requests_per_s']:>10,} req/s  "
        f"({engines['soa_speedup_vs_legacy']:.2f}x)",
        f"  soa stages: {engines['soa_swaps']:,} swaps, "
        f"{engines['soa_ns_per_swap']:.2f} ns/swap wall, "
        f"draw refill {engines['draw_ns_per_draw']:.2f} ns/draw",
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
        f"ModelSweep {swept['n_configs']}-config grid:",
        f"  serial      {swept['serial_s']:8.2f}s",
        f"  {swept['workers']} workers   {swept['parallel_s']:8.2f}s",
        f"  speedup     {swept['speedup']:.2f}x  "
        f"(grids bit-identical: {swept['bit_identical_grids']})",
        "",
        f"wrote {out}",
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
