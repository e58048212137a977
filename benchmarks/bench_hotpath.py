"""Hot-path benchmark: vectorized kernels vs the legacy per-access loops.

Measures, on a 500k-request zipf trace (50k objects, alpha=0.99):

1. **Exact-LRU distance extraction** — ``lru_histograms`` through the
   offline Olken batch kernel against the per-access Fenwick-tree loop
   (``vectorized=False``), with a bit-identity check on both histograms.
2. **Spatially sampled KRRModel** — ``process(trace)`` at rate 0.01
   (one vectorized hash-and-filter pass over the key column, timed
   inside the call, then the batched stack) against the legacy streaming
   loop (one ``access()``/``keep()`` per request).

The grid sweep is timed in ``bench_engine_scaling.py`` (one pass against
the per-cell loop it replaced).

Writes machine-readable results to ``BENCH_hotpath.json`` at the repo
root and a text summary under ``benchmarks/results/``.  Exits non-zero
if any vectorized path is slower than its legacy counterpart or any
equivalence check fails — the CI perf-smoke gate.  ``--quick`` shrinks
the trace for CI.

Run:  PYTHONPATH=src python benchmarks/bench_hotpath.py [--quick]
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
SAMPLING_RATE = 0.01


def bench_exact_lru(trace):
    from repro.stack.lru_stack import lru_histograms

    t0 = time.perf_counter()
    o_legacy, b_legacy = lru_histograms(trace, vectorized=False)
    legacy_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    o_vec, b_vec = lru_histograms(trace, vectorized=True)
    vectorized_s = time.perf_counter() - t0

    identical = bool(
        np.array_equal(o_legacy.counts(), o_vec.counts())
        and o_legacy.cold_misses == o_vec.cold_misses
        and np.array_equal(
            b_legacy.miss_ratio_curve()[1], b_vec.miss_ratio_curve()[1]
        )
    )
    return {
        "requests": len(trace),
        "legacy_s": round(legacy_s, 4),
        "vectorized_s": round(vectorized_s, 4),
        "speedup": round(legacy_s / vectorized_s, 3),
        "curves_identical": identical,
    }


def bench_sampled_process(trace, seed=1):
    from repro import KRRModel

    keys = trace.keys
    sizes = trace.sizes
    legacy_model = KRRModel(k=K, sampling_rate=SAMPLING_RATE, seed=seed)
    t0 = time.perf_counter()
    for i in range(keys.shape[0]):
        legacy_model.access(int(keys[i]), int(sizes[i]))
    legacy_s = time.perf_counter() - t0

    vec_model = KRRModel(k=K, sampling_rate=SAMPLING_RATE, seed=seed)
    t0 = time.perf_counter()
    vec_model.process(trace)
    vectorized_s = time.perf_counter() - t0

    identical = bool(
        np.array_equal(
            legacy_model.mrc().miss_ratios, vec_model.mrc().miss_ratios
        )
    )
    return {
        "requests": len(trace),
        "k": K,
        "rate": SAMPLING_RATE,
        "sampled": vec_model.stats.requests_sampled,
        "legacy_s": round(legacy_s, 4),
        "vectorized_s": round(vectorized_s, 4),
        "speedup": round(legacy_s / vectorized_s, 3),
        "curves_identical": identical,
    }


def _gate(payload):
    """Perf-smoke pass/fail: vectorized never slower, always identical."""
    failures = []
    for name in ("exact_lru", "sampled_process"):
        section = payload[name]
        if section["speedup"] < 1.0:
            failures.append(
                f"{name}: vectorized path slower than legacy "
                f"({section['speedup']:.2f}x)"
            )
        if not section["curves_identical"]:
            failures.append(f"{name}: vectorized curves differ from legacy")
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

    exact = bench_exact_lru(trace)
    sampled = bench_sampled_process(trace)

    payload = {
        "bench": "hotpath",
        "quick": args.quick,
        "cpus": os.cpu_count(),
        "trace": {
            "kind": "zipf",
            "n_requests": n_requests,
            "n_objects": n_objects,
            "alpha": 0.99,
        },
        "exact_lru": exact,
        "sampled_process": sampled,
    }
    failures = _gate(payload)
    payload["gate_failures"] = failures

    out = REPO_ROOT / "BENCH_hotpath.json"
    out.write_text(json.dumps(payload, indent=2) + "\n")

    lines = [
        f"trace: {n_requests} requests, {n_objects} objects (zipf 0.99), "
        f"{os.cpu_count()} cpu(s)",
        "",
        "exact-LRU distance extraction (both histograms):",
        f"  per-access Fenwick  {exact['legacy_s']:8.2f}s",
        f"  batch kernel        {exact['vectorized_s']:8.2f}s",
        f"  speedup             {exact['speedup']:.2f}x  "
        f"(curves identical: {exact['curves_identical']})",
        "",
        f"KRRModel.process at R={SAMPLING_RATE} (K={K}, "
        f"{sampled['sampled']} sampled):",
        f"  streaming access()  {sampled['legacy_s']:8.2f}s",
        f"  filter + batched    {sampled['vectorized_s']:8.2f}s",
        f"  speedup             {sampled['speedup']:.2f}x  "
        f"(curves identical: {sampled['curves_identical']})",
        "",
        f"wrote {out.relative_to(REPO_ROOT)}",
    ]
    if failures:
        lines += ["", "GATE FAILURES:"] + [f"  - {f}" for f in failures]
    write_result("bench_hotpath", "\n".join(lines))
    return 1 if failures else 0


def test_hotpath_quick(benchmark):
    """Pytest-benchmark entry point: quick mode only."""
    benchmark.pedantic(lambda: main(["--quick"]), rounds=1, iterations=1)


if __name__ == "__main__":
    raise SystemExit(main())
