"""Production-cache benchmark: hot-path overhead + self-model accuracy.

Measures, on a 500k-request zipf trace (50k objects, alpha=0.99):

1. **Hot-path cost** — requests/s through ``SamplingLRUCache`` with
   instrumentation off and on (spatial rate 0.01), next to the raw
   ``ByteKLRUCache`` simulator loop for context.  Gates: the embedded
   model must cost <= 15% over the uninstrumented path, and the
   uninstrumented path must never be slower than the instrumented one
   (within measurement noise).  A separate, ungated pass splits the
   instrumented hot path by what each request did: hit, miss that fills
   free room, or miss whose store evicts (count, mean ns, time share,
   and evictions per evicting store).
2. **Self-model accuracy, single-threaded** — the cache's self-reported
   MRC against an offline ``KRRModel`` fed the same trace at the same
   rate.  Gate: <= 0.02 absolute at every probed size.
3. **Self-model accuracy, 4-thread ingest** — the same trace striped
   round-robin across 4 writer threads.  The zipf trace is i.i.d., so
   any interleaving is statistically the same stream and the gate is
   identical: <= 0.02 absolute at every probed size.

Writes machine-readable results to ``BENCH_cache.json`` at the repo
root and a text summary under ``benchmarks/results/``.  Exits non-zero
on any gate failure — the CI perf-smoke gate.  ``--quick`` shrinks the
trace for CI.

Run:  PYTHONPATH=src python benchmarks/bench_cache.py [--quick]
"""

import argparse
import json
import os
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
from _common import write_result  # noqa: E402

REPO_ROOT = Path(__file__).resolve().parents[1]

K = 5
MODEL_RATE = 0.01
OBJECT_SIZE = 10
N_THREADS = 4
MAX_ABS_ERR = 0.02
MAX_OVERHEAD = 0.15
CHUNK = 65_536  # requests per offline-model access_many call


def _capacity(n_objects):
    # ~40% of the working set resident: plenty of eviction pressure
    # without devolving into pure thrash.
    return int(0.4 * n_objects) * OBJECT_SIZE


def _feed(cache, keys):
    access = cache.access
    t0 = time.perf_counter()
    for key in keys:
        access(key, OBJECT_SIZE)
    return time.perf_counter() - t0


def bench_hot_path(keys, n_objects, rounds=5):
    from repro.cache import SamplingLRUCache
    from repro.simulator.klru import ByteKLRUCache

    capacity = _capacity(n_objects)
    # Steady-state protocol: one untimed pass warms each variant (cache
    # residency, the model's sampling-decision memo), then the variants
    # are timed in interleaved rounds and the best time per variant is
    # kept — min-of-N cancels scheduler noise that a single back-to-back
    # pass folds straight into the overhead ratio.  The timing order
    # rotates each round: with a fixed order, load that ramps during a
    # round always lands on the same variant and biases the ratio even
    # under min-of-N.
    sim = ByteKLRUCache(capacity, k=K, rng=0)
    plain = SamplingLRUCache(capacity, k=K, seed=0, instrument=False)
    instrumented = SamplingLRUCache(capacity, k=K, seed=0, model_rate=MODEL_RATE)
    variants = [sim, plain, instrumented]
    best = {id(v): float("inf") for v in variants}
    for cache in variants:
        _feed(cache, keys)
    for r in range(rounds):
        for cache in variants[r % 3:] + variants[: r % 3]:
            best[id(cache)] = min(best[id(cache)], _feed(cache, keys))
    sim_s = best[id(sim)]
    plain_s = best[id(plain)]
    instrumented_s = best[id(instrumented)]

    n = len(keys)
    overhead = (instrumented_s - plain_s) / plain_s
    return {
        "requests": n,
        "capacity_bytes": capacity,
        "simulator_s": round(sim_s, 4),
        "uninstrumented_s": round(plain_s, 4),
        "instrumented_s": round(instrumented_s, 4),
        "simulator_rps": round(n / sim_s),
        "uninstrumented_rps": round(n / plain_s),
        "instrumented_rps": round(n / instrumented_s),
        "model_rate": MODEL_RATE,
        "instrumentation_overhead": round(overhead, 4),
        "model_sampled": instrumented.info()["model"]["requests_seen"],
    }, instrumented


def bench_op_split(keys, n_objects):
    """Per-op-kind split of the instrumented hot path: one pass from an
    empty cache, so both the fill phase and the steady state show.

    Each ``access`` is timed alone with ``perf_counter_ns``; the means
    include the cost of the timer pair around it.
    """
    from repro.cache import SamplingLRUCache

    cache = SamplingLRUCache(
        _capacity(n_objects), k=K, seed=0, model_rate=MODEL_RATE
    )
    access, clock, stats = cache.access, time.perf_counter_ns, cache.stats
    kinds = ("hit", "miss_fill", "miss_evict")
    ns = dict.fromkeys(kinds, 0)
    count = dict.fromkeys(kinds, 0)
    evictions = 0
    for key in keys:
        before = stats.evictions
        t0 = clock()
        hit = access(key, OBJECT_SIZE)
        dt = clock() - t0
        if hit:
            kind = "hit"
        elif stats.evictions == before:
            kind = "miss_fill"
        else:
            kind = "miss_evict"
            evictions += stats.evictions - before
        ns[kind] += dt
        count[kind] += 1
    total = sum(ns.values())
    split = {
        kind: {
            "count": count[kind],
            "mean_ns": round(ns[kind] / count[kind]) if count[kind] else None,
            "share": round(ns[kind] / total, 4),
        }
        for kind in kinds
    }
    split["evictions_per_evicting_store"] = (
        round(evictions / count["miss_evict"], 3) if count["miss_evict"] else 0.0
    )
    return split


def _offline_curve(keys, rate):
    from repro.core.model import KRRModel

    model = KRRModel(k=K, sampling_rate=rate, seed=0)
    for lo in range(0, len(keys), CHUNK):
        chunk = keys[lo : lo + CHUNK]
        model.access_many(chunk, [OBJECT_SIZE] * len(chunk))
    return model.mrc()


def _accuracy(cache, offline, sizes):
    self_curve = cache.mrc()
    rows = []
    for size in sizes:
        predicted = float(self_curve(size))
        reference = float(offline(size))
        rows.append(
            {
                "size": size,
                "self_model": round(predicted, 4),
                "offline_krr": round(reference, 4),
                "abs_err": round(abs(predicted - reference), 4),
            }
        )
    return rows


def bench_threaded(keys, n_objects, rate):
    from repro.cache import SamplingLRUCache

    cache = SamplingLRUCache(
        _capacity(n_objects), k=K, seed=0, model_rate=rate
    )
    stripes = [keys[i::N_THREADS] for i in range(N_THREADS)]
    threads = [
        threading.Thread(target=_feed, args=(cache, stripe), daemon=True)
        for stripe in stripes
    ]
    t0 = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    elapsed = time.perf_counter() - t0
    assert cache.references == len(keys), "lost references under contention"
    return cache, elapsed


def _gate(payload):
    failures = []
    hot = payload["hot_path"]
    if hot["instrumentation_overhead"] > MAX_OVERHEAD:
        failures.append(
            f"hot_path: instrumentation overhead "
            f"{hot['instrumentation_overhead']:.1%} exceeds {MAX_OVERHEAD:.0%}"
        )
    # never-slower: turning the model OFF must not cost throughput
    # (5% tolerance absorbs timer noise on short quick runs)
    if hot["uninstrumented_s"] > hot["instrumented_s"] * 1.05:
        failures.append(
            "hot_path: uninstrumented path slower than instrumented "
            f"({hot['uninstrumented_s']:.2f}s vs {hot['instrumented_s']:.2f}s)"
        )
    for section in ("accuracy_single_thread", "accuracy_threaded"):
        for row in payload[section]:
            if row["abs_err"] > MAX_ABS_ERR:
                failures.append(
                    f"{section}: |self - offline| = {row['abs_err']:.4f} "
                    f"at size {row['size']} (limit {MAX_ABS_ERR})"
                )
    return failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="CI smoke mode: 150k requests instead of 500k",
    )
    args = parser.parse_args(argv)

    from repro.workloads.zipf import zipf_trace_keys

    n_requests = 150_000 if args.quick else 500_000
    n_objects = 8_000 if args.quick else 50_000
    # quick mode needs a higher spatial rate to keep the model out of
    # small-sample noise; full scale uses the production-typical 1%.
    rate = 0.05 if args.quick else MODEL_RATE
    probe_sizes = (
        [300, 800, 2_000, 4_000]
        if args.quick
        else [2_000, 5_000, 10_000, 25_000]
    )
    keys = [int(k) for k in zipf_trace_keys(n_objects, n_requests, 0.99, rng=1)]

    hot, _ = bench_hot_path(keys, n_objects)
    hot["op_split"] = bench_op_split(keys, n_objects)

    from repro.cache import SamplingLRUCache

    offline = _offline_curve(keys, rate)
    single = SamplingLRUCache(_capacity(n_objects), k=K, seed=0, model_rate=rate)
    _feed(single, keys)
    acc_single = _accuracy(single, offline, probe_sizes)

    threaded_cache, threaded_s = bench_threaded(keys, n_objects, rate)
    acc_threaded = _accuracy(threaded_cache, offline, probe_sizes)

    payload = {
        "bench": "cache",
        "quick": args.quick,
        "cpus": os.cpu_count(),
        "trace": {
            "kind": "zipf",
            "n_requests": n_requests,
            "n_objects": n_objects,
            "alpha": 0.99,
            "model_rate": rate,
        },
        "hot_path": hot,
        "accuracy_single_thread": acc_single,
        "threaded": {
            "writers": N_THREADS,
            "elapsed_s": round(threaded_s, 4),
            "rps": round(n_requests / threaded_s),
        },
        "accuracy_threaded": acc_threaded,
    }
    failures = _gate(payload)
    payload["gate_failures"] = failures

    out = REPO_ROOT / "BENCH_cache.json"
    out.write_text(json.dumps(payload, indent=2) + "\n")

    def _split_lines(split):
        return [
            f"  {kind:<10} {split[kind]['count']:>8,} ops  "
            f"mean {split[kind]['mean_ns'] or 0:>6,} ns  "
            f"share {split[kind]['share']:.1%}"
            for kind in ("hit", "miss_fill", "miss_evict")
        ] + [
            "  evictions per evicting store "
            f"{split['evictions_per_evicting_store']}"
        ]

    def _acc_lines(rows):
        return [
            f"  size {row['size']:>6}: self {row['self_model']:.4f}  "
            f"offline {row['offline_krr']:.4f}  |err| {row['abs_err']:.4f}"
            for row in rows
        ]

    lines = [
        f"trace: {n_requests} requests, {n_objects} objects (zipf 0.99), "
        f"rate {rate}, {os.cpu_count()} cpu(s)",
        "",
        "hot path (requests/s):",
        f"  ByteKLRUCache simulator   {hot['simulator_rps']:>9,}",
        f"  cache, uninstrumented     {hot['uninstrumented_rps']:>9,}",
        f"  cache, instrumented       {hot['instrumented_rps']:>9,}  "
        f"(model overhead {hot['instrumentation_overhead']:.1%}, "
        f"limit {MAX_OVERHEAD:.0%})",
        "",
        "instrumented hot path by op kind, one pass from empty "
        "(ns include the timer pair):",
        *_split_lines(hot["op_split"]),
        "",
        "self-model vs offline KRR, single-threaded:",
        *_acc_lines(acc_single),
        "",
        f"self-model vs offline KRR, {N_THREADS}-thread ingest "
        f"({payload['threaded']['rps']:,} req/s aggregate):",
        *_acc_lines(acc_threaded),
        "",
        f"wrote {out.relative_to(REPO_ROOT)}",
    ]
    if failures:
        lines += ["", "GATE FAILURES:"] + [f"  - {f}" for f in failures]
    write_result("bench_cache", "\n".join(lines))
    return 1 if failures else 0


def test_cache_quick(benchmark):
    """Pytest-benchmark entry point: quick mode only."""
    benchmark.pedantic(lambda: main(["--quick"]), rounds=1, iterations=1)


if __name__ == "__main__":
    raise SystemExit(main())
