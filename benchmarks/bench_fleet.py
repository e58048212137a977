"""Fleet benchmark: out-of-core streaming throughput, memory and resume.

Measures, on a sharded (``save_chunked``) zipf trace whose total size is
>= 10x the streaming chunk:

1. **Streamed vs in-memory SoA** — `KRRModel.process(stream=...)` and the
   one-pass `MultiKRR` grid fed chunk by chunk, against the same models
   run over the materialized trace.  Curves and counters must be
   bit-identical, and streamed SoA throughput must stay >= 0.8x
   in-memory (the interner/chunk plumbing may not eat the engine).
2. **Peak RSS** — three subprocesses (interpreter baseline, streamed run,
   materialized run) measured via ``ru_maxrss``: the streamed run's
   footprint over baseline must stay well under the materialized run's,
   proving worker memory is bounded by the chunk, not the trace.
3. **Fleet kill/resume** — a 3-trace ``repro fleet`` CLI run with a
   ``hang@1`` fault injected is SIGKILLed mid-flight once the other
   traces have checkpointed, then rerun against the same checkpoint
   directory; its output grids must be byte-identical to an
   uninterrupted run's.
4. **CSV decode** — one ``.csv.gz`` trace (zipf keys, mixed sizes and
   ops) streamed through ``iter_csv`` (block decoder, gunzip on a reader
   thread) and through the row parser alone, interleaved, best of three
   each: the chunks must be bit-identical and the block decoder >= 2x
   faster.  A gunzip-only read of the same file (``gunzip_s``) shows the
   stage the reader thread overlaps with decoding.

Any violation makes the process exit nonzero (CI perf gate).  Writes
machine-readable results to ``BENCH_fleet.json`` at the repo root plus a
text summary under ``benchmarks/results/``.  ``--quick`` shrinks the
traces for CI smoke runs (all gates stay armed).

Run:  PYTHONPATH=src python benchmarks/bench_fleet.py [--quick]
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).parent))
from _common import write_result  # noqa: E402

REPO_ROOT = Path(__file__).resolve().parents[1]

K = 5
FLEET_KS = (1, 5)
FLEET_RATES = (None, 0.25)


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    return env


def _make_chunk_dir(directory, n_requests, n_objects, chunk_size):
    from repro.workloads.stream import iter_chunks, save_chunked
    from repro.workloads.trace import Trace
    from repro.workloads.zipf import zipf_trace_keys

    keys = zipf_trace_keys(n_objects, n_requests, 0.99, rng=1)
    trace = Trace(keys, name=f"zipf{n_requests // 1000}k")
    save_chunked(iter_chunks(trace, chunk_size), directory, chunk_size=chunk_size)
    return trace


def bench_streamed_soa(trace, chunk_dir, seed=1):
    from repro.core.model import KRRModel
    from repro.core.vkrr import MultiKRR
    from repro.workloads.stream import ChunkedTraceReader

    n = len(trace)
    reader = ChunkedTraceReader(chunk_dir)

    mem_model = KRRModel(k=K, seed=seed)
    t0 = time.perf_counter()
    mem_model.process(trace)
    mem_s = time.perf_counter() - t0

    str_model = KRRModel(k=K, seed=seed)
    t0 = time.perf_counter()
    str_model.process(stream=reader)
    str_s = time.perf_counter() - t0

    identical = bool(
        np.array_equal(mem_model.mrc().miss_ratios, str_model.mrc().miss_ratios)
        and mem_model.stats == str_model.stats
    )

    grid_mem = MultiKRR.grid(ks=FLEET_KS, sampling_rates=FLEET_RATES, seed=seed)
    t0 = time.perf_counter()
    rows_mem = grid_mem.run(trace)
    grid_mem_s = time.perf_counter() - t0

    grid_str = MultiKRR.grid(ks=FLEET_KS, sampling_rates=FLEET_RATES, seed=seed)
    t0 = time.perf_counter()
    rows_str = grid_str.run(stream=reader)
    grid_str_s = time.perf_counter() - t0

    grid_identical = all(
        np.array_equal(a.sizes, b.sizes)
        and np.array_equal(a.miss_ratios, b.miss_ratios)
        and a.requests_sampled == b.requests_sampled
        and a.swap_positions == b.swap_positions
        for a, b in zip(rows_mem, rows_str)
    )
    return {
        "requests": n,
        "k": K,
        "in_memory_s": round(mem_s, 4),
        "streamed_s": round(str_s, 4),
        "in_memory_requests_per_s": round(n / mem_s),
        "streamed_requests_per_s": round(n / str_s),
        "streamed_throughput_ratio": round(mem_s / str_s, 3),
        "curves_identical": identical,
        "grid_n_configs": len(grid_mem),
        "grid_in_memory_s": round(grid_mem_s, 4),
        "grid_streamed_s": round(grid_str_s, 4),
        "grid_streamed_throughput_ratio": round(grid_mem_s / grid_str_s, 3),
        "grid_identical": grid_identical,
    }


def bench_csv_decode(workdir, n_requests, n_objects, chunk_size, repeats=3):
    """``iter_csv`` against the row-parser-only reference, same file.

    ``native_decoder`` records whether clean blocks went through the
    kernel's ``csv_decode_block``; without it both passes parse rows.
    ``gunzip_s`` is the file read in 128 KiB blocks and nothing else:
    the stage ``iter_csv``'s reader thread runs beside the decoder.
    """
    import gzip

    from repro.stack._native import load_csv_decoder
    from repro.workloads.io import save_csv
    from repro.workloads.stream import _csv_chunks, iter_csv
    from repro.workloads.trace import Trace
    from repro.workloads.zipf import zipf_trace_keys

    rng = np.random.default_rng(2)
    trace = Trace(
        zipf_trace_keys(n_objects, n_requests, 0.99, rng=3),
        rng.integers(1, 100_000, n_requests),
        rng.integers(0, 3, n_requests),
    )
    path = Path(workdir) / "decode.csv.gz"
    save_csv(trace, path)
    del trace

    def block_pass():
        return iter_csv(path, chunk_size)

    def row_pass():
        return _csv_chunks(path, chunk_size, "strict", blocks=False)

    def gunzip_pass():
        with gzip.open(path, "rb") as raw:
            yield from iter(lambda: raw.read(1 << 17), b"")

    def timed(make):
        t0 = time.perf_counter()
        for _ in make():
            pass
        return time.perf_counter() - t0

    block_s, row_s, gunzip_s = [], [], []
    for _ in range(repeats):  # interleaved: a slow phase hits all three
        block_s.append(timed(block_pass))
        row_s.append(timed(row_pass))
        gunzip_s.append(timed(gunzip_pass))
    identical = True
    n_chunks = 0
    for a, b in zip(block_pass(), row_pass()):
        n_chunks += 1
        identical &= bool(
            np.array_equal(a.keys, b.keys)
            and np.array_equal(a.sizes, b.sizes)
            and np.array_equal(a.ops, b.ops)
            and a.keys.dtype == b.keys.dtype
            and a.ops.dtype == b.ops.dtype
            and a.skipped_rows == b.skipped_rows
        )
    identical &= n_chunks == sum(1 for _ in row_pass())
    return {
        "requests": n_requests,
        "chunk_size": chunk_size,
        "file_bytes": path.stat().st_size,
        "gunzip_s": round(min(gunzip_s), 4),
        "block_s": round(min(block_s), 4),
        "row_parser_s": round(min(row_s), 4),
        "block_requests_per_s": round(n_requests / min(block_s)),
        "row_parser_requests_per_s": round(n_requests / min(row_s)),
        "speedup": round(min(row_s) / min(block_s), 2),
        "chunks": n_chunks,
        "chunks_identical": identical,
        "native_decoder": load_csv_decoder() is not None,
    }


# ``ru_maxrss`` is useless here: some kernels carry the parent's RSS
# high-water mark across fork+exec, so every child of this (fat) bench
# process would just echo the parent's peak.  Instead each child samples
# its *current* RSS from /proc/self/statm on a 2 ms daemon thread and
# reports the largest sample — immune to inheritance, and the phases we
# gate on (held trace columns vs one chunk) are sustained, not
# microsecond transients.
_RSS_TEMPLATE = """
import os, sys, threading, time
PAGE_KIB = os.sysconf("SC_PAGESIZE") // 1024
peak = [0]
stop = threading.Event()
def _sample():
    with open("/proc/self/statm") as fh:
        peak[0] = max(peak[0], int(fh.read().split()[1]))
def _track():
    while not stop.is_set():
        _sample()
        time.sleep(0.002)
t = threading.Thread(target=_track, daemon=True)
t.start()
{body}
stop.set()
t.join()
_sample()
print(peak[0] * PAGE_KIB)
"""

_RSS_BASELINE = _RSS_TEMPLATE.format(body="""
import numpy, repro
from repro.core.model import KRRModel
""")

_RSS_STREAMED = _RSS_TEMPLATE.format(body="""
from repro.core.model import KRRModel
from repro.workloads.stream import ChunkedTraceReader
KRRModel(k={k}, seed=1).process(stream=ChunkedTraceReader(sys.argv[1]))
""")

_RSS_MATERIALIZED = _RSS_TEMPLATE.format(body="""
from repro.core.model import KRRModel
from repro.workloads.stream import ChunkedTraceReader
trace = ChunkedTraceReader(sys.argv[1]).read_all()
KRRModel(k={k}, seed=1).process(trace)
""")


def _measure_rss(code, *argv):
    """Peak sampled RSS (KiB) of one python child running ``code``."""
    out = subprocess.run(
        [sys.executable, "-c", code, *map(str, argv)],
        env=_child_env(), cwd=REPO_ROOT,
        capture_output=True, text=True, check=True,
    )
    return int(out.stdout.strip().splitlines()[-1])


def bench_rss(chunk_dir, n_requests, chunk_size):
    baseline = _measure_rss(_RSS_BASELINE)
    streamed = _measure_rss(_RSS_STREAMED.format(k=K), chunk_dir)
    materialized = _measure_rss(_RSS_MATERIALIZED.format(k=K), chunk_dir)
    streamed_delta = max(1, streamed - baseline)
    materialized_delta = max(1, materialized - baseline)
    return {
        "n_requests": n_requests,
        "chunk_size": chunk_size,
        "trace_to_chunk_ratio": round(n_requests / chunk_size, 1),
        "baseline_kib": baseline,
        "streamed_kib": streamed,
        "materialized_kib": materialized,
        "streamed_delta_kib": streamed_delta,
        "materialized_delta_kib": materialized_delta,
        "streamed_over_materialized": round(
            streamed_delta / materialized_delta, 3
        ),
    }


def _full_rows(path, n_configs):
    """True once a trace checkpoint holds its header plus every grid row."""
    try:
        with open(path) as fh:
            return sum(1 for _ in fh) >= 1 + n_configs
    except OSError:
        return False


def bench_kill_resume(workdir, n_requests=60_000, n_objects=8_000):
    """SIGKILL a checkpointing fleet mid-flight; resume must be identical."""
    from repro.workloads.io import save_npz
    from repro.workloads.trace import Trace
    from repro.workloads.zipf import zipf_trace_keys

    workdir = Path(workdir)
    paths = []
    for i in range(3):
        keys = zipf_trace_keys(n_objects, n_requests, 0.99, rng=10 + i)
        p = workdir / f"fleet-t{i}.npz"
        save_npz(Trace(keys, name=f"t{i}"), p)
        paths.append(str(p))

    n_configs = len(FLEET_KS) * len(FLEET_RATES)
    base_cmd = [
        sys.executable, "-m", "repro", "fleet", *paths,
        "--ks", ",".join(map(str, FLEET_KS)),
        "--rates", ",".join("none" if r is None else str(r) for r in FLEET_RATES),
        "--seed", "7", "--workers", "2", "--chunk-size", "20000",
    ]
    clean_out = workdir / "clean.csv"
    subprocess.run(
        [*base_cmd, "-o", str(clean_out)],
        env=_child_env(), cwd=REPO_ROOT,
        capture_output=True, text=True, check=True,
    )

    # Interrupted run: trace 1's worker hangs on an injected fault; once
    # traces 0 and 2 have fully checkpointed, the whole process group is
    # SIGKILLed — the hard-timeout death a real fleet must survive.
    ck = workdir / "ckpt"
    env = _child_env()
    env["REPRO_FAULTS"] = f"hang@1:600;state={workdir / 'faults'}"
    proc = subprocess.Popen(
        [*base_cmd, "--checkpoint-dir", str(ck), "-o", str(workdir / "x.csv")],
        env=env, cwd=REPO_ROOT, start_new_session=True,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    deadline = time.monotonic() + 120
    killed_after_checkpoint = False
    try:
        while time.monotonic() < deadline:
            if _full_rows(ck / "trace-0000.jsonl", n_configs) and _full_rows(
                ck / "trace-0002.jsonl", n_configs
            ):
                killed_after_checkpoint = True
                break
            if proc.poll() is not None:
                break
            time.sleep(0.1)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()

    resumed_out = workdir / "resumed.csv"
    resume = subprocess.run(
        [*base_cmd, "--checkpoint-dir", str(ck), "-o", str(resumed_out)],
        env=_child_env(), cwd=REPO_ROOT,
        capture_output=True, text=True, check=True,
    )
    resumed_traces = 0
    for line in resume.stderr.splitlines():
        if "resumed-traces=" in line:
            resumed_traces = int(line.split("resumed-traces=")[1].split()[0])
    identical = clean_out.read_bytes() == resumed_out.read_bytes()
    return {
        "n_traces": 3,
        "n_configs": n_configs,
        "n_requests_per_trace": n_requests,
        "killed_after_checkpoint": killed_after_checkpoint,
        "resumed_traces": resumed_traces,
        "resume_identical_to_clean": identical,
    }


def _gate(payload):
    """The CI contract for out-of-core streaming; returns failure strings."""
    failures = []
    soa = payload["streamed_soa"]
    if not soa["curves_identical"]:
        failures.append("streamed KRRModel curve/stats differ from in-memory")
    if not soa["grid_identical"]:
        failures.append("streamed MultiKRR grid differs from in-memory")
    if soa["streamed_throughput_ratio"] < 0.8:
        failures.append(
            f"streamed SoA throughput {soa['streamed_throughput_ratio']}x "
            f"< 0.8x in-memory"
        )
    rss = payload["rss"]
    if rss["trace_to_chunk_ratio"] < 10:
        failures.append(
            f"RSS check trace only {rss['trace_to_chunk_ratio']}x chunk size "
            f"(need >= 10x for a meaningful bound)"
        )
    if rss["streamed_over_materialized"] > 0.6:
        failures.append(
            f"streamed peak RSS delta is {rss['streamed_over_materialized']}x "
            f"the materialized delta (> 0.6x: not chunk-bounded)"
        )
    decode = payload["csv_decode"]
    if not decode["chunks_identical"]:
        failures.append("block-decoded CSV chunks differ from the row parser's")
    if decode["speedup"] < 2.0:
        failures.append(
            f"CSV block decoder only {decode['speedup']}x the row parser (< 2x)"
        )
    kill = payload["kill_resume"]
    if not kill["resume_identical_to_clean"]:
        failures.append("resumed fleet grids differ from uninterrupted run")
    if not kill["killed_after_checkpoint"]:
        failures.append(
            "kill/resume check never observed a mid-flight checkpoint "
            "(fleet finished or died before traces 0 and 2 checkpointed)"
        )
    return failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="CI smoke mode: 1.2M-request RSS trace instead of 5M, "
        "256k-request CSV decode trace instead of 1M",
    )
    args = parser.parse_args(argv)

    n_requests = 1_200_000 if args.quick else 5_000_000
    n_objects = 60_000 if args.quick else 200_000
    chunk_size = 100_000
    kill_requests = 40_000 if args.quick else 120_000
    decode_requests = 1 << 18 if args.quick else 1 << 20

    with tempfile.TemporaryDirectory(prefix="bench-fleet-") as tmp:
        chunk_dir = Path(tmp) / "trace.chunks"
        trace = _make_chunk_dir(chunk_dir, n_requests, n_objects, chunk_size)
        soa = bench_streamed_soa(trace, chunk_dir)
        del trace
        rss = bench_rss(chunk_dir, n_requests, chunk_size)
        kill = bench_kill_resume(tmp, n_requests=kill_requests)
        decode = bench_csv_decode(tmp, decode_requests, n_objects, 65536)

    payload = {
        "bench": "fleet",
        "quick": args.quick,
        "cpus": os.cpu_count(),
        "trace": {
            "kind": "zipf",
            "n_requests": n_requests,
            "n_objects": n_objects,
            "alpha": 0.99,
            "chunk_size": chunk_size,
        },
        "streamed_soa": soa,
        "rss": rss,
        "kill_resume": kill,
        "csv_decode": decode,
    }
    failures = _gate(payload)
    payload["gate_failures"] = failures
    out = REPO_ROOT / "BENCH_fleet.json"
    out.write_text(json.dumps(payload, indent=2) + "\n")

    lines = [
        f"trace: {n_requests} requests, {n_objects} objects (zipf 0.99), "
        f"{chunk_size}-row chunks, {os.cpu_count()} cpu(s)",
        "",
        "streamed SoA vs in-memory (K=5):",
        f"  in-memory   {soa['in_memory_s']:8.2f}s  "
        f"{soa['in_memory_requests_per_s']:>10,} req/s",
        f"  streamed    {soa['streamed_s']:8.2f}s  "
        f"{soa['streamed_requests_per_s']:>10,} req/s  "
        f"({soa['streamed_throughput_ratio']:.2f}x)",
        f"  identical: {soa['curves_identical']}",
        "",
        f"streamed MultiKRR {soa['grid_n_configs']}-config grid:",
        f"  in-memory   {soa['grid_in_memory_s']:8.2f}s",
        f"  streamed    {soa['grid_streamed_s']:8.2f}s  "
        f"({soa['grid_streamed_throughput_ratio']:.2f}x)",
        f"  identical: {soa['grid_identical']}",
        "",
        f"peak RSS (trace = {rss['trace_to_chunk_ratio']}x chunk):",
        f"  baseline     {rss['baseline_kib']:>10,} KiB",
        f"  streamed     {rss['streamed_kib']:>10,} KiB  "
        f"(+{rss['streamed_delta_kib']:,})",
        f"  materialized {rss['materialized_kib']:>10,} KiB  "
        f"(+{rss['materialized_delta_kib']:,})",
        f"  streamed/materialized delta: {rss['streamed_over_materialized']}",
        "",
        f"fleet kill/resume ({kill['n_traces']} traces x "
        f"{kill['n_configs']} configs):",
        f"  killed after mid-flight checkpoint: "
        f"{kill['killed_after_checkpoint']}",
        f"  resumed traces: {kill['resumed_traces']}",
        f"  resume identical to clean run: "
        f"{kill['resume_identical_to_clean']}",
        "",
        f"CSV decode ({decode['requests']} requests, .csv.gz, "
        f"{decode['chunk_size']}-row chunks, best of 3):",
        f"  gunzip only {decode['gunzip_s']:8.2f}s",
        f"  row parser  {decode['row_parser_s']:8.2f}s  "
        f"{decode['row_parser_requests_per_s']:>10,} req/s",
        f"  blocks      {decode['block_s']:8.2f}s  "
        f"{decode['block_requests_per_s']:>10,} req/s  "
        f"({decode['speedup']:.2f}x)",
        f"  identical: {decode['chunks_identical']}, "
        f"native decoder: {decode['native_decoder']}",
        "",
        f"wrote {out.relative_to(REPO_ROOT)}",
    ]
    if failures:
        lines += ["", "PERF GATE FAILURES:"] + [f"  - {f}" for f in failures]
    write_result("bench_fleet", "\n".join(lines))
    return 1 if failures else 0


def test_fleet_quick(benchmark):
    """Pytest-benchmark entry point: quick mode only."""
    benchmark.pedantic(lambda: main(["--quick"]), rounds=1, iterations=1)


if __name__ == "__main__":
    raise SystemExit(main())
