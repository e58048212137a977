"""The four workloads, each run in a fresh process spawned by ``run.py``.

Usage: ``python benchmarks/e2e/workloads.py SPEC_JSON`` (``run.py`` writes
the spec).  The process builds the system, prints ``READY`` (``run.py``
times spawn -> ``READY`` as set-up), then, unless the spec says
``setup_only``, measures for ``seconds`` and writes its metrics, layer
numbers and correctness checks to ``spec["result_path"]``.

Work is measured in slices (a trace chunk, 50k cache ops) with a
machine-speed probe of :mod:`probe` run between them, and the timings of
the single-process workloads are reported at the reference speed (raw
values are kept under ``"raw"``).
With ``trace`` set, rounds alternate untraced/traced (the serve session
is split in two halves): traced rounds give the per-layer numbers, and
the traced/untraced ratio of work time is the tracing overhead.
"""

from __future__ import annotations

import http.client
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from array import array
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

import inputs
import probe
from tracing import Tracer, install_cache_layers, install_model_layers

perf = time.perf_counter
perf_ns = time.perf_counter_ns

#: Speed probes run right after set-up (about 0.1 s).
SETUP_PROBES = 25

def vm_hwm_mib(pid: "int | str" = "self") -> float:
    """Peak resident set (``VmHWM``) of one process, in MiB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def percentile(values: Iterable[float], q: float) -> float:
    return float(np.percentile(np.asarray(list(values), dtype=np.float64), q))


class Slices:
    """Durations of consecutive slices of work, with a speed probe of kind
    ``probe_kind`` before the first slice and after each one (no probes
    when ``probe_kind`` is None)."""

    def __init__(self, probe_kind: Optional[str]) -> None:
        self.probe_kind = probe_kind
        self.seconds: List[float] = []
        self.speeds: List[float] = []
        self.probe_s = 0.0

    def probe(self) -> None:
        if self.probe_kind is not None:
            start = perf()
            self.speeds.append(probe.speed(self.probe_kind))
            self.probe_s += perf() - start

    def factors(self) -> np.ndarray:
        """Per slice: the mean speed of the probes on either side of it."""
        if self.probe_kind is None:
            return np.ones(len(self.seconds))
        speeds = np.asarray(self.speeds)
        return (speeds[:-1] + speeds[1:]) / 2

    def round_factor(self) -> float:
        return statistics.median(self.speeds) if self.probe_kind is not None else 1.0


def timed_chunks(stream: Iterable[Any], slices: Slices) -> Iterator[Any]:
    """Yield chunks; a chunk's slice runs from requesting it to requesting
    the next one (its decode plus its processing)."""
    slices.probe()
    start = perf()
    for chunk in stream:
        yield chunk
        slices.seconds.append(perf() - start)
        slices.probe()
        start = perf()


class Workload:
    """Shared protocol: set up, measure, check."""

    name = ""
    #: The :mod:`probe` whose slowdown matches this workload's.
    probe_kind = "interpreter"
    #: Percentile reported as ``latency_tail_ms``: the highest with at
    #: least ten samples beyond it in a 10 s run (per-op and per-ack
    #: latencies give thousands to millions of samples a run).
    tail_percentile = 99.0

    def __init__(self, spec: Dict[str, Any]) -> None:
        self.spec = spec
        self.seconds = float(spec["seconds"])
        self.trace = bool(spec["trace"])
        self.tracer: Optional[Tracer] = None
        self.checks: List[Dict[str, Any]] = []
        self.attempted = 0
        self.failed_ops = 0

    def check(self, name: str, ok: bool, detail: Any = "") -> None:
        self.checks.append({"name": name, "ok": bool(ok), "detail": detail})

    def setup(self) -> None:
        raise NotImplementedError

    def run(self) -> Dict[str, Any]:
        raise NotImplementedError

    def teardown(self) -> None:
        pass

    def install(self, tracer: Tracer) -> None:
        install_model_layers(tracer)

    # -- round protocol (stream, grid, cache) ---------------------------
    def rounds(self, one_round: Callable[[Slices, bool], Dict[str, Any]]
               ) -> List[Dict[str, Any]]:
        """One discarded warm round, then rounds until ``seconds`` pass
        (at least three; with tracing, alternately untraced and traced).
        Traced rounds run no probes, so probes never land inside spans."""
        one_round(Slices(None), False)
        minimum = 4 if self.trace else 3
        done: List[Dict[str, Any]] = []
        deadline = perf() + self.seconds
        while perf() < deadline or len(done) < minimum:
            traced = self.trace and len(done) % 2 == 1
            slices = Slices(None if traced else self.probe_kind)
            if traced:
                assert self.tracer is not None
                self.install(self.tracer)
            try:
                start = perf()
                out = one_round(slices, traced)
                wall = perf() - start
            finally:
                if traced:
                    assert self.tracer is not None
                    self.tracer.uninstall()
            out.update(traced=traced, slices=slices, work_s=wall - slices.probe_s)
            done.append(out)
        return done

    def round_layers(self, done: List[Dict[str, Any]]) -> Dict[str, Any]:
        """Per-layer numbers from the traced rounds of :meth:`rounds`."""
        assert self.tracer is not None
        traced = [r for r in done if r["traced"]]
        plain = [r for r in done if not r["traced"]]
        wall = sum(r["work_s"] for r in traced)
        layers = layer_numbers(self.tracer, wall, len(traced))
        layers["unaccounted_share"] = 1.0 - self.tracer.top_level_ns() / 1e9 / wall
        layers["tracing_overhead"] = (
            statistics.median(r["work_s"] for r in traced)
            / statistics.median(r["work_s"] for r in plain)
            - 1.0
        )
        return layers


# ----------------------------------------------------------------------
# Per-layer numbers shared by every workload
# ----------------------------------------------------------------------

#: per-layer share metric -> traced layer whose self time it sums.
SHARE_LAYERS = {
    "workloads.stream.decode_share": "workloads.stream.decode",
    "sampling.spatial.filter_share": "sampling.spatial.filter",
    "sampling.spatial.mask_share": "sampling.spatial.mask",
    "engine.plan.intern_share": "engine.plan.intern",
    "stack.soa.update_share": "stack.soa.update",
    "core.krr.update_share": "core.krr.update",
    "stack.histogram.record_share": "stack.histogram.record",
    "mrc.curve.build_share": "mrc.curve.build",
    "core.model.self_share": "core.model",
    "core.vkrr.self_share": "core.vkrr",
    "core.windowed.feed_share": "core.windowed.feed",
    "cache.lru.self_share": "cache.lru",
    "cache.eviction.select_share": "cache.eviction.select",
    "service.handlers.http_share": "service.handlers",
    "service.supervisor.ingest_self_share": "service.supervisor.ingest",
    "service.wal.append_share": "service.wal.append",
    "service.supervisor.query_share": "service.supervisor.query",
    "client.loop_share": "client.loop",
}

#: Per-layer metrics only some workloads produce; the others report 0.
WORKLOAD_SPECIFIC = {
    "core.model.mae": 0.0,
    "cache.lru.hit_ratio": 0.0,
    "cache.model.residual": 0.0,
}


def layer_numbers(
    tracer: Tracer,
    wall_s: float,
    rounds: int,
    extra_totals: Optional[Dict[str, Dict[str, float]]] = None,
    extra_counters: Optional[Dict[str, float]] = None,
) -> Dict[str, Any]:
    """Self-time shares of ``wall_s`` per layer, and per-round counts."""
    totals = dict(tracer.totals())
    for layer, acc in (extra_totals or {}).items():
        mine = totals.setdefault(layer, {"count": 0, "total_s": 0.0, "self_s": 0.0})
        for key in mine:
            mine[key] += acc[key]
    counters = dict(tracer.counters())
    for name, value in (extra_counters or {}).items():
        counters[name] = counters.get(name, 0.0) + value

    def own(layer: str) -> float:
        return totals.get(layer, {}).get("self_s", 0.0)

    out: Dict[str, Any] = dict(WORKLOAD_SPECIFIC)
    out.update({metric: own(layer) / wall_s for metric, layer in SHARE_LAYERS.items()})
    offered = counters.get("sampling.spatial.offered", 0.0)
    kept = counters.get("sampling.spatial.kept", 0.0)
    updates = counters.get("stack.soa.updates", 0.0) + counters.get("core.krr.updates", 0.0)
    swaps = counters.get("stack.soa.swaps", 0.0) + counters.get("core.krr.swaps", 0.0)
    out.update({
        "workloads.stream.rows": counters.get("workloads.stream.rows", 0.0) / rounds,
        "sampling.spatial.kept_ratio": kept / offered if offered else 0.0,
        "stack.updates": updates / rounds,
        "stack.swaps_per_update": swaps / updates if updates else 0.0,
        "cache.eviction.calls": counters.get("cache.eviction.calls", 0.0) / rounds,
        "core.windowed.feed_calls": counters.get("core.windowed.feed_calls", 0.0) / rounds,
    })
    # The same layers in absolute seconds per round, for the result file.
    out["per_round"] = {
        layer: {k: v / rounds for k, v in acc.items()} for layer, acc in totals.items()
    }
    return out


# ----------------------------------------------------------------------
# stream-csvgz and grid-chunkdir: a trace stream through a model
# ----------------------------------------------------------------------

def reference_work_s(round_out: Dict[str, Any]) -> float:
    """A round's work time at the reference speed: each chunk scaled by
    the probes around it, the rest of the round (model construction,
    building the curve) by the round's median probe."""
    slices: Slices = round_out["slices"]
    chunks = np.asarray(slices.seconds)
    rest = round_out["work_s"] - float(chunks.sum())
    return float(np.sum(chunks * slices.factors())) + rest * slices.round_factor()


class ChunkedModel(Workload):
    """Rounds of "open the trace stream, model it, read the curve(s)"."""

    #: Over the 16 (stream) or 32 (grid) chunks of a pass, each the median
    #: of its latencies over the run's rounds.
    tail_percentile = 90.0
    last: Optional[Dict[str, Any]] = None

    def decode(self, stream: Iterable[Any], traced: bool) -> Iterable[Any]:
        """The trace stream, with each ``next()`` a decode span if traced."""
        if not traced:
            return stream
        assert self.tracer is not None
        return self.tracer.iterate(stream, "workloads.stream.decode",
                                   rows="workloads.stream.rows")

    def model_round(self, chunks: Iterator[Any]) -> Dict[str, Any]:
        raise NotImplementedError

    def one_round(self, slices: Slices, traced: bool) -> Dict[str, Any]:
        # Only the latest round's curves are kept (for verify), so peak RSS
        # does not grow with the number of rounds a run fits in.
        self.last = None
        self.last = self.model_round(timed_chunks(self.decode(self.source, traced), slices))
        return {}

    def verify(self, last: Dict[str, Any]) -> None:
        raise NotImplementedError

    def run(self) -> Dict[str, Any]:
        done = self.rounds(self.one_round)
        rss = vm_hwm_mib()  # before the in-memory comparison run
        n = int(self.spec["input"]["requests"])
        self.attempted += n * len(done)
        assert self.last is not None
        self.verify(self.last)
        timed = [r for r in done if not r["traced"]]
        # Every round streams the same chunks: a chunk's latency is its
        # median over the rounds, which leaves out the rounds a slow phase
        # of the machine hit, and the percentiles are taken over chunks.
        chunk_s = np.median([r["slices"].seconds for r in timed], axis=0)
        chunk_ref_s = np.median(
            [np.asarray(r["slices"].seconds) * r["slices"].factors() for r in timed], axis=0
        )
        tail = self.tail_percentile
        out: Dict[str, Any] = {
            "e2e": {
                "throughput_per_s": statistics.median(n / reference_work_s(r) for r in timed),
                "latency_p50_ms": percentile(chunk_ref_s * 1e3, 50),
                "latency_tail_ms": percentile(chunk_ref_s * 1e3, tail),
                "peak_rss_mib": rss,
            },
            "raw": {
                "throughput_per_s": statistics.median(n / r["work_s"] for r in timed),
                "latency_p50_ms": percentile(chunk_s * 1e3, 50),
                "latency_tail_ms": percentile(chunk_s * 1e3, tail),
                "round_work_s": [r["work_s"] for r in timed],
                "round_speed_factor": [r["slices"].round_factor() for r in timed],
            },
            "samples": {"rounds": len(timed), "chunks_per_round": int(chunk_s.size)},
            "native_kernel": self.native,
            "extra": {"mae": self.mae},
        }
        if self.trace:
            out["layers"] = self.round_layers(done)
            out["layers"]["core.model.mae"] = self.mae
        return out


class StreamCsvgz(ChunkedModel):
    name = "stream-csvgz"

    def setup(self) -> None:
        from repro.core.model import KRRModel
        from repro.stack._native import native_kernel_active
        from repro.workloads.stream import open_trace_stream

        self.native = native_kernel_active()
        self.model_cls = KRRModel
        self.source = open_trace_stream(
            self.spec["input"]["path"], chunk_size=inputs.STREAM_CHUNK
        )

    def new_model(self) -> Any:
        return self.model_cls(k=5, sampling_rate=0.01, seed=0)

    def model_round(self, chunks: Iterator[Any]) -> Dict[str, Any]:
        result = self.new_model().process(stream=chunks)
        return {"curve": result.mrc(), "stats": result.stats}

    def verify(self, last: Dict[str, Any]) -> None:
        """Streamed == in-memory, bit for bit; MAE against the reference."""
        from repro.mrc.builder import from_points
        from repro.mrc.metrics import mean_absolute_error
        from repro.workloads.io import load_csv

        memory = self.new_model().process(load_csv(self.spec["input"]["path"]))
        mem_curve = memory.mrc()
        curve = last["curve"]
        same_curve = np.array_equal(curve.sizes, mem_curve.sizes) and np.array_equal(
            curve.miss_ratios, mem_curve.miss_ratios
        )
        self.check("stream.mrc_bit_identical", same_curve)
        self.check("stream.counters_identical", vars(last["stats"]) == vars(memory.stats),
                   {"streamed": vars(last["stats"]), "in_memory": vars(memory.stats)})
        ref = self.spec["reference"]
        self.mae = mean_absolute_error(from_points(ref["sizes"], ref["miss_ratios"]), curve)
        self.check("stream.mae_in_range", 0.0 <= self.mae <= 1.0, self.mae)


GRID_KS = (1, 2, 5, 10)
GRID_RATES = (None, 0.1, 0.01)
GRID_SEED = 3


class GridChunkdir(ChunkedModel):
    name = "grid-chunkdir"
    probe_kind = "native"

    def setup(self) -> None:
        from repro.core.vkrr import MultiKRR
        from repro.stack._native import native_kernel_active
        from repro.workloads.stream import open_trace_stream

        self.native = native_kernel_active()
        self.grid_cls = MultiKRR
        self.source = open_trace_stream(self.spec["input"]["path"])

    def grid(self) -> Any:
        return self.grid_cls.grid(ks=GRID_KS, sampling_rates=GRID_RATES, seed=GRID_SEED)

    def model_round(self, chunks: Iterator[Any]) -> Dict[str, Any]:
        return {"results": self.grid().run(stream=chunks)}

    def verify(self, last: Dict[str, Any]) -> None:
        """Streamed grid == in-memory grid (curves and counters); MAE."""
        from repro.mrc.builder import from_points
        from repro.mrc.metrics import mean_absolute_error
        from repro.workloads.stream import ChunkedTraceReader

        streamed = last["results"]
        memory = self.grid().run(ChunkedTraceReader(self.spec["input"]["path"]).read_all())
        counters = ("requests_seen", "requests_sampled", "cold_misses",
                    "stack_updates", "swap_positions")
        mismatched = [
            a.config.label()
            for a, b in zip(streamed, memory)
            if not (
                np.array_equal(a.sizes, b.sizes)
                and np.array_equal(a.miss_ratios, b.miss_ratios)
                and all(getattr(a, c) == getattr(b, c) for c in counters)
            )
        ]
        self.check("grid.rows_bit_identical",
                   len(streamed) == len(memory) and not mismatched, mismatched)
        ref = self.spec["reference"]
        actual = from_points(ref["sizes"], ref["miss_ratios"])
        by_rate = {
            str(r.config.sampling_rate): mean_absolute_error(actual, r.mrc())
            for r in streamed
            if r.config.k == 5
        }
        self.mae = float(np.mean(list(by_rate.values())))
        self.check("grid.full_rate_mae", by_rate["None"] <= 0.05, by_rate)


# ----------------------------------------------------------------------
# cache-getset
# ----------------------------------------------------------------------

VALUE = b"v"  # one shared value object; sizes come from the trace
CACHE_SLICE = 50_000


class CacheGetSet(Workload):
    name = "cache-getset"

    def setup(self) -> None:
        from repro.cache.lru import SamplingLRUCache
        from repro.stack._native import native_kernel_active

        self.native = native_kernel_active()
        meta = self.spec["input"]
        self.cache = SamplingLRUCache(
            capacity_bytes=int(0.3 * meta["footprint_bytes"]),
            k=5, model_rate=0.01, seed=0,
        )

    def install(self, tracer: Tracer) -> None:
        install_model_layers(tracer)
        install_cache_layers(tracer)

    def load_ops(self) -> None:
        from repro.workloads.io import load_npz
        from repro.workloads.trace import OP_SET

        trace = load_npz(self.spec["input"]["path"])
        self.is_set = trace.ops == OP_SET
        self.keys = trace.keys
        self.sizes = trace.sizes
        self.n_ops = len(trace)
        self.bounds = [(lo, min(lo + CACHE_SLICE, self.n_ops))
                       for lo in range(0, self.n_ops, CACHE_SLICE)]
        self.lat = array("q", bytes(8 * self.n_ops))

    def slice_ops(self, lo: int, hi: int) -> List[Tuple[bool, int, int]]:
        """One slice of the op trace as Python tuples, built untimed (the
        whole trace as tuples would make the client, not the cache, the
        bulk of the peak RSS)."""
        return list(zip(self.is_set[lo:hi].tolist(), self.keys[lo:hi].tolist(),
                        self.sizes[lo:hi].tolist()))

    def loop(self, ops: List[Tuple[bool, int, int]], offset: int) -> None:
        """GET with read-through PUT, or SET; per-op ns into ``self.lat``."""
        get, put, lat, clock = self.cache.get, self.cache.put, self.lat, perf_ns
        i = offset
        for is_set, key, size in ops:
            start = clock()
            if is_set or get(key) is None:
                put(key, VALUE, size)
            lat[i] = clock() - start
            i += 1

    def one_round(self, slices: Slices, traced: bool) -> Dict[str, Any]:
        cache = self.cache
        hits, misses = cache.stats.hits, cache.stats.misses
        slices.probe()
        for lo, hi in self.bounds:
            ops = self.slice_ops(lo, hi)
            start = perf()
            if traced:
                # The loop itself (iteration, per-op timers) is the client layer.
                assert self.tracer is not None
                with self.tracer.span("client.loop"):
                    self.loop(ops, lo)
            else:
                self.loop(ops, lo)
            slices.seconds.append(perf() - start)
            slices.probe()
        # Two round-level reads a user makes: occupancy and the self-model.
        gets = (cache.stats.hits - hits) + (cache.stats.misses - misses)
        miss_ratio = (cache.stats.misses - misses) / gets
        predicted = cache.miss_ratio_at(len(cache))
        self.check("cache.used_within_capacity",
                   cache.used_bytes <= cache.capacity_bytes,
                   [cache.used_bytes, cache.capacity_bytes])
        raw_ns = np.frombuffer(self.lat, dtype=np.int64)
        per_op = np.repeat(slices.factors(), [hi - lo for lo, hi in self.bounds])
        ref_ns = raw_ns * per_op
        tail = self.tail_percentile
        return {
            "loop_s": float(np.sum(np.asarray(slices.seconds) * slices.factors())),
            "raw_loop_s": float(np.sum(slices.seconds)),
            "p50_ms": float(np.percentile(ref_ns, 50)) / 1e6,
            "tail_ms": float(np.percentile(ref_ns, tail)) / 1e6,
            "raw_p50_ms": float(np.percentile(raw_ns, 50)) / 1e6,
            "raw_tail_ms": float(np.percentile(raw_ns, tail)) / 1e6,
            "hit_ratio": 1.0 - miss_ratio,
            "residual": abs(predicted - miss_ratio),
        }

    def run(self) -> Dict[str, Any]:
        self.load_ops()
        done = self.rounds(self.one_round)
        rss = vm_hwm_mib()
        n = self.n_ops
        self.attempted += n * len(done)
        timed = [r for r in done if not r["traced"]]
        last = done[-1]

        def med(key: str) -> float:
            return statistics.median(r[key] for r in timed)

        out = {
            "e2e": {
                "throughput_per_s": statistics.median(n / r["loop_s"] for r in timed),
                "latency_p50_ms": med("p50_ms"),
                "latency_tail_ms": med("tail_ms"),
                "peak_rss_mib": rss,
            },
            "raw": {
                "throughput_per_s": statistics.median(n / r["raw_loop_s"] for r in timed),
                "latency_p50_ms": med("raw_p50_ms"),
                "latency_tail_ms": med("raw_tail_ms"),
            },
            "samples": {"rounds": len(timed), "latencies_per_round": n},
            "native_kernel": self.native,
            "extra": {"hit_ratio": last["hit_ratio"], "model_residual": last["residual"]},
        }
        if self.trace:
            layers = self.round_layers(done)
            layers["cache.lru.hit_ratio"] = last["hit_ratio"]
            layers["cache.model.residual"] = last["residual"]
            out["layers"] = layers
        return out


# ----------------------------------------------------------------------
# serve-ingest
# ----------------------------------------------------------------------

#: Open-loop rate.  The reference box gives its two vCPUs one CPU's worth
#: of time; at 150 batches/s (a rate sized for two cores) the daemon fell
#: behind in slow phases and acks backed up for seconds.  At 100/s,
#: ingest, workers and queries use about 40% of it.
BATCHES_PER_S = 100
BATCH_KEYS = 500
#: One /mrc query a second: a query holds the daemon for 40-70 ms on the
#: reference box, and at four a second a fifth of the ingest sends queued
#: behind one, which made the ack median swing 2-3.4 ms with the box's
#: load phases.
QUERY_EVERY_S = 1.0
LATE_MS = 5.0
TENANTS = ("t0", "t1")
#: Two seconds of ingest before the measured session, discarded: the
#: first batches after start-up (and after another workload freed a lot
#: of memory) ran 30-50% slower.
WARMUP_BATCHES = 2 * BATCHES_PER_S


def tenant_config(index: int) -> Dict[str, Any]:
    return {"tenant_id": TENANTS[index], "k": 5, "window": 200_000,
            "sampling_rate": 0.1, "seed": index + 1}


def processes() -> List[Tuple[int, str, int, int]]:
    """``(pid, state, ppid, pgrp)`` of every process in ``/proc``."""
    table = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        table.append((int(entry), fields[0], int(fields[1]), int(fields[2])))
    return table


def group_members(pgid: int) -> List[int]:
    """Live (non-zombie) processes in process group ``pgid``."""
    return [pid for pid, state, _, group in processes() if group == pgid and state != "Z"]


def shm_segments() -> set:
    try:
        return {n for n in os.listdir("/dev/shm") if n.startswith("psm_")}
    except FileNotFoundError:
        return set()


class Daemon:
    """One ``repro serve`` process (optionally the traced launcher)."""

    def __init__(self, work: Path, trace_path: Optional[Path] = None) -> None:
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        port_file = work / "port"
        serve_args = ["--port", "0", "--port-file", str(port_file),
                      "--data-dir", str(work / "data")]
        if trace_path is None:
            cmd = [sys.executable, "-m", "repro", "serve", *serve_args]
        else:
            launcher = str(Path(__file__).with_name("serve_launcher.py"))
            cmd = [sys.executable, launcher, str(trace_path), "--", *serve_args]
        self.log = open(work / "daemon.log", "wb")
        self.shm_before = shm_segments()
        self.proc = subprocess.Popen(cmd, stdout=self.log, stderr=subprocess.STDOUT,
                                     start_new_session=True, cwd=str(inputs.ROOT))
        deadline = perf() + 60
        while not (port_file.exists() and port_file.read_text().endswith("\n")):
            if self.proc.poll() is not None or perf() > deadline:
                self.stop()
                raise RuntimeError(f"repro serve did not start (see {work}/daemon.log)")
            time.sleep(0.005)
        self.port = int(port_file.read_text())
        try:
            for i in range(len(TENANTS)):
                body = json.dumps(tenant_config(i)).encode()
                status, _ = self.request("POST", "/tenants", body)
                if status != 201:
                    raise RuntimeError(f"tenant {TENANTS[i]} registration returned {status}")
        except BaseException:
            self.stop()
            raise

    def request(self, method: str, path: str, body: Optional[bytes] = None) -> Tuple[int, bytes]:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            headers = {"Content-Type": "application/json"} if body is not None else {}
            conn.request(method, path, body=body, headers=headers)
            resp = conn.getresponse()
            return resp.status, resp.read()
        finally:
            conn.close()

    def rss_mib(self) -> float:
        """Peak RSS of the daemon plus every process it started."""
        daemon = self.proc.pid
        pids = [daemon] + [pid for pid, _, ppid, _ in processes() if ppid == daemon]
        total = 0.0
        for pid in pids:
            try:
                total += vm_hwm_mib(pid)
            except OSError:  # exited since the scan
                pass
        return total

    def stop(self) -> Tuple[Optional[int], bool]:
        """SIGTERM, wait for the daemon and its process group; returns
        (exit code, whether no shared-memory segment leaked)."""
        rc: Optional[int] = self.proc.poll()
        if rc is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                rc = self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
                rc = None
        # Workers and the shm resource tracker share the daemon's process
        # group; wait until none is left (zombies awaiting an init reap
        # do not count), killing stragglers after a grace period.
        deadline = perf() + 20
        while group_members(self.proc.pid):
            if perf() > deadline:
                for pid in group_members(self.proc.pid):
                    os.kill(pid, signal.SIGKILL)
                if perf() > deadline + 10:
                    break
            time.sleep(0.02)
        self.log.close()
        leaked = shm_segments() - self.shm_before
        return rc, not leaked


Batch = Tuple[int, List[int], bytes]
Acked = List[List[Tuple[int, List[int]]]]


class ServeIngest(Workload):
    name = "serve-ingest"

    def setup(self) -> None:
        self.work = inputs.WORK / "serve" / f"{os.getpid()}"
        self.sessions = 0
        self.daemon: Optional[Daemon] = self.start_daemon(trace_path=None)

    def start_daemon(self, trace_path: Optional[Path]) -> Daemon:
        self.sessions += 1
        return Daemon(self.work / f"session{self.sessions}", trace_path)

    def teardown(self) -> None:
        if self.daemon is not None:
            self.daemon.stop()
            self.daemon = None
        shutil.rmtree(self.work, ignore_errors=True)

    def bodies(self, n_batches: int) -> List[Batch]:
        """Pre-encoded ingest bodies, tenants alternating batch by batch."""
        scale = float(self.spec["scale"])
        per_tenant = (n_batches + 1) // 2 * BATCH_KEYS
        keys = [inputs.serve_keys(int(self.spec["seed"]), scale, t, per_tenant).tolist()
                for t in range(len(TENANTS))]
        out = []
        for i in range(n_batches):
            t, j = i % 2, (i // 2) * BATCH_KEYS
            batch = keys[t][j:j + BATCH_KEYS]
            out.append((t, batch, json.dumps({"keys": batch}).encode()))
        return out

    def session(self, daemon: Daemon, batches: List[Batch]) -> Dict[str, Any]:
        """Open loop: batch i is due at start + i / BATCHES_PER_S; one
        ingest connection at a time, plus one query thread.  Latency is
        counted from the due time, so a stalled ack delays later sends and
        their latencies include the wait."""
        acked: Acked = [[] for _ in TENANTS]
        last_seq = [0] * len(TENANTS)
        ack_ms: List[float] = []
        late_ms: List[float] = []
        send_to_ack_ms: List[float] = []
        failures: List[Any] = []
        queries: List[Dict[str, Any]] = []
        stop = threading.Event()

        def query_loop() -> None:
            q = 0
            while not stop.wait(QUERY_EVERY_S):
                t = q % 2
                q += 1
                seen_seq = last_seq[t]
                sent = perf()
                try:
                    status, raw = daemon.request("GET", f"/tenants/{TENANTS[t]}/mrc")
                    body = json.loads(raw)
                except (OSError, ValueError) as exc:
                    queries.append({"ok": False, "error": repr(exc)})
                    continue
                ok = status == 200 and body.get("stale") is False
                queries.append({
                    "ok": ok, "ms": (perf() - sent) * 1e3,
                    "lag": max(0, seen_seq - int(body.get("applied_seq", 0))),
                })

        thread = threading.Thread(target=query_loop, name="e2e-query", daemon=True)
        start = perf()
        thread.start()
        try:
            for i, (t, keys, body) in enumerate(batches):
                due = start + i / BATCHES_PER_S
                wait = due - perf()
                if wait > 0:
                    time.sleep(wait)
                sent = perf()
                try:
                    status, raw = daemon.request("POST", f"/tenants/{TENANTS[t]}/ingest", body)
                    doc = json.loads(raw)
                except (OSError, ValueError) as exc:
                    failures.append(repr(exc))
                    continue
                acked_at = perf()
                if status != 200 or doc.get("durable") is not True:
                    failures.append({"status": status, "body": doc})
                    continue
                seq = int(doc["seq"])
                acked[t].append((seq, keys))
                last_seq[t] = seq
                ack_ms.append((acked_at - due) * 1e3)
                late_ms.append((sent - due) * 1e3)
                send_to_ack_ms.append((acked_at - sent) * 1e3)
            last_ack = perf()
        finally:
            stop.set()
            thread.join(timeout=60)
        return {
            "acked": acked, "ack_ms": ack_ms, "late_ms": late_ms,
            "send_to_ack_ms": send_to_ack_ms, "failures": failures,
            "queries": queries, "wall_s": last_ack - start,
        }

    def drain(self, daemon: Daemon, acked: Acked) -> Tuple[float, List[Dict[str, Any]]]:
        """Seconds until every tenant's live model has applied every acked
        key, and the final live payloads."""
        start = perf()
        deadline = start + 60
        payloads: List[Dict[str, Any]] = []
        for t, batches in enumerate(acked):
            want_seq = batches[-1][0] if batches else 0
            want_keys = sum(len(k) for _, k in batches)
            while True:
                status, raw = daemon.request("GET", f"/tenants/{TENANTS[t]}/mrc")
                body = json.loads(raw)
                done = (status == 200 and body.get("stale") is False
                        and int(body.get("applied_seq", -1)) == want_seq
                        and body["counters"]["requests_seen"] == want_keys)
                if done or perf() > deadline:
                    break
                time.sleep(0.01)
            payloads.append(body)
            self.check(f"serve.{TENANTS[t]}.requests_seen_equals_acked", done,
                       {"acked_keys": want_keys, "counters": body.get("counters")})
        return perf() - start, payloads

    def replay(self, acked: Acked, payloads: List[Dict[str, Any]]
               ) -> Tuple[float, List[float]]:
        """Apply the acked batches through ``TenantConfig.build_model`` in
        this process; the live curve must match it bit for bit."""
        from repro.service.registry import TenantConfig

        per_batch: List[float] = []
        for t, batches in enumerate(acked):
            model = TenantConfig.from_dict(tenant_config(t)).build_model()
            for _, keys in sorted(batches):
                start = perf()
                model.access_many(keys)
                per_batch.append((perf() - start) * 1e3)
            curve = model.mrc()
            live = payloads[t]["mrc"]
            same = (np.asarray(curve.sizes).tolist() == live["sizes"]
                    and np.asarray(curve.miss_ratios, dtype=float).tolist() == live["miss_ratios"])
            self.check(f"serve.{TENANTS[t]}.live_mrc_equals_replay", same)
        return sum(per_batch) / 1e3, per_batch

    def finish(self, daemon: Daemon) -> None:
        rc, clean = daemon.stop()
        self.check("serve.daemon_exit_sigterm", rc == -signal.SIGTERM, rc)
        self.check("serve.no_shm_leak", clean)

    def account(self, result: Dict[str, Any]) -> None:
        self.attempted += len(result["ack_ms"]) + len(result["failures"]) + len(result["queries"])
        self.failed_ops += len(result["failures"]) + sum(not q["ok"] for q in result["queries"])
        self.check("serve.every_ack_durable", not result["failures"], result["failures"][:5])

    def measured_session(self, daemon: Daemon, n: int) -> Dict[str, Any]:
        """A discarded warm-up session, then ``n`` measured batches.  The
        result's ``acked`` covers both, since the daemon applied both."""
        batches = self.bodies(WARMUP_BATCHES + n)
        warm = self.session(daemon, batches[:WARMUP_BATCHES])
        result = self.session(daemon, batches[WARMUP_BATCHES:])
        for part in (warm, result):
            self.account(part)
        result["keys"] = sum(len(k) for tb in result["acked"] for _, k in tb)
        result["acked"] = [w + m for w, m in zip(warm["acked"], result["acked"])]
        result["warm"] = warm
        return result

    def run(self) -> Dict[str, Any]:
        n = max(1, int(round(self.seconds * BATCHES_PER_S)))
        daemon = self.daemon
        assert daemon is not None
        if not self.trace:
            result = self.measured_session(daemon, n)
            rss = daemon.rss_mib()
            drain_s, payloads = self.drain(daemon, result["acked"])
            self.daemon = None
            self.finish(daemon)
            apply_s, _ = self.replay(result["acked"], payloads)
            send_to_ack = result["send_to_ack_ms"]
            # Reported as measured, not scaled by the probe: ack latency
            # depends on how the box time-shares its one effective CPU
            # between client, daemon and workers, which a single-thread
            # probe does not see (scaling made the spread worse).
            return {
                "e2e": {
                    "throughput_per_s": result["keys"] / result["wall_s"],
                    "latency_p50_ms": percentile(result["ack_ms"], 50),
                    "latency_tail_ms": percentile(result["ack_ms"], self.tail_percentile),
                    "peak_rss_mib": rss,
                },
                "raw": {
                    "send_to_ack_p50_ms": percentile(send_to_ack, 50),
                    "send_to_ack_p99_ms": percentile(send_to_ack, 99),
                },
                "samples": {"acks": len(result["ack_ms"]), "queries": len(result["queries"])},
                "extra": self.serve_extra(result, drain_s, apply_s),
            }
        # Traced: the first half against the plain daemon, the second half
        # against the launcher that records spans inside the daemon.
        plain = self.measured_session(daemon, max(1, n // 2))
        self.daemon = None
        self.finish(daemon)
        trace_path = self.work / "daemon-trace.json"
        daemon = self.daemon = self.start_daemon(trace_path)
        traced = self.measured_session(daemon, max(1, n // 2))
        drain_s, payloads = self.drain(daemon, traced["acked"])
        self.daemon = None
        self.finish(daemon)
        assert self.tracer is not None
        install_model_layers(self.tracer)
        try:
            apply_s, apply_ms = self.replay(traced["acked"], payloads)
        finally:
            self.tracer.uninstall()
        self.daemon_spans = json.loads(trace_path.read_text())
        return {"layers": self.serve_layers(plain, traced, apply_s, apply_ms),
                "extra": self.serve_extra(traced, drain_s, apply_s)}

    def serve_extra(self, result: Dict[str, Any], drain_s: float, apply_s: float
                    ) -> Dict[str, Any]:
        late = result["late_ms"]
        q_ms = [q["ms"] for q in result["queries"] if "ms" in q]
        lateness_p99 = percentile(late, 99) if late else 0.0
        return {
            "drain_s": drain_s,
            "query_p50_ms": percentile(q_ms, 50) if q_ms else None,
            "client.lateness_p99_ms": lateness_p99,
            "valid": lateness_p99 <= LATE_MS,
            "apply_s": apply_s,
        }

    def serve_layers(self, plain: Dict[str, Any], traced: Dict[str, Any],
                     apply_s: float, apply_ms: List[float]) -> Dict[str, Any]:
        """Daemon layers as shares of the traced daemon's ingest time
        (warm-up included, as its spans and replayed batches are), the
        replayed worker apply likewise, and the request-path breakdown."""
        assert self.tracer is not None
        spans = self.daemon_spans
        sessions = (traced["warm"], traced)
        wall = sum(part["wall_s"] for part in sessions)
        layers = layer_numbers(self.tracer, wall, 1,
                               extra_totals=spans["totals"], extra_counters=spans["counters"])
        layers["core.windowed.apply_share"] = apply_s / wall

        def durations(layer: str) -> List[float]:
            return [(s[2] - s[1]) / 1e6 for s in spans["spans"] if s[0] == layer and s[2]]

        client_ms = sum(
            sum(part["send_to_ack_ms"]) + sum(q["ms"] for q in part["queries"] if "ms" in q)
            for part in sessions
        )
        layers["unaccounted_share"] = 1.0 - sum(durations("service.handlers")) / client_ms
        layers["tracing_overhead"] = (
            percentile(traced["ack_ms"], 50) / percentile(plain["ack_ms"], 50) - 1.0
        )
        lags = [q["lag"] for q in traced["queries"] if "lag" in q]
        layers["service.worker.lag_batches_max"] = max(lags) if lags else 0
        layers["service.backpressure_429"] = sum(
            1 for f in traced["failures"] if isinstance(f, dict) and f.get("status") == 429
        )
        layers["client.late_sends"] = sum(1 for x in traced["late_ms"] if x > LATE_MS)
        wal = durations("service.wal.append")
        ingest = durations("service.supervisor.ingest")
        query = durations("service.supervisor.query")
        layers["ms"] = {
            "service.handlers.http_ms": percentile(traced["ack_ms"], 50) - percentile(ingest, 50),
            "service.supervisor.ingest_self_ms": percentile(ingest, 50) - percentile(wal, 50),
            "service.wal.append_ms_p50": percentile(wal, 50),
            "service.wal.append_ms_p99": percentile(wal, 99),
            "service.supervisor.query_ms": percentile(query, 50) if query else None,
            "core.windowed.apply_ms": percentile(apply_ms, 50),
        }
        return layers


WORKLOADS = {w.name: w for w in (StreamCsvgz, GridChunkdir, CacheGetSet, ServeIngest)}


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    # run.py stops a child with SIGTERM; unwind so the daemon is stopped too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    workload = WORKLOADS[spec["workload"]](spec)
    try:
        workload.setup()
        print("READY", flush=True)
        # Machine speed right after set-up, to express set-up time at the
        # reference speed (run.py reads this line).  Set-up slowed 1.4x in
        # slow phases, like the native probe; the interpreter probe slowed 2x.
        speed = statistics.median(probe.speed("native") for _ in range(SETUP_PROBES))
        print(f"SPEED {speed!r}", flush=True)
        if spec["setup_only"]:
            return 0
        if workload.trace:
            workload.tracer = Tracer()
        out = workload.run()
    finally:
        workload.teardown()
    out["checks"] = workload.checks
    out["attempted"] = workload.attempted + len(workload.checks)
    out["failed"] = workload.failed_ops + sum(not c["ok"] for c in workload.checks)
    if workload.tracer is not None:
        extra = {}
        if isinstance(workload, ServeIngest):
            extra["daemon"] = workload.daemon_spans
        workload.tracer.dump(Path(spec["out_dir"]) / f"trace-{workload.name}.json",
                             workload=workload.name, **extra)
    Path(spec["result_path"]).write_text(json.dumps(out, default=float))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
