"""Command-line interface: generate traces, model MRCs, simulate, compare.

Usage (also via ``python -m repro``):

    repro generate --suite msr --preset src1 -n 100000 -o trace.csv
    repro info trace.csv
    repro model trace.csv --k 5 --rate 0.01 -o mrc.csv
    repro sweep trace.csv --ks 1,5,10 --rates none,0.01 -o grid.csv
    repro sweep trace.csv --ks 1,5 --checkpoint sweep.ckpt -o grid.csv
    repro fleet t0.csv.gz t1.npz t2.chunks --ks 1,5 --rates none,0.01 \
        --checkpoint-dir fleet.ckpt --report fleet.json -o grids.csv
    repro simulate trace.csv --policy lru --k 5 --points 10
    repro compare trace.csv --k 5 --points 8
    repro classify trace.csv
    repro lint src benchmarks examples --severity error --format json
    repro serve --data-dir /var/lib/repro --port 8080
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np


def _load_trace(path: str):
    from .workloads import io, stream

    p = Path(path)
    if stream.is_chunked_dir(p):
        return stream.ChunkedTraceReader(p).read_all()
    if p.suffix == ".npz":
        return io.load_npz(p)
    return io.load_csv(p)


def _write_curve(curve, out: str | None) -> None:
    lines = ["size,miss_ratio"]
    lines += [f"{s:.0f},{m:.6f}" for s, m in curve.to_rows()]
    text = "\n".join(lines)
    if out:
        Path(out).write_text(text + "\n")
        print(f"wrote {len(curve)} points to {out}")
    else:
        print(text)


# ----------------------------------------------------------------------
def cmd_generate(args: argparse.Namespace) -> int:
    from .workloads import io, msr, twitter, ycsb

    if args.suite == "msr":
        trace = msr.make_trace(
            args.preset, args.requests, seed=args.seed,
            variable_size=args.variable_size, scale=args.scale,
        )
    elif args.suite == "twitter":
        trace = twitter.make_trace(
            args.preset, args.requests, seed=args.seed,
            variable_size=args.variable_size, scale=args.scale,
        )
    elif args.suite == "ycsb":
        if args.preset.upper() == "C":
            trace = ycsb.workload_c(
                args.objects, args.requests, args.alpha, rng=args.seed
            )
        elif args.preset.upper() == "E":
            n_scans = max(1, args.requests // 500)
            trace = ycsb.workload_e(
                args.objects, n_scans, args.alpha,
                max_scan_length=min(args.objects, 1000), rng=args.seed,
            )
        else:
            print(f"unknown YCSB workload {args.preset!r} (use C or E)",
                  file=sys.stderr)
            return 2
    else:  # pragma: no cover - argparse restricts choices
        return 2

    out = Path(args.output)
    if out.suffix == ".npz":
        io.save_npz(trace, out)
    else:
        io.save_csv(trace, out)
    print(f"wrote {trace.name}: {len(trace)} requests, "
          f"{trace.unique_objects()} objects -> {out}")
    return 0


def cmd_info(args: argparse.Namespace) -> int:
    from .workloads.stats import profile_trace

    trace = _load_trace(args.trace)
    print(f"name            : {trace.name}")
    print(f"requests        : {len(trace)}")
    print(f"distinct objects: {trace.unique_objects()}")
    print(f"footprint       : {trace.footprint_bytes()} bytes")
    print(f"mean object size: {trace.mean_object_size():.1f} bytes")
    print(f"uniform sizes   : {trace.is_uniform_size()}")
    if args.profile:
        for label, value in profile_trace(trace).as_rows():
            print(f"{label:18s}: {value}")
    return 0


def cmd_model(args: argparse.Namespace) -> int:
    from .core.model import model_trace

    trace = _load_trace(args.trace)
    rate = args.rate if args.rate and args.rate < 1.0 else None
    result = model_trace(
        trace,
        k=args.k,
        strategy=args.strategy,
        sampling_rate=rate,
        correction=not args.no_correction,
        track_sizes=args.bytes or None,
        seed=args.seed,
    )
    curve = result.byte_mrc() if args.bytes else result.mrc()
    stats = result.stats
    print(f"# K={args.k} strategy={args.strategy} rate={rate or 1.0} "
          f"sampled={stats.requests_sampled}/{stats.requests_seen} "
          f"swaps/update={stats.mean_swaps_per_update:.1f}",
          file=sys.stderr)
    if args.plot:
        from .analysis.plot import ascii_plot

        print(ascii_plot([curve], x_label=f"cache size ({curve.unit})"))
        return 0
    _write_curve(curve, args.output)
    return 0


def _parse_rates(spec: str) -> list[float | None]:
    """``"none,0.01,0.1"`` -> ``[None, 0.01, 0.1]`` (1.0 also means none)."""
    rates: list[float | None] = []
    for token in spec.split(","):
        token = token.strip().lower()
        if not token:
            continue
        if token in ("none", "full", "1", "1.0"):
            rates.append(None)
        else:
            rates.append(float(token))
    return rates or [None]


def cmd_sweep(args: argparse.Namespace) -> int:
    from .engine import ModelSweep

    trace = _load_trace(args.trace)
    ks = [int(t) for t in args.ks.split(",") if t.strip()]
    strategies = [t.strip() for t in args.strategies.split(",") if t.strip()]
    sweep = ModelSweep.grid(
        ks,
        strategies=strategies,
        sampling_rates=_parse_rates(args.rates),
        correction=not args.no_correction,
        seed=args.seed,
    )
    results = sweep.run(
        trace, max_size=args.max_size, checkpoint=args.checkpoint
    )
    print(
        f"# {len(results)} configs x {len(trace)} requests (seed={args.seed})",
        file=sys.stderr,
    )
    for r in results:
        print(
            f"# {r.config.label():28s} sampled={r.requests_sampled}"
            f"/{r.requests_seen} mr@max={r.miss_ratios[-1]:.4f}",
            file=sys.stderr,
        )
    lines = ["k,strategy,rate,size,miss_ratio"]
    for r in results:
        rate = "" if r.config.sampling_rate is None else f"{r.config.sampling_rate:g}"
        lines += [
            f"{r.config.k},{r.config.strategy},{rate},{s:.0f},{m:.6f}"
            for s, m in zip(r.sizes, r.miss_ratios)
        ]
    text = "\n".join(lines)
    if args.output:
        Path(args.output).write_text(text + "\n")
        print(f"wrote {len(lines) - 1} rows to {args.output}")
    else:
        print(text)
    return 0


def cmd_fleet(args: argparse.Namespace) -> int:
    import json

    from .engine import FleetSweep

    ks = [int(t) for t in args.ks.split(",") if t.strip()]
    strategies = [t.strip() for t in args.strategies.split(",") if t.strip()]
    fleet = FleetSweep.grid(
        ks,
        strategies=strategies,
        sampling_rates=_parse_rates(args.rates),
        correction=not args.no_correction,
        seed=args.seed,
    )
    results, report = fleet.run(
        args.traces,
        checkpoint_dir=args.checkpoint_dir,
        max_workers=args.workers,
        max_size=args.max_size,
        chunk_size=args.chunk_size,
        task_timeout=args.task_timeout,
        retries=args.retries,
        errors=args.errors,
    )
    print(
        f"# {len(args.traces)} traces x {len(fleet)} configs "
        f"(workers={args.workers or 'auto'}, seed={args.seed}, "
        f"chunk={args.chunk_size})",
        file=sys.stderr,
    )
    print(
        f"# run: mode={report.mode} attempts={report.attempts} "
        f"retries={report.retries} timeouts={report.timeouts} "
        f"rebuilds={report.pool_rebuilds} "
        f"degraded={report.degraded_to_serial} "
        f"resumed-traces={report.from_checkpoint} "
        f"wall={report.wall_time:.2f}s",
        file=sys.stderr,
    )
    for r in results:
        print(
            f"# trace {r.index}: {Path(str(args.traces[r.index])).name} "
            f"resumed={r.resumed_cells}/{len(fleet)} cells "
            f"requests={r.results[0].requests_seen if r.results else 0}",
            file=sys.stderr,
        )
    if args.report:
        payload = fleet.fleet_report(results, report)
        Path(args.report).write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote fleet report to {args.report}", file=sys.stderr)
    lines = ["trace,k,strategy,rate,size,miss_ratio"]
    for r in results:
        label = Path(str(args.traces[r.index])).name
        for c in r.results:
            rate = (
                ""
                if c.config.sampling_rate is None
                else f"{c.config.sampling_rate:g}"
            )
            lines += [
                f"{label},{c.config.k},{c.config.strategy},{rate},"
                f"{s:.0f},{m:.6f}"
                for s, m in zip(c.sizes, c.miss_ratios)
            ]
    text = "\n".join(lines)
    if args.output:
        Path(args.output).write_text(text + "\n")
        print(f"wrote {len(lines) - 1} rows to {args.output}")
    else:
        print(text)
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    from .policies.mrc import sampled_policy_mrc

    trace = _load_trace(args.trace)
    curve = sampled_policy_mrc(
        trace, args.policy, k=args.k, n_points=args.points,
        ttl=args.ttl, rng=args.seed,
    )
    _write_curve(curve, args.output)
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    from .core.model import model_trace
    from .mrc.metrics import mean_absolute_error
    from .simulator.sweep import klru_mrc

    trace = _load_trace(args.trace)
    truth = klru_mrc(trace, args.k, n_points=args.points, rng=args.seed)
    pred = model_trace(trace, k=args.k, seed=args.seed).mrc()
    mae = mean_absolute_error(truth, pred)
    print(f"{'size':>12} {'simulated':>10} {'KRR':>10}")
    for s, m in truth.to_rows():
        print(f"{s:12.0f} {m:10.4f} {float(pred(s)):10.4f}")
    print(f"MAE = {mae:.5f}")
    return 0 if mae < args.fail_above else 1


def cmd_lint(args: argparse.Namespace) -> int:
    from .devtools import lint as reprolint

    return reprolint.main(args.lint_args)


def cmd_serve(args: argparse.Namespace) -> int:
    from .service import serve

    return serve(
        host=args.host,
        port=args.port,
        data_dir=args.data_dir,
        port_file=args.port_file,
        grace=args.grace,
        queue_depth=args.queue_depth,
        snapshot_interval=args.snapshot_interval,
        snapshot_every=args.snapshot_every,
        watchdog_timeout=args.watchdog_timeout,
        max_restarts=args.max_restarts,
        shm_threshold=args.shm_threshold,
    )


def cmd_classify(args: argparse.Namespace) -> int:
    from .analysis.classify import classify_trace

    trace = _load_trace(args.trace)
    c = classify_trace(trace, seed=args.seed)
    print(f"{trace.name}: K1<->LRU gap = {c.gap:.4f} -> Type {c.family} "
          f"({'K-sensitive' if c.k_sensitive else 'K-insensitive'})")
    return 0


# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="KRR: model random sampling-based LRU caches (ICPP'21).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="generate a synthetic trace")
    g.add_argument("--suite", choices=["msr", "twitter", "ycsb"], required=True)
    g.add_argument("--preset", required=True,
                   help="msr server / twitter cluster / ycsb workload (C|E)")
    g.add_argument("-n", "--requests", type=int, default=100_000)
    g.add_argument("--objects", type=int, default=10_000,
                   help="object count (ycsb only)")
    g.add_argument("--alpha", type=float, default=0.99, help="zipf skew (ycsb)")
    g.add_argument("--scale", type=float, default=0.25,
                   help="object-count scale (msr/twitter)")
    g.add_argument("--variable-size", action="store_true")
    g.add_argument("--seed", type=int, default=1)
    g.add_argument("-o", "--output", required=True, help=".csv or .npz path")
    g.set_defaults(func=cmd_generate)

    i = sub.add_parser("info", help="print trace statistics")
    i.add_argument("trace")
    i.add_argument("--profile", action="store_true",
                   help="add the structural profile (skew, sequentiality, reuse)")
    i.set_defaults(func=cmd_info)

    m = sub.add_parser("model", help="one-pass KRR MRC prediction")
    m.add_argument("trace")
    m.add_argument("--k", type=int, default=5, help="eviction sampling size")
    m.add_argument("--strategy", choices=["backward", "topdown", "linear"],
                   default="backward")
    m.add_argument("--rate", type=float, default=None,
                   help="spatial sampling rate (omit or 1.0 = no sampling)")
    m.add_argument("--bytes", action="store_true",
                   help="byte-granularity curve (var-KRR)")
    m.add_argument("--no-correction", action="store_true",
                   help="disable the K'=K^1.4 correction")
    m.add_argument("--seed", type=int, default=0)
    m.add_argument("-o", "--output", default=None, help="CSV output path")
    m.add_argument("--plot", action="store_true",
                   help="render an ASCII plot instead of CSV")
    m.set_defaults(func=cmd_model)

    sw = sub.add_parser(
        "sweep", help="grid of KRR configs over one trace, in one pass"
    )
    sw.add_argument("trace")
    sw.add_argument("--ks", default="5", help="comma-separated K values")
    sw.add_argument("--strategies", default="backward",
                    help="comma-separated update strategies")
    sw.add_argument("--rates", default="none",
                    help="comma-separated spatial rates ('none' = unsampled)")
    sw.add_argument("--no-correction", action="store_true",
                    help="disable the K'=K^1.4 correction")
    sw.add_argument("--seed", type=int, default=0,
                    help="sweep seed (per-config seeds derive from it)")
    sw.add_argument("--max-size", type=int, default=None,
                    help="cap the MRC size axis")
    sw.add_argument("--checkpoint", default=None, metavar="PATH",
                    help="JSONL checkpoint: stream finished configs here and "
                         "resume an interrupted sweep by skipping them")
    sw.add_argument("-o", "--output", default=None,
                    help="long-format CSV (k,strategy,rate,size,miss_ratio)")
    sw.set_defaults(func=cmd_sweep)

    fl = sub.add_parser(
        "fleet",
        help="config grid over many traces, streamed out-of-core "
             "(resumable at trace and cell level)",
    )
    fl.add_argument("traces", nargs="+",
                    help="trace sources: .csv, .csv.gz, .npz or a "
                         "save_chunked directory; each is streamed inside "
                         "its worker, never fully materialized")
    fl.add_argument("--ks", default="5", help="comma-separated K values")
    fl.add_argument("--strategies", default="backward",
                    help="comma-separated update strategies")
    fl.add_argument("--rates", default="none",
                    help="comma-separated spatial rates ('none' = unsampled)")
    fl.add_argument("--no-correction", action="store_true",
                    help="disable the K'=K^1.4 correction")
    fl.add_argument("--seed", type=int, default=0,
                    help="fleet seed (per-trace grid seeds and per-cell "
                         "model seeds derive from it by position)")
    fl.add_argument("--workers", type=int, default=None,
                    help="process count (default: min(traces, cpus))")
    fl.add_argument("--max-size", type=int, default=None,
                    help="cap the MRC size axis")
    fl.add_argument("--chunk-size", type=int, default=1 << 20,
                    metavar="ROWS",
                    help="streaming chunk rows per worker (bounds worker "
                         "memory; results are identical for any value; "
                         "default: 1Mi)")
    fl.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                    help="hierarchical checkpoints: a fleet manifest plus "
                         "one JSONL per trace; rerunning with the same "
                         "directory resumes finished traces and, within a "
                         "partially-finished trace, finished grid cells")
    fl.add_argument("--task-timeout", type=float, default=None,
                    metavar="SECONDS",
                    help="kill and retry any trace running longer than this")
    fl.add_argument("--retries", type=int, default=2,
                    help="retry budget per trace for transient worker "
                         "failures and timeouts (default: 2)")
    fl.add_argument("--errors", default="strict",
                    choices=("strict", "skip"),
                    help="malformed-CSV-row handling inside the stream "
                         "readers (default: strict)")
    fl.add_argument("--report", default=None, metavar="PATH",
                    help="write the consolidated fleet report (run stats "
                         "plus per-trace resume counters) as JSON")
    fl.add_argument("-o", "--output", default=None,
                    help="long-format CSV "
                         "(trace,k,strategy,rate,size,miss_ratio)")
    fl.set_defaults(func=cmd_fleet)

    s = sub.add_parser("simulate", help="ground-truth sweep for any policy")
    s.add_argument("trace")
    s.add_argument("--policy", default="lru",
                   help="lru|lfu|hyperbolic|hyperbolic-size|hit-density|fifo")
    s.add_argument("--k", type=int, default=5)
    s.add_argument("--points", type=int, default=10)
    s.add_argument("--ttl", type=int, default=None,
                   help="object TTL in requests")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("-o", "--output", default=None)
    s.set_defaults(func=cmd_simulate)

    c = sub.add_parser("compare", help="KRR vs simulated K-LRU (MAE)")
    c.add_argument("trace")
    c.add_argument("--k", type=int, default=5)
    c.add_argument("--points", type=int, default=8)
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--fail-above", type=float, default=1.0,
                   help="exit nonzero if MAE exceeds this")
    c.set_defaults(func=cmd_compare)

    ln = sub.add_parser(
        "lint",
        help="reprolint: determinism & shm-safety static analysis",
        add_help=False,
    )
    # All arguments pass straight through to repro.devtools.lint.main so the
    # standalone `python -m repro.devtools.lint` and `repro lint` stay one tool.
    ln.add_argument("lint_args", nargs=argparse.REMAINDER)
    ln.set_defaults(func=cmd_lint)

    sv = sub.add_parser(
        "serve",
        help="multi-tenant online-modeling daemon (see docs/SERVICE.md)",
    )
    sv.add_argument("--host", default="127.0.0.1")
    sv.add_argument("--port", type=int, default=0,
                    help="0 binds an ephemeral port (printed on stdout)")
    sv.add_argument("--data-dir", default="repro-service-data",
                    help="tenant registry, WALs and snapshots live here")
    sv.add_argument("--port-file", default=None, metavar="PATH",
                    help="also write the bound port number to this file")
    sv.add_argument("--grace", type=float, default=10.0,
                    help="seconds to wait for workers on graceful shutdown")
    sv.add_argument("--queue-depth", type=int, default=64,
                    help="bounded ingest queue per tenant (full = 429)")
    sv.add_argument("--snapshot-interval", type=float, default=30.0,
                    help="seconds between worker snapshots")
    sv.add_argument("--snapshot-every", type=int, default=None, metavar="N",
                    help="also snapshot every N applied batches")
    sv.add_argument("--watchdog-timeout", type=float, default=10.0,
                    help="seconds before a hung worker is killed")
    sv.add_argument("--max-restarts", type=int, default=5,
                    help="worker deaths tolerated before a tenant is "
                         "marked failed (snapshot-serving mode)")
    sv.add_argument("--shm-threshold", type=int, default=4096,
                    help="batches >= this many requests cross to the worker "
                         "via shared memory instead of the queue")
    sv.set_defaults(func=cmd_serve)

    cl = sub.add_parser("classify", help="Type A/B (K-sensitivity) classification")
    cl.add_argument("trace")
    cl.add_argument("--seed", type=int, default=0)
    cl.set_defaults(func=cmd_classify)

    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # argparse.REMAINDER refuses option-like tokens before the first
    # positional ("repro lint --list-rules"), so lint dispatches directly.
    if argv[:1] == ["lint"]:
        from .devtools import lint as reprolint

        return reprolint.main(argv[1:])
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
