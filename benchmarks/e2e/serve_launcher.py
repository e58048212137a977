"""Run ``repro serve`` with per-request spans (the traced serve-ingest run).

Usage: ``python benchmarks/e2e/serve_launcher.py TRACE_JSON -- SERVE_ARGS``
where ``SERVE_ARGS`` are the ``repro serve`` flags the untraced run
passes to ``python -m repro serve``.  The launcher wraps ``Api.__call__``,
``Supervisor.ingest``, ``Supervisor.query`` and ``TenantWAL.append``,
then calls :func:`repro.service.app.serve`.  On SIGTERM the daemon's own
graceful shutdown runs first (callbacks run newest first), then this
process writes its spans to ``TRACE_JSON`` and dies by SIGTERM as usual.
"""

from __future__ import annotations

import os
import sys

from tracing import Tracer, install_service_layers


def main(argv: list) -> int:
    trace_path = argv[0]
    serve_args = argv[argv.index("--") + 1:]

    from repro.cli import build_parser
    from repro.engine.shm import on_sigterm
    from repro.service.app import serve

    args = build_parser().parse_args(["serve", *serve_args])
    tracer = Tracer()
    install_service_layers(tracer)
    owner = os.getpid()

    def dump() -> None:
        # Forked tenant workers inherit this callback; only the daemon dumps.
        if os.getpid() == owner:
            tracer.dump(trace_path, pid=owner)

    on_sigterm(dump)
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


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
