"""FleetSweep: (trace × config-grid) scheduling at fleet scale.

:class:`~repro.engine.sweep.ModelSweep` evaluates a config grid over one
trace; a capacity-planning fleet asks the same at scale: *hundreds of
traces*, each against the same grid, with any trace too big to
materialize.  Parallelism lives on the trace axis: :class:`FleetSweep`
schedules one resilient task per trace, and each worker runs the
engine's one grid body, :func:`~repro.engine.sweep.run_grid`, over its
trace opened as a bounded-memory
:class:`~repro.workloads.stream.TraceStream` — one streamed
:class:`~repro.core.vkrr.MultiKRR` pass over every cell of the grid,
whatever its strategy or ``track_sizes``.

A path source is identified by its path; an in-memory :class:`Trace` by
its name, length and the CRC32 of its columns.

**Hierarchical checkpoints.**  Under ``checkpoint_dir`` the fleet writes
a ``fleet.json`` manifest (validated on resume: seed, grid, trace list)
plus one per-trace :class:`~repro.engine.checkpoint.SweepCheckpoint`
JSONL file.  Resume works at both levels: traces whose checkpoint holds
every grid row are skipped in the parent without spawning a worker, and
a partially-finished trace re-runs only its missing cells — with
position-correct seeds via ``MultiKRR(seeds=...)``, so the resumed grid
is bit-identical to an uninterrupted run.  A trace's rows reach its
checkpoint when its one pass completes, so a worker that dies mid-pass
leaves none of that pass behind.

**Determinism.**  Per-trace grid seeds spawn from the fleet seed by
trace position, and per-cell seeds spawn from the trace's grid seed by
cell position — the same :func:`~repro.core.vkrr.spawn_seeds` derivation
the rest of the engine uses.  Worker count, scheduling order, chunk size
and crash/resume cannot change any result.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..core.vkrr import _grid_configs, spawn_seeds
from ..workloads.stream import DEFAULT_CHUNK
from ..workloads.trace import Trace
from .checkpoint import CheckpointMismatch, SweepCheckpoint, _fsync_dir
from .faults import maybe_inject
from .plan import trace_fingerprint
from .runner import ResilientRunner, RunReport, resolve_workers
from .sweep import SweepConfig, SweepResult, checkpointed_results, run_grid

__all__ = [
    "FleetSweep",
    "FleetTraceResult",
    "fleet_sweep",
]


MANIFEST_NAME = "fleet.json"
_MANIFEST_KIND = "repro-fleet-manifest"
_MANIFEST_VERSION = 1

#: One fleet worker payload: everything a trace task needs, picklable.
_Payload = Tuple[
    int,  # trace index
    Union[str, Trace],  # source
    Tuple[SweepConfig, ...],
    int,  # per-trace grid seed
    Optional[int],  # max_size
    int,  # chunk_size
    Optional[str],  # per-trace checkpoint path
    Optional[dict],  # per-trace checkpoint signature
    str,  # CSV errors mode
]


@dataclass
class FleetTraceResult:
    """One trace's finished grid: ordered like the fleet's ``configs``."""

    index: int
    source: str
    results: List[SweepResult] = field(default_factory=list)
    resumed_cells: int = 0
    computed_cells: int = 0


def _source_label(source: object) -> str:
    """Stable string identity for a trace source (checkpoint signatures).

    An in-memory trace is identified by its columns' CRC32 as well as its
    name and length; a path source by its path.
    """
    if isinstance(source, Trace):
        return f"<trace:{source.name}:{len(source)}:{trace_fingerprint(source)}>"
    return str(source)


def _fleet_one(payload: _Payload) -> Tuple[int, List[SweepResult], int]:
    """Evaluate one trace's full grid inside a fleet worker.

    Returns ``(trace index, results, cells resumed from the checkpoint)``.
    """
    (
        index,
        source,
        configs,
        grid_seed,
        max_size,
        chunk_size,
        ckpt_path,
        signature,
        errors,
    ) = payload
    maybe_inject(index)
    ckpt: Optional[SweepCheckpoint] = None
    if ckpt_path is not None:
        assert signature is not None
        ckpt = SweepCheckpoint(ckpt_path, signature)
    results, resumed = run_grid(
        source,
        configs,
        spawn_seeds(len(configs), grid_seed),
        max_size,
        ckpt,
        chunk_size,
        errors,
    )
    return index, results, resumed


class FleetSweep:
    """A config grid evaluated against a fleet of traces.

    Parameters
    ----------
    configs:
        The grid applied to *every* trace; build cross-products with
        :meth:`grid`.
    seed:
        Fleet-level seed.  Per-trace grid seeds spawn from it by trace
        position, and per-cell seeds from those by cell position, so
        results are independent of worker count, scheduling, chunking
        and resume.
    """

    def __init__(self, configs: Sequence[SweepConfig], seed: int = 0) -> None:
        self.configs: List[SweepConfig] = list(configs)
        if not self.configs:
            raise ValueError("need at least one SweepConfig")
        self.seed = int(seed)

    @classmethod
    def grid(
        cls,
        ks: Iterable[int],
        strategies: Iterable[str] = ("backward",),
        sampling_rates: Iterable[Optional[float]] = (None,),
        correction: bool = True,
        track_sizes: bool = False,
        seed: int = 0,
    ) -> "FleetSweep":
        """Cross-product grid, same cell order as ``ModelSweep.grid``."""
        configs = _grid_configs(
            ks, strategies, sampling_rates, correction, track_sizes
        )
        return cls(configs, seed=seed)

    def __len__(self) -> int:
        return len(self.configs)

    def trace_seeds(self, n_traces: int) -> List[int]:
        """Per-trace grid seeds, fixed by trace position in the fleet."""
        return spawn_seeds(n_traces, self.seed)

    # ------------------------------------------------------------------
    def run(
        self,
        sources: Sequence[Union[str, Path, Trace]],
        *,
        checkpoint_dir: Union[str, Path, None] = None,
        max_workers: Optional[int] = None,
        max_size: Optional[int] = None,
        chunk_size: int = DEFAULT_CHUNK,
        task_timeout: Optional[float] = None,
        retries: int = 2,
        backoff: float = 0.5,
        max_pool_rebuilds: int = 3,
        errors: str = "strict",
    ) -> Tuple[List[FleetTraceResult], RunReport]:
        """Evaluate the grid against every source; ordered like ``sources``.

        ``sources`` are trace *references* — file paths (``.csv``,
        ``.csv.gz``, ``.npz``, or a ``save_chunked`` directory) or
        in-memory :class:`Trace` objects.  Paths are opened inside each
        worker as bounded-memory streams, so the parent never holds a
        trace and a worker holds at most one chunk's columns (plus model
        state) at a time.

        ``checkpoint_dir`` enables hierarchical resume: a ``fleet.json``
        manifest validated against this fleet's signature, plus one
        JSONL checkpoint per trace.  Fully-checkpointed traces are
        skipped in the parent; partially-finished traces recompute only
        their missing cells.  ``chunk_size``, ``max_workers`` and
        timeout/retry knobs are absent from every signature — they
        cannot change results, so a resume may change them freely.
        """
        sources = list(sources)
        if not sources:
            raise ValueError("need at least one trace source")
        labels = [_source_label(s) for s in sources]
        if len(set(labels)) != len(labels):
            raise ValueError("duplicate trace sources in fleet")
        grid_seeds = self.trace_seeds(len(sources))

        ckpt_dir: Optional[Path] = None
        if checkpoint_dir is not None:
            ckpt_dir = Path(checkpoint_dir)
            ckpt_dir.mkdir(parents=True, exist_ok=True)
            self._ensure_manifest(ckpt_dir, labels, max_size)

        payloads: List[_Payload] = []
        for i, source in enumerate(sources):
            ckpt_path: Optional[str] = None
            signature: Optional[dict] = None
            if ckpt_dir is not None:
                ckpt_path = str(ckpt_dir / f"trace-{i:04d}.jsonl")
                signature = self._trace_signature(i, labels[i], max_size)
            payloads.append(
                (
                    i,
                    str(source) if isinstance(source, Path) else source,
                    tuple(self.configs),
                    grid_seeds[i],
                    max_size,
                    int(chunk_size),
                    ckpt_path,
                    signature,
                    errors,
                )
            )

        # Fleet-level resume: traces whose checkpoint already holds every
        # grid row never reach a worker (so crash-injection latches and
        # retry budgets are not re-spent on finished work).
        completed: Dict[int, Tuple[int, List[SweepResult], int]] = {}
        if ckpt_dir is not None:
            for i, payload in enumerate(payloads):
                assert payload[7] is not None
                ckpt = SweepCheckpoint(Path(payload[6] or ""), payload[7])
                seeds = spawn_seeds(len(self.configs), grid_seeds[i])
                done = checkpointed_results(ckpt, self.configs, seeds)
                if len(done) == len(self.configs):
                    ordered = [done[j] for j in range(len(self.configs))]
                    completed[i] = (i, ordered, len(done))

        runner = ResilientRunner(
            _fleet_one,
            max_workers=resolve_workers(max_workers, len(payloads) - len(completed)),
            task_timeout=task_timeout,
            retries=retries,
            backoff=backoff,
            max_pool_rebuilds=max_pool_rebuilds,
        )
        raw, report = runner.run(payloads, completed=completed)

        results = [
            FleetTraceResult(
                index=index,
                source=labels[index],
                results=trace_results,
                resumed_cells=resumed,
                computed_cells=len(self.configs) - resumed,
            )
            for index, trace_results, resumed in raw
        ]
        return results, report

    # ------------------------------------------------------------------
    def fleet_report(
        self, results: Sequence[FleetTraceResult], report: RunReport
    ) -> Dict[str, Any]:
        """Consolidated JSON-safe fleet report (the ``--report`` artifact)."""
        return {
            "kind": "repro-fleet-report",
            "version": 1,
            "fleet_seed": self.seed,
            "n_traces": len(results),
            "n_configs": len(self.configs),
            "configs": [asdict(c) for c in self.configs],
            "run": report.to_dict(),
            "traces": [
                {
                    "index": r.index,
                    "source": r.source,
                    "resumed_cells": r.resumed_cells,
                    "computed_cells": r.computed_cells,
                    "requests_seen": (
                        r.results[0].requests_seen if r.results else 0
                    ),
                    "final_miss_ratios": [
                        float(c.miss_ratios[-1]) if c.miss_ratios.size else None
                        for c in r.results
                    ],
                }
                for r in results
            ],
        }

    # ------------------------------------------------------------------
    def _signature(self, labels: Sequence[str], max_size: Optional[int]) -> dict:
        return {
            "fleet_seed": self.seed,
            "max_size": max_size,
            "configs": [asdict(c) for c in self.configs],
            "traces": list(labels),
        }

    def _trace_signature(
        self, index: int, label: str, max_size: Optional[int]
    ) -> dict:
        return {
            "fleet_seed": self.seed,
            "max_size": max_size,
            "configs": [asdict(c) for c in self.configs],
            "trace": {"index": index, "source": label},
        }

    def _ensure_manifest(
        self, ckpt_dir: Path, labels: Sequence[str], max_size: Optional[int]
    ) -> None:
        """Create the fleet manifest, or validate an existing one.

        A manifest written by a *different* fleet (other seed, grid,
        trace list or max_size) raises :class:`CheckpointMismatch`
        instead of silently splicing foreign per-trace checkpoints into
        this run's results.
        """
        manifest_path = ckpt_dir / MANIFEST_NAME
        expected = {
            "kind": _MANIFEST_KIND,
            "version": _MANIFEST_VERSION,
            "signature": self._signature(labels, max_size),
        }
        if manifest_path.exists():
            try:
                found = json.loads(manifest_path.read_text())
            except json.JSONDecodeError:
                raise CheckpointMismatch(
                    f"{manifest_path}: unreadable fleet manifest — delete the "
                    "checkpoint directory or point --checkpoint-dir elsewhere"
                )
            if found != expected:
                raise CheckpointMismatch(
                    f"{manifest_path}: checkpoint directory belongs to a "
                    "different fleet (seed, grid, trace list or max_size "
                    "changed) — delete it or point --checkpoint-dir elsewhere"
                )
            return
        tmp = manifest_path.with_suffix(".json.tmp")
        with tmp.open("w") as fh:
            fh.write(json.dumps(expected, indent=2) + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        tmp.replace(manifest_path)
        _fsync_dir(ckpt_dir)


def fleet_sweep(
    sources: Sequence[Union[str, Path, Trace]],
    ks: Iterable[int],
    strategies: Iterable[str] = ("backward",),
    sampling_rates: Iterable[Optional[float]] = (None,),
    seed: int = 0,
    **run_kwargs: Any,
) -> List[FleetTraceResult]:
    """Convenience: build a fleet grid and run it in one call."""
    fleet = FleetSweep.grid(
        ks, strategies=strategies, sampling_rates=sampling_rates, seed=seed
    )
    results, _ = fleet.run(sources, **run_kwargs)
    return results
