"""repro.engine — grid sweeps, fleet scheduling and their fault tolerance.

Seven pieces:

* :mod:`repro.engine.plan` — :func:`trace_fingerprint`, the CRC32
  trace identity behind checkpoint signatures, and
  :class:`StreamingTracePlan`: a streamed grid pass's per-chunk
  preparation (first-seen key interning, hash columns shared by every
  cell's sampling mask).
* :mod:`repro.engine.sweep` — :class:`ModelSweep`: a grid of
  (K, strategy, sampling-rate) KRR configurations over one trace,
  evaluated in-process by :func:`~repro.engine.sweep.run_grid` — one
  streamed :class:`~repro.core.vkrr.MultiKRR` pass over every cell —
  with per-configuration seeds derived up front and JSONL
  checkpoint/resume via :class:`SweepCheckpoint`.
* :mod:`repro.engine.fleet` — :class:`FleetSweep`: many traces × one
  config grid, one resilient worker task per trace running the same
  ``run_grid`` body out-of-core, with hierarchical (fleet-manifest +
  per-trace JSONL) checkpoints resumable at both the trace and grid-cell
  level.
* :mod:`repro.engine.checkpoint` — :class:`SweepCheckpoint`: the
  append-only, fsynced JSONL row store behind both resumes.
* :mod:`repro.engine.runner` — :class:`ResilientRunner`: per-task
  timeouts, bounded retries with backoff, automatic pool rebuild on
  worker death, graceful degradation to serial execution, and a
  structured :class:`RunReport` for every run.
* :mod:`repro.engine.shm` — :class:`SharedTraceStore` /
  :class:`AttachedTrace`: trace columns mapped into worker processes via
  ``multiprocessing.shared_memory`` instead of being pickled per worker,
  with an atexit/SIGTERM registry that unlinks segments even when the
  parent dies mid-run.
* :mod:`repro.engine.faults` — deterministic fault injection
  (``REPRO_FAULTS``) used by the tests to prove every recovery path.

The ground-truth simulation sweep (:func:`repro.simulator.parallel_klru_mrc`)
runs on the shared-memory store and the resilient runner.
"""

from .checkpoint import CheckpointMismatch, SweepCheckpoint
from .faults import FaultPlan, maybe_inject
from .fleet import FleetSweep, FleetTraceResult, fleet_sweep
from .plan import StreamingTracePlan, trace_fingerprint
from .runner import (
    ResilientRunner,
    RunReport,
    TaskFailedError,
    TaskReport,
    TransientTaskError,
)
from .shm import (
    AttachedTrace,
    SharedTraceStore,
    TraceSpec,
    on_sigterm,
    remove_sigterm_callback,
)
from .sweep import ModelSweep, SweepConfig, SweepResult, model_sweep

__all__ = [
    "AttachedTrace",
    "CheckpointMismatch",
    "FaultPlan",
    "FleetSweep",
    "FleetTraceResult",
    "ModelSweep",
    "ResilientRunner",
    "RunReport",
    "SharedTraceStore",
    "SweepCheckpoint",
    "StreamingTracePlan",
    "SweepConfig",
    "SweepResult",
    "TaskFailedError",
    "TaskReport",
    "TraceSpec",
    "TransientTaskError",
    "fleet_sweep",
    "maybe_inject",
    "model_sweep",
    "on_sigterm",
    "remove_sigterm_callback",
    "trace_fingerprint",
]
