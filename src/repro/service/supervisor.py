"""Worker supervision: one process per tenant, restarts, degradation.

Process model
-------------
The daemon parent owns the HTTP surface, the tenant WALs and the shared
queues; each tenant's model lives in a dedicated worker process::

    parent (HTTP + WAL + supervision)
      ├── inbox  Queue ──►  worker[tenant A]  (WindowedKRRModel + SHARDS)
      │◄── outbox Queue ──      │
      │                         └── snapshots/ (atomic, generational)
      └── wal/ (fsync before every 200)

Durability: an ingest batch is WAL-appended and fsynced *before* the
HTTP 200 — the ack means durable, not applied.  Workers deduplicate by
the batch sequence number (skip ``seq <= applied_seq``), so the same
batch arriving twice (once replayed from the WAL after a crash, once
still sitting in the inherited queue) is applied exactly once.

Backpressure: the inbox queue is bounded.  A full queue (or a pending
parent-side overflow) turns ingest into :class:`Backpressure`, which the
HTTP layer maps to ``429`` + ``Retry-After`` — load is shed at the edge
instead of growing an unbounded buffer in the parent.

Degradation: a dead worker's queries are answered from its latest
snapshot, flagged ``"stale": true`` with the staleness age in seconds —
never a 500.  The supervisor restarts the worker with exponential
backoff; past ``max_restarts`` consecutive failures the tenant is marked
``failed`` and stays in snapshot-serving mode (ingest remains durable in
the WAL and replays on the next daemon start).

Large ingest batches cross the process boundary through a
:class:`~repro.engine.shm.SharedTraceStore` segment instead of the
queue; the parent closes the segment when the worker acks the batch (or
when the worker dies — the WAL still has the data, and a restarted
worker's sequence-number dedup guarantees the stale queue entry is
skipped before it would ever attach).

Named fault points (``REPRO_FAULTS``, see :mod:`repro.engine.faults`):
``ingest`` fires in the parent's ingest path, ``worker`` as the worker
applies a batch, ``snapshot`` just before a snapshot write, ``query``
as the worker answers a query.
"""

from __future__ import annotations

import collections
import multiprocessing
import os
import queue as queue_mod
import signal
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Deque, Dict, List, Optional, Tuple

import numpy as np

from ..baselines.shards import Shards
from ..core.windowed import WindowedKRRModel
from ..engine.faults import maybe_inject
from ..engine.shm import AttachedTrace, SharedTraceStore, TraceSpec
from ..workloads.trace import Trace
from .registry import TenantConfig, TenantRegistry
from .snapshot import SnapshotStore
from .wal import TenantWAL

__all__ = [
    "Backpressure",
    "Supervisor",
    "TenantUnavailable",
]


class Backpressure(RuntimeError):
    """Tenant ingest queue is full; retry after ``retry_after`` seconds."""

    def __init__(self, tenant_id: str, retry_after: float) -> None:
        super().__init__(
            f"tenant {tenant_id!r} ingest queue is full; "
            f"retry after {retry_after:g}s"
        )
        self.tenant_id = tenant_id
        self.retry_after = retry_after


class TenantUnavailable(KeyError):
    """No such tenant is registered."""


# Worker lifecycle states (parent-side view).
_RUNNING = "running"
_RESTARTING = "restarting"
_FAILED = "failed"
_STOPPED = "stopped"

#: How often a query waiting for its answer checks that the worker it
#: asked is still alive.
_QUERY_POLL_S = 0.05


def _curve_payload(
    model: WindowedKRRModel,
    shards: Optional[Shards],
    max_size: Optional[int],
) -> Dict[str, Any]:
    """JSON-safe MRC + counters for one tenant model pair."""
    payload: Dict[str, Any] = {"counters": model.counters()}
    try:
        curve = model.mrc(max_size=max_size)
        payload["mrc"] = {
            "sizes": np.asarray(curve.sizes).tolist(),
            "miss_ratios": np.asarray(curve.miss_ratios, dtype=float).tolist(),
            "unit": curve.unit,
        }
    except ValueError:
        # Nothing sampled yet: an empty curve, not an error.
        payload["mrc"] = {"sizes": [], "miss_ratios": [], "unit": "objects"}
    if shards is not None:
        try:
            sc = shards.mrc(max_size=max_size)
            payload["shards_mrc"] = {
                "sizes": np.asarray(sc.sizes).tolist(),
                "miss_ratios": np.asarray(sc.miss_ratios, dtype=float).tolist(),
                "unit": sc.unit,
            }
        except ValueError:
            payload["shards_mrc"] = {
                "sizes": [], "miss_ratios": [], "unit": "objects"
            }
    return payload


def _checked_batch(keys: List[int], sizes: Optional[List[int]]) -> List[int]:
    """Validate one ingest batch; returns its keys as signed 64-bit ints.

    Keys must lie in [-2^63, 2^64), and sizes, when given, must be
    parallel to them and lie in [0, 2^63).  Keys >= 2^63 map to their
    signed 64-bit value, so the WAL record, the queue message and the
    shared-memory column carry the same integers; the models and SHARDS
    reduce keys mod 2^64 anyway, so no result changes.
    """
    if not keys:
        raise ValueError("empty batch")
    if min(keys) < -(2**63) or max(keys) >= 2**64:
        raise ValueError("keys must be 64-bit integers in [-2^63, 2^64)")
    if sizes is not None:
        if len(sizes) != len(keys):
            raise ValueError(f"{len(sizes)} sizes for {len(keys)} keys")
        if min(sizes) < 0 or max(sizes) >= 2**63:
            raise ValueError("sizes must be integers in [0, 2^63)")
    if max(keys) >= 2**63:
        keys = [key - 2**64 if key >= 2**63 else key for key in keys]
    return keys


# ----------------------------------------------------------------------
# Worker process
# ----------------------------------------------------------------------

def _start_with_sigterm_blocked(
    proc: multiprocessing.process.BaseProcess,
) -> None:
    """Fork ``proc`` with SIGTERM blocked in the calling thread, then
    restore its mask.

    The child inherits the mask, so a ``terminate()`` sent before its
    prologue (:func:`_worker_signals`) has reset SIGTERM stays pending
    instead of reaching the parent's inherited Python-level handler,
    where it is lost once the handler is reset.
    """
    old = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGTERM})
    try:
        proc.start()
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, old)


def _worker_signals() -> None:
    """Worker prologue: die plainly on SIGTERM, ignore SIGINT.

    The parent's chained SIGTERM handler (shm cleanup, daemon shutdown)
    is inherited across fork; a worker must die plainly instead.
    SIGTERM is unblocked only after the reset, so one that arrived
    earlier takes the default action now.
    """
    try:
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except ValueError:  # pragma: no cover - non-main-thread spawn
        pass
    signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGTERM})


def _worker_main(
    tenant_id: str,
    config_dict: Dict[str, Any],
    tenant_dir: str,
    inbox: "multiprocessing.Queue[Any]",
    outbox: "multiprocessing.Queue[Any]",
    snapshot_interval: float,
    snapshot_every: Optional[int],
) -> None:
    """Tenant worker: restore, replay, then drain the inbox forever."""
    _worker_signals()
    config = TenantConfig.from_dict(config_dict)
    root = Path(tenant_dir)
    snapshots = SnapshotStore(root / "snapshots")

    loaded = snapshots.load_latest()
    if loaded is not None:
        _, body = loaded
        model = WindowedKRRModel.from_state(body["model"])
        shards = (
            Shards.from_state(body["shards"])
            if body.get("shards") is not None
            else None
        )
        applied_seq = int(body["applied_seq"])
    else:
        model = config.build_model()
        shards = config.build_shards()
        applied_seq = 0

    # Re-apply every acked batch newer than the snapshot.  Anything still
    # sitting in the (inherited) inbox with seq <= applied_seq afterwards
    # is a duplicate and gets skipped by the dedup check below.
    wal = TenantWAL(root / "wal")
    replayed = 0
    for seq, keys, sizes in wal.replay(applied_seq):
        model.access_many(keys, sizes)
        if shards is not None:
            for i, key in enumerate(keys):
                shards.access(int(key), int(sizes[i]) if sizes else 1)
        applied_seq = seq
        replayed += 1
    wal.close()

    def apply_batch(seq: int, keys: List[int], sizes: Optional[List[int]]) -> int:
        maybe_inject("worker")
        model.access_many(keys, sizes)
        if shards is not None:
            for i, key in enumerate(keys):
                shards.access(int(key), int(sizes[i]) if sizes else 1)
        return seq

    def save_snapshot() -> None:
        maybe_inject("snapshot")
        body = {
            "applied_seq": applied_seq,
            "wall_time": time.time(),
            "model": model.state_dict(),
            "shards": shards.state_dict() if shards is not None else None,
        }
        generation = snapshots.save(body)
        outbox.put(("snapshotted", generation, applied_seq))

    last_snapshot = time.monotonic()
    # Replayed batches are in no snapshot yet: they count toward the
    # cadence, so a restarted worker snapshots them (and the parent can
    # compact its WAL) without waiting for new traffic.
    batches_since_snapshot = replayed
    while True:
        timeout = max(0.05, snapshot_interval - (time.monotonic() - last_snapshot))
        try:
            msg = inbox.get(timeout=min(timeout, 0.25))
        except queue_mod.Empty:
            msg = None
        if msg is not None:
            kind = msg[0]
            if kind == "batch":
                _, seq, keys, sizes = msg
                if seq > applied_seq:
                    applied_seq = apply_batch(seq, keys, sizes)
                    batches_since_snapshot += 1
            elif kind == "shm_batch":
                _, seq, spec = msg
                if seq > applied_seq:
                    with AttachedTrace(spec) as att:
                        keys, sizes = att.columns_as_lists()
                        applied_seq = apply_batch(seq, list(keys), list(sizes))
                    batches_since_snapshot += 1
                outbox.put(("ack", seq))
            elif kind == "query":
                _, req_id, max_size = msg
                maybe_inject("query")
                payload = _curve_payload(model, shards, max_size)
                payload["stale"] = False
                payload["applied_seq"] = applied_seq
                outbox.put(("query_result", req_id, payload))
            elif kind == "stop":
                save_snapshot()
                outbox.put(("stopped", applied_seq))
                return
        due = (
            time.monotonic() - last_snapshot >= snapshot_interval
            or (snapshot_every is not None
                and batches_since_snapshot >= snapshot_every)
        )
        if due and batches_since_snapshot > 0:
            save_snapshot()
            last_snapshot = time.monotonic()
            batches_since_snapshot = 0


# ----------------------------------------------------------------------
# Parent-side tenant handle
# ----------------------------------------------------------------------

@dataclass
class _Tenant:
    config: TenantConfig
    root: Path
    wal: TenantWAL
    snapshots: SnapshotStore
    inbox: Any
    outbox: Any
    proc: Optional[multiprocessing.process.BaseProcess] = None
    pump: Optional[threading.Thread] = None
    state: str = _RESTARTING
    restarts: int = 0
    restart_at: float = 0.0
    applied_seq: int = 0
    #: WAL-acked puts that found the queue momentarily full; retried by
    #: the supervision loop.  Non-empty overflow => 429 on new ingest.
    overflow: Deque[Tuple[str, ...]] = field(default_factory=collections.deque)
    pending_shm: Dict[int, SharedTraceStore] = field(default_factory=dict)
    responses: Dict[int, Dict[str, Any]] = field(default_factory=dict)
    resp_cv: threading.Condition = field(default_factory=threading.Condition)
    next_req_id: int = 0
    #: Memoized (generation, body) of the newest verified snapshot, so a
    #: burst of stale queries does not re-read and re-verify per request.
    snapshot_cache: Optional[Tuple[int, Dict[str, Any]]] = None
    lock: threading.RLock = field(default_factory=threading.RLock)

    def alive(self) -> bool:
        return self.proc is not None and self.proc.is_alive()


class Supervisor:
    """Parent-side owner of all tenant workers and their durability state.

    Parameters
    ----------
    registry:
        The durable tenant list; every registered tenant gets a worker.
    queue_depth:
        Inbox bound per tenant (batches, not requests).
    snapshot_interval / snapshot_every:
        Workers snapshot after this many seconds *or* this many applied
        batches, whichever comes first.
    watchdog_timeout:
        Seconds a live query may take before the worker is declared hung
        and killed (the query is then answered from the snapshot, stale).
    max_restarts:
        Consecutive worker deaths tolerated before the tenant is marked
        ``failed`` (a clean restart resets the count... it does not: the
        count is per daemon lifetime, deliberately — a crash-looping
        tenant should degrade, not flap forever).
    restart_backoff:
        Base delay before the first restart; doubles per consecutive
        death, capped at 30s.
    shm_threshold:
        Batches with at least this many requests ship via shared memory
        instead of the queue.
    """

    def __init__(
        self,
        registry: TenantRegistry,
        queue_depth: int = 64,
        snapshot_interval: float = 30.0,
        snapshot_every: Optional[int] = None,
        watchdog_timeout: float = 10.0,
        max_restarts: int = 5,
        restart_backoff: float = 0.25,
        retry_after: float = 1.0,
        shm_threshold: int = 4096,
    ) -> None:
        self.registry = registry
        self.queue_depth = int(queue_depth)
        self.snapshot_interval = float(snapshot_interval)
        self.snapshot_every = snapshot_every
        self.watchdog_timeout = float(watchdog_timeout)
        self.max_restarts = int(max_restarts)
        self.restart_backoff = float(restart_backoff)
        self.retry_after = float(retry_after)
        self.shm_threshold = int(shm_threshold)
        self._ctx = multiprocessing.get_context("fork")
        self._tenants: Dict[str, _Tenant] = {}
        self._tenants_lock = threading.Lock()
        self._stopping = threading.Event()
        self._loop_thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Spin up a worker per registered tenant + the supervision loop."""
        for config in self.registry.list():
            self._add_tenant_locked(config)
        self._loop_thread = threading.Thread(
            target=self._supervise_loop, name="repro-supervise", daemon=True
        )
        self._loop_thread.start()

    def stop(self, grace: float = 10.0) -> None:
        """Graceful shutdown: snapshot every worker, then reap them."""
        self._stopping.set()
        if self._loop_thread is not None:
            self._loop_thread.join(timeout=grace)
        with self._tenants_lock:
            tenants = list(self._tenants.values())
        for t in tenants:
            with t.lock:
                t.state = _STOPPED
                if t.alive():
                    try:
                        t.inbox.put_nowait(("stop",))
                    except queue_mod.Full:
                        pass
        deadline = time.monotonic() + grace
        for t in tenants:
            if t.proc is not None:
                t.proc.join(timeout=max(0.1, deadline - time.monotonic()))
                if t.proc.is_alive():
                    t.proc.terminate()
                    t.proc.join(timeout=2.0)
        for t in tenants:
            self._drain_outbox(t)
            for store in list(t.pending_shm.values()):
                store.close()
            t.pending_shm.clear()
            self._compact(t)
            t.wal.close()

    # ------------------------------------------------------------------
    # Tenant management
    # ------------------------------------------------------------------
    def add_tenant(self, config: TenantConfig) -> None:
        """Register + start a new tenant (persists to the registry).

        The tenant's model and baseline are built once first, so a
        configuration no worker could build raises ``ValueError`` here,
        before anything is persisted or forked.
        """
        config.build_model()
        config.build_shards()
        self.registry.add(config)
        self._add_tenant_locked(config)

    def remove_tenant(self, tenant_id: str) -> None:
        """Stop and deregister a tenant (its on-disk state is kept)."""
        config = self.registry.remove(tenant_id)
        del config
        with self._tenants_lock:
            t = self._tenants.pop(tenant_id, None)
        if t is None:
            return
        with t.lock:
            t.state = _STOPPED
        if t.alive():
            try:
                t.inbox.put_nowait(("stop",))
            except queue_mod.Full:
                t.proc.terminate()  # type: ignore[union-attr]
        if t.proc is not None:
            t.proc.join(timeout=5.0)
            if t.proc.is_alive():
                t.proc.terminate()
                t.proc.join(timeout=2.0)
        for store in list(t.pending_shm.values()):
            store.close()
        t.pending_shm.clear()
        t.wal.close()

    def _add_tenant_locked(self, config: TenantConfig) -> None:
        root = self.registry.tenant_dir(config.tenant_id)
        t = _Tenant(
            config=config,
            root=root,
            wal=TenantWAL(root / "wal"),
            snapshots=SnapshotStore(root / "snapshots"),
            inbox=self._ctx.Queue(maxsize=self.queue_depth),
            outbox=self._ctx.Queue(),
        )
        t.applied_seq = 0
        with self._tenants_lock:
            if config.tenant_id in self._tenants:
                raise KeyError(f"tenant {config.tenant_id!r} already running")
            self._tenants[config.tenant_id] = t
        self._start_worker(t)
        t.pump = threading.Thread(
            target=self._pump_outbox,
            args=(t,),
            name=f"repro-pump-{config.tenant_id}",
            daemon=True,
        )
        t.pump.start()

    def _tenant(self, tenant_id: str) -> _Tenant:
        with self._tenants_lock:
            try:
                return self._tenants[tenant_id]
            except KeyError:
                raise TenantUnavailable(tenant_id) from None

    # ------------------------------------------------------------------
    # Worker lifecycle
    # ------------------------------------------------------------------
    def _start_worker(self, t: _Tenant) -> None:
        # Fork workers with the shm resource tracker already running, so
        # their attach-side registrations land in the *shared* tracker
        # (idempotent no-op) instead of each worker spawning a private
        # tracker that warns about "leaked" segments it never owned.
        from multiprocessing import resource_tracker

        resource_tracker.ensure_running()
        proc = self._ctx.Process(
            target=_worker_main,
            args=(
                t.config.tenant_id,
                t.config.to_dict(),
                str(t.root),
                t.inbox,
                t.outbox,
                self.snapshot_interval,
                self.snapshot_every,
            ),
            name=f"repro-tenant-{t.config.tenant_id}",
            daemon=True,
        )
        _start_with_sigterm_blocked(proc)
        with t.lock:
            t.proc = proc
            t.state = _RUNNING

    def _on_worker_death(self, t: _Tenant) -> None:
        """Schedule a restart (or mark failed); release in-flight shm."""
        with t.lock:
            if t.state in (_STOPPED, _FAILED):
                return
            t.restarts += 1
            # WAL replay covers every acked batch, and the seq dedup in
            # the restarted worker skips the stale queue copies before
            # they would attach — so pending segments can be released now.
            for store in list(t.pending_shm.values()):
                store.close()
            t.pending_shm.clear()
            # A SIGKILLed worker can die *holding the queue's shared
            # reader lock* (Queue.get holds it while polling), which
            # would deadlock any successor on the same queue.  Each
            # generation therefore gets fresh queues; everything the dead
            # queue still held is in the WAL and replays on restart.
            for q in (t.inbox, t.outbox):
                try:
                    q.close()
                    q.cancel_join_thread()
                except (OSError, ValueError):  # pragma: no cover
                    pass
            t.inbox = self._ctx.Queue(maxsize=self.queue_depth)
            t.outbox = self._ctx.Queue()
            t.overflow.clear()  # WAL-acked; the replay re-applies them
            if t.restarts > self.max_restarts:
                t.state = _FAILED
                return
            backoff = min(
                30.0, self.restart_backoff * (2 ** (t.restarts - 1))
            )
            t.state = _RESTARTING
            t.restart_at = time.monotonic() + backoff

    def _supervise_loop(self) -> None:
        """Liveness polling, restart scheduling, overflow retry."""
        while not self._stopping.wait(timeout=0.1):
            with self._tenants_lock:
                tenants = list(self._tenants.values())
            for t in tenants:
                with t.lock:
                    state = t.state
                if state == _RUNNING and not t.alive():
                    self._on_worker_death(t)
                elif state == _RESTARTING and time.monotonic() >= t.restart_at:
                    self._start_worker(t)
                # Retry WAL-acked batches that found the queue full.
                while t.overflow:
                    try:
                        t.inbox.put_nowait(t.overflow[0])
                    except queue_mod.Full:
                        break
                    t.overflow.popleft()

    # ------------------------------------------------------------------
    # Outbox pump (one daemon thread per tenant, survives restarts)
    # ------------------------------------------------------------------
    def _pump_outbox(self, t: _Tenant) -> None:
        while not self._stopping.is_set():
            outbox = t.outbox  # re-read: restarts swap in fresh queues
            try:
                msg = outbox.get(timeout=0.25)
            except queue_mod.Empty:
                continue
            except (OSError, ValueError):
                # The queue we were blocked on was closed by a restart;
                # loop around and pick up the replacement.
                time.sleep(0.05)
                continue
            self._dispatch(t, msg)

    def _drain_outbox(self, t: _Tenant) -> None:
        while True:
            try:
                msg = t.outbox.get_nowait()
            except (queue_mod.Empty, OSError, ValueError):
                return
            self._dispatch(t, msg)

    def _dispatch(self, t: _Tenant, msg: Tuple[Any, ...]) -> None:
        kind = msg[0]
        if kind == "query_result":
            _, req_id, payload = msg
            with t.resp_cv:
                t.responses[req_id] = payload
                t.resp_cv.notify_all()
        elif kind == "ack":
            _, seq = msg
            store = t.pending_shm.pop(int(seq), None)
            if store is not None:
                store.close()
        elif kind in ("snapshotted", "stopped"):
            if kind == "snapshotted":
                _, _generation, applied_seq = msg
            else:
                _, applied_seq = msg
            with t.lock:
                t.applied_seq = max(t.applied_seq, int(applied_seq))
                t.snapshot_cache = None  # newer generation exists on disk
            self._compact(t)

    def _compact(self, t: _Tenant) -> None:
        with t.lock:
            through = t.applied_seq
        if through > 0:
            try:
                t.wal.compact(through)
            except OSError:  # pragma: no cover - best effort
                pass

    # ------------------------------------------------------------------
    # Ingest (parent side; ack == durable)
    # ------------------------------------------------------------------
    def ingest(
        self,
        tenant_id: str,
        keys: List[int],
        sizes: Optional[List[int]] = None,
    ) -> int:
        """Durably accept one batch; returns its sequence number.

        Raises :class:`Backpressure` when the tenant's queue is full (or
        earlier accepted batches are still waiting for queue space) and
        :class:`TenantUnavailable` for an unknown tenant.  A batch is
        acked only after its WAL append has been fsynced.  A batch no
        worker could apply raises ``ValueError`` before that append (see
        :func:`_checked_batch`): once durable, it would be replayed into
        every restarted worker.
        """
        t = self._tenant(tenant_id)
        maybe_inject("ingest")
        keys = _checked_batch(keys, sizes)
        with t.lock:
            if t.overflow or t.inbox.full():
                raise Backpressure(tenant_id, self.retry_after)
            seq = t.wal.next_seq()
            t.wal.append(seq, keys, sizes)  # fsync: the ack is now earned
            if t.state == _FAILED:
                return seq  # durable; will replay on the next daemon start
            if len(keys) >= self.shm_threshold:
                msg = self._shm_message(t, seq, keys, sizes)
            else:
                msg = ("batch", seq, list(keys), list(sizes) if sizes else None)
            try:
                t.inbox.put_nowait(msg)
            except queue_mod.Full:
                # Durable but momentarily unqueueable (a race with other
                # producers): park it; the supervise loop retries and new
                # ingest sees 429 until the overflow drains.
                t.overflow.append(msg)
        return seq

    def _shm_message(
        self, t: _Tenant, seq: int, keys: List[int], sizes: Optional[List[int]]
    ) -> Tuple[Any, ...]:
        n = len(keys)
        trace = Trace(
            np.asarray(keys, dtype=np.int64),
            np.asarray(sizes, dtype=np.int64)
            if sizes is not None
            else np.ones(n, dtype=np.int64),
            np.zeros(n, dtype=np.int8),
            name=f"ingest-{t.config.tenant_id}-{seq}",
        )
        store = SharedTraceStore(trace)
        t.pending_shm[seq] = store
        return ("shm_batch", seq, store.spec)

    # ------------------------------------------------------------------
    # Queries (live when possible, snapshot + stale flag when not)
    # ------------------------------------------------------------------
    def query(
        self, tenant_id: str, max_size: Optional[int] = None
    ) -> Dict[str, Any]:
        """The tenant's current MRC + counters.

        A healthy worker answers live.  A dead, restarting, failed or
        *hung* worker (watchdog timeout) is answered from the newest
        verified snapshot with ``"stale": true`` and the snapshot's age;
        a hung worker is additionally killed so the supervision loop can
        restart it.
        """
        t = self._tenant(tenant_id)
        with t.lock:
            live = t.state == _RUNNING and t.alive()
            proc = t.proc
            if live:
                req_id = t.next_req_id = t.next_req_id + 1
        if live:
            try:
                t.inbox.put_nowait(("query", req_id, max_size))
            except queue_mod.Full:
                return self._stale_payload(t)
            payload = self._await_response(t, req_id, proc)
            if payload is not None:
                return payload
            # The worker died, or the watchdog tripped: it accepted work
            # but never answered.  Kill a hung one (only the process we
            # actually asked — not a fresh replacement); supervision
            # restarts with backoff.
            if proc is not None and proc.is_alive():
                proc.terminate()
        return self._stale_payload(t)

    def _await_response(
        self,
        t: _Tenant,
        req_id: int,
        proc: Optional[multiprocessing.process.BaseProcess],
    ) -> Optional[Dict[str, Any]]:
        """The answer to query ``req_id``, or None once the watchdog runs
        out or ``proc``, the worker asked, has died without answering."""
        deadline = time.monotonic() + self.watchdog_timeout
        with t.resp_cv:
            while req_id not in t.responses:
                remaining = deadline - time.monotonic()
                if remaining <= 0 or proc is None or not proc.is_alive():
                    return None
                t.resp_cv.wait(timeout=min(remaining, _QUERY_POLL_S))
            return t.responses.pop(req_id)

    def _stale_payload(self, t: _Tenant) -> Dict[str, Any]:
        with t.lock:
            cached = t.snapshot_cache
        if cached is None:
            loaded = t.snapshots.load_latest()
            if loaded is not None:
                with t.lock:
                    t.snapshot_cache = loaded
            cached = loaded
        if cached is None:
            # Never snapshotted: answer from an empty model of the same
            # configuration rather than 500ing.
            payload = _curve_payload(t.config.build_model(), None, None)
            payload.update(
                stale=True, staleness_seconds=None, applied_seq=0
            )
            return payload
        _, body = cached
        model = WindowedKRRModel.from_state(body["model"])
        shards = (
            Shards.from_state(body["shards"])
            if body.get("shards") is not None
            else None
        )
        payload = _curve_payload(model, shards, None)
        payload.update(
            stale=True,
            staleness_seconds=max(0.0, time.time() - float(body["wall_time"])),
            applied_seq=int(body["applied_seq"]),
        )
        return payload

    # ------------------------------------------------------------------
    def health(self) -> Dict[str, Any]:
        """Daemon + per-tenant health for ``GET /health``."""
        with self._tenants_lock:
            tenants = dict(self._tenants)
        out: Dict[str, Any] = {"tenants": {}}
        for tenant_id, t in tenants.items():
            with t.lock:
                out["tenants"][tenant_id] = {
                    "state": t.state,
                    "alive": t.alive(),
                    "restarts": t.restarts,
                    "last_acked_seq": t.wal.last_seq,
                    "applied_seq": t.applied_seq,
                    "overflow": len(t.overflow),
                    "pending_shm": len(t.pending_shm),
                }
        return out
