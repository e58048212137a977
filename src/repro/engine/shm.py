"""Shared-memory trace store: map trace columns into workers, don't pickle.

Ground-truth simulation sweeps are embarrassingly parallel, but the
naive ``ProcessPoolExecutor`` recipe serializes the full trace arrays into
every worker — for a 500k-request trace that is ~8 MB pickled per worker,
paid again for every pool.  :class:`SharedTraceStore` instead places the
three trace columns (keys, sizes, ops) in one
:class:`multiprocessing.shared_memory.SharedMemory` block; workers receive
only a tiny picklable :class:`TraceSpec` handle and map the block into
their address space with :class:`AttachedTrace` (zero-copy, read-only by
convention).

Layout of the block for an ``n``-request trace::

    [ keys  : n x int64 ][ sizes : n x int64 ][ ops : n x int8 ]

Users: :func:`repro.simulator.parallel.parallel_klru_mrc` (per-size
simulation workers) and the service daemon's large-batch ingest.

Lifetime contract: the *creator* owns the segment and must call
:meth:`SharedTraceStore.close` (or use it as a context manager) after the
pool has been joined.  Workers are pool children forked/spawned from the
creator, so they share its ``resource_tracker`` process and their attach-
side registration is an idempotent no-op — the segment is unlinked exactly
once, by the creator.

As a backstop for the creator dying mid-sweep, every live store is held in
a process-wide registry drained by an ``atexit`` hook and a chained
``SIGTERM`` handler: a parent killed by its supervisor (or exiting down an
exception path that skips ``close()``) still unlinks its segments instead
of leaking them in ``/dev/shm`` until reboot.  SIGKILL cannot be caught —
for that the OS-level ``resource_tracker`` remains the last line of
defense.
"""

from __future__ import annotations

import atexit
import os
import signal
import threading
import weakref
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Callable, List, Optional, Tuple

import numpy as np

from ..workloads.trace import Trace

__all__ = [
    "AttachedTrace",
    "SharedTraceStore",
    "TraceSpec",
    "on_sigterm",
    "remove_sigterm_callback",
]


# ----------------------------------------------------------------------
# Chained SIGTERM callback registry + guaranteed shm cleanup.
#
# Exactly one master SIGTERM handler is ever installed; it runs every
# registered callback (newest first, so higher layers — e.g. the service
# daemon's graceful shutdown — run before the shm cleanup they depend
# on), then defers to whatever handler was installed before us, or
# re-raises SIGTERM with the default disposition so kill-by-SIGTERM exit
# semantics survive for supervisors.  The shm cleanup below is just the
# first registered callback.
# ----------------------------------------------------------------------
_LIVE_STORES: "weakref.WeakSet[SharedTraceStore]" = weakref.WeakSet()
_CLEANUP_LOCK = threading.Lock()
_CLEANUP_INSTALLED = False
_HANDLER_INSTALLED = False
_SIGTERM_CALLBACKS: List[Callable[[], None]] = []
_PREV_SIGTERM = None


def _cleanup_live_stores() -> None:
    """Close (and thus unlink) every still-open store; never raises."""
    for store in list(_LIVE_STORES):
        try:
            store.close()
        except Exception:  # pragma: no cover - best-effort teardown
            pass


def _sigterm_handler(signum: int, frame: object) -> None:  # pragma: no cover - signal path
    for callback in reversed(list(_SIGTERM_CALLBACKS)):
        try:
            callback()
        except Exception:
            pass  # teardown must keep going
    previous = _PREV_SIGTERM
    if callable(previous):
        previous(signum, frame)
    elif previous is signal.SIG_IGN:
        return
    else:
        # Preserve kill-by-SIGTERM exit semantics for supervisors.
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        os.kill(os.getpid(), signal.SIGTERM)


def on_sigterm(callback: Callable[[], None]) -> Callable[[], None]:
    """Register ``callback`` on the process-wide chained SIGTERM handler.

    Callbacks run newest-first when SIGTERM arrives, after which the
    previously installed handler (or the default kill disposition) takes
    over.  The first registration installs the master handler, capturing
    any pre-existing handler so it still runs.  Forked children inherit
    the handler and the callback list — callbacks that must only act in
    their creating process have to guard on ``os.getpid()`` themselves
    (the shm cleanup does, via each store's owner PID).

    Returns ``callback`` unchanged, so it can be used as a decorator.
    """
    global _HANDLER_INSTALLED, _PREV_SIGTERM
    with _CLEANUP_LOCK:
        if not _HANDLER_INSTALLED:
            try:
                _PREV_SIGTERM = signal.signal(signal.SIGTERM, _sigterm_handler)
            except ValueError:  # pragma: no cover - not the main thread
                _PREV_SIGTERM = None
            _HANDLER_INSTALLED = True
        _SIGTERM_CALLBACKS.append(callback)
    return callback


def remove_sigterm_callback(callback: Callable[[], None]) -> bool:
    """Deregister a callback added by :func:`on_sigterm` (True if found)."""
    with _CLEANUP_LOCK:
        try:
            _SIGTERM_CALLBACKS.remove(callback)
        except ValueError:
            return False
        return True


def _install_cleanup_handlers() -> None:
    global _CLEANUP_INSTALLED
    with _CLEANUP_LOCK:
        if _CLEANUP_INSTALLED:
            return
        atexit.register(_cleanup_live_stores)
        _CLEANUP_INSTALLED = True
    on_sigterm(_cleanup_live_stores)


@dataclass(frozen=True)
class TraceSpec:
    """Picklable handle for a shared-memory resident trace.

    This is all that crosses the process boundary: the OS-level segment
    name, the request count (the layout is a pure function of it), and
    the trace's display name.
    """

    shm_name: str
    n_requests: int
    trace_name: str = "trace"

    @property
    def nbytes(self) -> int:
        """Total block size for this spec's layout."""
        return max(1, self.n_requests * 17)


def _column_views(
    buf: memoryview, n: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(keys, sizes, ops) ndarray views over a shared buffer."""
    keys = np.ndarray((n,), dtype=np.int64, buffer=buf, offset=0)
    sizes = np.ndarray((n,), dtype=np.int64, buffer=buf, offset=8 * n)
    ops = np.ndarray((n,), dtype=np.int8, buffer=buf, offset=16 * n)
    return keys, sizes, ops


class SharedTraceStore:
    """Creator-side owner of a trace's shared-memory block.

    >>> store = SharedTraceStore(trace)        # copies columns in, once
    >>> store.spec                             # ships to workers (tiny)
    >>> store.view()                           # zero-copy Trace in-process
    >>> store.close()                          # release + unlink

    Usable as a context manager; ``close()`` is idempotent.
    """

    def __init__(self, trace: Trace) -> None:
        n = len(trace)
        # Placeholder spec until the segment exists and has a name.
        self.spec = TraceSpec("", n, trace.name)
        self._shm = shared_memory.SharedMemory(
            create=True, size=self.spec.nbytes
        )
        self.spec = TraceSpec(self._shm.name, n, trace.name)
        keys, sizes, ops = _column_views(self._shm.buf, n)
        keys[:] = trace.keys
        sizes[:] = trace.sizes
        ops[:] = trace.ops
        self._views: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = (
            keys,
            sizes,
            ops,
        )
        self._closed = False
        # Forked pool workers inherit this object (and the SIGTERM cleanup
        # handler); only the creating process may unlink the segment.
        self._owner_pid = os.getpid()
        _install_cleanup_handlers()
        _LIVE_STORES.add(self)

    @property
    def n_requests(self) -> int:
        return self.spec.n_requests

    def view(self) -> Trace:
        """Zero-copy :class:`Trace` over the shared block (creator side)."""
        if self._closed or self._views is None:
            raise ValueError("store is closed")
        keys, sizes, ops = self._views
        return Trace(keys, sizes, ops, name=self.spec.trace_name)

    def close(self) -> None:
        """Release the mapping and unlink the segment (idempotent)."""
        if self._closed:
            return
        self._closed = True
        _LIVE_STORES.discard(self)
        self._views = None
        self._shm.close()
        if os.getpid() != self._owner_pid:
            return  # inherited copy in a forked child: never unlink
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already unlinked
            pass

    def __enter__(self) -> "SharedTraceStore":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass


class AttachedTrace:
    """Worker-side zero-copy view of a :class:`SharedTraceStore`.

    Attach once per worker (pool initializer); the columns are ndarray
    views into the shared block, so no trace bytes are pickled or copied.
    ``columns_as_lists()`` additionally caches the one-time ``tolist()``
    conversion for simulators whose hot loops want Python ints (iterating
    an ndarray boxes a NumPy scalar per element, ~10x slower).
    """

    def __init__(self, spec: TraceSpec) -> None:
        self.spec = spec
        self._shm = shared_memory.SharedMemory(name=spec.shm_name)
        self._views: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = (
            _column_views(self._shm.buf, spec.n_requests)
        )
        self._lists: Optional[Tuple[List[int], List[int]]] = None
        self._closed = False

    def _columns(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        if self._views is None:
            raise ValueError("attached trace is closed")
        return self._views

    @property
    def keys(self) -> np.ndarray:
        return self._columns()[0]

    @property
    def sizes(self) -> np.ndarray:
        return self._columns()[1]

    @property
    def ops(self) -> np.ndarray:
        return self._columns()[2]

    def as_trace(self) -> Trace:
        """Zero-copy :class:`Trace` over the attached columns."""
        keys, sizes, ops = self._columns()
        return Trace(keys, sizes, ops, name=self.spec.trace_name)

    def columns_as_lists(self) -> Tuple[List[int], List[int]]:
        """(keys, sizes) as Python lists, converted once and cached."""
        if self._lists is None:
            keys, sizes, _ = self._columns()
            self._lists = (keys.tolist(), sizes.tolist())
        return self._lists

    def close(self) -> None:
        """Release this process's mapping (does not unlink)."""
        if self._closed:
            return
        self._closed = True
        self._views = None
        self._lists = None
        self._shm.close()

    def __enter__(self) -> "AttachedTrace":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
