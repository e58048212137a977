"""Span recorder for the benchmark's traced runs (``--trace 1``).

Nothing here touches ``src/``: :meth:`Tracer.install` replaces a public
function or method *at the attribute its caller looks it up on* (a class
attribute for methods, the importing module's global for functions such
as ``repro.core.model.from_distance_histogram``) with a wrapper that
records a span, and :meth:`Tracer.uninstall` puts the originals back, so
traced and untraced rounds can alternate inside one process.

Each span has a layer name, start and end (``perf_counter_ns``), the
span that caused it and the top-level span it belongs to (one id per
request or round).  Self time is the span's duration minus the time its
child spans cover.  Spans of coarse calls are kept in memory; per-op
calls (a cache ``get``, one eviction) are only folded into per-layer
count/total/self accumulators, so tracing millions of ops stays bounded.
Everything is written out once, by :meth:`Tracer.dump`, at the end.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple

perf_ns = time.perf_counter_ns

#: ``counts(args, result, before) -> {counter: increment}``
CountFn = Callable[[tuple, Any, Any], Dict[str, float]]


class _ThreadState(threading.local):
    def __init__(self) -> None:
        # Open frames: [layer, start_ns, child_ns, kept_index, root_index]
        self.stack: List[list] = []
        self.totals: Optional[Dict[str, List[int]]] = None
        self.counters: Optional[Dict[str, float]] = None


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self) -> None:
        self.spans: List[list] = []  # [layer, start, end, parent, root, self]
        self._local = _ThreadState()
        self._registry: List[Tuple[Dict[str, List[int]], Dict[str, float]]] = []
        self._registry_lock = threading.Lock()
        self._patches: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    def _thread(self) -> _ThreadState:
        local = self._local
        if local.totals is None:
            local.totals = defaultdict(lambda: [0, 0, 0])
            local.counters = defaultdict(float)
            with self._registry_lock:
                self._registry.append((local.totals, local.counters))
        return local

    def _enter(self, layer: str, keep: bool) -> list:
        local = self._thread()
        stack = local.stack
        parent = stack[-1] if stack else None
        index = -1
        root = parent[4] if parent is not None else -1
        if keep:
            index = len(self.spans)
            parent_index = parent[3] if parent is not None else -1
            if root < 0:
                root = index
            self.spans.append([layer, 0, 0, parent_index, root, 0])
        frame = [layer, perf_ns(), 0, index, root]
        stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        end = perf_ns()
        local = self._local
        local.stack.pop()
        duration = end - frame[1]
        self_ns = duration - frame[2]
        if local.stack:
            local.stack[-1][2] += duration
        else:
            local.counters["trace.top_level_ns"] += duration  # type: ignore[index]
        acc = local.totals[frame[0]]  # type: ignore[index]
        acc[0] += 1
        acc[1] += duration
        acc[2] += self_ns
        if frame[3] >= 0:
            span = self.spans[frame[3]]
            span[1] = frame[1]
            span[2] = end
            span[5] = self_ns

    def count(self, name: str, value: float) -> None:
        """Add ``value`` to a named counter (e.g. rows decoded)."""
        self._thread().counters[name] += value  # type: ignore[index]

    # ------------------------------------------------------------------
    @contextmanager
    def span(self, layer: str) -> Iterator[None]:
        """Record one span around a block of the benchmark's own code."""
        frame = self._enter(layer, True)
        try:
            yield
        finally:
            self._exit(frame)

    def iterate(self, iterable: Iterable[Any], layer: str,
                rows: Optional[str] = None) -> Iterator[Any]:
        """Yield from ``iterable``, timing each ``next()`` as a ``layer`` span
        (the decode time of a trace stream); ``rows`` counts ``len(item)``."""
        it = iter(iterable)
        while True:
            frame = self._enter(layer, True)
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                self._exit(frame)
            if rows is not None:
                self.count(rows, len(item))
            yield item

    def install(
        self,
        owner: Any,
        attr: str,
        layer: str,
        *,
        per_op: bool = False,
        counts: Optional[CountFn] = None,
        before: Optional[Callable[[tuple], Any]] = None,
        inline_under: Iterable[str] = (),
    ) -> None:
        """Wrap ``owner.attr`` so every call records a ``layer`` span.

        ``per_op`` spans are aggregated only (not kept).  ``counts`` turns
        a finished call into counter increments; ``before(args)`` is
        evaluated first and passed to it (for before/after deltas).  A
        call made while a span of a layer in ``inline_under`` is open is
        left to that span (``SpatialSampler.filter_indices`` calls
        ``mask``; that time is filtering, not the cache prefilter).
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        inline = frozenset(inline_under)
        keep = not per_op
        tracer = self

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if inline:
                stack = tracer._local.stack
                if stack and stack[-1][0] in inline:
                    return original(*args, **kwargs)
            snapshot = before(args) if before is not None else None
            frame = tracer._enter(layer, keep)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._exit(frame)
            if counts is not None:
                local = tracer._local
                for name, value in counts(args, result, snapshot).items():
                    local.counters[name] += value  # type: ignore[index]
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        """Restore every wrapped attribute (newest first)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    def totals(self) -> Dict[str, Dict[str, float]]:
        """Per-layer ``{"count", "total_s", "self_s"}`` over all threads."""
        merged: Dict[str, List[int]] = defaultdict(lambda: [0, 0, 0])
        with self._registry_lock:
            registry = list(self._registry)
        for per_thread, _ in registry:
            for layer, (n, total, own) in list(per_thread.items()):
                acc = merged[layer]
                acc[0] += n
                acc[1] += total
                acc[2] += own
        return {
            layer: {"count": n, "total_s": total / 1e9, "self_s": own / 1e9}
            for layer, (n, total, own) in sorted(merged.items())
        }

    def counters(self) -> Dict[str, float]:
        merged: Dict[str, float] = defaultdict(float)
        with self._registry_lock:
            registry = list(self._registry)
        for _, per_thread in registry:
            for name, value in list(per_thread.items()):
                merged[name] += value
        return dict(sorted(merged.items()))

    def top_level_ns(self) -> int:
        """Summed duration of spans opened with no span around them."""
        return int(self.counters().get("trace.top_level_ns", 0))

    def dump(self, path: "Path | str", **extra: Any) -> None:
        """Write spans, per-layer totals and counters as one JSON file."""
        doc = {
            "fields": ["layer", "start_ns", "end_ns", "parent", "root", "self_ns"],
            "spans": self.spans,
            "totals": self.totals(),
            "counters": self.counters(),
            **extra,
        }
        path = Path(path)
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_text(json.dumps(doc))
        tmp.replace(path)


# ----------------------------------------------------------------------
# The layers: which public function each layer's span wraps.
# ----------------------------------------------------------------------

def _kept(args: tuple, result: Any, before: Any) -> Dict[str, float]:
    """Spatial filter usefulness: requests kept / requests offered."""
    keys = args[1]
    if hasattr(result, "dtype") and result.dtype == bool:
        kept = int(result.sum())
    else:
        kept = len(result)
    return {"sampling.spatial.offered": len(keys), "sampling.spatial.kept": kept}


def _stack_before(args: tuple) -> Tuple[int, int]:
    return args[0].updates, args[0].total_swaps


def _stack_delta(prefix: str) -> CountFn:
    def counts(args: tuple, result: Any, before: Any) -> Dict[str, float]:
        stack = args[0]
        return {
            f"{prefix}.updates": stack.updates - before[0],
            f"{prefix}.swaps": stack.total_swaps - before[1],
        }
    return counts


def _one_call(name: str) -> CountFn:
    def counts(args: tuple, result: Any, before: Any) -> Dict[str, float]:
        return {name: 1}
    return counts


def install_model_layers(tracer: Tracer) -> None:
    """Spans for the modeling pipeline (sampling, stacks, histogram, MRC)."""
    import repro.core.model as model_mod
    import repro.core.vkrr as vkrr_mod
    from repro.core.krr import KRRStack
    from repro.core.windowed import WindowedKRRModel
    from repro.engine.plan import StreamingTracePlan
    from repro.sampling.spatial import SpatialSampler
    from repro.stack.histogram import DistanceHistogram
    from repro.stack.soa import SoAKRRStack

    filt = "sampling.spatial.filter"
    tracer.install(SpatialSampler, "filter_indices", filt, counts=_kept)
    tracer.install(StreamingTracePlan, "chunk_sample_mask", filt, counts=_kept)
    tracer.install(SpatialSampler, "mask", "sampling.spatial.mask",
                   counts=_kept, inline_under=(filt,))
    tracer.install(StreamingTracePlan, "intern", "engine.plan.intern")
    soa = _stack_delta("stack.soa")
    for attr in ("access_many", "access_many_interned"):
        tracer.install(SoAKRRStack, attr, "stack.soa.update",
                       before=_stack_before, counts=soa)
    tracer.install(KRRStack, "access_many", "core.krr.update",
                   before=_stack_before, counts=_stack_delta("core.krr"))
    tracer.install(DistanceHistogram, "record_many", "stack.histogram.record")
    tracer.install(model_mod, "from_distance_histogram", "mrc.curve.build")
    tracer.install(vkrr_mod, "from_distance_histogram", "mrc.curve.build")
    for attr in ("process", "access_many", "mrc"):
        tracer.install(model_mod.KRRModel, attr, "core.model")
    tracer.install(vkrr_mod.MultiKRR, "run", "core.vkrr")
    tracer.install(WindowedKRRModel, "access_many", "core.windowed.feed",
                   counts=_one_call("core.windowed.feed_calls"))


def install_cache_layers(tracer: Tracer) -> None:
    """Per-op spans for the embedded cache (lock, dicts, eviction)."""
    import repro.cache.lru as lru_mod

    for attr in ("get", "put"):
        tracer.install(lru_mod.SamplingLRUCache, attr, "cache.lru", per_op=True)
    tracer.install(lru_mod.SamplingLRUCache, "mrc", "cache.lru")
    tracer.install(lru_mod, "select_victim", "cache.eviction.select",
                   per_op=True, counts=_one_call("cache.eviction.calls"))


def install_service_layers(tracer: Tracer) -> None:
    """Per-request spans inside the daemon: HTTP, ingest, WAL, query."""
    from repro.service.handlers import Api
    from repro.service.supervisor import Supervisor
    from repro.service.wal import TenantWAL

    tracer.install(Api, "__call__", "service.handlers")
    tracer.install(Supervisor, "ingest", "service.supervisor.ingest")
    tracer.install(Supervisor, "query", "service.supervisor.query")
    tracer.install(TenantWAL, "append", "service.wal.append")
