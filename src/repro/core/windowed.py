"""Windowed online MRC tracking: rolling curves that follow phase changes.

A long-lived :class:`~repro.core.model.KRRModel` averages over all history,
so after a workload shift its curve converges only slowly to the new
regime.  :class:`WindowedKRRModel` keeps two staggered models ("current"
and "warming") and rotates them every half window: the reported curve
always reflects between half a window and a full window of recent
requests, with no cold-start gap at rotation — the standard two-generation
trick for streaming statistics.

Both generations are ordinary :class:`~repro.core.model.KRRModel`
instances, so they run on whichever stack their configuration picks and
snapshot through :meth:`KRRModel.state_dict`.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from .._util import RngLike, check_positive, ensure_rng
from ..mrc.curve import MissRatioCurve
from ..workloads.trace import Trace
from .model import KRRModel

__all__ = [
    "WindowedKRRModel",
]



class WindowedKRRModel:
    """K-LRU MRC over a sliding window of the most recent requests.

    Parameters
    ----------
    k, strategy, sampling_rate, correction, track_sizes, seed:
        Forwarded to the underlying :class:`KRRModel` instances.
    window:
        Nominal window length in requests; the reported curve covers
        between ``window/2`` and ``window`` recent requests.
    """

    def __init__(
        self,
        k: int = 5,
        window: int = 100_000,
        strategy: str = "backward",
        sampling_rate: Union[None, float, str] = None,
        correction: bool = True,
        track_sizes: bool = False,
        seed: RngLike = None,
    ) -> None:
        check_positive("window", window)
        self.window = int(window)
        self._half = max(1, self.window // 2)
        self._rng = ensure_rng(seed)
        self._kwargs = dict(
            k=k,
            strategy=strategy,
            sampling_rate=sampling_rate,
            correction=correction,
            track_sizes=track_sizes,
        )
        self._current = self._fresh()
        self._warming = self._fresh()
        self._since_rotation = 0
        self.requests_seen = 0
        self.rotations = 0

    def _fresh(self) -> KRRModel:
        return KRRModel(seed=int(self._rng.integers(0, 2**63)), **self._kwargs)

    # ------------------------------------------------------------------
    def access(self, key: int, size: int = 1) -> None:
        """Stream one request (:meth:`access_many` of one request)."""
        self.access_many([key], [size])

    def access_many(
        self,
        keys: "list[int] | np.ndarray",
        sizes: "list[int] | np.ndarray | None" = None,
    ) -> None:
        """Stream a batch of requests (the service and cache ingest path).

        The stream is split at the rotation boundaries and each segment
        goes through both generations' :meth:`KRRModel.access_many`, so
        the rotation points and draws do not depend on how the requests
        are batched.  ``sizes`` must be parallel to ``keys``; a length
        mismatch raises ``ValueError`` before any segment is applied.
        """
        n = len(keys)
        if sizes is not None and len(sizes) != n:
            raise ValueError(f"{len(sizes)} sizes for {n} keys")
        start = 0
        while start < n:
            take = min(n - start, self._half - self._since_rotation)
            stop = start + take
            chunk_keys = keys[start:stop]
            chunk_sizes = sizes[start:stop] if sizes is not None else None
            self._current.access_many(chunk_keys, chunk_sizes)
            self._warming.access_many(chunk_keys, chunk_sizes)
            self.requests_seen += take
            self._since_rotation += take
            start = stop
            if self._since_rotation >= self._half:
                # The warming model now holds half a window: promote it.
                self._current = self._warming
                self._warming = self._fresh()
                self._since_rotation = 0
                self.rotations += 1

    def process(self, trace: Trace) -> "WindowedKRRModel":
        self.access_many(trace.keys, trace.sizes)
        return self

    # ------------------------------------------------------------------
    @property
    def coverage(self) -> int:
        """Requests reflected by :meth:`mrc` right now."""
        return min(self.requests_seen, self._half + self._since_rotation)

    def counters(self) -> dict:
        """Health-endpoint counters: lifetime ingest and rotation totals."""
        return {
            "requests_seen": self.requests_seen,
            "rotations": self.rotations,
            "since_rotation": self._since_rotation,
            "coverage": self.coverage,
            "window": self.window,
        }

    def mrc(self, max_size: int | None = None) -> MissRatioCurve:
        """The rolling-window curve (half to one window of recent traffic)."""
        return self._current.mrc(max_size=max_size)

    def byte_mrc(self) -> MissRatioCurve:
        """Rolling byte-granularity curve (requires ``track_sizes=True``)."""
        return self._current.byte_mrc()

    # ------------------------------------------------------------------
    STATE_KIND = "repro-windowed-krr-model"
    STATE_VERSION = 1

    def state_dict(self) -> dict:
        """JSON-safe snapshot: both generations plus the seeding RNG.

        The seeding generator's state is captured alongside the two
        :meth:`KRRModel.state_dict` snapshots, so the restored instance
        rotates into *the same* future generations (each ``_fresh()``
        seed comes from this generator) — resume is bit-identical across
        rotation boundaries too.
        """
        return {
            "kind": self.STATE_KIND,
            "version": self.STATE_VERSION,
            "window": self.window,
            "config": dict(self._kwargs),
            "rng": self._rng.bit_generator.state,
            "current": self._current.state_dict(),
            "warming": self._warming.state_dict(),
            "since_rotation": self._since_rotation,
            "requests_seen": self.requests_seen,
            "rotations": self.rotations,
        }

    def load_state(self, state: dict) -> None:
        if state.get("kind") != self.STATE_KIND:
            raise ValueError("not a WindowedKRRModel state dict")
        if int(state.get("version", -1)) != self.STATE_VERSION:
            raise ValueError(
                f"unsupported WindowedKRRModel state version "
                f"{state.get('version')!r}"
            )
        if int(state["window"]) != self.window or state["config"] != self._kwargs:
            raise ValueError(
                "windowed-model state was captured under a different "
                "configuration"
            )
        self._rng.bit_generator.state = state["rng"]
        self._current = KRRModel.from_state(state["current"])
        self._warming = KRRModel.from_state(state["warming"])
        self._since_rotation = int(state["since_rotation"])
        self.requests_seen = int(state["requests_seen"])
        self.rotations = int(state["rotations"])

    @classmethod
    def from_state(cls, state: dict) -> "WindowedKRRModel":
        """Reconstruct a windowed model solely from :meth:`state_dict`."""
        if state.get("kind") != cls.STATE_KIND:
            raise ValueError("not a WindowedKRRModel state dict")
        model = cls(window=int(state["window"]), seed=0, **state["config"])
        model.load_state(state)
        return model
