"""MultiKRR: one-pass evaluation of a whole (K, strategy, rate) grid.

A grid question — "what does the MRC look like for K in {1, 2, 5, 10},
with and without spatial sampling?" — could be answered by one full
:class:`~repro.core.model.KRRModel` per configuration: C passes over the
trace, C key conversions, C hash columns.  MultiKRR evaluates the grid in
**one streaming pass**: each chunk is interned once (dense key ids in
first-seen order, via :class:`~repro.engine.plan.StreamingTracePlan`) and
hashed once per sampling seed, and every configuration consumes the chunk
before the next one is touched.  An in-memory trace is fed as its
:func:`~repro.workloads.stream.iter_chunks` slices, so a trace and a
stream go through the same body.

Each configuration runs on the stack a ``KRRModel`` of the same
configuration builds (:func:`~repro.core.model.build_stack`).  The
backward cells on :class:`~repro.stack.soa.SoAKRRStack` advance together,
in one :func:`~repro.stack.soa.walk_backward_lanes` call per chunk that
keeps two cells' swap chains in flight.  ``linear``, ``topdown`` and
byte-level (``track_sizes``) cells run on the scalar
:class:`~repro.core.krr.KRRStack`, fed the same dense ids as key labels
together with the chunk's sizes, and a ``track_sizes`` cell reports its
byte curve (unit ``"bytes"``).

**Seeding contract.**  Per-configuration seeds are spawned from the grid
seed by position with :func:`spawn_seeds`, the engine-wide derivation,
and each stack owns its own generator, so chunking and configuration
order cannot leak draws between cells.  Ids are opaque labels to both
stacks (distances depend on stack positions, and the scalar stack keys
its object sizes by label), so every cell's distances, histograms and
counters are bit-identical to an independent ``KRRModel.process`` run
with the matching seed (property-tested in ``tests/test_vkrr.py``).

Cells are :class:`SweepConfig` points and results are
:class:`SweepResult` rows — the one config and result type of every grid
evaluator (:class:`~repro.engine.sweep.ModelSweep` and
:class:`~repro.engine.fleet.FleetSweep` run each trace's grid as one
MultiKRR pass).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .._util import check_sampling_size
from ..mrc.builder import from_byte_histogram, from_distance_histogram, from_points
from ..mrc.curve import MissRatioCurve
from ..sampling.spatial import SpatialSampler
from ..stack.histogram import ByteDistanceHistogram, DistanceHistogram
from ..stack.soa import SoAKRRStack, walk_backward_lanes
from ..workloads.stream import DEFAULT_CHUNK, iter_chunks
from ..workloads.trace import Trace
from .correction import DEFAULT_EXPONENT, corrected_k
from .krr import KRRStack
from .model import build_stack

__all__ = [
    "MultiKRR",
    "SweepConfig",
    "SweepResult",
    "spawn_seeds",
]


def spawn_seeds(n: int, seed: int = 0) -> List[int]:
    """Per-cell model seeds, fixed by grid position.

    This is the engine-wide seed derivation: ``MultiKRR``, ``ModelSweep``
    and ``FleetSweep`` all draw their per-cell streams from it.
    """
    root = np.random.SeedSequence(int(seed))
    return [
        int(child.generate_state(1, dtype=np.uint64)[0] >> np.uint64(1))
        for child in root.spawn(int(n))
    ]


@dataclass(frozen=True)
class SweepConfig:
    """One point of a grid: a full KRR model configuration."""

    k: int = 5
    strategy: str = "backward"
    sampling_rate: Optional[float] = None
    correction: bool = True
    track_sizes: bool = False

    def label(self) -> str:
        rate = "full" if self.sampling_rate is None else f"R={self.sampling_rate:g}"
        return f"K={self.k}/{self.strategy}/{rate}"


def _grid_configs(
    ks: Iterable[int],
    strategies: Iterable[str],
    sampling_rates: Iterable[Optional[float]],
    correction: bool,
    track_sizes: bool = False,
) -> List[SweepConfig]:
    """``ks × strategies × sampling_rates``, K outermost: the one cell
    order of ``MultiKRR.grid``, ``ModelSweep.grid`` and ``FleetSweep.grid``."""
    return [
        SweepConfig(
            k=int(k),
            strategy=s,
            sampling_rate=r,
            correction=correction,
            track_sizes=track_sizes,
        )
        for k, s, r in product(ks, strategies, sampling_rates)
    ]


@dataclass
class SweepResult:
    """One configuration's finished model: its curve points plus counters."""

    config: SweepConfig
    seed: int
    sizes: np.ndarray
    miss_ratios: np.ndarray
    unit: str = "objects"
    requests_seen: int = 0
    requests_sampled: int = 0
    cold_misses: int = 0
    stack_updates: int = 0
    swap_positions: int = 0

    def mrc(self) -> MissRatioCurve:
        return from_points(
            self.sizes, self.miss_ratios, unit=self.unit, label=self.config.label()
        )


#: A spatial sampler's identity: ``(seed, modulus, threshold)``.
_MaskKey = Tuple[int, int, int]


class _Cell:
    """Internal per-configuration state: stack + histograms + counters."""

    __slots__ = (
        "config", "seed", "stack", "hist", "byte_hist", "mask_key", "sampled", "cold"
    )

    def __init__(
        self,
        config: SweepConfig,
        seed: int,
        stack: Union[SoAKRRStack, KRRStack],
        scale: float,
        mask_key: Optional[_MaskKey],
    ) -> None:
        self.config = config
        self.seed = seed
        self.stack = stack
        self.hist = DistanceHistogram(scale=scale)
        self.byte_hist: Optional[ByteDistanceHistogram] = (
            ByteDistanceHistogram(scale=scale) if config.track_sizes else None
        )
        self.mask_key = mask_key
        self.sampled = 0
        self.cold = 0


def _advance(
    cells: List[_Cell],
    kids: np.ndarray,
    sizes: np.ndarray,
    masks: Dict[_MaskKey, np.ndarray],
) -> None:
    """Push one chunk of dense ids (and its sizes) through every cell.

    Each distinct mask selects its cells' ids once; every SoA cell then
    advances in one :func:`~repro.stack.soa.walk_backward_lanes` call.
    The scalar cells take the ids and sizes their mask selects as Python
    lists, converted once per chunk and mask.  The histograms and
    counters take the distances last.
    """
    subs: Dict[Optional[_MaskKey], np.ndarray] = {None: kids}
    for mask_key, mask in masks.items():
        subs[mask_key] = kids[mask]
    lanes = [c for c, cell in enumerate(cells) if isinstance(cell.stack, SoAKRRStack)]
    walked = walk_backward_lanes(
        [cells[c].stack for c in lanes], [subs[cells[c].mask_key] for c in lanes]
    )
    distances: Dict[int, np.ndarray] = dict(zip(lanes, walked))
    lists: Dict[Optional[_MaskKey], Tuple[List[int], List[int]]] = {}
    for c, cell in enumerate(cells):
        if c in distances:
            continue
        assert isinstance(cell.stack, KRRStack)
        if cell.mask_key not in lists:
            rows = sizes if cell.mask_key is None else sizes[masks[cell.mask_key]]
            lists[cell.mask_key] = (subs[cell.mask_key].tolist(), rows.tolist())
        dist, byte_dist = cell.stack.access_many(*lists[cell.mask_key])
        if cell.byte_hist is not None:
            cell.byte_hist.record_many(byte_dist)
        distances[c] = np.asarray(dist, dtype=np.int64)
    for c, cell in enumerate(cells):
        cell.hist.record_many(distances[c])
        cell.sampled += int(distances[c].shape[0])
        cell.cold += int(np.count_nonzero(distances[c] == -1))


class MultiKRR:
    """A grid of KRR configurations evaluated in one pass over one trace.

    Parameters
    ----------
    configs:
        Grid cells (:class:`SweepConfig`), any strategy, with or without
        ``track_sizes``.
    seed:
        Grid-level seed; per-cell seeds come from :func:`spawn_seeds` by
        position.
    seeds:
        Explicit per-cell seeds in place of the positional spawn.

    Example
    -------
    >>> grid = MultiKRR.grid(ks=[1, 5], sampling_rates=[None, 0.01])
    >>> results = grid.run(trace)  # doctest: +SKIP
    """

    def __init__(
        self,
        configs: Sequence[SweepConfig],
        seed: int = 0,
        seeds: Optional[Sequence[int]] = None,
    ) -> None:
        self.configs: List[SweepConfig] = list(configs)
        if not self.configs:
            raise ValueError("need at least one grid configuration")
        for cfg in self.configs:
            check_sampling_size(int(cfg.k))
        self.seed = int(seed)
        # Explicit per-cell seeds override the positional spawn — this is
        # how a resumed fleet runs only the *missing* subset of a grid
        # with each cell still drawing its original position's stream.
        self._seeds_override: Optional[List[int]] = (
            [int(s) for s in seeds] if seeds is not None else None
        )
        if self._seeds_override is not None and len(self._seeds_override) != len(
            self.configs
        ):
            raise ValueError(
                f"seeds has {len(self._seeds_override)} entries for "
                f"{len(self.configs)} configs"
            )

    @classmethod
    def grid(
        cls,
        ks: Iterable[int],
        strategies: Iterable[str] = ("backward",),
        sampling_rates: Iterable[Optional[float]] = (None,),
        correction: bool = True,
        seed: int = 0,
    ) -> "MultiKRR":
        """Cross-product grid, same cell order as ``ModelSweep.grid``."""
        return cls(
            _grid_configs(ks, strategies, sampling_rates, correction), seed=seed
        )

    def __len__(self) -> int:
        return len(self.configs)

    def config_seeds(self) -> List[int]:
        """Per-cell seeds (``spawn_seeds`` of the grid seed, by position,
        unless explicit ``seeds`` were passed at construction)."""
        if self._seeds_override is not None:
            return list(self._seeds_override)
        return spawn_seeds(len(self.configs), self.seed)

    # ------------------------------------------------------------------
    def run(
        self,
        trace: Optional[Trace] = None,
        max_size: Optional[int] = None,
        chunk_size: int = DEFAULT_CHUNK,
        stream: Optional[Iterable[Trace]] = None,
    ) -> List[SweepResult]:
        """Evaluate every cell in one streaming pass; ordered like ``configs``.

        ``stream`` is any iterable of trace chunks (a bounded-memory
        :class:`~repro.workloads.stream.TraceStream`), iterated once; an
        in-memory ``trace`` goes through the same body as its
        :func:`~repro.workloads.stream.iter_chunks` slices of
        ``chunk_size`` rows (``chunk_size`` is ignored for a stream,
        whose own chunking wins).  Keys are interned chunk by chunk in
        first-seen order, hash columns and masks are computed per chunk
        and shared across cells, and each cell's stack grows on demand.
        Every cell's distances, histograms and counters are
        **bit-identical** for any chunking, in memory or streamed
        (property-tested in ``tests/test_vkrr.py`` and
        ``tests/test_stream.py``).
        """
        # Imported here: repro.engine imports this module.
        from ..engine.plan import StreamingTracePlan

        if stream is None:
            if trace is None:
                raise ValueError("run() needs a trace or a stream")
            stream = iter_chunks(trace, chunk_size)
        elif trace is not None:
            raise ValueError("pass either trace= or stream=, not both")
        splan = StreamingTracePlan()
        cells, samplers = self._cells()
        for chunk in stream:
            splan.observe(chunk)
            kids = splan.intern(chunk.keys)
            masks = {
                mask_key: splan.chunk_sample_mask(
                    chunk.keys, sampler.threshold, sampler.modulus, sampler.seed
                )
                for mask_key, sampler in samplers.items()
            }
            _advance(cells, kids, chunk.sizes, masks)
        return self._collect_results(cells, splan.n_requests, max_size)

    def _cells(self) -> Tuple[List["_Cell"], Dict[_MaskKey, SpatialSampler]]:
        """One cell per configuration, plus one sampler per distinct mask."""
        seeds = self.config_seeds()
        samplers: Dict[_MaskKey, SpatialSampler] = {}
        cells: List[_Cell] = []
        for c, cfg in enumerate(self.configs):
            mask_key: Optional[_MaskKey] = None
            scale = 1.0
            if cfg.sampling_rate is not None:
                sampler = SpatialSampler(float(cfg.sampling_rate))
                scale = sampler.scale
                mask_key = (sampler.seed, sampler.modulus, sampler.threshold)
                samplers.setdefault(mask_key, sampler)
            effective_k = (
                corrected_k(int(cfg.k), DEFAULT_EXPONENT)
                if cfg.correction
                else float(int(cfg.k))
            )
            stack = build_stack(effective_k, cfg.strategy, seeds[c], cfg.track_sizes)
            cells.append(_Cell(cfg, seeds[c], stack, scale, mask_key))
        return cells, samplers

    def _collect_results(
        self, cells: List[_Cell], n: int, max_size: Optional[int]
    ) -> List[SweepResult]:
        results: List[SweepResult] = []
        for cell in cells:
            if cell.byte_hist is not None:
                curve, unit = from_byte_histogram(cell.byte_hist), "bytes"
            else:
                curve = from_distance_histogram(
                    cell.hist,
                    max_size=max_size,
                    label=f"KRR(K={int(cell.config.k)})",
                )
                unit = "objects"
            results.append(
                SweepResult(
                    config=cell.config,
                    seed=cell.seed,
                    sizes=curve.sizes,
                    miss_ratios=curve.miss_ratios,
                    unit=unit,
                    requests_seen=n,
                    requests_sampled=cell.sampled,
                    cold_misses=cell.cold,
                    stack_updates=cell.stack.updates,
                    swap_positions=cell.stack.total_swaps,
                )
            )
        return results
