"""MultiKRR: one-pass evaluation of a whole (K, strategy, rate) grid.

:class:`~repro.engine.sweep.ModelSweep` answers grid questions by running
one full :class:`~repro.core.model.KRRModel` per configuration — C
passes over the trace, C factorizations, C hash columns.  MultiKRR
evaluates the same grid in **one streaming pass**: the trace is prepared
once (dense key ids via factorization, one hash column per sampling
seed), every configuration's stack lives as one row of a C×U 2-D
``int64`` state block (slot row + position row, C-contiguous so each
row feeds a :class:`~repro.stack.soa.SoAKRRStack` zero-copy), and each
request chunk is pushed through all C stacks before the next chunk is
touched — the chunk stays hot in cache while every configuration
consumes it.  The backward cells advance together, in one
:func:`~repro.stack.soa.walk_backward_lanes` call per chunk that keeps
two cells' swap chains in flight.

**Seeding contract.**  Per-configuration seeds are spawned from the grid
seed by position with :func:`spawn_seeds` — the *same* derivation
:meth:`ModelSweep.config_seeds` uses — and each stack owns its own
generator, so chunking and configuration order cannot leak draws between
cells.  Every cell's distances, histogram and counters are bit-identical
to an independent ``KRRModel.process`` run with the matching seed
(property-tested in ``tests/test_vkrr.py``).

Configurations are duck-typed: anything with ``k``, ``strategy``,
``sampling_rate`` and ``correction`` attributes works, so
:class:`~repro.engine.sweep.SweepConfig` instances can be passed
directly.  Strategies are limited to the SoA-capable set
(``backward``/``linear``); byte-level tracking (``track_sizes``) needs
the scalar engine — use :class:`ModelSweep` for those grids.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .._util import check_sampling_size
from ..kernels.prep import factorize_keys
from ..mrc.builder import from_distance_histogram, from_points
from ..mrc.curve import MissRatioCurve
from ..sampling.spatial import SpatialSampler
from ..stack.histogram import DistanceHistogram
from ..stack.soa import SOA_STRATEGIES, SoAKRRStack, walk_backward_lanes
from ..workloads.trace import Trace
from .correction import DEFAULT_EXPONENT, corrected_k

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (engine -> core)
    from ..engine.plan import TracePlan

__all__ = [
    "GridConfig",
    "GridResult",
    "MultiKRR",
    "spawn_seeds",
]


#: Default requests per streaming chunk (all C stacks consume each chunk
#: before the next is touched; the value only affects locality, never
#: results — per-config draws are fixed by per-config generators).
DEFAULT_CHUNK = 1 << 18


def spawn_seeds(n: int, seed: int = 0) -> List[int]:
    """Per-cell model seeds, fixed by grid position.

    This is the engine-wide seed derivation: ``ModelSweep.config_seeds``
    delegates here, so a MultiKRR grid and a ModelSweep over the same
    configuration list draw identical per-cell streams.
    """
    root = np.random.SeedSequence(int(seed))
    return [
        int(child.generate_state(1, dtype=np.uint64)[0] >> np.uint64(1))
        for child in root.spawn(int(n))
    ]


@dataclass(frozen=True)
class GridConfig:
    """One grid cell (field-compatible subset of ``SweepConfig``)."""

    k: int = 5
    strategy: str = "backward"
    sampling_rate: Optional[float] = None
    correction: bool = True

    def label(self) -> str:
        rate = "full" if self.sampling_rate is None else f"R={self.sampling_rate:g}"
        return f"K={self.k}/{self.strategy}/{rate}"


@dataclass
class GridResult:
    """One cell's finished curve plus the model counters."""

    config: object
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
        label = self.config.label() if hasattr(self.config, "label") else ""
        return from_points(
            self.sizes, self.miss_ratios, unit=self.unit, label=str(label)
        )


#: A spatial sampler's identity: ``(seed, modulus, threshold)``.
_MaskKey = Tuple[int, int, int]


class _Cell:
    """Internal per-configuration state: stack row + histogram + counters."""

    __slots__ = ("config", "seed", "stack", "hist", "mask_key", "sampled", "cold")

    def __init__(
        self,
        config: object,
        seed: int,
        stack: SoAKRRStack,
        hist: DistanceHistogram,
        mask_key: Optional[_MaskKey],
    ) -> None:
        self.config = config
        self.seed = seed
        self.stack = stack
        self.hist = hist
        self.mask_key = mask_key
        self.sampled = 0
        self.cold = 0


def _advance(
    cells: List[_Cell], kids: np.ndarray, masks: Dict[_MaskKey, np.ndarray]
) -> None:
    """Push one chunk of dense ids through every cell.

    Each distinct mask selects its cells' ids once; every backward cell
    then advances in one :func:`~repro.stack.soa.walk_backward_lanes`
    call, the linear cells one by one, and the histograms and counters
    take the distances last.
    """
    subs: Dict[Optional[_MaskKey], np.ndarray] = {None: kids}
    for mask_key, mask in masks.items():
        subs[mask_key] = kids[mask]
    cell_kids = [subs[cell.mask_key] for cell in cells]
    backward = [
        c for c, cell in enumerate(cells) if cell.stack.strategy_name == "backward"
    ]
    walked = walk_backward_lanes(
        [cells[c].stack for c in backward], [cell_kids[c] for c in backward]
    )
    distances = dict(zip(backward, walked))
    for c, cell in enumerate(cells):
        if c not in distances:
            distances[c] = cell.stack.access_many_interned(cell_kids[c])
    for c, cell in enumerate(cells):
        cell.hist.record_many(distances[c])
        cell.sampled += int(cell_kids[c].shape[0])
        cell.cold += int(np.count_nonzero(distances[c] == -1))


class MultiKRR:
    """A grid of KRR configurations evaluated in one pass over one trace.

    Parameters
    ----------
    configs:
        Grid cells — :class:`GridConfig`, ``SweepConfig``, or any object
        with ``k``/``strategy``/``sampling_rate``/``correction``.
    seed:
        Grid-level seed; per-cell seeds come from :func:`spawn_seeds` by
        position, exactly like ``ModelSweep``.

    Example
    -------
    >>> grid = MultiKRR.grid(ks=[1, 5], sampling_rates=[None, 0.01])
    >>> results = grid.run(trace)  # doctest: +SKIP
    """

    def __init__(
        self,
        configs: Sequence[object],
        seed: int = 0,
        seeds: Optional[Sequence[int]] = None,
    ) -> None:
        self.configs: List[object] = list(configs)
        if not self.configs:
            raise ValueError("need at least one grid configuration")
        for cfg in self.configs:
            strategy = getattr(cfg, "strategy", "backward")
            if strategy not in SOA_STRATEGIES:
                raise ValueError(
                    f"MultiKRR supports strategies {SOA_STRATEGIES}; "
                    f"{strategy!r} needs the scalar engine (ModelSweep)"
                )
            if getattr(cfg, "track_sizes", False):
                raise ValueError(
                    "MultiKRR does not track byte distances; "
                    "use ModelSweep for track_sizes grids"
                )
            check_sampling_size(int(cfg.k))  # type: ignore[attr-defined]
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
        configs = [
            GridConfig(k=int(k), strategy=s, sampling_rate=r, correction=correction)
            for k, s, r in product(ks, strategies, sampling_rates)
        ]
        return cls(configs, seed=seed)

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
        plan: Optional["TracePlan"] = None,
        max_size: Optional[int] = None,
        chunk_size: int = DEFAULT_CHUNK,
        use_native: Optional[bool] = None,
        stream: Optional[Iterable[Trace]] = None,
    ) -> List[GridResult]:
        """Evaluate every cell in one streaming pass; ordered like ``configs``.

        ``plan`` supplies a prepared :class:`~repro.engine.plan.TracePlan`
        (cached factorization and hash columns); without one the same
        columns are computed here, once for the whole grid.  ``use_native``
        is forwarded to the SoA stacks.  ``chunk_size`` trades memory
        locality only — results are bit-identical for any value.

        ``stream`` accepts a bounded-memory
        :class:`~repro.workloads.stream.TraceStream` instead of ``trace``:
        keys are interned incrementally (first-seen dense ids via
        :class:`~repro.engine.plan.StreamingTracePlan`), hash columns and
        masks are computed per chunk and shared across cells, and each
        cell's stack grows on demand.  Ids are opaque labels to the
        update walk, so every cell's distances, histogram and counters
        are **bit-identical** to the in-memory ``run(trace)`` over the
        concatenated stream, for any chunking (property-tested in
        ``tests/test_stream.py``).  The source chunking wins, so
        ``chunk_size`` is ignored; ``plan`` cannot be combined with a
        stream.
        """
        if stream is not None:
            if trace is not None:
                raise ValueError("pass either trace= or stream=, not both")
            if plan is not None:
                raise ValueError(
                    "plan caches whole-trace columns; streams intern and "
                    "hash per chunk instead"
                )
            return self._run_stream(stream, max_size, use_native)
        if trace is None:
            raise ValueError("run() needs a trace or a stream")
        if chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        keys = trace.keys
        n = int(keys.shape[0])
        if plan is not None:
            kids = plan.key_ids
            n_unique = plan.n_unique_keys
        else:
            key_table, kids = factorize_keys(keys)
            n_unique = int(key_table.shape[0])
        kids = np.ascontiguousarray(kids, dtype=np.int64)

        # The grid-wide SoA state block: one slot row + one position row
        # per cell.  Rows of a C-contiguous 2-D array are themselves
        # contiguous, so each stack operates on its row zero-copy.
        width = max(1, n_unique)
        stack_block = np.zeros((len(self.configs), width), dtype=np.int64)
        pos_block = np.empty((len(self.configs), width), dtype=np.int64)
        cells, samplers = self._cells(use_native, stack_block, pos_block)
        masks = {
            mask_key: (
                plan.sample_mask(sampler.threshold, sampler.modulus, sampler.seed)
                if plan is not None
                else sampler.mask(keys)
            )
            for mask_key, sampler in samplers.items()
        }

        # One pass: each chunk of dense ids visits every cell while hot.
        for lo in range(0, n, chunk_size):
            hi = min(n, lo + chunk_size)
            _advance(
                cells,
                kids[lo:hi],
                {mask_key: mask[lo:hi] for mask_key, mask in masks.items()},
            )
        return self._collect_results(cells, n, max_size)

    def _run_stream(
        self,
        stream: Iterable[Trace],
        max_size: Optional[int],
        use_native: Optional[bool],
    ) -> List[GridResult]:
        """Out-of-core half of :meth:`run`: per-chunk interning and masks."""
        from ..engine.plan import StreamingTracePlan

        splan = StreamingTracePlan()
        # Growable stacks: a stream's distinct-key count is unknown up
        # front, so the fixed grid-wide 2-D state block does not apply.
        cells, samplers = self._cells(use_native)
        for chunk in stream:
            splan.observe(chunk)
            kids = splan.intern(chunk.keys)
            masks = {
                mask_key: splan.chunk_sample_mask(
                    chunk.keys, sampler.threshold, sampler.modulus, sampler.seed
                )
                for mask_key, sampler in samplers.items()
            }
            _advance(cells, kids, masks)
        return self._collect_results(cells, splan.n_requests, max_size)

    def _cells(
        self,
        use_native: Optional[bool],
        stack_block: Optional[np.ndarray] = None,
        pos_block: Optional[np.ndarray] = None,
    ) -> Tuple[List["_Cell"], Dict[_MaskKey, SpatialSampler]]:
        """One cell per configuration, plus one sampler per distinct mask.

        With ``stack_block``/``pos_block`` each cell's stack runs on its
        row of the grid-wide state block; without them the stacks grow.
        """
        seeds = self.config_seeds()
        samplers: Dict[_MaskKey, SpatialSampler] = {}
        cells: List[_Cell] = []
        for c, cfg in enumerate(self.configs):
            rate = getattr(cfg, "sampling_rate", None)
            mask_key: Optional[_MaskKey] = None
            scale = 1.0
            if rate is not None:
                sampler = SpatialSampler(float(rate))
                scale = sampler.scale
                mask_key = (sampler.seed, sampler.modulus, sampler.threshold)
                samplers.setdefault(mask_key, sampler)
            effective_k = (
                corrected_k(int(cfg.k), DEFAULT_EXPONENT)  # type: ignore[attr-defined]
                if getattr(cfg, "correction", True)
                else float(int(cfg.k))  # type: ignore[attr-defined]
            )
            stack = SoAKRRStack(
                effective_k,
                strategy=getattr(cfg, "strategy", "backward"),
                rng=seeds[c],
                use_native=use_native,
                stack_buffer=None if stack_block is None else stack_block[c],
                pos_buffer=None if pos_block is None else pos_block[c],
            )
            cells.append(
                _Cell(cfg, seeds[c], stack, DistanceHistogram(scale=scale), mask_key)
            )
        return cells, samplers

    def _collect_results(
        self, cells: List[_Cell], n: int, max_size: Optional[int]
    ) -> List[GridResult]:
        results: List[GridResult] = []
        for cell in cells:
            curve = from_distance_histogram(
                cell.hist,
                max_size=max_size,
                label=f"KRR(K={int(cell.config.k)})",  # type: ignore[attr-defined]
            )
            results.append(
                GridResult(
                    config=cell.config,
                    seed=cell.seed,
                    sizes=curve.sizes,
                    miss_ratios=curve.miss_ratios,
                    unit="objects",
                    requests_seen=n,
                    requests_sampled=cell.sampled,
                    cold_misses=cell.cold,
                    stack_updates=cell.stack.updates,
                    swap_positions=cell.stack.total_swaps,
                )
            )
        return results
