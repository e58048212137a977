"""ModelSweep: a grid of KRR configurations over one trace, in one pass.

Capacity planning rarely wants a single model: "what does the MRC look
like for K in {1, 2, 5, 10}, with and without spatial sampling?" is the
natural question.  KRR is a stack algorithm, so one pass over a trace
yields a whole curve, and :class:`~repro.core.vkrr.MultiKRR` extends that
to a whole grid: every cell, whatever its strategy or ``track_sizes``,
consumes each chunk while it is hot, sharing the interner and the
per-chunk hash columns.  :func:`run_grid` is the engine's one grid body:
:class:`ModelSweep` calls it in-process for one trace, and every
:class:`~repro.engine.fleet.FleetSweep` worker calls it once per trace.
It resumes from the checkpoint, streams the trace once through one
``MultiKRR`` pass over the missing cells, and appends their rows.

Determinism: every configuration's model seed is derived up front from
the sweep seed with :func:`~repro.core.vkrr.spawn_seeds`, by the
configuration's grid position, and handed to the pass explicitly.  The
chunk size and resume therefore cannot change any result: each cell is
bit-identical to an independent ``KRRModel.process`` run with its seed.

Resume: ``checkpoint`` names a JSON-lines
:class:`~repro.engine.checkpoint.SweepCheckpoint` keyed on the sweep
seed, the grid, ``max_size`` and a CRC of the trace columns.  The pass
appends its rows durably once it completes, and a rerun recomputes only
the grid positions missing from the file, on their original seeds.  A
grid is one pass, so a crash mid-pass loses that whole pass: no row of
it reaches the file.
"""

from __future__ import annotations

from dataclasses import asdict
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..core.vkrr import (
    MultiKRR,
    SweepConfig,
    SweepResult,
    _grid_configs,
    spawn_seeds,
)
from ..workloads.stream import DEFAULT_CHUNK, open_trace_stream
from ..workloads.trace import Trace
from .checkpoint import Row, SweepCheckpoint
from .plan import trace_fingerprint

__all__ = [
    "ModelSweep",
    "SweepConfig",
    "SweepResult",
    "model_sweep",
]

#: The counters a checkpoint row carries, in ``SweepResult`` field order.
_COUNTERS = (
    "requests_seen",
    "requests_sampled",
    "cold_misses",
    "stack_updates",
    "swap_positions",
)


def checkpointed_results(
    checkpoint: SweepCheckpoint,
    configs: Sequence[SweepConfig],
    seeds: Sequence[int],
) -> Dict[int, SweepResult]:
    """The rows ``checkpoint`` already holds, as results by grid position."""
    return {
        i: SweepResult(
            config=configs[i],
            seed=seeds[i],
            sizes=sizes,
            miss_ratios=ratios,
            unit=unit,
            **stats,
        )
        for i, sizes, ratios, unit, stats in checkpoint.load().values()
    }


def _row(index: int, result: SweepResult) -> Row:
    stats = {name: getattr(result, name) for name in _COUNTERS}
    return (index, result.sizes, result.miss_ratios, result.unit, stats)


def run_grid(
    source: Union[Trace, str, Path],
    configs: Sequence[SweepConfig],
    seeds: Sequence[int],
    max_size: Optional[int] = None,
    checkpoint: Optional[SweepCheckpoint] = None,
    chunk_size: int = DEFAULT_CHUNK,
    errors: str = "strict",
) -> Tuple[List[SweepResult], int]:
    """Evaluate one trace's grid: ``(results ordered like configs, resumed)``.

    ``source`` is an in-memory :class:`Trace` or a trace path, opened with
    :func:`~repro.workloads.stream.open_trace_stream` (``chunk_size`` and
    ``errors`` go to the readers and cannot change results).  ``seeds``
    are the per-cell model seeds by grid position.  Rows already in
    ``checkpoint`` are reused — ``resumed`` counts them — and the missing
    cells run as one :class:`~repro.core.vkrr.MultiKRR` pass whose rows
    are appended durably once it completes.
    """
    done: Dict[int, SweepResult] = {}
    if checkpoint is not None:
        done = checkpointed_results(checkpoint, configs, seeds)
    results = dict(done)
    missing = [i for i in range(len(configs)) if i not in done]
    if missing:
        stream = open_trace_stream(source, chunk_size, errors)
        # Explicit seeds keep each cell on its grid position's stream even
        # when only a subset of the grid is missing (resume).
        grid = MultiKRR(
            [configs[i] for i in missing], seeds=[seeds[i] for i in missing]
        )
        for i, result in zip(missing, grid.run(stream=stream, max_size=max_size)):
            results[i] = result
            if checkpoint is not None:
                checkpoint.append(_row(i, result))
    return [results[i] for i in range(len(configs))], len(done)


class ModelSweep:
    """A grid of KRR configurations evaluated over one trace.

    Parameters
    ----------
    configs:
        The grid points; build cross-products with :meth:`grid`.
    seed:
        Sweep-level seed.  Per-configuration model seeds are spawned from
        it by grid position.

    Example
    -------
    >>> sweep = ModelSweep.grid(ks=[1, 5], sampling_rates=[None, 0.01])
    >>> results = sweep.run(trace)
    >>> results[0].config, float(results[0].miss_ratios[-1])  # doctest: +SKIP
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
    ) -> "ModelSweep":
        """Cross-product grid over K values, strategies and sampling rates."""
        configs = _grid_configs(
            ks, strategies, sampling_rates, correction, track_sizes
        )
        return cls(configs, seed=seed)

    def __len__(self) -> int:
        return len(self.configs)

    def config_seeds(self) -> List[int]:
        """Per-configuration model seeds, fixed by grid position.

        Delegates to :func:`repro.core.vkrr.spawn_seeds` — the shared
        derivation — so a :class:`~repro.core.vkrr.MultiKRR` grid over the
        same configuration list draws identical per-cell streams.
        """
        return spawn_seeds(len(self.configs), self.seed)

    def run(
        self,
        trace: Trace,
        max_size: Optional[int] = None,
        checkpoint: Union[str, Path, None] = None,
    ) -> List[SweepResult]:
        """Evaluate every configuration; results ordered like ``configs``.

        ``checkpoint`` names a JSON-lines file: the pass's rows go to it
        as the pass completes, and a rerun with the same sweep and trace
        skips the grid positions already on disk (resume).
        """
        ckpt: Optional[SweepCheckpoint] = None
        if checkpoint is not None:
            ckpt = SweepCheckpoint(checkpoint, self._signature(trace, max_size))
        results, _ = run_grid(
            trace, self.configs, self.config_seeds(), max_size, ckpt
        )
        return results

    def _signature(self, trace: Trace, max_size: Optional[int]) -> dict:
        """Checkpoint fingerprint: the sweep, its inputs, and the trace."""
        crc = trace_fingerprint(trace)
        return {
            "sweep_seed": self.seed,
            "max_size": max_size,
            "configs": [asdict(c) for c in self.configs],
            "trace": {
                "n": len(trace),
                "name": trace.name,
                "crc32": crc,
            },
        }


def model_sweep(
    trace: Trace,
    ks: Iterable[int],
    strategies: Iterable[str] = ("backward",),
    sampling_rates: Iterable[Optional[float]] = (None,),
    seed: int = 0,
    max_size: Optional[int] = None,
    **grid_kwargs: object,
) -> List[SweepResult]:
    """Convenience: build a grid sweep and run it in one call."""
    sweep = ModelSweep.grid(
        ks,
        strategies=strategies,
        sampling_rates=sampling_rates,
        seed=seed,
        **grid_kwargs,
    )
    return sweep.run(trace, max_size=max_size)
