"""DLRU: dynamically configured sampling-size LRU (Wang et al., MEMSYS'20).

The paper's introduction motivates KRR with this system: because the
eviction sampling size K changes the miss ratio (Figure 1.1), a cache that
*re-tunes K online* can beat any fixed K — but choosing K needs the miss
ratio of every candidate at the current capacity, which is exactly what
KRR delivers in one pass.

:class:`AdaptiveKLRUCache` is that closed loop: a real K-LRU cache whose
every request also feeds a bank of lightweight KRR+spatial models (one per
candidate K); every ``retune_interval`` requests the cache switches to the
candidate with the lowest predicted miss ratio at its own capacity.  A
sliding ``window`` optionally resets the bank so the models track workload
phase changes instead of averaging over history.  The bank is fed in
batches: references are buffered and flushed through
:meth:`~repro.core.model.KRRModel.access_many` whenever the models are
read or replaced, which is draw-for-draw the same as feeding them one
request at a time, so no decision changes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from .._util import RngLike, check_positive, ensure_rng
from ..core.model import KRRModel
from ..simulator.base import CacheStats
from ..simulator.klru import KLRUCache

__all__ = [
    "AdaptiveKLRUCache",
    "DEFAULT_CANDIDATES",
    "MIN_RETUNE_SAMPLES",
    "RetuneEvent",
    "choose_best_k",
]


DEFAULT_CANDIDATES = (1, 2, 4, 8, 16)

#: A candidate model must have sampled at least this many references
#: before its prediction is trusted in a retune decision.
MIN_RETUNE_SAMPLES = 50


@dataclass
class RetuneEvent:
    """One K-switch decision, kept for post-hoc inspection.

    ``skipped`` lists candidate Ks whose models were still cold
    (fewer than :data:`MIN_RETUNE_SAMPLES` sampled references) and were
    therefore excluded from this decision.
    """

    at_request: int
    chosen_k: int
    predicted: dict[int, float] = field(default_factory=dict)
    skipped: tuple[int, ...] = ()


def choose_best_k(
    models: dict[int, KRRModel],
    capacity: float,
    min_sampled: int = MIN_RETUNE_SAMPLES,
) -> tuple[Optional[int], dict[int, float], tuple[int, ...]]:
    """Pick the candidate K with the lowest predicted miss ratio at ``capacity``.

    Only *warm* candidates — models with at least ``min_sampled`` sampled
    references — take part; cold ones are reported back instead of
    vetoing the decision (one never-warm candidate, e.g. a large K at a
    low spatial rate, must not block retuning forever).

    Returns ``(best, predicted, skipped)``; ``best`` is ``None`` when no
    candidate is warm yet.  Shared by :class:`AdaptiveKLRUCache` and
    :class:`repro.cache.lru.SamplingLRUCache`.
    """
    predicted: dict[int, float] = {}
    skipped: list[int] = []
    for k in sorted(models):
        model = models[k]
        if model.stats.requests_sampled < min_sampled:
            skipped.append(k)
            continue
        predicted[k] = float(model.mrc()(capacity))
    if not predicted:
        return None, predicted, tuple(skipped)
    best = min(predicted, key=predicted.__getitem__)
    return best, predicted, tuple(skipped)


class AdaptiveKLRUCache:
    """A K-LRU cache that re-tunes its sampling size online via KRR.

    Parameters
    ----------
    capacity:
        Cache capacity in objects.
    candidates:
        Candidate sampling sizes to choose among.
    retune_interval:
        Requests between retuning decisions.
    sampling_rate:
        Spatial rate for the embedded KRR models (their cost per request is
        ~rate * O(K logM); 0.05 keeps the bank essentially free).
    window:
        If set, the model bank is rebuilt every ``window`` requests so
        decisions reflect only recent behavior (phase adaptivity).
    """

    def __init__(
        self,
        capacity: int,
        candidates: Sequence[int] = DEFAULT_CANDIDATES,
        retune_interval: int = 20_000,
        sampling_rate: float = 0.05,
        window: Optional[int] = None,
        initial_k: Optional[int] = None,
        rng: RngLike = None,
    ) -> None:
        check_positive("capacity", capacity)
        check_positive("retune_interval", retune_interval)
        if not candidates:
            raise ValueError("need at least one candidate K")
        if window is not None and window < retune_interval:
            raise ValueError("window must be >= retune_interval")
        self.capacity = int(capacity)
        self.candidates = tuple(sorted(set(int(k) for k in candidates)))
        self.retune_interval = int(retune_interval)
        self.sampling_rate = float(sampling_rate)
        self.window = int(window) if window else None
        self._rng = ensure_rng(rng)
        k0 = int(initial_k) if initial_k is not None else self.candidates[0]
        if k0 not in self.candidates:
            raise ValueError("initial_k must be one of the candidates")
        self._cache = KLRUCache(
            self.capacity, k0, rng=int(self._rng.integers(0, 2**63))
        )
        self._models: dict[int, KRRModel] = {}
        self._build_models()
        # Keys not yet fed to the bank (see _flush); the candidate models
        # count objects, so sizes are not kept.
        self._pending: list[int] = []
        self._requests = 0
        self.events: list[RetuneEvent] = []

    # ------------------------------------------------------------------
    @property
    def k(self) -> int:
        """The currently active eviction sampling size."""
        return self._cache.k

    @property
    def stats(self) -> CacheStats:
        return self._cache.stats

    def __len__(self) -> int:
        return len(self._cache)

    def __contains__(self, key: int) -> bool:
        return key in self._cache

    def _build_models(self) -> None:
        self._models = {
            k: KRRModel(
                k=k,
                sampling_rate=self.sampling_rate,
                seed=int(self._rng.integers(0, 2**63)),
            )
            for k in self.candidates
        }

    # ------------------------------------------------------------------
    def access(self, key: int, size: int = 1) -> bool:
        self._requests += 1
        self._pending.append(key)
        hit = self._cache.access(key, size)
        if self._requests % self.retune_interval == 0:
            self._retune()
        if self.window and self._requests % self.window == 0:
            self._flush()
            self._build_models()
        return hit

    def _flush(self) -> None:
        """Feed the buffered references to every candidate model."""
        if self._pending:
            for model in self._models.values():
                model.access_many(self._pending)
            self._pending = []

    def _retune(self) -> None:
        self._flush()
        best, predicted, skipped = choose_best_k(self._models, self.capacity)
        if best is None:
            return  # every candidate still cold; keep the current K
        self.events.append(
            RetuneEvent(
                at_request=self._requests,
                chosen_k=best,
                predicted=predicted,
                skipped=skipped,
            )
        )
        self._cache.k = best

    def predicted_miss_ratios(self) -> dict[int, float]:
        """Current per-candidate predictions at this cache's capacity."""
        self._flush()
        return {
            k: float(m.mrc()(self.capacity))
            for k, m in self._models.items()
            if m.stats.requests_sampled > 0
        }
