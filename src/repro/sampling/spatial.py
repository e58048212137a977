"""SHARDS-style uniform spatial sampling (§2.4).

A reference with key ``L`` is kept iff ``hash(L) mod P < T``; the effective
sampling rate is ``R = T / P``.  Because the decision depends only on the
key, *all* references to a sampled object are kept — exactly the property
stack-distance analysis needs (a sampled object's reuse structure survives
intact, just thinned by a factor ``R`` in the distance axis).

Two variants:

* :class:`SpatialSampler` — fixed rate ``R`` (the paper's default, 0.001,
  raised for small working sets to keep >= ``min_objects`` sampled).
* :class:`FixedSizeSpatialSampler` — SHARDS's ``s_max`` mode: the threshold
  self-lowers so at most ``s_max`` distinct objects are tracked; consumers
  must evict objects whose hash rises above the new threshold and rescale.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

import numpy as np

from .._util import check_in_range, check_positive
from .hashing import splitmix64

__all__ = [
    "DEFAULT_MODULUS",
    "FixedSizeSpatialSampler",
    "SpatialSampler",
    "choose_rate",
]


#: Default modulus (2^24, as in the SHARDS paper's ``hash(L) mod P < T``).
DEFAULT_MODULUS = 1 << 24


class SpatialSampler:
    """Fixed-rate spatial filter: keep key iff ``hash(key) mod P < T``."""

    def __init__(
        self,
        rate: float,
        modulus: int = DEFAULT_MODULUS,
        seed: int = 0,
    ) -> None:
        check_in_range("rate", rate, 0.0, 1.0, low_open=True)
        check_positive("modulus", modulus)
        self.modulus = int(modulus)
        self.threshold = max(1, int(round(rate * self.modulus)))
        self.seed = int(seed)

    @property
    def rate(self) -> float:
        """Effective sampling rate ``R = T / P``."""
        return self.threshold / self.modulus

    @property
    def scale(self) -> float:
        """Distance/count rescale factor ``1 / R``."""
        return self.modulus / self.threshold

    def keep(self, key: int) -> bool:
        """Sampling decision for one key."""
        return splitmix64(key, self.seed) % self.modulus < self.threshold

    def mask(self, keys: np.ndarray) -> np.ndarray:
        """Vectorized sampling decisions for an array of keys."""
        h = splitmix64(np.asarray(keys, dtype=np.int64), self.seed)
        return (h % np.uint64(self.modulus)) < np.uint64(self.threshold)

    def filter_indices(self, keys: np.ndarray) -> np.ndarray:
        """Indices of sampled requests within ``keys``."""
        return np.flatnonzero(self.mask(keys))

    def state_dict(self) -> Dict[str, Any]:
        """Exact filter parameters — ``threshold`` is stored directly so a
        restored sampler keeps/drops the identical key set even when the
        rate was derived (``"auto"``) rather than round."""
        return {
            "threshold": self.threshold,
            "modulus": self.modulus,
            "seed": self.seed,
        }

    @classmethod
    def from_state(cls, state: Dict[str, Any]) -> "SpatialSampler":
        sampler = cls.__new__(cls)
        sampler.modulus = int(state["modulus"])
        sampler.threshold = int(state["threshold"])
        sampler.seed = int(state["seed"])
        return sampler


def choose_rate(
    working_set_size: int,
    default_rate: float = 0.001,
    min_objects: int = 8_000,
) -> float:
    """The paper's rate-selection rule (§5.3).

    Default ``R = 0.001``, but raise it for small working sets so at least
    ``min_objects`` distinct objects are expected in the sample (the paper
    ensures >= 8K sampled objects; workloads under 8M objects get a higher
    rate).
    """
    check_positive("working_set_size", working_set_size)
    if working_set_size * default_rate >= min_objects:
        return default_rate
    return min(1.0, min_objects / working_set_size)


class FixedSizeSpatialSampler:
    """SHARDS ``s_max`` mode: adaptively lower the threshold.

    Track the hash value of every distinct sampled object; when the count
    exceeds ``s_max``, drop the object(s) with the largest hash and lower
    the threshold to exclude them from now on.  ``on_evict(key)`` lets the
    consumer (a stack or histogram) remove state for ejected objects.
    """

    def __init__(
        self,
        s_max: int,
        modulus: int = DEFAULT_MODULUS,
        seed: int = 0,
        on_evict: Optional[Callable[[int], None]] = None,
    ) -> None:
        check_positive("s_max", s_max)
        self.s_max = int(s_max)
        self.modulus = int(modulus)
        self.threshold = self.modulus  # start by keeping everything
        self.seed = int(seed)
        self.on_evict = on_evict
        self._tracked: dict[int, int] = {}  # key -> hash mod P

    @property
    def rate(self) -> float:
        return self.threshold / self.modulus

    @property
    def scale(self) -> float:
        return self.modulus / self.threshold

    def __len__(self) -> int:
        return len(self._tracked)

    def offer(self, key: int) -> bool:
        """Present one reference; returns True if it should be processed."""
        return self.offer_hashed(key, int(splitmix64(key, self.seed)))

    def offer_hashed(self, key: int, hashed: int) -> bool:
        """:meth:`offer` with the key's ``splitmix64`` hash precomputed.

        Lets batch consumers hash a whole key column vectorized and
        stream only the adaptive-threshold decision, which is inherently
        sequential.
        """
        h = hashed % self.modulus
        if h >= self.threshold:
            return False
        if key not in self._tracked:
            self._tracked[key] = h
            if len(self._tracked) > self.s_max:
                self._shrink()
                # The key itself may have been ejected by the shrink.
                if key not in self._tracked:
                    return False
        return True

    def state_dict(self) -> Dict[str, Any]:
        return {
            "s_max": self.s_max,
            "modulus": self.modulus,
            "threshold": self.threshold,
            "seed": self.seed,
            "tracked": [[int(k), int(h)] for k, h in self._tracked.items()],
        }

    def load_state(self, state: Dict[str, Any]) -> None:
        if int(state["s_max"]) != self.s_max or int(state["modulus"]) != self.modulus:
            raise ValueError("fixed-size sampler configuration mismatch")
        self.threshold = int(state["threshold"])
        self.seed = int(state["seed"])
        self._tracked = {int(k): int(h) for k, h in state["tracked"]}

    def _shrink(self) -> None:
        """Eject the max-hash object and lower the threshold below it."""
        victim_key = max(self._tracked, key=self._tracked.__getitem__)
        victim_hash = self._tracked.pop(victim_key)
        self.threshold = victim_hash  # strictly exclude the victim's level
        if self.on_evict is not None:
            self.on_evict(victim_key)
        # Eject any other objects at or above the new threshold (ties).
        stale = [k for k, h in self._tracked.items() if h >= self.threshold]
        for k in stale:
            del self._tracked[k]
            if self.on_evict is not None:
                self.on_evict(k)
