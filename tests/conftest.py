"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro._util import RngLike, ensure_rng
from repro.core.correction import corrected_k
from repro.core.krr import KRRStack
from repro.mrc.builder import from_distance_histogram
from repro.mrc.curve import MissRatioCurve
from repro.sampling.spatial import SpatialSampler
from repro.stack.histogram import DistanceHistogram
from repro.workloads import Trace, ycsb
from repro.workloads.zipf import ScrambledZipfGenerator


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def small_zipf_trace() -> Trace:
    """A modest Zipfian trace: 500 objects, 8000 requests."""
    gen = ScrambledZipfGenerator(500, 0.9, rng=7)
    return Trace(gen.sample(8_000), name="zipf500")


@pytest.fixture
def tiny_trace() -> Trace:
    """A deterministic 12-request trace with repeats and a cold tail."""
    keys = np.array([1, 2, 3, 1, 2, 4, 1, 5, 3, 2, 6, 1])
    sizes = np.array([10, 20, 30, 10, 20, 40, 10, 50, 30, 20, 60, 10])
    return Trace(keys, sizes, name="tiny")


@pytest.fixture
def scan_trace() -> Trace:
    """A pure cyclic scan: LRU pathological, RR-friendly (Type A)."""
    one_pass = np.arange(200, dtype=np.int64)
    return Trace(np.tile(one_pass, 25), name="scan200")


def brute_force_lru_distances(keys) -> list[int]:
    """Oracle: LRU stack distances by explicit list manipulation."""
    stack: list[int] = []
    out: list[int] = []
    for k in keys:
        if k in stack:
            d = stack.index(k) + 1
            stack.remove(k)
        else:
            d = -1
        stack.insert(0, k)
        out.append(d)
    return out


def scalar_model_reference(
    keys,
    k: int,
    strategy: str = "backward",
    rate=None,
    seed: RngLike = None,
) -> tuple[MissRatioCurve, tuple[int, int, int, int, int]]:
    """Oracle for ``KRRModel(k, strategy, sampling_rate=rate, seed=seed)``.

    Built from the parts, not the model: the spatial filter, a scalar
    :class:`KRRStack` at ``corrected_k(k)`` on the model's seed and a
    :class:`DistanceHistogram`.  Returns the object curve and the five
    ``ModelStats`` counters in field order.
    """
    keys = np.asarray(keys, dtype=np.int64)
    sampler = SpatialSampler(rate) if rate is not None else None
    kept = keys[sampler.filter_indices(keys)] if sampler is not None else keys
    stack = KRRStack(corrected_k(k), strategy=strategy, rng=ensure_rng(seed))
    hist = DistanceHistogram(scale=sampler.scale if sampler is not None else 1.0)
    distances, _ = stack.access_many(kept.tolist())
    hist.record_many(distances)
    counters = (
        int(keys.shape[0]),
        int(kept.shape[0]),
        distances.count(-1),
        stack.updates,
        stack.total_swaps,
    )
    return from_distance_histogram(hist), counters
