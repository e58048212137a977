"""State machinery tests: snapshot/restore must be bit-identical.

The service's crash-safety story rests on ``state_dict()`` /
``load_state()`` round-trips being *exact*: a model restored from a
JSON-serialized snapshot (as the daemon writes them) and fed the second
half of a trace must end in the same state — same RNG stream, same
histograms, same curve bytes — as a model that streamed the whole trace
uninterrupted.  Every test here splits a trace, snapshots at the seam
through a real ``json.dumps``/``loads`` round-trip, and compares final
``state_dict()`` and curve arrays for equality (not closeness).
"""

from __future__ import annotations

import functools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._util import ensure_rng
from repro.baselines.shards import Shards
from repro.core.correction import corrected_k
from repro.core.krr import KRRStack
from repro.core.model import KRRModel
from repro.core.updates import DRAW_BLOCK
from repro.core.windowed import WindowedKRRModel
from repro.sampling.spatial import SpatialSampler
from repro.stack.soa import SoAKRRStack, int64_keys
from repro.workloads.zipf import ScrambledZipfGenerator


def _keys(n: int, objects: int = 300, seed: int = 11) -> list[int]:
    gen = ScrambledZipfGenerator(objects, 0.9, rng=seed)
    return gen.sample(n).tolist()


def _roundtrip(state: dict) -> dict:
    """Exactly what the daemon does: through JSON bytes and back."""
    return json.loads(json.dumps(state))


@pytest.mark.parametrize("strategy", ["backward", "topdown", "linear"])
@pytest.mark.parametrize("rate", [None, 0.05])
def test_krr_model_resume_is_bit_identical(strategy, rate):
    keys = _keys(6_000)
    full = KRRModel(k=4, strategy=strategy, sampling_rate=rate, seed=3)
    for key in keys:
        full.access(key)

    first = KRRModel(k=4, strategy=strategy, sampling_rate=rate, seed=3)
    for key in keys[:3_000]:
        first.access(key)
    resumed = KRRModel.from_state(_roundtrip(first.state_dict()))
    for key in keys[3_000:]:
        resumed.access(key)

    assert resumed.state_dict() == full.state_dict()
    a, b = resumed.mrc(), full.mrc()
    assert np.array_equal(a.sizes, b.sizes)
    assert np.array_equal(a.miss_ratios, b.miss_ratios)


def test_krr_model_tracked_sizes_resume():
    keys = _keys(4_000)
    sizes = [((k * 2654435761) % 900) + 10 for k in keys]
    full = KRRModel(k=5, track_sizes=True, seed=9)
    for k, s in zip(keys, sizes):
        full.access(k, s)

    first = KRRModel(k=5, track_sizes=True, seed=9)
    for k, s in zip(keys[:2_000], sizes[:2_000]):
        first.access(k, s)
    resumed = KRRModel.from_state(_roundtrip(first.state_dict()))
    for k, s in zip(keys[2_000:], sizes[2_000:]):
        resumed.access(k, s)

    assert resumed.state_dict() == full.state_dict()
    a, b = resumed.byte_mrc(), full.byte_mrc()
    assert np.array_equal(a.miss_ratios, b.miss_ratios)


def test_krr_model_rejects_config_mismatch():
    model = KRRModel(k=4, seed=1)
    model.access(1)
    state = model.state_dict()
    other = KRRModel(k=7, seed=1)
    with pytest.raises(ValueError, match="configuration"):
        other.load_state(state)


def test_krr_model_rejects_wrong_kind():
    model = KRRModel(k=4, seed=1)
    with pytest.raises(ValueError):
        model.load_state({"kind": "something-else", "version": 1})


@pytest.mark.parametrize("strategy", ["backward", "topdown"])
def test_krr_model_stats_follow_the_stack_after_every_feed(strategy):
    """``stats`` and a snapshot's ``"stats"`` carry the stack's update and
    swap counters right after ``access`` and ``access_many``, before any
    curve is read, and a restore takes them from the restored stack."""
    keys = _keys(300)
    model = KRRModel(k=4, strategy=strategy, seed=5)

    def assert_synced(m: KRRModel) -> None:
        counters = (m._stack.updates, m._stack.total_swaps)
        assert (m.stats.stack_updates, m.stats.swap_positions) == counters
        s = m.state_dict()["stats"]
        assert (s["stack_updates"], s["swap_positions"]) == counters

    for key in keys[:150]:
        model.access(key)
    assert model._stack.updates == 150
    assert_synced(model)
    model.access_many(keys[150:])
    assert model._stack.updates == 300
    assert_synced(model)

    stale = model.state_dict()
    stale["stats"]["stack_updates"] = stale["stats"]["swap_positions"] = 0
    restored = KRRModel.from_state(_roundtrip(stale))
    assert restored._stack.updates == 300
    assert_synced(restored)


def test_windowed_model_resume_across_rotations():
    keys = _keys(9_000, objects=150)
    window = 2_000  # several rotations inside 9k requests
    full = WindowedKRRModel(k=4, window=window, seed=5)
    for key in keys:
        full.access(key)
    assert full.rotations >= 4

    first = WindowedKRRModel(k=4, window=window, seed=5)
    for key in keys[:4_500]:
        first.access(key)
    resumed = WindowedKRRModel.from_state(_roundtrip(first.state_dict()))
    for key in keys[4_500:]:
        resumed.access(key)

    assert resumed.state_dict() == full.state_dict()
    assert resumed.counters() == full.counters()
    a, b = resumed.mrc(), full.mrc()
    assert np.array_equal(a.miss_ratios, b.miss_ratios)


def test_windowed_counters_track_requests_and_rotations():
    model = WindowedKRRModel(k=3, window=100, seed=1)
    for i in range(275):
        model.access(i % 40)
    c = model.counters()
    # Rotation fires every window//2 = 50 requests.
    assert c["requests_seen"] == 275
    assert c["rotations"] == 5
    assert c["since_rotation"] == 25
    assert c["coverage"] == 75
    assert c["window"] == 100
    assert model.coverage == min(model.requests_seen, 50 + 25)


def test_windowed_access_many_equals_access_loop():
    keys = _keys(2_000, objects=80)
    sizes = [(k % 7) + 1 for k in keys]
    one = WindowedKRRModel(k=4, window=500, seed=2, track_sizes=True)
    for k, s in zip(keys, sizes):
        one.access(k, s)
    many = WindowedKRRModel(k=4, window=500, seed=2, track_sizes=True)
    many.access_many(keys, sizes)
    assert one.state_dict() == many.state_dict()


def test_shards_resume_is_behaviorally_exact():
    keys = _keys(8_000, objects=400)
    full = Shards(rate=0.3, seed=2, byte_bin=4096)
    for k in keys:
        full.access(k, (k % 50) + 1)

    first = Shards(rate=0.3, seed=2, byte_bin=4096)
    for k in keys[:4_000]:
        first.access(k, (k % 50) + 1)
    resumed = Shards.from_state(_roundtrip(first.state_dict()))
    for k in keys[4_000:]:
        resumed.access(k, (k % 50) + 1)

    assert resumed.state_dict() == full.state_dict()
    a, b = resumed.mrc(), full.mrc()
    assert np.array_equal(a.miss_ratios, b.miss_ratios)
    ab, bb = resumed.byte_mrc(), full.byte_mrc()
    assert np.array_equal(ab.miss_ratios, bb.miss_ratios)


def test_spatial_sampler_state_preserves_exact_threshold():
    sampler = SpatialSampler(0.123456789, seed=42)
    restored = SpatialSampler.from_state(_roundtrip(sampler.state_dict()))
    assert restored.threshold == sampler.threshold
    assert restored.modulus == sampler.modulus
    assert restored.seed == sampler.seed
    for key in range(5_000):
        assert restored.keep(key) == sampler.keep(key)


# ----------------------------------------------------------------------
# one snapshot layout for both stacks
# ----------------------------------------------------------------------
_MASK = 2**64 - 1


def _hashed(keys: list[int]) -> list[int]:
    """Raw 64-bit keys; about half of them are >= 2^63."""
    return [(0x9E3779B97F4A7C15 * (key + 1)) & _MASK for key in keys]


@functools.lru_cache(maxsize=None)
def _boundary_stream() -> tuple[list[int], int]:
    """Keys, and a cut after which a backward stack has just served the
    last draw of its first block.

    Alternating two keys keeps every hit at position 2, where an update
    takes one draw, so the draw cursor stops exactly at the end of the
    block.  Zipf traffic follows the cut.
    """
    stack = KRRStack(4.0, strategy="backward", rng=ensure_rng(5))
    draws = stack._strategy
    keys: list[int] = []
    while not (draws._pos == DRAW_BLOCK and draws._buf):
        keys += _hashed([len(keys) % 2])
        stack.access(keys[-1])
    cut = len(keys)
    keys += _hashed([i % 2 for i in range(cut, cut + 40)])
    keys += _hashed(_keys(1_200, objects=150, seed=4))
    return keys, cut


def _generator(state=None):
    """A generator on seed 5, or one that continues from ``state``."""
    rng = ensure_rng(5)
    if state is not None:
        rng.bit_generator.state = state
    return rng


def _stack(kind: str, strategy: str, rng, use_native):
    if kind == "scalar":
        return KRRStack(4.0, strategy=strategy, rng=rng)
    return SoAKRRStack(4.0, rng=rng, use_native=use_native)


def _feed(stack, keys: list[int], chunk: int) -> list[int]:
    out: list[int] = []
    for lo in range(0, len(keys), chunk):
        distances, _ = stack.access_many(keys[lo : lo + chunk])
        out.extend(int(d) for d in distances)
    return out


@pytest.mark.parametrize("use_native", [None, False])
@pytest.mark.parametrize("src, dst", [("scalar", "soa"), ("soa", "scalar")])
@pytest.mark.parametrize("strategy", ["backward"])
@settings(max_examples=5, deadline=None)
@given(data=st.data())
def test_stack_snapshot_moves_between_stacks(strategy, src, dst, use_native, data):
    """A snapshot of either stack, taken mid-block or with the block just
    spent, continues on the other stack exactly as a stack that never
    stopped: same distances, counters and order (keys >= 2^63 wrap mod
    2^64 on SoA, so orders are compared wrapped).  SoA walks backward
    only, so that is the one strategy both stacks share."""
    keys, spent = _boundary_stream()
    cut = data.draw(
        st.one_of(st.integers(0, len(keys)), st.just(spent)), label="cut"
    )
    chunk = data.draw(st.sampled_from([7, 613, len(keys)]), label="chunk")

    full = _stack(dst, strategy, 5, use_native)
    expected = _feed(full, keys, chunk)[cut:]

    rng = _generator()
    first = _stack(src, strategy, rng, use_native)
    _feed(first, keys[:cut], chunk)
    state = _roundtrip(first.state_dict())
    resumed = _stack(dst, strategy, _generator(rng.bit_generator.state), use_native)
    resumed.load_state(state)
    tail = keys[cut:]
    if src == "soa":  # its snapshot holds the keys reduced mod 2^64
        tail = int64_keys(tail).tolist()

    assert _feed(resumed, tail, chunk) == expected
    assert (resumed.updates, resumed.total_swaps) == (
        full.updates,
        full.total_swaps,
    )
    assert int64_keys(resumed.keys_in_stack_order()).tolist() == int64_keys(
        full.keys_in_stack_order()
    ).tolist()


def test_externally_interned_stack_refuses_state_dict():
    stack = SoAKRRStack(4.0, rng=0)
    stack.access_many_interned(np.arange(5, dtype=np.int64))
    with pytest.raises(RuntimeError):
        stack.state_dict()


def _scalar_stack_state(k, strategy, rate, keys, seed):
    """What a scalar :class:`KRRStack` model writes for ``keys``: the
    layout of snapshots from releases whose workers ran that stack, raw
    keys >= 2^63 included; returns it with the generator state."""
    rng = ensure_rng(seed)
    stack = KRRStack(corrected_k(k), strategy=strategy, rng=rng)
    if rate is not None:
        sampler = SpatialSampler(rate)
        keys = [key for key in keys if sampler.keep(key)]
    stack.access_many(keys)
    return stack.state_dict(), rng.bit_generator.state


def _generation_seeds(seed, count):
    """The seeds a ``WindowedKRRModel`` on ``seed`` gives its first
    ``count`` generations: successive draws of its own generator."""
    rng = ensure_rng(seed)
    return [int(rng.integers(0, 2**63)) for _ in range(count)]


def _as_scalar_snapshot(model_state, stack_state, rng_state):
    assert model_state["rng"] == rng_state  # same draws on either stack
    return {**model_state, "engine": "scalar", "stack": stack_state}


@pytest.mark.parametrize("rate", [None, 0.3])
@pytest.mark.parametrize("strategy", ["backward", "linear"])
def test_scalar_stack_model_snapshot_resumes(strategy, rate):
    keys = _hashed(_keys(3_000, objects=200))
    full = KRRModel(k=4, strategy=strategy, sampling_rate=rate, seed=8)
    full.access_many(keys)

    first = KRRModel(k=4, strategy=strategy, sampling_rate=rate, seed=8)
    first.access_many(keys[:1_700])
    snapshot = _as_scalar_snapshot(
        first.state_dict(),
        *_scalar_stack_state(4, strategy, rate, keys[:1_700], seed=8),
    )
    resumed = KRRModel.from_state(_roundtrip(snapshot))
    resumed.access_many(keys[1_700:])

    assert resumed.state_dict() == full.state_dict()
    assert np.array_equal(resumed.mrc().miss_ratios, full.mrc().miss_ratios)
    assert resumed.stats == full.stats


@pytest.mark.parametrize("strategy", ["backward", "linear"])
def test_scalar_stack_windowed_snapshot_resumes(strategy):
    keys = _hashed(_keys(5_000, objects=150))
    window, cut = 1_600, 2_000  # cut after rotation 2, 400 into the third
    half = window // 2
    full = WindowedKRRModel(k=3, window=window, strategy=strategy, seed=6)
    full.access_many(keys)

    first = WindowedKRRModel(k=3, window=window, strategy=strategy, seed=6)
    first.access_many(keys[:cut])
    assert first.rotations == cut // half == 2
    # The current generation started a rotation before the warming one.
    seeds = _generation_seeds(6, 4)
    snapshot = first.state_dict()
    for name, gen, start in (("current", 2, half), ("warming", 3, 2 * half)):
        snapshot[name] = _as_scalar_snapshot(
            snapshot[name],
            *_scalar_stack_state(3, strategy, None, keys[start:cut], seeds[gen]),
        )
    resumed = WindowedKRRModel.from_state(_roundtrip(snapshot))
    resumed.access_many(keys[cut:])

    assert resumed.rotations == full.rotations >= 4
    assert resumed.state_dict() == full.state_dict()
    assert np.array_equal(resumed.mrc().miss_ratios, full.mrc().miss_ratios)


# ----------------------------------------------------------------------
# linear snapshots written while SoA still ran linear
# ----------------------------------------------------------------------
def _sizes_in_stack_order(stack_state: dict) -> dict:
    """``stack_state`` with its ``sizes`` pairs in stack order: the layout
    of linear snapshots from releases that ran ``linear`` on SoA."""
    sizes = dict(map(tuple, stack_state["sizes"]))
    pairs = [[key, sizes[key]] for key in stack_state["stack"]]
    assert pairs != stack_state["sizes"]  # the reorder is not a no-op
    return {**stack_state, "sizes": pairs}


def _sizes_as_map(model_state: dict) -> dict:
    """``model_state`` with its stack's ``sizes`` pairs as a map: the
    scalar stack writes them in first-insertion order, SoA wrote stack
    order, and both load them as a map."""
    stack = model_state["stack"]
    sizes = dict(map(tuple, stack["sizes"]))
    return {**model_state, "stack": {**stack, "sizes": sizes}}


def _linear_stream(n: int, objects: int) -> tuple[np.ndarray, np.ndarray]:
    """A ``uint64`` key column (about half >= 2^63, which every stack
    reduces mod 2^64 from a column) and its object sizes."""
    keys = np.array(_hashed(_keys(n, objects=objects)), dtype=np.uint64)
    return keys, (keys % np.uint64(97)).astype(np.int64) + 1


@pytest.mark.parametrize("rate", [None, 0.3])
def test_soa_linear_model_snapshot_resumes(rate):
    keys, sizes = _linear_stream(3_000, 200)
    full = KRRModel(k=4, strategy="linear", sampling_rate=rate, seed=8)
    full.access_many(keys, sizes)

    first = KRRModel(k=4, strategy="linear", sampling_rate=rate, seed=8)
    first.access_many(keys[:1_700], sizes[:1_700])
    snapshot = first.state_dict()
    snapshot["stack"] = _sizes_in_stack_order(snapshot["stack"])
    resumed = KRRModel.from_state(_roundtrip(snapshot))
    resumed.access_many(keys[1_700:], sizes[1_700:])

    assert _sizes_as_map(resumed.state_dict()) == _sizes_as_map(full.state_dict())
    assert np.array_equal(resumed.mrc().miss_ratios, full.mrc().miss_ratios)
    assert resumed.stats == full.stats


def test_soa_linear_windowed_snapshot_resumes():
    keys, sizes = _linear_stream(5_000, 150)
    window, cut = 1_600, 2_000  # cut after rotation 2, 400 into the third
    full = WindowedKRRModel(k=3, window=window, strategy="linear", seed=6)
    full.access_many(keys, sizes)

    first = WindowedKRRModel(k=3, window=window, strategy="linear", seed=6)
    first.access_many(keys[:cut], sizes[:cut])
    snapshot = first.state_dict()
    for name in ("current", "warming"):
        snapshot[name]["stack"] = _sizes_in_stack_order(snapshot[name]["stack"])
    resumed = WindowedKRRModel.from_state(_roundtrip(snapshot))
    resumed.access_many(keys[cut:], sizes[cut:])

    def as_map(state: dict) -> dict:
        generations = ("current", "warming")
        return {**state, **{g: _sizes_as_map(state[g]) for g in generations}}

    assert resumed.rotations == full.rotations >= 4
    assert as_map(resumed.state_dict()) == as_map(full.state_dict())
    assert np.array_equal(resumed.mrc().miss_ratios, full.mrc().miss_ratios)
