"""Property tests for the vectorized trace-preparation and Olken kernels.

The batch kernel must be *bit-identical* to the streaming oracles in
:mod:`repro.stack.lru_stack` — these tests drive randomized traces (with
heavy key reuse, so ties and re-accesses land inside single base blocks)
through both and compare elementwise, at object and byte granularity, and
at base-block sizes small enough to exercise several merge-doubling
levels.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels import (
    batch_stack_distances,
    next_occurrence,
    prefix_leq,
    prev_occurrence,
)
from repro.stack.lru_stack import LinkedListLRUStack, lru_histograms
from repro.workloads.trace import Trace


def oracle_distances(keys, sizes=None):
    """Stream through the linked-list oracle: (distances, byte_distances)."""
    stack = LinkedListLRUStack()
    dists, bytes_ = [], []
    for i, k in enumerate(keys):
        d, b = stack.access(int(k), int(sizes[i]) if sizes is not None else 1)
        dists.append(d)
        bytes_.append(b)
    return np.asarray(dists), np.asarray(bytes_)


# Small key ranges force dense reuse; tiny base blocks force merge levels.
keys_strategy = st.lists(st.integers(0, 12), min_size=0, max_size=200)


class TestPrep:
    def test_prev_next_occurrence(self):
        keys = np.array([1, 2, 1, 1, 2], dtype=np.int64)
        assert np.array_equal(prev_occurrence(keys), [-1, -1, 0, 2, 1])
        assert np.array_equal(next_occurrence(keys), [2, 4, 3, 5, 5])

    def test_empty_and_singleton(self):
        assert prev_occurrence(np.array([], dtype=np.int64)).shape == (0,)
        assert np.array_equal(prev_occurrence(np.array([5])), [-1])
        assert np.array_equal(next_occurrence(np.array([5])), [1])

    @given(keys_strategy)
    def test_prev_occurrence_matches_dict_scan(self, key_list):
        keys = np.asarray(key_list, dtype=np.int64)
        last: dict[int, int] = {}
        expected = []
        for i, k in enumerate(key_list):
            expected.append(last.get(k, -1))
            last[k] = i
        assert np.array_equal(prev_occurrence(keys), expected)


class TestPrefixLeq:
    @given(
        st.lists(st.integers(-1, 20), min_size=0, max_size=120),
        st.sampled_from([2, 4, 128]),
    )
    def test_counts_match_quadratic(self, values, base_block):
        v = np.asarray(values, dtype=np.int64)
        counts, _ = prefix_leq(v, base_block=base_block)
        expected = [int((v[:i] <= v[i]).sum()) for i in range(v.shape[0])]
        assert np.array_equal(counts, expected)

    @given(
        st.lists(st.integers(-1, 20), min_size=0, max_size=120),
        st.sampled_from([2, 4, 128]),
    )
    def test_weighted_sums_match_quadratic(self, values, base_block):
        v = np.asarray(values, dtype=np.int64)
        w = (np.arange(v.shape[0], dtype=np.int64) % 7) + 1
        _, wsums = prefix_leq(v, w, base_block=base_block)
        expected = [int(w[:i][v[:i] <= v[i]].sum()) for i in range(v.shape[0])]
        assert np.array_equal(wsums, expected)

    def test_rejects_sentinel_value(self):
        with pytest.raises(ValueError):
            prefix_leq(np.array([0, np.iinfo(np.int64).max]))


class TestBatchStackDistances:
    @given(keys_strategy, st.sampled_from([2, 8, 128]))
    @settings(max_examples=60)
    def test_object_distances_match_oracle(self, key_list, base_block):
        keys = np.asarray(key_list, dtype=np.int64)
        dists, byte_dists = batch_stack_distances(keys, base_block=base_block)
        expected, _ = oracle_distances(keys)
        assert np.array_equal(dists, expected)
        assert byte_dists is None

    @given(
        keys_strategy,
        st.sampled_from([2, 8, 128]),
        st.integers(0, 2**31),
    )
    @settings(max_examples=60)
    def test_byte_distances_match_oracle(self, key_list, base_block, size_seed):
        keys = np.asarray(key_list, dtype=np.int64)
        rng = np.random.default_rng(size_seed)
        sizes = rng.integers(1, 1000, size=keys.shape[0])
        dists, byte_dists = batch_stack_distances(
            keys, sizes, base_block=base_block
        )
        exp_d, exp_b = oracle_distances(keys, sizes)
        assert np.array_equal(dists, exp_d)
        assert np.array_equal(byte_dists, exp_b)

    def test_reaccess_within_one_base_block(self):
        """Ties and re-accesses entirely inside one base block resolve
        by the broadcast base case, no merge level involved."""
        keys = np.array([1, 2, 1, 2, 1, 1, 3, 2], dtype=np.int64)
        sizes = np.array([5, 7, 6, 7, 6, 9, 2, 8], dtype=np.int64)
        dists, byte_dists = batch_stack_distances(keys, sizes, base_block=128)
        exp_d, exp_b = oracle_distances(keys, sizes)
        assert np.array_equal(dists, exp_d)
        assert np.array_equal(byte_dists, exp_b)

    def test_reaccess_spanning_merge_levels(self):
        """base_block=2 pushes every reuse window through argsort merges."""
        rng = np.random.default_rng(42)
        keys = rng.integers(0, 40, size=500)
        sizes = rng.integers(1, 512, size=500)
        dists, byte_dists = batch_stack_distances(keys, sizes, base_block=2)
        exp_d, exp_b = oracle_distances(keys, sizes)
        assert np.array_equal(dists, exp_d)
        assert np.array_equal(byte_dists, exp_b)

    def test_size_length_mismatch(self):
        with pytest.raises(ValueError):
            batch_stack_distances(np.array([1, 2]), np.array([1]))

    def test_empty_trace(self):
        d, b = batch_stack_distances(np.array([], dtype=np.int64))
        assert d.shape == (0,) and b is None
        d, b = batch_stack_distances(
            np.array([], dtype=np.int64), np.array([], dtype=np.int64)
        )
        assert d.shape == (0,) and b.shape == (0,)


class TestVectorizedHistograms:
    def test_lru_histograms_vectorized_matches_streaming(self, rng):
        keys = rng.integers(0, 300, size=5000)
        sizes = rng.integers(1, 900, size=5000)
        trace = Trace(keys, sizes, name="t")
        o_vec, b_vec = lru_histograms(trace, vectorized=True)
        o_str, b_str = lru_histograms(trace, vectorized=False)
        assert np.array_equal(o_vec.counts(), o_str.counts())
        assert o_vec.cold_misses == o_str.cold_misses
        assert o_vec.total == o_str.total
        s_vec, m_vec = b_vec.miss_ratio_curve()
        s_str, m_str = b_str.miss_ratio_curve()
        assert np.array_equal(s_vec, s_str)
        assert np.array_equal(m_vec, m_str)

    def test_linked_list_oracle_agrees_too(self, tiny_trace):
        o_vec, _ = lru_histograms(tiny_trace, vectorized=True)
        o_ll, _ = lru_histograms(
            tiny_trace, vectorized=False, use_tree=False
        )
        assert np.array_equal(o_vec.counts(), o_ll.counts())
