"""NumPy-vectorized batch kernels for trace-global hot paths.

The modeling stacks in :mod:`repro.stack` are exact but per-access: every
request costs Python dispatch, and Olken's Fenwick formulation spends
``O(log N)`` interpreted loop iterations per reference.  This package
reformulates the trace-global computations as whole-array NumPy passes:

* :mod:`repro.kernels.prep` — one-time trace preparation
  (previous/next-occurrence indices), the raw material the batch
  kernels build on.
* :mod:`repro.kernels.olken` — exact LRU stack distances (object and byte
  granularity) for a whole trace in a handful of vectorized passes,
  bit-identical to the per-access oracles in :mod:`repro.stack.lru_stack`.
"""

from __future__ import annotations

from .olken import batch_stack_distances, prefix_leq
from .prep import next_occurrence, prev_occurrence

__all__ = [
    "batch_stack_distances",
    "next_occurrence",
    "prefix_leq",
    "prev_occurrence",
]
