"""Stack-algorithm substrate: Mattson framework, exact LRU oracles, histograms."""

from ._native import native_kernel_active
from .fenwick import FenwickTree, GrowableFenwick
from .histogram import ByteDistanceHistogram, DistanceHistogram
from .lru_stack import (
    LinkedListLRUStack,
    TreeLRUStack,
    lru_distance_arrays,
    lru_distance_stream,
    lru_histograms,
)
from .mattson import (
    GenericStack,
    krr_policy,
    krr_stack,
    lru_policy,
    lru_stack,
    rr_policy,
    rr_stack,
)
from .order_statistic_tree import OrderStatisticTreap
from .priority_stack import (
    PriorityStack,
    lfu_distances,
    lfu_mrc,
    mru_distances,
    opt_distances,
    opt_mrc,
)
from .soa import SoAKRRStack

__all__ = [
    "ByteDistanceHistogram",
    "DistanceHistogram",
    "FenwickTree",
    "GenericStack",
    "GrowableFenwick",
    "LinkedListLRUStack",
    "OrderStatisticTreap",
    "PriorityStack",
    "SoAKRRStack",
    "TreeLRUStack",
    "lfu_distances",
    "lfu_mrc",
    "mru_distances",
    "opt_distances",
    "opt_mrc",
    "krr_policy",
    "krr_stack",
    "lru_distance_arrays",
    "lru_distance_stream",
    "lru_histograms",
    "lru_policy",
    "lru_stack",
    "native_kernel_active",
    "rr_policy",
    "rr_stack",
]
