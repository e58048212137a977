"""The paper's contribution: the KRR probabilistic stack and MRC model."""

from .correction import DEFAULT_EXPONENT, corrected_k, uncorrected_k
from .eviction import (
    eviction_cdf,
    eviction_prob_with_replacement,
    eviction_prob_without_replacement,
    expected_swap_positions,
    expected_swap_positions_bound,
    inverse_eviction_cdf,
    krr_eviction_prob,
    no_swap_probability_interval,
    stay_probability,
    swap_probability,
)
from .fixed_size_model import FixedSizeKRRModel
from .kfr import KFRModel, KFRStack
from .krr import KRRStack
from .model import KRRModel, KRRResult, ModelStats, model_trace
from .ttl_model import TTLAwareKRRModel
from .windowed import WindowedKRRModel
from .sizearray import SizeArray
from .updates import (
    DRAW_BLOCK,
    BackwardUpdate,
    LinearUpdate,
    TopDownUpdate,
    apply_swaps,
    backward_draw_block,
    make_strategy,
)
from .vkrr import MultiKRR, SweepConfig, SweepResult, spawn_seeds

__all__ = [
    "BackwardUpdate",
    "DEFAULT_EXPONENT",
    "DRAW_BLOCK",
    "FixedSizeKRRModel",
    "KFRModel",
    "KFRStack",
    "KRRModel",
    "KRRResult",
    "KRRStack",
    "LinearUpdate",
    "ModelStats",
    "MultiKRR",
    "SizeArray",
    "SweepConfig",
    "SweepResult",
    "TTLAwareKRRModel",
    "WindowedKRRModel",
    "TopDownUpdate",
    "apply_swaps",
    "backward_draw_block",
    "corrected_k",
    "eviction_cdf",
    "eviction_prob_with_replacement",
    "eviction_prob_without_replacement",
    "expected_swap_positions",
    "expected_swap_positions_bound",
    "inverse_eviction_cdf",
    "krr_eviction_prob",
    "make_strategy",
    "model_trace",
    "no_swap_probability_interval",
    "spawn_seeds",
    "stay_probability",
    "swap_probability",
    "uncorrected_k",
]
