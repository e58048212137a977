"""repro — KRR: efficient modeling of random sampling-based LRU caches.

A full reproduction of Yang, Wang & Wang, *Efficient Modeling of Random
Sampling-Based LRU* (ICPP 2021).  The headline API:

>>> from repro import KRRModel, model_trace
>>> from repro.workloads import ycsb
>>> trace = ycsb.workload_c(2_000, 20_000, alpha=0.99, rng=0)
>>> result = model_trace(trace, k=5, seed=0)
>>> curve = result.mrc()          # predicted K-LRU miss ratio curve

Sub-packages:

- :mod:`repro.core` — the KRR stack, fast updates, size tracking, model
- :mod:`repro.engine` — grid sweeps over one trace or a fleet (ModelSweep)
- :mod:`repro.stack` — Mattson framework and exact LRU oracles
- :mod:`repro.sampling` — SHARDS-style spatial sampling
- :mod:`repro.simulator` — ground-truth K-LRU / LRU / Redis-like caches
- :mod:`repro.baselines` — SHARDS, AET, StatStack, Counter Stacks
- :mod:`repro.workloads` — MSR / YCSB / Twitter-like trace generators
- :mod:`repro.mrc` — miss-ratio-curve objects and error metrics
- :mod:`repro.analysis` — Type A/B classification, table rendering
"""

from . import (
    adaptive,
    analysis,
    baselines,
    core,
    engine,
    mrc,
    partition,
    policies,
    sampling,
    simulator,
    stack,
    workloads,
)
from .core.krr import KRRStack
from .core.model import KRRModel, KRRResult, model_trace
from .engine import ModelSweep, RunReport, SweepConfig, SweepResult
from .mrc.curve import MissRatioCurve
from .workloads.trace import Trace

__version__ = "1.0.0"

__all__ = [
    "KRRModel",
    "KRRResult",
    "KRRStack",
    "MissRatioCurve",
    "ModelSweep",
    "RunReport",
    "SweepConfig",
    "SweepResult",
    "Trace",
    "adaptive",
    "partition",
    "policies",
    "analysis",
    "baselines",
    "core",
    "engine",
    "model_trace",
    "mrc",
    "sampling",
    "simulator",
    "stack",
    "workloads",
]
