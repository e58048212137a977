"""Machine-speed probes: the yardsticks single-process timings are scaled by.

On the reference box (a shared VM whose 2 vCPUs together get about one
CPU's worth of time) the machine slows down by 30-100% for
seconds to minutes at a time, so raw seconds from runs minutes apart are
not comparable: a 10-seed series of one workload spread 15-45% between
quartiles.  The benchmark therefore runs a short fixed probe *between*
slices of measured work (every trace chunk, every 50k cache ops, and
right after set-up) and scales each slice's time by the probe's speed
relative to a quiet run of the same box: a slice measured while the
probe ran at half speed counts half.  Reported numbers are seconds at
that reference speed; the raw seconds stay in the result file.

Code slows down by different amounts in a slow phase (interpreter loops
by 2x, the native SoA kernel by 1.4x), so there are two probes and each
workload names the one whose slowdown matches its own:

``interpreter``
    dict stores and lookups with integer arithmetic, the work of the CSV
    decode and the cache's get/put.
``native``
    ``numpy.sort`` of a fixed 16k-element array, which tracked the grid's
    chain-walk kernel within 6% where the interpreter probe missed by 24%,
    and slows like process set-up (imports) does.

The serve workload is not scaled: its latency depends on how client,
daemon and workers share the CPU, which a single-thread probe misses.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Tuple

import numpy as np

_SORT_INPUT = np.random.default_rng(0).random(1 << 14)


def _interpreter_loop() -> float:
    start = time.perf_counter()
    table: dict = {}
    acc = 0
    for i in range(20_000):
        key = (i * 2654435761) & 0x3FFF
        table[key] = i
        acc += table.get(key ^ 1, 0) & 7
    return time.perf_counter() - start


def _native_loop() -> float:
    start = time.perf_counter()
    for _ in range(50):
        np.sort(_SORT_INPUT)
    return time.perf_counter() - start


#: kind -> (probe, its seconds on the reference box when quiet: a 2.1 GHz
#: Xeon vCPU with CPython 3.11 and NumPy 2.4, tenth percentile of 500 runs).
PROBES: Dict[str, Tuple[Callable[[], float], float]] = {
    "interpreter": (_interpreter_loop, 0.0042),
    "native": (_native_loop, 0.0037),
}


def speed(kind: str) -> float:
    """Reference time / time measured now (0.5: the box runs at half speed)."""
    loop, reference_s = PROBES[kind]
    return reference_s / loop()
