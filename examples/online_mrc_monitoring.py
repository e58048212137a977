"""Online MRC monitoring with spatial sampling.

Scenario: a cache server wants a live miss-ratio curve for its current
workload — updated continuously, with negligible CPU and memory overhead —
to drive admission/partitioning decisions.  This is the paper's "online
application" (§2.4 + §4.3): KRR with SHARDS-style spatial sampling makes
each request's bookkeeping O(logM) on a tiny sampled stack.

The example replays a workload whose regime *shifts* halfway through
(hotspot moves, working set doubles) and snapshots the MRC every 100k
requests, showing the curve tracking the shift.

Run:  python examples/online_mrc_monitoring.py
"""

import numpy as np

from repro import KRRModel
from repro.workloads import Trace, patterns


def build_shifting_workload() -> Trace:
    """Phase 1: tight hotspot over 20k keys; phase 2: wider, cooler reuse."""
    phase1 = patterns.hotspot(20_000, 300_000, hot_fraction=0.05, hot_prob=0.9, rng=1)
    phase2 = patterns.hotspot(60_000, 300_000, hot_fraction=0.3, hot_prob=0.7,
                              key_offset=10_000, rng=2)
    return Trace(patterns.mix_phases([phase1, phase2]), name="shifting")


def main() -> None:
    trace = build_shifting_workload()
    # K=5 cache, 2% spatial sample: the model touches ~2% of requests and
    # tracks ~2% of objects; distances are rescaled internally by 1/R.
    model = KRRModel(k=5, sampling_rate=0.02, seed=3)

    snapshot_every = 100_000
    probe_sizes = (2_000, 10_000, 40_000)
    print(f"{'requests':>10} | " + " | ".join(f"mr@{s//1000}k" for s in probe_sizes)
          + " | sampled")
    for start in range(0, len(trace), snapshot_every):
        chunk = trace[start : start + snapshot_every]
        model.access_many(chunk.keys)
        curve = model.mrc()
        cells = " | ".join(f"{float(curve(s)):6.3f}" for s in probe_sizes)
        print(f"{start + len(chunk):>10} | {cells} |  {model.stats.requests_sampled}")

    print("\nNote how the miss ratio at 10k/40k objects rises after request "
          "300k as the working set widens — the online curve follows the "
          "workload shift while sampling only "
          f"{model.stats.effective_rate:.1%} of requests.")


if __name__ == "__main__":
    main()
