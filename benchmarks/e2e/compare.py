"""Compare two sets of benchmark result files, metric by metric.

Usage::

    python3 benchmarks/e2e/compare.py --base A1.json A2.json ... --new B1.json B2.json ...
    python3 benchmarks/e2e/compare.py --base A1.json A2.json ...   # spreads only

For every (metric, workload) pair it prints each side's median and
quartiles (``statistics.quantiles(n=4)``), the relative spread
(interquartile distance over the median), the bound from
``BENCHMARK.json`` and a verdict for the new side:

* ``unresolved`` - either side's spread is wider than the bound, unless
  every new run reads better than every base run (then ``better``);
* ``worse`` / ``better`` - the median moved the wrong / right way by more
  than the bound;
* ``same`` - otherwise.

Per-layer metrics (traced runs) and workloads ``BENCHMARK.json`` does not
gate (serve-ingest) have no verdict; they are listed with their medians
and quartiles only.  The exit code is 1 when any gated end-to-end pair is
``worse`` or ``unresolved``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parents[2]

Key = Tuple[str, str]  # (metric, workload)


def load(paths: List[Path]) -> Dict[Key, List[float]]:
    """Metric values per (metric, workload) over the result files."""
    values: Dict[Key, List[float]] = {}
    for path in paths:
        doc = json.loads(path.read_text())
        for workload, result in doc["workloads"].items():
            for name, metric in result.get("metrics", {}).items():
                values.setdefault((name, workload), []).append(float(metric["value"]))
    return values


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: List[float]) -> float:
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else float("inf")


def verdict(base: List[float], new: List[float], bound: float, lower_is_better: bool) -> str:
    sign = 1.0 if lower_is_better else -1.0
    median_a = quartiles(base)[1]
    median_b = quartiles(new)[1]
    if max(spread(base), spread(new)) > bound:
        if all(sign * (b - a) < 0 for a in base for b in new):
            return "better"
        return "unresolved"
    worse_by = sign * (median_b - median_a) / abs(median_a) if median_a else 0.0
    if worse_by > bound:
        return "worse"
    if worse_by < -bound:
        return "better"
    return "same"


def fmt(x: float) -> str:
    return f"{x:.4g}"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", type=Path, nargs="+", required=True,
                        help="result files of the reference commit")
    parser.add_argument("--new", type=Path, nargs="*", default=[],
                        help="result files of the commit under test")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    gated = {w["name"] for w in spec["workloads"]}
    base = load(args.base)
    new = load(args.new)

    header = f"{'metric':36s} {'workload':14s} {'base median [q1, q3]':>34s} {'spread':>7s}"
    if args.new:
        header += f" {'new median [q1, q3]':>34s} {'spread':>7s} {'bound':>6s}  verdict"
    print(header)
    failing = 0
    for key in sorted(set(base) | set(new), key=lambda k: (k[0] not in e2e, k[1], k[0])):
        name, workload = key
        row = f"{name:36s} {workload:14s}"
        for side in (base, new) if args.new else (base,):
            values = side.get(key)
            if not values:
                row += f" {'-':>34s} {'-':>7s}"
                continue
            q1, median, q3 = quartiles(values)
            row += f" {fmt(median):>12s} [{fmt(q1)}, {fmt(q3)}]".rjust(35)
            row += f" {spread(values):7.3f}"
        if args.new:
            metric = e2e.get(name)
            if metric is None or workload not in gated or key not in base or key not in new:
                row += f" {'-':>6s}  -"
            else:
                result = verdict(base[key], new[key], float(metric["bound"]),
                                 metric["better"] == "lower")
                failing += result in ("worse", "unresolved")
                row += f" {metric['bound']:6.3f}  {result}"
        print(row)
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
