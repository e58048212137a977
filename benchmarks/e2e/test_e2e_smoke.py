"""Smoke test of the end-to-end benchmark on 2%-scale inputs.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q``.  One
untraced and one traced invocation each run all four workloads for one
second.  The test checks that every metric ``BENCHMARK.json`` names (and,
for serve-ingest, its daemon layers) is printed and returned with its
unit, that every correctness check passed, and that the traced run
recorded spans in every layer the per-layer metrics are built from.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, Tuple

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

from run import SPEC, WORKLOAD_NAMES, metric_units  # noqa: E402

GATED = [w["name"] for w in SPEC["workloads"]]

#: Layers each workload must have traced spans in.
LAYERS = {
    "stream-csvgz": ["workloads.stream.decode", "sampling.spatial.filter",
                     "stack.soa.update", "stack.histogram.record",
                     "mrc.curve.build", "core.model"],
    "grid-chunkdir": ["workloads.stream.decode", "engine.plan.intern",
                      "sampling.spatial.filter", "stack.soa.update",
                      "stack.histogram.record", "mrc.curve.build", "core.vkrr"],
    "cache-getset": ["client.loop", "cache.lru", "cache.eviction.select",
                     "sampling.spatial.mask", "core.windowed.feed", "core.model",
                     "stack.soa.update", "mrc.curve.build"],
    "serve-ingest": ["service.handlers", "service.supervisor.ingest",
                     "service.wal.append", "service.supervisor.query",
                     "core.windowed.feed", "core.krr.update"],
}

Run = Tuple[str, Dict[str, Any], Dict[str, Any], Path]


def run_benchmark(out: Path, *extra: str) -> Run:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--seed", "1", "--scale", "0.02",
         "--seconds", "1", "--out", str(out), *extra],
        capture_output=True, text=True, timeout=900, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    final = json.loads(proc.stdout.strip().splitlines()[-1])
    (result,) = out.glob("result-*.json")
    return proc.stdout, final, json.loads(result.read_text()), result


@pytest.fixture(scope="module")
def untraced(tmp_path_factory: pytest.TempPathFactory) -> Run:
    return run_benchmark(tmp_path_factory.mktemp("e2e"))


@pytest.fixture(scope="module")
def traced(tmp_path_factory: pytest.TempPathFactory) -> Run:
    return run_benchmark(tmp_path_factory.mktemp("trace"), "--trace")


def check_emitted(run: Run, kind: str) -> None:
    stdout, final, _, _ = run
    for workload in WORKLOAD_NAMES:
        for name, unit in metric_units(kind, workload).items():
            entry = final["metrics"][f"{workload}.{name}"]
            assert entry["unit"] == unit
            assert isinstance(entry["value"], (int, float))
            line = rf"^{re.escape(workload)}\s+{re.escape(name)}\s+\S+ {re.escape(unit)}$"
            assert re.search(line, stdout, re.M), (workload, name)


def test_every_end_to_end_metric_emitted_with_unit(untraced: Run) -> None:
    check_emitted(untraced, "end_to_end")
    for name, entry in untraced[1]["metrics"].items():
        assert entry["value"] > 0, name


def test_every_per_layer_metric_emitted_with_unit(traced: Run) -> None:
    check_emitted(traced, "per_layer")


@pytest.mark.parametrize("which", ["untraced", "traced"])
def test_checks_pass(which: str, request: pytest.FixtureRequest) -> None:
    _, final, doc, _ = request.getfixturevalue(which)
    assert final["correct"] and final["failed"] == 0 and final["attempted"] > 0
    for workload in WORKLOAD_NAMES:
        checks = doc["workloads"][workload]["checks"]
        assert checks, workload
        assert all(c["ok"] for c in checks), checks


def test_environment_block(untraced: Run) -> None:
    env = untraced[2]["env"]
    for key in ("cpu_count", "native_kernel_active", "git_sha", "git_dirty",
                "python", "numpy"):
        assert key in env


def test_traced_run_has_spans_in_every_layer(traced: Run) -> None:
    out = traced[3].parent
    for workload, layers in LAYERS.items():
        doc = json.loads((out / f"trace-{workload}.json").read_text())
        totals = dict(doc["totals"])
        totals.update(doc.get("daemon", {}).get("totals", {}))
        for layer in layers:
            assert totals.get(layer, {}).get("count", 0) > 0, (workload, layer)
        layers_doc = traced[2]["workloads"][workload]["layers"]
        if workload != "serve-ingest":
            assert layers_doc["unaccounted_share"] <= 0.10, workload


def test_compare_reports_same_for_identical_runs(untraced: Run) -> None:
    result = str(untraced[3])
    proc = subprocess.run(
        [sys.executable, str(HERE / "compare.py"), "--base", result, "--new", result],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()[1:] if line.strip()]
    assert len(rows) == len(WORKLOAD_NAMES) * len(SPEC["end_to_end"])
    for row in rows:
        # Only the workloads BENCHMARK.json names get a verdict.
        assert row[-1] == ("same" if row[1] in GATED else "-"), proc.stdout


def test_refuses_to_run_without_sources(tmp_path: Path) -> None:
    """With only BENCHMARK.json and this directory, it fails fast."""
    (tmp_path / "benchmarks").mkdir()
    copy = tmp_path / "benchmarks" / "e2e"
    copy.mkdir()
    for path in HERE.glob("*.py"):
        (copy / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    proc = subprocess.run(
        [sys.executable, str(copy / "run.py"), "--workload", "cache-getset",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=120, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
