"""Seeded benchmark inputs and accuracy references, generated once and cached.

Inputs depend only on ``(workload, seed, scale)`` and are written under
``benchmarks/e2e/.work/inputs`` (git-ignored) the first time they are
needed; later runs reuse them, so generation is never timed.  Each input
directory is built under a temporary name and renamed into place, so an
interrupted generation is simply redone.

The ``klru_mrc`` reference behind the accuracy numbers is cached under
``.work/refs``, keyed by the trace fingerprint plus the sha256 of the
simulator sources (``src/repro/simulator/*.py`` and
``src/repro/cache/eviction.py``): a change to the ground-truth simulator
invalidates it, a change anywhere else does not.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from pathlib import Path
from typing import Any, Callable, Dict

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
WORK = HERE / ".work"

#: stream-csvgz: zipf(0.99) over 200k objects, 2^20 requests as .csv.gz,
#: streamed in 65536-row chunks (16 full chunks per pass).
STREAM_REQUESTS = 1 << 20
STREAM_OBJECTS = 200_000
STREAM_ALPHA = 0.99
STREAM_CHUNK = 65536

#: grid-chunkdir: MSR src1-like (hotspot + repeated scans), 2^18 requests
#: in CRC-checked shards of 2^13 requests (32 shards per pass).
GRID_REQUESTS = 1 << 18
GRID_SHARD = 1 << 13

#: cache-getset: Twitter cluster52.7-like at object scale 4 (100k objects).
CACHE_OPS = 1_000_000
CACHE_SCALE = 4.0

#: Object-size grid points for the MAE references.
REF_POINTS = 8


def input_dir(workload: str, seed: int, scale: float) -> Path:
    return WORK / "inputs" / f"{workload}-s{seed}-x{scale:g}"


def _scaled(n: int, scale: float) -> int:
    return max(1024, int(n * scale))


def _build(directory: Path, make: Callable[[Path], Dict[str, Any]]) -> Dict[str, Any]:
    """Return ``meta.json`` of ``directory``, generating it first if absent."""
    meta_path = directory / "meta.json"
    if meta_path.exists():
        return json.loads(meta_path.read_text())
    tmp = directory.with_name(f"{directory.name}.tmp{os.getpid()}")
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    meta = make(tmp)
    (tmp / "meta.json").write_text(json.dumps(meta, indent=1) + "\n")
    shutil.rmtree(directory, ignore_errors=True)
    tmp.rename(directory)
    return meta


def _fingerprint(trace: Any) -> int:
    from repro.engine.plan import trace_fingerprint

    return int(trace_fingerprint(trace))


def stream_input(seed: int, scale: float) -> Dict[str, Any]:
    """The ``.csv.gz`` trace file for stream-csvgz."""
    from repro.workloads.io import save_csv
    from repro.workloads.trace import Trace
    from repro.workloads.zipf import zipf_trace_keys

    def make(tmp: Path) -> Dict[str, Any]:
        n = _scaled(STREAM_REQUESTS, scale)
        objects = _scaled(STREAM_OBJECTS, scale)
        trace = Trace(zipf_trace_keys(objects, n, STREAM_ALPHA, rng=seed), name="zipf")
        save_csv(trace, tmp / "trace.csv.gz")
        return {"requests": n, "objects": objects, "fingerprint": _fingerprint(trace)}

    directory = input_dir("stream-csvgz", seed, scale)
    meta = _build(directory, make)
    meta["path"] = str(directory / "trace.csv.gz")
    return meta


def grid_input(seed: int, scale: float) -> Dict[str, Any]:
    """The ``save_chunked`` shard directory for grid-chunkdir."""
    from repro.workloads import msr
    from repro.workloads.stream import save_chunked

    def make(tmp: Path) -> Dict[str, Any]:
        n = _scaled(GRID_REQUESTS, scale)
        trace = msr.make_trace("src1", n, seed=seed, scale=max(scale, 0.02))
        shard = max(256, int(GRID_SHARD * scale))
        save_chunked(trace, tmp / "shards", chunk_size=shard)
        return {"requests": n, "shard": shard, "fingerprint": _fingerprint(trace)}

    directory = input_dir("grid-chunkdir", seed, scale)
    meta = _build(directory, make)
    meta["path"] = str(directory / "shards")
    return meta


def cache_input(seed: int, scale: float) -> Dict[str, Any]:
    """The op trace (GET/SET, sizes) for cache-getset, as NPZ."""
    from repro.workloads import twitter
    from repro.workloads.io import save_npz

    def make(tmp: Path) -> Dict[str, Any]:
        n = _scaled(CACHE_OPS, scale)
        trace = twitter.make_trace(
            "cluster52.7", n, seed=seed, variable_size=True,
            scale=CACHE_SCALE * max(scale, 0.02),
        )
        save_npz(trace, tmp / "trace.npz")
        return {
            "ops": n,
            "footprint_bytes": trace.footprint_bytes(),
            "objects": trace.unique_objects(),
        }

    directory = input_dir("cache-getset", seed, scale)
    meta = _build(directory, make)
    meta["path"] = str(directory / "trace.npz")
    return meta


def simulator_digest() -> str:
    """sha256 over the ground-truth simulator sources."""
    digest = hashlib.sha256()
    files = sorted((SRC / "repro" / "simulator").glob("*.py"))
    files.append(SRC / "repro" / "cache" / "eviction.py")
    for path in files:
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def klru_reference(workload: str, meta: Dict[str, Any]) -> Dict[str, list]:
    """Ground-truth K=5 K-LRU curve of a model workload's input trace at
    ``REF_POINTS`` object sizes (cached; simulated on first use)."""
    fingerprint = int(meta["fingerprint"])
    path = WORK / "refs" / f"klru5-{fingerprint:08x}-{simulator_digest()[:16]}.json"
    if path.exists():
        return json.loads(path.read_text())
    from repro.simulator import klru_mrc, object_size_grid
    from repro.workloads.io import load_csv
    from repro.workloads.stream import ChunkedTraceReader

    if workload == "stream-csvgz":
        trace = load_csv(meta["path"])
    else:
        trace = ChunkedTraceReader(meta["path"]).read_all()
    curve = klru_mrc(trace, 5, sizes=object_size_grid(trace, REF_POINTS), rng=0)
    ref = {
        "sizes": [float(s) for s in curve.sizes],
        "miss_ratios": [float(r) for r in curve.miss_ratios],
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.tmp{os.getpid()}")
    tmp.write_text(json.dumps(ref) + "\n")
    tmp.replace(path)
    return ref


def serve_keys(seed: int, scale: float, tenant: int, n: int) -> np.ndarray:
    """One tenant's ingest key stream: zipf(0.99) over 100k objects."""
    from repro.workloads.zipf import zipf_trace_keys

    objects = _scaled(100_000, scale)
    # A [seed, tenant] entropy list gives each tenant its own stream.
    return zipf_trace_keys(objects, n, 0.99, rng=[seed, tenant])


PREPARE: Dict[str, Callable[[int, float], Dict[str, Any]]] = {
    "stream-csvgz": stream_input,
    "grid-chunkdir": grid_input,
    "cache-getset": cache_input,
}
