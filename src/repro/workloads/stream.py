"""Out-of-core trace streaming: bounded-memory chunked trace access.

Everything downstream of this module (model engines, simulators, SHARDS,
the fleet sweep) can consume a :class:`TraceStream` — any iterable of
:class:`~repro.workloads.trace.Trace` chunks — instead of one in-RAM
trace.  Because the KRR engines consume randomness in fixed-size draw
blocks and the spatial filter is stateless per key, chunk boundaries are
invisible: a streamed run is bit-identical to a whole-trace run for any
chunk size (gated by tests/test_stream.py).

Three sources are provided:

``iter_csv``
    True single-pass streaming over ``.csv`` / ``.csv.gz`` — peak memory
    is one chunk plus four read blocks regardless of file length; a
    reader thread gunzips ahead of decoding.

``iter_npz``
    Chunked slices of an NPZ trace.  NPZ members decompress whole, so
    this bounds *downstream* memory (plans, histograms, id columns) but
    not the source columns themselves; convert with :func:`save_chunked`
    for true out-of-core access.

``save_chunked`` / ``ChunkedTraceReader``
    A sharded on-disk format: ``chunk-00000.npz`` … shards of exactly
    ``chunk_size`` requests (last one ragged) plus a ``manifest.json``
    carrying per-shard counts and CRC32s.  The reader re-validates every
    shard against the manifest and raises :class:`ShardCorruption` on
    mismatch, so a truncated or bit-flipped shard fails loudly instead
    of silently skewing an MRC.

:func:`open_trace_stream` dispatches any of the above (or an in-memory
trace) by inspecting the source, and always returns a *re-iterable*
stream so multi-pass consumers can replay it.
"""

from __future__ import annotations

import json
import zlib
from contextlib import closing
from pathlib import Path
from typing import (
    IO,
    Any,
    Callable,
    Generator,
    Iterable,
    Iterator,
    List,
    Optional,
    Protocol,
    Tuple,
    Union,
    cast,
)

import numpy as np

from .io import (
    PathLike,
    _Columns,
    _CsvRowReader,
    _open_binary,
    _Row,
    load_npz,
    open_text,
)
from .trace import Trace

__all__ = [
    "DEFAULT_CHUNK",
    "ChunkedTraceReader",
    "ShardCorruption",
    "TraceStream",
    "is_chunked_dir",
    "iter_chunks",
    "iter_csv",
    "iter_npz",
    "open_trace_stream",
    "save_chunked",
    "stream_lengths",
]

DEFAULT_CHUNK = 1 << 20

MANIFEST_NAME = "manifest.json"
_MANIFEST_KIND = "repro-chunked-trace"
_MANIFEST_VERSION = 1


class TraceStream(Protocol):
    """Any iterable of trace chunks; chunks concatenate to the trace."""

    def __iter__(self) -> Iterator[Trace]: ...


class ShardCorruption(ValueError):
    """A chunk shard does not match its manifest entry (count or CRC)."""


def _chunk_crc(keys: np.ndarray, sizes: np.ndarray, ops: np.ndarray) -> int:
    """CRC32 over a chunk's columns, in the same key→size→op order as
    :func:`repro.engine.plan.trace_fingerprint` uses for whole traces."""
    crc = zlib.crc32(np.ascontiguousarray(keys).tobytes())
    crc = zlib.crc32(np.ascontiguousarray(sizes).tobytes(), crc)
    return zlib.crc32(np.ascontiguousarray(ops).tobytes(), crc)


def iter_chunks(trace: Trace, chunk_size: int = DEFAULT_CHUNK) -> Iterator[Trace]:
    """Slice an in-memory trace into bounded chunks (views, no copies)."""
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    for start in range(0, len(trace), chunk_size):
        stop = min(start + chunk_size, len(trace))
        yield Trace(
            trace.keys[start:stop],
            trace.sizes[start:stop],
            trace.ops[start:stop],
            name=trace.name,
        )


def iter_csv(
    path: PathLike,
    chunk_size: int = DEFAULT_CHUNK,
    errors: str = "strict",
) -> Iterator[Trace]:
    """Stream a CSV trace (``.csv`` or ``.csv.gz``) in bounded chunks.

    Single pass, one open file handle, peak memory of one chunk plus four
    blocks of about 128 KiB — the one being decoded, two a reader thread
    has gunzipped ahead and one it holds while it waits for room — so the
    file never fully materializes.  The thread reads and gunzips only,
    and it is joined before the file closes, however the stream ends.
    Blocks of clean lines decode in one native kernel call each; any
    block the kernel refuses, and every block on a host without the
    kernel, is parsed row by row (see :mod:`repro.workloads.io`), so the
    chunks, errors and skip counts are those of the row parser.  Row
    validation and ``errors`` semantics are shared with
    :func:`repro.workloads.io.load_csv`; with ``errors="skip"`` each
    chunk's ``skipped_rows`` counts the rows dropped while filling *that*
    chunk (their sum equals the whole-file count reported by ``load_csv``).
    """
    yield from _csv_chunks(path, chunk_size, errors, blocks=True)


def _csv_chunks(
    path: PathLike, chunk_size: int, errors: str, blocks: bool
) -> Iterator[Trace]:
    """:func:`iter_csv`'s exact-``chunk_size`` accumulator.

    ``blocks=False`` reads the file through the row parser alone (a
    text-mode ``csv.reader``): the reference the block decoder is
    tested and benchmarked against.
    """
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    path = Path(path)
    parser = _CsvRowReader(path, errors)
    stem = path.stem[:-4] if path.stem.endswith(".csv") else path.stem
    parts: List[_Columns] = []  # decoded, not yet emitted, in file order
    keys: List[int] = []  # rows parsed one at a time since the last part
    sizes: List[int] = []
    ops: List[int] = []
    pending = 0
    skipped_emitted = 0

    def seal_rows() -> None:
        """Move the rows parsed one at a time into ``parts``."""
        if keys:
            parts.append((
                np.asarray(keys, dtype=np.int64),
                np.asarray(sizes, dtype=np.int64),
                np.asarray(ops, dtype=np.int8),
            ))
            keys.clear()
            sizes.clear()
            ops.clear()

    def emit(n: int) -> Trace:
        """The first ``n`` pending requests as a chunk."""
        nonlocal pending, skipped_emitted
        seal_rows()
        if parts:
            cols = [np.concatenate(c) if len(c) > 1 else c[0] for c in zip(*parts)]
        else:  # only skipped rows left to report
            cols = [np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0, np.int8)]
        parts[:] = [(cols[0][n:], cols[1][n:], cols[2][n:])] if n < pending else []
        pending -= n
        chunk = Trace(
            cols[0][:n], cols[1][:n], cols[2][:n],
            name=stem,
            skipped_rows=parser.skipped - skipped_emitted,
        )
        skipped_emitted = parser.skipped
        return chunk

    source: IO[Any]
    records: Generator[Union[_Row, _Columns], None, None]
    if blocks:
        source = _open_binary(path)
        records = parser.blocks(source)
    else:
        source = open_text(path, "rt")
        records = parser.rows(source)
    # ``closing`` exits first: the block reader's thread is joined before
    # the file closes, even when this generator is closed early.
    with source, closing(records):
        for record in records:
            if isinstance(record[0], np.ndarray):
                seal_rows()
                parts.append(cast(_Columns, record))
                pending += record[0].shape[0]
                while pending >= chunk_size:
                    yield emit(chunk_size)
            else:
                key, size, op = cast(_Row, record)
                keys.append(key)
                sizes.append(size)
                ops.append(op)
                pending += 1
                if pending >= chunk_size:
                    yield emit(chunk_size)
    if pending or parser.skipped > skipped_emitted:
        yield emit(pending)


def iter_npz(path: PathLike, chunk_size: int = DEFAULT_CHUNK) -> Iterator[Trace]:
    """Stream an NPZ trace in bounded chunks.

    NPZ members decompress as whole arrays, so the source columns do
    materialize once; what stays bounded is everything built *per chunk*
    downstream (hash columns, id columns, histogram updates).  For
    true out-of-core access convert the file once with
    :func:`save_chunked`.
    """
    trace = load_npz(path)
    for i, chunk in enumerate(iter_chunks(trace, chunk_size)):
        if i == 0:
            chunk.skipped_rows = trace.skipped_rows
        yield chunk


def save_chunked(
    source: Union[Trace, Iterable[Trace]],
    directory: PathLike,
    chunk_size: int = DEFAULT_CHUNK,
    name: Optional[str] = None,
    overwrite: bool = False,
) -> Path:
    """Write a trace (or any stream of chunks) as a sharded chunk directory.

    Layout: ``chunk-00000.npz`` … compressed shards of exactly
    ``chunk_size`` requests (the last may be shorter) plus a
    ``manifest.json`` listing each shard's request count and CRC32.
    Input chunk boundaries are re-buffered, so converting a stream read
    with one chunk size to a directory with another is lossless.  The
    manifest is written last: a crashed conversion leaves no manifest
    and :class:`ChunkedTraceReader` refuses the directory.
    """
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    directory = Path(directory)
    manifest_path = directory / MANIFEST_NAME
    if manifest_path.exists() and not overwrite:
        raise FileExistsError(
            f"{manifest_path} already exists (pass overwrite=True to replace)"
        )
    directory.mkdir(parents=True, exist_ok=True)

    if isinstance(source, Trace):
        name = name or source.name
        skipped = source.skipped_rows
        chunks: Iterable[Trace] = iter_chunks(source, chunk_size)
    else:
        skipped = 0
        chunks = source

    entries: List[dict] = []
    total = 0
    pend_k: List[np.ndarray] = []
    pend_s: List[np.ndarray] = []
    pend_o: List[np.ndarray] = []
    pending = 0

    def write_shard(keys: np.ndarray, sizes: np.ndarray, ops: np.ndarray) -> None:
        nonlocal total
        fname = f"chunk-{len(entries):05d}.npz"
        np.savez_compressed(directory / fname, keys=keys, sizes=sizes, ops=ops)
        entries.append(
            {"file": fname, "n": int(len(keys)), "crc32": _chunk_crc(keys, sizes, ops)}
        )
        total += int(len(keys))

    def drain(final: bool) -> None:
        nonlocal pending, pend_k, pend_s, pend_o
        if pending == 0:
            return
        keys = np.concatenate(pend_k) if len(pend_k) > 1 else pend_k[0]
        sizes = np.concatenate(pend_s) if len(pend_s) > 1 else pend_s[0]
        ops = np.concatenate(pend_o) if len(pend_o) > 1 else pend_o[0]
        start = 0
        while pending - start >= chunk_size or (final and start < pending):
            stop = min(start + chunk_size, pending)
            write_shard(keys[start:stop], sizes[start:stop], ops[start:stop])
            start = stop
        pend_k = [keys[start:]] if start < pending else []
        pend_s = [sizes[start:]] if start < pending else []
        pend_o = [ops[start:]] if start < pending else []
        pending -= start

    for chunk in chunks:
        if name is None:
            name = chunk.name
        skipped += chunk.skipped_rows if not isinstance(source, Trace) else 0
        if len(chunk) == 0:
            continue
        pend_k.append(chunk.keys)
        pend_s.append(chunk.sizes)
        pend_o.append(chunk.ops)
        pending += len(chunk)
        if pending >= chunk_size:
            drain(final=False)
    drain(final=True)

    manifest = {
        "kind": _MANIFEST_KIND,
        "version": _MANIFEST_VERSION,
        "name": name or directory.name,
        "chunk_size": chunk_size,
        "n_requests": total,
        "skipped_rows": int(skipped),
        "chunks": entries,
    }
    tmp = manifest_path.with_suffix(".json.tmp")
    tmp.write_text(json.dumps(manifest, indent=2) + "\n")
    tmp.replace(manifest_path)
    return directory


class ChunkedTraceReader:
    """Re-iterable bounded-memory reader for a :func:`save_chunked` directory.

    Every shard is re-validated against the manifest on read — a count or
    CRC32 mismatch raises :class:`ShardCorruption` naming the shard.  The
    reader itself holds only the manifest; each iteration loads one shard
    at a time.
    """

    def __init__(self, directory: PathLike) -> None:
        self.directory = Path(directory)
        manifest_path = self.directory / MANIFEST_NAME
        if not manifest_path.exists():
            raise FileNotFoundError(
                f"{self.directory}: not a chunked trace (no {MANIFEST_NAME}; "
                "was save_chunked interrupted?)"
            )
        manifest = json.loads(manifest_path.read_text())
        if manifest.get("kind") != _MANIFEST_KIND:
            raise ValueError(
                f"{manifest_path}: kind {manifest.get('kind')!r} is not "
                f"{_MANIFEST_KIND!r}"
            )
        if int(manifest.get("version", -1)) > _MANIFEST_VERSION:
            raise ValueError(
                f"{manifest_path}: version {manifest['version']} is newer than "
                f"supported {_MANIFEST_VERSION}"
            )
        self.manifest = manifest
        self.name: str = manifest["name"]
        self.chunk_size: int = int(manifest["chunk_size"])
        self.n_requests: int = int(manifest["n_requests"])
        self.skipped_rows: int = int(manifest.get("skipped_rows", 0))
        self.chunks: List[dict] = list(manifest["chunks"])

    @property
    def n_chunks(self) -> int:
        return len(self.chunks)

    @property
    def fingerprint(self) -> int:
        """CRC32 over the manifest's per-shard CRCs — a cheap stable
        identity for checkpoint signatures without re-reading shards."""
        crc = zlib.crc32(str(self.n_requests).encode())
        for entry in self.chunks:
            crc = zlib.crc32(f"{entry['n']}:{entry['crc32']};".encode(), crc)
        return crc

    def _load_shard(self, index: int) -> Trace:
        entry = self.chunks[index]
        path = self.directory / entry["file"]
        try:
            with np.load(path, allow_pickle=False) as data:
                keys = data["keys"]
                sizes = data["sizes"]
                ops = data["ops"]
        except (OSError, ValueError, KeyError, zlib.error) as exc:
            raise ShardCorruption(f"{path}: unreadable shard: {exc}") from exc
        if len(keys) != entry["n"]:
            raise ShardCorruption(
                f"{path}: has {len(keys)} requests, manifest says {entry['n']}"
            )
        crc = _chunk_crc(keys, sizes, ops)
        if crc != entry["crc32"]:
            raise ShardCorruption(
                f"{path}: CRC32 {crc:#010x} != manifest {entry['crc32']:#010x}"
            )
        return Trace(keys, sizes, ops, name=self.name)

    def __iter__(self) -> Iterator[Trace]:
        for i in range(len(self.chunks)):
            chunk = self._load_shard(i)
            if i == 0:
                chunk.skipped_rows = self.skipped_rows
            yield chunk

    def __len__(self) -> int:
        return self.n_requests

    def read_all(self) -> Trace:
        """Materialize the whole trace (for small traces / verification)."""
        parts = [self._load_shard(i) for i in range(len(self.chunks))]
        if not parts:
            return Trace(
                np.empty(0, dtype=np.int64),
                name=self.name,
                skipped_rows=self.skipped_rows,
            )
        trace = Trace.concat(parts, name=self.name)
        trace.skipped_rows = self.skipped_rows
        return trace


class _ReiterableStream:
    """Wrap a generator factory so the stream can be iterated repeatedly
    (each pass re-opens the source file)."""

    def __init__(self, factory: Callable[[], Iterator[Trace]]) -> None:
        self._factory = factory

    def __iter__(self) -> Iterator[Trace]:
        return self._factory()


def is_chunked_dir(path: PathLike) -> bool:
    """True when ``path`` is a :func:`save_chunked` directory."""
    p = Path(path)
    return p.is_dir() and (p / MANIFEST_NAME).exists()


def open_trace_stream(
    source: Union[Trace, PathLike, Iterable[Trace]],
    chunk_size: int = DEFAULT_CHUNK,
    errors: str = "strict",
) -> TraceStream:
    """Open any trace source as a re-iterable bounded-memory stream.

    Dispatch: an in-memory :class:`Trace` is sliced; a chunk directory
    gets a :class:`ChunkedTraceReader` (its own ``chunk_size`` wins); an
    ``.npz`` path streams via :func:`iter_npz`; anything else is treated
    as CSV (``.csv`` / ``.csv.gz``).  Arbitrary iterables pass through
    unchanged (they may be single-shot).
    """
    if isinstance(source, Trace):
        trace = source
        return _ReiterableStream(lambda: iter_chunks(trace, chunk_size))
    if isinstance(source, (str, Path)):
        path = Path(source)
        if is_chunked_dir(path):
            return ChunkedTraceReader(path)
        suffixes = "".join(path.suffixes)
        if suffixes.endswith(".npz"):
            return _ReiterableStream(lambda: iter_npz(path, chunk_size))
        return _ReiterableStream(lambda: iter_csv(path, chunk_size, errors))
    return source


def stream_lengths(stream: TraceStream) -> Tuple[int, int]:
    """(n_requests, n_chunks) of a stream, consuming one pass."""
    n = 0
    chunks = 0
    for chunk in stream:
        n += len(chunk)
        chunks += 1
    return n, chunks
