"""Trace persistence: CSV (interchange) and NPZ (fast binary) formats.

CSV columns are ``key,size,op`` with a header row; ``op`` is the textual
name (``get``/``set``/``delete``).  NPZ stores the three arrays verbatim.
Both loaders accept gzipped CSV transparently (``.csv.gz``) through the
shared :func:`open_text` helper, which the chunked streaming readers in
:mod:`repro.workloads.stream` use as well.

Real-world trace files are dirty: short rows, non-numeric keys, unknown
op names.  :func:`load_csv` defaults to ``errors="strict"`` (raise on the
first bad row) but accepts ``errors="skip"`` to drop malformed rows and
report the count on ``trace.skipped_rows`` — so one corrupt line does not
abort a multi-hour sweep over an otherwise good trace.

CSV bodies are decoded a block of whole lines at a time: a block the
native decoder (:func:`_decode_block`, the ``csv_decode_block`` export of
the :mod:`repro.stack._native` kernel) finds clean becomes three columns
in one pass, and any other block goes row by row through
:class:`_CsvRowReader`, the reference parser, so errors and skip counts
do not depend on which path a row took.  Without the kernel (no C
compiler, or ``REPRO_NATIVE=0``) every block takes the row parser.

The blocks are read, and gunzipped, on a reader thread
(:func:`_read_ahead`) that queues up to ``_READ_AHEAD`` blocks ahead of
the decoder, so a pass holds one chunk plus four blocks: the one being
decoded, two queued and one the thread holds while it waits for room.
"""

from __future__ import annotations

import csv
import gzip
import io
import locale
from collections import deque
from pathlib import Path
from typing import (
    IO,
    Callable,
    Deque,
    Generator,
    Iterator,
    List,
    Optional,
    Tuple,
    Union,
)

import numpy as np

from .trace import Trace, op_code, op_name

PathLike = Union[str, Path]

_INT64_MIN, _INT64_MAX = -(1 << 63), (1 << 63) - 1

#: One validated CSV row, or the three columns of a block decoded at once.
_Row = Tuple[int, int, int]
_Columns = Tuple[np.ndarray, np.ndarray, np.ndarray]

#: Bytes read per block (then extended to the end of its last line).
#: 64-256 KiB decode at the same speed; larger blocks only add memory.
_BLOCK_BYTES = 1 << 17

#: Blocks :func:`_read_ahead`'s thread may queue ahead of the one the
#: caller decodes (docs/PERFORMANCE.md, "CSV decode", has the measured
#: depths).
_READ_AHEAD = 2

#: Seconds a reader thread waits on a full queue before it looks again
#: whether its caller has stopped.
_PUT_WAIT_S = 0.05

#: Rows formatted per write by :func:`save_csv`.
_SAVE_ROWS = 1 << 16


def open_text(path: PathLike, mode: str = "rt") -> IO[str]:
    """Open a text file, decompressing transparently when it ends in ``.gz``.

    The shared open-helper for every CSV reader/writer in the package:
    :func:`load_csv`/:func:`save_csv` here and the chunked
    :func:`repro.workloads.stream.iter_csv` all call it, so ``.csv`` and
    ``.csv.gz`` paths are interchangeable everywhere a trace file is
    accepted.  ``newline=""`` is applied unconditionally (the csv module
    requires it).
    """
    path = Path(path)
    if path.suffix == ".gz":
        return gzip.open(path, mode if "t" in mode else mode + "t", newline="")
    return open(path, mode, newline="")


def _open_binary(path: PathLike) -> IO[bytes]:
    """Open a file for reading bytes, gunzipping when it ends in ``.gz``."""
    path = Path(path)
    if path.suffix == ".gz":
        return gzip.open(path, "rb")
    return open(path, "rb")


def save_csv(trace: Trace, path: PathLike) -> None:
    """Write a trace to CSV (gzipped when ``path`` ends in ``.gz``).

    The bytes are exactly what :func:`csv.writer` writes (``\\r\\n`` row
    endings), formatted ``_SAVE_ROWS`` rows per write.
    """
    with open_text(path, "wt") as fh:
        fh.write("key,size,op\r\n")
        for start in range(0, len(trace), _SAVE_ROWS):
            stop = start + _SAVE_ROWS
            fh.write("".join(map(
                "{},{},{}\r\n".format,
                trace.keys[start:stop].tolist(),
                trace.sizes[start:stop].tolist(),
                map(op_name, trace.ops[start:stop].tolist()),
            )))


def _csv_decoder() -> Optional[Callable[..., int]]:
    """The native block decoder, or ``None`` without a kernel.

    Imported at first decode rather than with this module, since
    :mod:`repro.stack` imports :mod:`repro.workloads`.
    """
    from ..stack._native import load_csv_decoder

    return load_csv_decoder()


def _decode_block(
    block: bytes,
    n_fields: int,
    ki: int,
    si: Optional[int],
    oi: Optional[int],
    scratch: Optional[List[np.ndarray]] = None,
) -> Optional[_Columns]:
    """Decode a block of whole CSV lines natively, or return ``None``.

    The result is exactly what :class:`_CsvRowReader` would produce, so
    the decoder only accepts what it reads the same way: digits, ``,``,
    op letters and line ends (``\\r\\n`` on every line or on none);
    ``n_fields`` fields on every line; 1-18 digit keys and sizes; sizes
    >= 1; op fields naming one of the three ops.  Anything else (quotes,
    spaces, signs, blank lines, long numbers, ...) makes the caller parse
    the block row by row, and so does every block when the kernel is
    unavailable.

    ``scratch`` holds the caller's three reusable columns (grown here to
    the block's row bound); the result is an exact-size copy of them, so
    a pending chunk never pins a whole scratch buffer.
    """
    decode = _csv_decoder()
    if decode is None:
        return None
    if not block.endswith(b"\n"):
        block += b"\n"  # final line of the file
    cap = len(block) // 2 + 1  # a line takes at least a digit and a \n
    if scratch is None:
        scratch = []
    if not scratch or scratch[0].shape[0] < cap:
        scratch[:] = [
            np.empty(cap, dtype=np.int64),
            np.empty(cap, dtype=np.int64),
            np.empty(cap, dtype=np.int8),
        ]
    keys, sizes, ops = scratch
    n = decode(
        block, len(block), n_fields, ki,
        -1 if si is None else si, -1 if oi is None else oi,
        keys.ctypes.data, sizes.ctypes.data, ops.ctypes.data, cap,
    )
    if n < 0:
        return None
    return keys[:n].copy(), sizes[:n].copy(), ops[:n].copy()


class _CsvRowReader:
    """Header binding + row validation shared by all CSV trace readers.

    ``errors="strict"`` raises on the first malformed row;
    ``errors="skip"`` drops malformed rows (short rows, non-integer
    fields, out-of-range values, unknown op names, sizes < 1) and counts
    them on :attr:`skipped`.
    """

    def __init__(self, path: PathLike, errors: str = "strict") -> None:
        if errors not in ("strict", "skip"):
            raise ValueError(f"errors must be 'strict' or 'skip', got {errors!r}")
        self.path = Path(path)
        self.errors = errors
        self.skipped = 0
        self._ki = 0
        self._si: Optional[int] = None
        self._oi: Optional[int] = None

    def bind_header(self, header: list[str]) -> None:
        cols = {c.strip().lower(): i for i, c in enumerate(header)}
        if "key" not in cols:
            raise ValueError(
                f"{self.path}: CSV must have a 'key' column, got {header}"
            )
        self._ki = cols["key"]
        self._si = cols.get("size")
        self._oi = cols.get("op")

    def parse(self, row: list[str]) -> Optional[_Row]:
        """One validated ``(key, size, op)`` row; ``None`` = blank/skipped."""
        if not row:
            return None
        try:
            key = int(row[self._ki])
            size = int(row[self._si]) if self._si is not None else 1
            if not (_INT64_MIN <= key <= _INT64_MAX) or not (
                _INT64_MIN <= size <= _INT64_MAX
            ):
                raise ValueError(
                    f"{self.path}: key/size out of int64 range: {row!r}"
                )
            if size < 1:
                raise ValueError(
                    f"{self.path}: object sizes must be >= 1 byte: {row!r}"
                )
            op = op_code(row[self._oi].strip().lower()) if self._oi is not None else 0
        except (ValueError, IndexError, KeyError):
            if self.errors == "strict":
                raise
            self.skipped += 1
            return None
        return key, size, op

    def rows(self, fh: IO[str]) -> Generator[_Row, None, None]:
        """Validated rows of an open CSV file (header consumed here)."""
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            return
        self.bind_header(header)
        for row in reader:
            parsed = self.parse(row)
            if parsed is not None:
                yield parsed

    def blocks(self, raw: IO[bytes]) -> Generator[Union[_Row, _Columns], None, None]:
        """The records of :meth:`rows`, read from a binary file in blocks.

        The header line is read here; every later block of
        ``_BLOCK_BYTES`` (extended to a line end) is read by
        :func:`_read_ahead`'s thread, which queues at most
        ``_READ_AHEAD`` blocks ahead of this generator.  Each block :func:`_decode_block`
        accepts is yielded as one column triple, decoded through scratch
        columns this reader owns.
        Every other block is split into lines exactly as a ``newline=""``
        text file would be and fed to one ``csv.reader`` that lives for
        the whole file, whose rows are validated and yielded one at a
        time — so a strict-mode error surfaces after the same rows as
        with :meth:`rows`.  A record the reader has not finished at the
        end of a block (a quoted field holding a line break) pulls the
        next block in row by row too.  Closing this generator stops and
        joins the reader thread, so ``raw`` may be closed after it.
        """
        encoding = locale.getpreferredencoding(False)
        lines: Deque[str] = deque()
        scratch: List[np.ndarray] = []

        def queue(block: bytes) -> None:
            lines.extend(io.StringIO(block.decode(encoding), newline=""))

        def line_source() -> Iterator[str]:
            while True:
                while lines:
                    yield lines.popleft()
                block = next(ahead, b"")
                if not block:
                    return
                queue(block)

        queue(raw.readline())  # the header line, read before the thread starts
        ahead = _read_ahead(raw)
        try:
            reader = csv.reader(line_source())
            header = next(reader, None)
            if header is None:
                return
            self.bind_header(header)
            n_fields = len(header)
            while True:
                while lines:
                    row = next(reader, None)
                    if row is None:
                        return
                    parsed = self.parse(row)
                    if parsed is not None:
                        yield parsed
                block = next(ahead, b"")
                if not block:
                    return
                columns = _decode_block(
                    block, n_fields, self._ki, self._si, self._oi, scratch
                )
                if columns is None:
                    queue(block)
                else:
                    yield columns
        finally:
            ahead.close()


def _line_blocks(raw: IO[bytes]) -> Iterator[bytes]:
    """``raw`` in blocks of ``_BLOCK_BYTES``, each extended to a line end."""
    while True:
        block: bytes = raw.read(_BLOCK_BYTES)
        if not block:
            return
        if not block.endswith(b"\n"):
            block += raw.readline()
        yield block


def _read_ahead(raw: IO[bytes]) -> Generator[bytes, None, None]:
    """The blocks of :func:`_line_blocks`, read on a thread of their own.

    zlib inflates with the interpreter lock released, as do the native
    decoder and the stack kernels, so gunzip overlaps the caller's
    decode and modeling instead of preceding them.  The thread starts at
    the first ``next()``, is the only user of ``raw`` until it ends, and
    queues at most ``_READ_AHEAD`` blocks ahead of the caller.  A read
    error (a truncated gzip member, a bad CRC) is raised here after every
    block read before it, as an inline read would raise it.

    However this generator ends (end of file, ``close()``, an error in
    either thread), it stops and joins the thread before it returns, so
    the caller may close ``raw`` right after.  Every hand-over waits in
    slices of ``_PUT_WAIT_S`` and gives up once the caller has gone, so
    a caller that stops early never leaves the thread blocked on a full
    queue.  The thread is a daemon: a generator that is abandoned and
    never closed cannot hold up interpreter exit.
    """
    import queue  # here, not at the top: opening a stream imports nothing
    import threading

    handoff: "queue.Queue[Union[bytes, Exception]]" = queue.Queue(_READ_AHEAD)
    stop = threading.Event()

    def put(item: Union[bytes, Exception]) -> bool:
        while not stop.is_set():
            try:
                handoff.put(item, timeout=_PUT_WAIT_S)
                return True
            except queue.Full:
                pass
        return False

    def read() -> None:
        end: Union[bytes, Exception] = b""
        try:
            for block in _line_blocks(raw):
                if not put(block):
                    return
        except Exception as exc:  # raised again by the caller, in file order
            end = exc
        put(end)

    thread = threading.Thread(target=read, name="csv-read-ahead", daemon=True)
    thread.start()
    try:
        while True:
            item = handoff.get()
            if isinstance(item, Exception):
                raise item
            if not item:
                return
            yield item
    finally:
        stop.set()
        thread.join()


def load_csv(
    path: PathLike, name: str | None = None, errors: str = "strict"
) -> Trace:
    """Read a trace written by :func:`save_csv` (or any key,size,op CSV).

    Accepts gzipped files transparently (``.csv.gz``).
    ``errors="strict"`` (default) raises on the first malformed row;
    ``errors="skip"`` drops malformed rows and reports the dropped count
    on the returned trace's ``skipped_rows``.  The file is decoded by
    :func:`repro.workloads.stream.iter_csv` and its chunks concatenated.
    """
    from .stream import iter_csv

    path = Path(path)
    chunks = list(iter_csv(path, errors=errors))
    stem = path.stem[:-4] if path.stem.endswith(".csv") else path.stem
    trace = Trace.concat(chunks, name=name or stem)
    trace.skipped_rows = sum(c.skipped_rows for c in chunks)
    return trace


def _npz_path(path: PathLike) -> Path:
    """Normalize to the ``.npz`` suffix numpy appends on save."""
    path = Path(path)
    return path if path.suffix == ".npz" else path.with_name(path.name + ".npz")


def save_npz(trace: Trace, path: PathLike) -> None:
    """Write a trace to compressed NPZ (fast, lossless).

    The ``.npz`` suffix is normalized up front (numpy appends it anyway),
    so ``save_npz(t, "foo")`` and ``load_npz("foo")`` round-trip.  The
    trace's ``skipped_rows`` count is persisted alongside the columns so a
    skip-loaded trace keeps its drop count across the round-trip.
    """
    np.savez_compressed(
        _npz_path(path), keys=trace.keys, sizes=trace.sizes, ops=trace.ops,
        name=np.array(trace.name),
        skipped_rows=np.array(trace.skipped_rows, dtype=np.int64),
    )


def load_npz(path: PathLike) -> Trace:
    """Read a trace written by :func:`save_npz` (suffix optional)."""
    p = Path(path)
    if not p.exists():
        p = _npz_path(p)
    with np.load(p, allow_pickle=False) as data:
        name = str(data["name"]) if "name" in data else p.stem
        skipped = int(data["skipped_rows"]) if "skipped_rows" in data else 0
        return Trace(
            data["keys"], data["sizes"], data["ops"],
            name=name, skipped_rows=skipped,
        )
