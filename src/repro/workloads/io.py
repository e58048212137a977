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
vectorized NumPy decoder (:func:`_decode_block`) can prove clean becomes
three columns at once, and any other block goes row by row through
:class:`_CsvRowReader`, the reference parser, so errors and skip counts
do not depend on which path a row took.
"""

from __future__ import annotations

import csv
import gzip
import io
import locale
from collections import deque
from pathlib import Path
from typing import IO, Deque, Iterator, Optional, Tuple, Union

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

#: Longest number the block decoder parses (10**18 - 1 < 2**63).
_MAX_DIGITS = 18

#: Rows formatted per write by :func:`save_csv`.
_SAVE_ROWS = 1 << 16

_NL, _CR, _COMMA, _ZERO = ord("\n"), ord("\r"), ord(","), ord("0")

#: Bytes a block may contain and still take the vectorized path.
_CLEAN_BYTES = np.zeros(256, dtype=bool)
_CLEAN_BYTES[np.frombuffer(b"0123456789,\r\ngetsdl", dtype=np.uint8)] = True


#: Each op name as a big-endian integer of 6 bytes (zero padded).
_OP_WORDS = [
    (int.from_bytes(op_name(code).encode().ljust(6, b"\0"), "big"), code)
    for code in range(3)
]


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


def _parse_digits(
    data: np.ndarray, ends: np.ndarray, lengths: np.ndarray
) -> Optional[np.ndarray]:
    """Unsigned decimal fields ending (exclusive) at ``ends`` as int64.

    Digits are gathered right-aligned into a ``(width, n)`` block and
    folded with Horner steps.  ``None`` unless every field has 1 to
    ``_MAX_DIGITS`` ASCII digits and nothing else.
    """
    if lengths.min() < 1 or lengths.max() > _MAX_DIGITS:
        return None
    width = int(lengths.max())
    offsets = np.arange(-width, 0)[:, None]
    digits = data.take(ends[None, :] + offsets, mode="clip") - np.uint8(_ZERO)
    digits *= offsets >= -lengths[None, :]  # zero left of the field
    if digits.max() > 9:
        return None
    value = digits[0].astype(np.int64)
    for row in digits[1:]:
        value *= 10
        value += row
    return value


def _parse_ops(
    data: np.ndarray, starts: np.ndarray, lengths: np.ndarray
) -> Optional[np.ndarray]:
    """Op-name fields as op codes; ``None`` unless every one is exactly
    ``get``, ``set`` or ``delete``."""
    if lengths.max() > 6:
        return None
    offsets = np.arange(6)[:, None]
    chars = data.take(starts[None, :] + offsets, mode="clip")
    chars *= offsets < lengths[None, :]  # zero right of the field
    packed = np.zeros(starts.shape[0], dtype=np.uint64)
    for row in chars:
        packed <<= np.uint64(8)
        packed |= row.astype(np.uint64)
    ops = np.full(starts.shape[0], -1, dtype=np.int8)
    for word, code in _OP_WORDS:
        ops[packed == word] = code
    return None if (ops < 0).any() else ops


def _decode_block(
    block: bytes, n_fields: int, ki: int, si: Optional[int], oi: Optional[int]
) -> Optional[_Columns]:
    """Decode a block of whole CSV lines with NumPy, or return ``None``.

    The result is exactly what :class:`_CsvRowReader` would produce, so
    the decoder only accepts what it can prove it reads the same way:
    digits, ``,``, op letters and line ends (``\\r\\n`` on every line or
    on none); ``n_fields`` fields on every line; 1-18 digit keys and
    sizes; sizes >= 1; op fields naming one of the three ops.  Anything
    else (quotes, spaces, signs, blank lines, long numbers, ...) makes
    the caller parse the block row by row.
    """
    if not block.endswith(b"\n"):
        block += b"\n"  # final line of the file
    data = np.frombuffer(block, dtype=np.uint8)
    # Every byte of a key, size or op field is checked by the parsers
    # below, so only a block with other columns needs the byte-class scan.
    bound = sum(i is not None for i in (ki, si, oi))
    if n_fields > bound and not _CLEAN_BYTES.take(data).all():
        return None
    n = int(np.count_nonzero(data == _NL))
    n_cr = int(np.count_nonzero(data == _CR))
    if n_cr not in (0, n):  # mixed line ends or a stray \r
        return None
    seps = np.flatnonzero((data == _COMMA) | (data == _NL))
    if seps.size != n * n_fields or not (data[seps[n_fields - 1::n_fields]] == _NL).all():
        return None
    starts = np.empty_like(seps)
    starts[0] = 0
    starts[1:] = seps[:-1] + 1
    ends = seps
    if n_cr:  # every line ends in \r\n: the last field stops at the \r
        ends = seps.copy()
        ends[n_fields - 1::n_fields] -= 1
        if not (data[ends[n_fields - 1::n_fields]] == _CR).all():
            return None
    lengths = ends - starts

    keys = _parse_digits(data, ends[ki::n_fields], lengths[ki::n_fields])
    if keys is None:
        return None
    if si is None:
        sizes = np.ones(n, dtype=np.int64)
    else:
        parsed = _parse_digits(data, ends[si::n_fields], lengths[si::n_fields])
        if parsed is None or parsed.min() < 1:
            return None
        sizes = parsed
    if oi is None:
        ops = np.zeros(n, dtype=np.int8)
    else:
        op_codes = _parse_ops(data, starts[oi::n_fields], lengths[oi::n_fields])
        if op_codes is None:
            return None
        ops = op_codes
    return keys, sizes, ops


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

    def rows(self, fh: IO[str]) -> Iterator[_Row]:
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

    def blocks(self, raw: IO[bytes]) -> Iterator[Union[_Row, _Columns]]:
        """The records of :meth:`rows`, read from a binary file in blocks.

        Each block of ``_BLOCK_BYTES`` (extended to a line end) that
        :func:`_decode_block` accepts is yielded as one column triple.
        Every other block is split into lines exactly as a ``newline=""``
        text file would be and fed to one ``csv.reader`` that lives for
        the whole file, whose rows are validated and yielded one at a
        time — so a strict-mode error surfaces after the same rows as
        with :meth:`rows`.  A record the reader has not finished at the
        end of a block (a quoted field holding a line break) pulls the
        next block in row by row too.
        """
        encoding = locale.getpreferredencoding(False)
        lines: Deque[str] = deque()

        def read_block() -> bytes:
            block: bytes = raw.read(_BLOCK_BYTES)
            if block and not block.endswith(b"\n"):
                block += raw.readline()
            return block

        def queue(block: bytes) -> None:
            lines.extend(io.StringIO(block.decode(encoding), newline=""))

        def line_source() -> Iterator[str]:
            while True:
                while lines:
                    yield lines.popleft()
                block = read_block()
                if not block:
                    return
                queue(block)

        queue(raw.readline())  # the header line
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
            block = read_block()
            if not block:
                return
            columns = _decode_block(block, n_fields, self._ki, self._si, self._oi)
            if columns is None:
                queue(block)
            else:
                yield columns


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
