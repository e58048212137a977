"""Out-of-core trace streaming: readers, shard format, bit-identity.

Hypothesis drives the contracts the streaming layer lives or dies by:

* the chunk-dir (``save_chunked``) format round-trips any trace for any
  chunk size, and its reader detects shard corruption;
* every streamed hot path — ``KRRModel`` (on the scalar and the SoA stack),
  the one-pass ``MultiKRR`` grid, SHARDS, the simulators — produces
  *bit-identical* results to the in-memory run, for any chunking.
"""

import gzip
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.model import KRRModel
from repro.core.vkrr import MultiKRR
from repro.stack._native import native_kernel_active
from repro.workloads.io import save_csv, save_npz
from repro.workloads.stream import (
    ChunkedTraceReader,
    ShardCorruption,
    is_chunked_dir,
    iter_chunks,
    iter_csv,
    iter_npz,
    open_trace_stream,
    save_chunked,
)
from repro.workloads.trace import Trace


def _trace(keys, sizes=None, name="t"):
    keys = np.asarray(keys, dtype=np.int64)
    if sizes is None:
        sizes = np.ones(keys.shape[0], dtype=np.int64)
    return Trace(keys, np.asarray(sizes, dtype=np.int64), name=name)


trace_st = st.builds(
    _trace,
    keys=st.lists(st.integers(0, 50), min_size=1, max_size=300).map(np.array),
    sizes=st.none(),
)
sized_trace_st = st.lists(
    st.tuples(st.integers(0, 50), st.integers(1, 100)), min_size=1, max_size=300
).map(lambda rows: _trace([k for k, _ in rows], [s for _, s in rows]))


def _assert_traces_equal(a: Trace, b: Trace) -> None:
    assert np.array_equal(a.keys, b.keys)
    assert np.array_equal(a.sizes, b.sizes)
    assert np.array_equal(a.ops, b.ops)


# ----------------------------------------------------------------------
# chunk-dir format
# ----------------------------------------------------------------------
@settings(max_examples=40, deadline=None)
@given(trace=sized_trace_st, chunk_size=st.integers(1, 128))
def test_chunk_dir_round_trip_any_chunk_size(trace, chunk_size, tmp_path_factory):
    d = tmp_path_factory.mktemp("chunks") / "t.chunks"
    save_chunked(iter_chunks(trace, chunk_size), d, chunk_size=chunk_size)
    reader = ChunkedTraceReader(d)
    assert reader.n_requests == len(trace)
    assert reader.n_chunks == -(-len(trace) // chunk_size)
    _assert_traces_equal(reader.read_all(), trace)
    # re-iterable: two passes see identical chunk sequences
    first = [c.keys.copy() for c in reader]
    second = [c.keys.copy() for c in reader]
    assert all(np.array_equal(x, y) for x, y in zip(first, second))
    assert sum(len(c) for c in reader) == len(trace)


@settings(max_examples=20, deadline=None)
@given(
    trace=sized_trace_st,
    save_chunk=st.integers(1, 64),
    resave_chunk=st.integers(1, 64),
)
def test_chunk_dir_rechunk_preserves_trace(
    trace, save_chunk, resave_chunk, tmp_path_factory
):
    base = tmp_path_factory.mktemp("rechunk")
    a = base / "a.chunks"
    b = base / "b.chunks"
    save_chunked(iter_chunks(trace, save_chunk), a, chunk_size=save_chunk)
    # convert a chunk dir to a different shard size via its own reader
    save_chunked(ChunkedTraceReader(a), b, chunk_size=resave_chunk)
    _assert_traces_equal(ChunkedTraceReader(b).read_all(), trace)


def test_chunk_dir_detects_corrupt_shard(tmp_path):
    trace = _trace(np.arange(100) % 7)
    d = tmp_path / "t.chunks"
    save_chunked(iter_chunks(trace, 32), d, chunk_size=32)
    shard = d / "chunk-00001.npz"
    data = dict(np.load(shard))
    data["keys"] = data["keys"] + 1  # flip the payload, keep the count
    np.savez_compressed(shard, **data)
    reader = ChunkedTraceReader(d)
    with pytest.raises(ShardCorruption):
        reader.read_all()


def test_chunk_dir_detects_truncated_shard(tmp_path):
    trace = _trace(np.arange(90) % 5)
    d = tmp_path / "t.chunks"
    save_chunked(iter_chunks(trace, 30), d, chunk_size=30)
    (d / "chunk-00002.npz").write_bytes(b"not an npz")
    with pytest.raises(ShardCorruption):
        ChunkedTraceReader(d).read_all()


def test_interrupted_conversion_is_refused(tmp_path):
    trace = _trace(np.arange(50))
    d = tmp_path / "t.chunks"
    save_chunked(iter_chunks(trace, 16), d, chunk_size=16)
    (d / "manifest.json").unlink()  # crash before the final manifest write
    assert not is_chunked_dir(d)
    with pytest.raises(FileNotFoundError):
        ChunkedTraceReader(d)


def test_chunk_dir_preserves_skipped_rows(tmp_path):
    csv = tmp_path / "t.csv"
    csv.write_text("key,size\n1,10\n2,\nbogus\n3,30\n")
    d = tmp_path / "t.chunks"
    save_chunked(iter_csv(csv, chunk_size=2, errors="skip"), d, chunk_size=2)
    reader = ChunkedTraceReader(d)
    assert reader.skipped_rows == 2
    assert reader.read_all().skipped_rows == 2


def test_save_chunked_refuses_existing_dir(tmp_path):
    trace = _trace([1, 2, 3])
    d = tmp_path / "t.chunks"
    save_chunked(iter_chunks(trace, 2), d, chunk_size=2)
    with pytest.raises(FileExistsError):
        save_chunked(iter_chunks(trace, 2), d, chunk_size=2)
    save_chunked(iter_chunks(trace, 2), d, chunk_size=2, overwrite=True)
    _assert_traces_equal(ChunkedTraceReader(d).read_all(), trace)


def test_manifest_contents(tmp_path):
    trace = _trace(np.arange(70) % 9)
    d = tmp_path / "t.chunks"
    save_chunked(iter_chunks(trace, 32), d, chunk_size=32, name="zed")
    manifest = json.loads((d / "manifest.json").read_text())
    assert manifest["kind"] == "repro-chunked-trace"
    assert manifest["n_requests"] == 70
    assert [c["n"] for c in manifest["chunks"]] == [32, 32, 6]
    assert ChunkedTraceReader(d).name == "zed"


# ----------------------------------------------------------------------
# file streams
# ----------------------------------------------------------------------
@settings(max_examples=25, deadline=None)
@given(trace=sized_trace_st, chunk_size=st.integers(1, 100))
def test_iter_csv_matches_trace(trace, chunk_size, tmp_path_factory):
    base = tmp_path_factory.mktemp("csv")
    for suffix in (".csv", ".csv.gz"):
        path = base / f"t{suffix}"
        save_csv(trace, path)
        chunks = list(iter_csv(path, chunk_size=chunk_size))
        assert all(len(c) <= chunk_size for c in chunks)
        _assert_traces_equal(Trace.concat(chunks, name="t"), trace)


def test_iter_csv_skip_counts_per_chunk(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("key,size\n1,1\nbad\n2,2\n3,3\nworse,,\n4,4\n")
    chunks = list(iter_csv(path, chunk_size=2, errors="skip"))
    assert [c.skipped_rows for c in chunks] == [1, 1]
    assert sum(len(c) for c in chunks) == 4


# ----------------------------------------------------------------------
# block decoder == row parser
# ----------------------------------------------------------------------
_NUMBERS = [
    "0", "1", "7", "007", "42", "123456789012345678", "999999999999999999",
    "1000000000000000000", "9223372036854775807", "9223372036854775808",
    "18446744073709551616", "-9223372036854775808", "-1", "+5", "1_000",
    " 7", "7 ", "",
]
_OPS = ["get", "set", "delete", "GET", "Set", "deletes", "teleport", "ge", ""]
_ODD = ['"5"', '"1,2"', '"3\n4"', '"get"', "x", "1e3", "\t1", "\u0661", "\r", "1\r2"]

#: Clean values per column; any other header name is an extra column.
_CLEAN = {
    "key": st.one_of(st.integers(0, 10**6), st.integers(0, 10**18 - 1)).map(str),
    "size": st.integers(1, 10**4).map(str),
    "op": st.sampled_from(["get", "set", "delete"]),
}
_EXTRA = st.sampled_from(["", "0", "17", "get", "dd"])
field_st = st.one_of(
    st.integers(0, 10**21).map(str),
    st.sampled_from(_NUMBERS + _OPS + _ODD),
)
header_st = st.one_of(
    st.just(["key", "size", "op"]),
    st.permutations(["key", "size", "op", "extra"]).map(list),
    st.lists(st.sampled_from(["key", "size", "op", "extra", " Key", "OP"]),
             min_size=1, max_size=4),
)


@st.composite
def csv_text_st(draw):
    """A header, clean rows for it, a few dirty rows, and line ends."""
    header = draw(header_st)

    def clean_row():
        return [draw(_CLEAN.get(name.strip().lower(), _EXTRA)) for name in header]

    rows = [clean_row() for _ in range(draw(st.integers(0, 40)))]
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["tweak", "garbage", "blank", "short", "long"]))
        row = clean_row()
        if kind == "tweak":
            row[draw(st.integers(0, len(row) - 1))] = draw(field_st)
        elif kind == "garbage":
            row = draw(st.lists(field_st, max_size=5))
        elif kind == "blank":
            row = []
        elif kind == "short":
            row = row[:-1]
        else:
            row.append(draw(_EXTRA))
        rows.insert(draw(st.integers(0, len(rows))), row)
    lines = [",".join(header)] + [",".join(row) for row in rows]
    ending = draw(st.sampled_from(["\n", "\r\n", "mixed"]))
    if ending == "mixed":
        text = "".join(
            line + draw(st.sampled_from(["\n", "\r\n", "\r"])) for line in lines
        )
    else:
        text = ending.join(lines) + ending
    if draw(st.booleans()):
        text = text.rstrip("\r\n")  # no final line end
    return text


def _chunks_or_error(path, chunk_size, errors, blocks):
    from repro.workloads.stream import _csv_chunks

    chunks = []
    try:
        for chunk in _csv_chunks(path, chunk_size, errors, blocks=blocks):
            chunks.append(chunk)
    except Exception as exc:  # compared by type against the other mode
        return chunks, type(exc)
    return chunks, None


def _assert_same_decode(path, chunk_size, errors, block_bytes):
    """Block decoder (with ``block_bytes`` blocks) vs row parser: same
    chunks, per-chunk skip counts and strict-mode exception type."""
    import repro.workloads.io as io_mod

    expected, expected_exc = _chunks_or_error(path, chunk_size, errors, blocks=False)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(io_mod, "_BLOCK_BYTES", block_bytes)
        got, got_exc = _chunks_or_error(path, chunk_size, errors, blocks=True)
    assert got_exc is expected_exc
    assert [len(c) for c in got] == [len(c) for c in expected]
    assert [c.skipped_rows for c in got] == [c.skipped_rows for c in expected]
    for a, b in zip(got, expected):
        _assert_traces_equal(a, b)
        assert a.keys.dtype == b.keys.dtype and a.ops.dtype == b.ops.dtype


@settings(max_examples=300, deadline=None)
@given(
    text=csv_text_st(),
    block_bytes=st.integers(1, 96),
    chunk_size=st.integers(1, 9),
    errors=st.sampled_from(["strict", "skip"]),
    suffix=st.sampled_from([".csv", ".csv.gz"]),
)
def test_block_decoder_matches_row_parser(
    text, block_bytes, chunk_size, errors, suffix, tmp_path_factory
):
    """Tiny blocks make lines and quoted fields straddle block ends."""
    path = tmp_path_factory.mktemp("diff") / f"t{suffix}"
    data = text.encode()
    path.write_bytes(gzip.compress(data) if suffix == ".csv.gz" else data)
    _assert_same_decode(path, chunk_size, errors, block_bytes)


@settings(max_examples=100, deadline=None)
@given(
    text=csv_text_st(),
    block_bytes=st.integers(1, 96),
    chunk_size=st.integers(1, 9),
    errors=st.sampled_from(["strict", "skip"]),
)
def test_without_the_kernel_every_block_takes_the_row_parser(
    text, block_bytes, chunk_size, errors, tmp_path_factory
):
    """No compiler or ``REPRO_NATIVE=0``: the block reader still yields
    the row parser's chunks, skip counts and strict-mode error."""
    import repro.workloads.io as io_mod

    path = tmp_path_factory.mktemp("nokernel") / "t.csv"
    path.write_bytes(text.encode())
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(io_mod, "_csv_decoder", lambda: None)
        assert io_mod._decode_block(b"1,1,get\n", 3, 0, 1, 2) is None
        _assert_same_decode(path, chunk_size, errors, block_bytes)


#: Whole odd lines: blank, short, long, split, and a quoted field whose
#: halves each look like a clean line.
_ODD_LINES = [
    "", "5", "5,1", "5,1,get,9", "5\n6", "5\r6", ",", "1\r2,1,get",
    '"a,1,get\nb",2,set',
]
_COLUMN_VALUES = {
    "key": lambda i: str(i * 37),
    "size": lambda i: str(i % 5 + 1),
    "op": lambda i: ("get", "set", "delete")[i % 3],
    "extra": lambda i: "dd",
}


@pytest.mark.parametrize("ending", ["\n", "\r\n"])
@pytest.mark.parametrize("header", ["key,size,op", "key,size", "extra,key,op"])
def test_block_decoder_edge_cases_in_clean_blocks(tmp_path, ending, header):
    """Every edge-case value in every column, and every odd line, alone in
    an otherwise clean block: it must decode exactly as rows do."""
    names = header.split(",")
    clean = [",".join(_COLUMN_VALUES[n](i) for n in names) for i in range(8)]
    odd = list(_ODD_LINES)
    for column in range(len(names)):
        for value in _NUMBERS + _OPS + _ODD:
            row = clean[1].split(",")
            row[column] = value
            odd.append(",".join(row))
    path = tmp_path / "t.csv"
    for line in odd:
        path.write_bytes((ending.join([header, *clean, line, *clean]) + ending).encode())
        for errors in ("strict", "skip"):
            _assert_same_decode(path, 4, errors, 1 << 10)


@pytest.mark.skipif(not native_kernel_active(), reason="no C compiler available")
@pytest.mark.parametrize("ending", ["\n", "\r\n"])
@pytest.mark.parametrize("header", ["key,size,op", "op,size,key", "key,size", "key"])
def test_clean_blocks_skip_the_row_parser(tmp_path, monkeypatch, ending, header):
    """Clean files (save_csv's CRLF output among them) decode without a
    single row going through the row parser, in any column order."""
    import repro.workloads.io as io_mod
    from repro.workloads.trace import op_name

    n = 5000
    names = header.split(",")
    trace = Trace(
        np.arange(n) * 7919 % 1001,
        np.arange(n) % 9 + 1 if "size" in names else None,
        np.arange(n) % 3 if "op" in names else None,
    )
    columns = {"key": trace.keys, "size": trace.sizes, "op": list(map(op_name, trace.ops))}
    lines = [header] + [",".join(str(columns[c][i]) for c in names) for i in range(n)]
    path = tmp_path / "t.csv"
    path.write_bytes((ending.join(lines) + ending).encode())

    def refuse(self, row):
        raise AssertionError(f"row parser used for {row!r}")

    monkeypatch.setattr(io_mod, "_BLOCK_BYTES", 1000)
    monkeypatch.setattr(io_mod._CsvRowReader, "parse", refuse)
    chunks = list(iter_csv(path, chunk_size=777))
    assert [len(c) for c in chunks[:-1]] == [777] * (len(chunks) - 1)
    _assert_traces_equal(Trace.concat(chunks, name="t"), trace)


def test_save_csv_matches_csv_writer(tmp_path):
    import csv
    import io

    from repro.workloads.trace import op_name

    rng = np.random.default_rng(3)
    n = 70_000  # more than one formatting block
    trace = Trace(
        rng.integers(-(2**63), 2**63 - 1, n, dtype=np.int64),
        rng.integers(1, 2**40, n),
        rng.integers(0, 3, n),
    )
    expected = io.StringIO(newline="")
    writer = csv.writer(expected)
    writer.writerow(["key", "size", "op"])
    for k, s, o in zip(trace.keys, trace.sizes, trace.ops):
        writer.writerow([int(k), int(s), op_name(int(o))])
    expected_bytes = expected.getvalue().encode()
    save_csv(trace, tmp_path / "t.csv")
    save_csv(trace, tmp_path / "t.csv.gz")
    assert (tmp_path / "t.csv").read_bytes() == expected_bytes
    assert gzip.decompress((tmp_path / "t.csv.gz").read_bytes()) == expected_bytes


# ----------------------------------------------------------------------
# the reader thread: gunzip runs ahead of decode, and never outlives it
# ----------------------------------------------------------------------
def _bad_first_block_file(path, n_rows=20_000):
    """A strict-mode row error in the first block of a many-block file."""
    rows = "".join(f"{i * 7},{i % 9 + 1},get\n" for i in range(n_rows))
    path.write_bytes(("key,size,op\n1,1,get\nx,1,get\n" + rows).encode())


def _slow_first_parse(monkeypatch):
    """Hold the first parsed row long enough for the reader thread to fill
    its queue and wait on it, as it does behind a slow consumer."""
    import time

    import repro.workloads.io as io_mod

    parse = io_mod._CsvRowReader.parse
    calls = []

    def slow(self, row):
        if not calls:
            time.sleep(0.2)
        calls.append(row)
        return parse(self, row)

    monkeypatch.setattr(io_mod._CsvRowReader, "parse", slow)


def test_reader_thread_ends_before_the_file_closes(tmp_path, monkeypatch):
    """However a stream ends — a full pass, an early ``close()``, the loop
    consuming its chunks raising, a strict-mode row error while the
    reader waits on a full queue — its reader thread has ended when the
    file closes, and no thread is left behind."""
    import threading

    import repro.workloads.io as io_mod
    import repro.workloads.stream as stream_mod

    start = threading.active_count()
    threads_at_close = []
    open_binary = stream_mod._open_binary

    def recording_open(path):
        raw = open_binary(path)
        close = raw.close

        def recording_close():
            threads_at_close.append(threading.active_count())
            close()

        raw.close = recording_close
        return raw

    monkeypatch.setattr(stream_mod, "_open_binary", recording_open)
    monkeypatch.setattr(io_mod, "_BLOCK_BYTES", 1 << 10)
    path = tmp_path / "t.csv.gz"
    save_csv(_trace(np.arange(20_000) % 501), path)
    bad = tmp_path / "bad.csv.gz"
    _bad_first_block_file(tmp_path / "bad.csv")
    bad.write_bytes(gzip.compress((tmp_path / "bad.csv").read_bytes()))

    assert sum(len(c) for c in iter_csv(path, chunk_size=3000)) == 20_000
    assert threading.active_count() == start
    gen = iter_csv(path, chunk_size=3000)
    next(gen)
    gen.close()
    assert threading.active_count() == start
    with pytest.raises(RuntimeError):
        for _ in iter_csv(path, chunk_size=3000):
            raise RuntimeError("the model failed")
    assert threading.active_count() == start
    _slow_first_parse(monkeypatch)
    with pytest.raises(ValueError):
        list(iter_csv(bad, chunk_size=3000))
    assert threading.active_count() == start
    assert threads_at_close == [start] * 4


def _chunks_until_error(path, chunk_size):
    chunks = []
    with pytest.raises(Exception) as info:
        for chunk in iter_csv(path, chunk_size=chunk_size):
            chunks.append(chunk)
    return chunks, info.type


@pytest.mark.parametrize(
    "damage, error",
    [
        (lambda data: data[: len(data) // 2], EOFError),  # cut mid-member
        (lambda data: data[:-8] + bytes([data[-8] ^ 1]) + data[-7:], gzip.BadGzipFile),
    ],
    ids=["truncated", "bad-crc"],
)
def test_gzip_errors_surface_in_file_order(tmp_path, monkeypatch, damage, error):
    """A gzip error is raised after exactly the chunks an inline read of
    the same blocks yields: the reader thread hands errors over in order."""
    import repro.workloads.io as io_mod

    rng = np.random.default_rng(5)
    trace = _trace(rng.integers(0, 10**9, 300_000), rng.integers(1, 10**5, 300_000))
    clean = tmp_path / "clean.csv.gz"
    save_csv(trace, clean)
    path = tmp_path / "damaged.csv.gz"
    path.write_bytes(damage(clean.read_bytes()))

    got, got_error = _chunks_until_error(path, 50_000)
    monkeypatch.setattr(io_mod, "_read_ahead", io_mod._line_blocks)
    expected, expected_error = _chunks_until_error(path, 50_000)
    assert got_error is expected_error is error
    assert len(got) == len(expected) > 0
    for a, b in zip(got, expected):
        _assert_traces_equal(a, b)


def test_iter_npz_matches_trace(tmp_path):
    trace = _trace(np.arange(101) % 13, np.arange(101) % 7 + 1)
    path = tmp_path / "t.npz"
    save_npz(trace, path)
    chunks = list(iter_npz(path, chunk_size=40))
    assert [len(c) for c in chunks] == [40, 40, 21]
    _assert_traces_equal(Trace.concat(chunks, name="t"), trace)


def test_open_trace_stream_dispatch(tmp_path):
    trace = _trace(np.arange(30) % 4)
    csv, npz, d = tmp_path / "t.csv", tmp_path / "t.npz", tmp_path / "t.chunks"
    save_csv(trace, csv)
    save_npz(trace, npz)
    save_chunked(iter_chunks(trace, 8), d, chunk_size=8)
    for source in (trace, str(csv), str(npz), str(d)):
        stream = open_trace_stream(source, chunk_size=8)
        _assert_traces_equal(Trace.concat(list(stream), name="t"), trace)
        # streams from open_trace_stream are re-iterable
        _assert_traces_equal(Trace.concat(list(stream), name="t"), trace)


# ----------------------------------------------------------------------
# streamed == in-memory, bit for bit
# ----------------------------------------------------------------------
# backward without sizes runs on the SoA stack; linear, topdown and
# track_sizes keep the scalar stack covered.
strategy_st = st.sampled_from(["backward", "linear", "topdown"])
rate_st = st.sampled_from([None, 0.5])


@settings(max_examples=25, deadline=None)
@given(
    trace=sized_trace_st,
    chunk_size=st.integers(1, 97),
    strategy=strategy_st,
    rate=rate_st,
    k=st.integers(1, 6),
    track_sizes=st.booleans(),
)
def test_streamed_krr_model_bit_identical(
    trace, chunk_size, strategy, rate, k, track_sizes
):
    kwargs = dict(
        k=k, strategy=strategy, sampling_rate=rate, track_sizes=track_sizes, seed=5
    )
    mem = KRRModel(**kwargs)
    mem.process(trace)
    streamed = KRRModel(**kwargs)
    streamed.process(stream=iter_chunks(trace, chunk_size))
    assert mem.stats == streamed.stats
    if mem.stats.requests_sampled:  # else both histograms are empty
        assert np.array_equal(mem.mrc().miss_ratios, streamed.mrc().miss_ratios)
    if track_sizes and mem.stats.requests_sampled > mem.stats.cold_misses:
        assert np.array_equal(
            mem.byte_mrc().miss_ratios, streamed.byte_mrc().miss_ratios
        )


@settings(max_examples=15, deadline=None)
@given(trace=trace_st, chunk_size=st.integers(1, 97))
def test_streamed_multi_krr_bit_identical(trace, chunk_size):
    grid_kwargs = dict(ks=[1, 4], sampling_rates=[None, 0.5], seed=9)
    try:
        mem = MultiKRR.grid(**grid_kwargs).run(trace)
    except ValueError:  # a cell sampled nothing: streamed must agree
        with pytest.raises(ValueError):
            MultiKRR.grid(**grid_kwargs).run(stream=iter_chunks(trace, chunk_size))
        return
    streamed = MultiKRR.grid(**grid_kwargs).run(
        stream=iter_chunks(trace, chunk_size)
    )
    for a, b in zip(mem, streamed):
        assert a.seed == b.seed
        assert np.array_equal(a.sizes, b.sizes)
        assert np.array_equal(a.miss_ratios, b.miss_ratios)
        for f in (
            "requests_seen",
            "requests_sampled",
            "cold_misses",
            "stack_updates",
            "swap_positions",
        ):
            assert getattr(a, f) == getattr(b, f)


@settings(max_examples=15, deadline=None)
@given(trace=trace_st, chunk_size=st.integers(1, 97))
def test_streamed_shards_bit_identical(trace, chunk_size):
    from repro.baselines.shards import FixedSizeShards, Shards

    for make in (
        lambda: Shards(rate=0.5, seed=3),
        lambda: FixedSizeShards(s_max=16, seed=3),
    ):
        mem, streamed = make(), make()
        mem.process(trace)
        streamed.process(iter_chunks(trace, chunk_size))
        try:
            mem_curve = mem.mrc().miss_ratios
        except ValueError:  # sampled nothing: streamed must agree
            with pytest.raises(ValueError):
                streamed.mrc()
            continue
        assert np.array_equal(mem_curve, streamed.mrc().miss_ratios)


@settings(max_examples=15, deadline=None)
@given(trace=trace_st, chunk_size=st.integers(1, 97))
def test_streamed_simulator_bit_identical(trace, chunk_size):
    from repro.simulator.base import run_trace
    from repro.simulator.klru import KLRUCache

    mem = run_trace(KLRUCache(capacity=16, k=3, rng=11), trace)
    streamed = run_trace(
        KLRUCache(capacity=16, k=3, rng=11), iter_chunks(trace, chunk_size)
    )
    assert (mem.hits, mem.misses, mem.evictions) == (
        streamed.hits,
        streamed.misses,
        streamed.evictions,
    )


def test_stream_rejects_trace_and_stream_together(small_zipf_trace):
    model = KRRModel(k=2, seed=0)
    with pytest.raises(ValueError):
        model.process(small_zipf_trace, stream=iter_chunks(small_zipf_trace, 10))
    with pytest.raises(ValueError):
        model.process()
    with pytest.raises(ValueError):
        MultiKRR.grid(ks=[1]).run()


def test_streaming_refuses_auto_rate(small_zipf_trace):
    model = KRRModel(k=2, sampling_rate="auto", seed=0)
    with pytest.raises(ValueError, match="auto"):
        model.process(stream=iter_chunks(small_zipf_trace, 100))
