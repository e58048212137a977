"""On-demand native build of the SoA chain-walk kernel and CSV decoder.

The backward-update swap chain is a data-dependent scalar recurrence —
each step's slot is ``ceil(draw * j) - 1`` of the previous one — so NumPy
cannot vectorize it and the CPython interpreter caps the streaming KRR
path at a few hundred nanoseconds per chain step.  The kernel in
``_soa_kernel.c`` runs the identical arithmetic at C speed over the flat
SoA arrays (10x+ end to end; see docs/PERFORMANCE.md).  Its walk export,
``krr_backward_lanes``, walks several stacks ("lanes") in one call and
keeps two of their swap chains in flight, so a grid's cells overlap
their chain latencies; a single stack is a one-lane call.  For a lane
on a PCG64 generator it also draws the uniforms of the lane's next
draw block beside the chain steps, with NumPy's exact bytes, so only
the block's power is left to NumPy.

Its other export, ``csv_decode_block``, decodes a block of clean CSV
lines into trace columns in one forward pass, or refuses the block;
:func:`repro.workloads.io._decode_block` calls it through
:func:`load_csv_decoder`, and the row parser it falls back to is its
reference.

A ctypes call is cheap only when its arguments are plain ints: reading
``ndarray.ctypes.data`` builds a helper object per array (1-2 us each
on a 2-vCPU Xeon VM).  The caller therefore writes every lane's array
addresses into one ``int64`` descriptor table once per chunk, and
:meth:`BackwardKernel.bind` resolves the table and the control words
into a zero-argument call.  The call returns each time a lane's draw
block is spent (one every 4096 swap steps of a lane); the caller
finishes that lane's next block in place — the power alone for a
PCG64 lane, whose uniforms the kernel drew, else a whole
``backward_draw_block`` — and re-enters.  The arrays must stay where
they are while the bound call is in use: the SoA stacks grow their
arrays before the table is built and fill their draw buffers in place.

This module compiles that one C file with the system compiler the first
time it is needed and binds both exports through :mod:`ctypes`.  There
is no build step, no packaging change and no new dependency: if no
compiler is available, the compiler fails or hangs, or ``REPRO_NATIVE=0``
disables the attempt, callers fall back to the pure-Python SoA path,
which consumes the same draws and produces bit-identical results, and
CSV blocks go through the row parser — the kernel is a throughput lever,
never a semantics change.  A failed build is remembered for the life of
the process, so it is tried once.

The shared object is cached under a per-user directory keyed by the
SHA-256 of the C source, so editing the kernel invalidates stale builds
and concurrent processes converge on one artifact (build to a unique
temp name, then atomic ``os.replace``; the temp file is removed on any
failure).
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path
from typing import Callable, Optional, Tuple

import numpy as np

__all__ = [
    "BackwardKernel",
    "load_backward_kernel",
    "load_csv_decoder",
    "native_kernel_active",
]


_SOURCE = Path(__file__).with_name("_soa_kernel.c")

#: Sentinel distinguishing "never tried" from "tried and unavailable".
_UNSET = object()
#: The loaded library's two bindings, None when unavailable, or _UNSET.
_KERNEL: object = _UNSET


def _compiler() -> Optional[str]:
    """The C compiler to use: ``$CC`` if set, else the first of cc/gcc/clang."""
    cc = os.environ.get("CC")
    if cc:
        return cc if shutil.which(cc) else None
    for candidate in ("cc", "gcc", "clang"):
        if shutil.which(candidate):
            return candidate
    return None


def _cache_dir() -> Path:
    """Per-user build cache (override with ``REPRO_NATIVE_CACHE``)."""
    override = os.environ.get("REPRO_NATIVE_CACHE")
    if override:
        return Path(override)
    uid = os.getuid() if hasattr(os, "getuid") else 0
    return Path(tempfile.gettempdir()) / f"repro-native-{uid}"


def _extra_cflags() -> list:
    """Extra compile flags from ``REPRO_NATIVE_CFLAGS`` (whitespace-split).

    This is how the sanitizer CI job rebuilds the kernel with
    ``-fsanitize=address,undefined``: the flags participate in the cache
    digest, so sanitized and plain builds never collide in the cache.
    """
    return os.environ.get("REPRO_NATIVE_CFLAGS", "").split()


def _build_library(source: Path) -> Optional[Path]:
    """Compile ``source`` into the cache; returns the .so path or None."""
    cc = _compiler()
    if cc is None:
        return None
    extra = _extra_cflags()
    text = source.read_bytes() + "\x00".join(extra).encode()
    digest = hashlib.sha256(text).hexdigest()[:16]
    cache = _cache_dir()
    lib_path = cache / f"soa_kernel-{digest}.so"
    if lib_path.exists():
        return lib_path
    try:
        cache.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(suffix=".so", dir=str(cache))
        os.close(fd)
    except OSError:
        return None
    cmd = [cc, "-O3", "-shared", "-fPIC", *extra, "-o", tmp_name, str(source)]
    try:
        proc = subprocess.run(
            cmd,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            timeout=120,
            check=False,
        )
        if proc.returncode == 0:
            os.replace(tmp_name, lib_path)  # atomic: racers converge
            return lib_path
    except (OSError, subprocess.SubprocessError):  # incl. TimeoutExpired
        pass
    try:
        os.unlink(tmp_name)
    except OSError:
        pass
    return None


class BackwardKernel:
    """Bound native ``krr_backward_lanes`` (see ``_soa_kernel.c``)."""

    __slots__ = ("_fn",)

    def __init__(self, library: ctypes.CDLL) -> None:
        fn = library.krr_backward_lanes
        fn.restype = ctypes.c_int64
        fn.argtypes = [
            ctypes.c_int64,   # n_lanes
            ctypes.c_void_p,  # desc
            ctypes.c_void_p,  # ctl
        ]
        self._fn = fn

    def bind(self, desc: np.ndarray, ctl: np.ndarray) -> Callable[[], int]:
        """The kernel call over these lanes, with its addresses resolved.

        ``desc`` is the C-contiguous ``(n_lanes, 10)`` ``int64`` lane
        table and ``ctl`` the three ``int64`` control words, laid out as
        the kernel header describes.  Each call of the result returns -1
        when every lane is done, or the index of a lane whose draw buffer
        was spent.  The kernel has already rewound that lane's cursor,
        counted the refill and, when the lane has PCG64 words, written
        the next block's ``1 - U`` into its buffer: the caller raises the
        buffer to ``1/K`` in place (without PCG64 words, refills it with
        ``backward_draw_block``) before calling again.  Neither these
        arrays nor any array the table points at may move or be freed
        while the call is in use.
        """
        return functools.partial(
            self._fn, desc.shape[0], desc.ctypes.data, ctl.ctypes.data
        )


def _bind_csv_decoder(library: ctypes.CDLL) -> Callable[..., int]:
    """The native ``csv_decode_block`` (see ``_soa_kernel.c``).

    Called as ``(block, len(block), n_fields, ki, si, oi, keys, sizes,
    ops, cap)``: ``block`` is a ``bytes`` object (or the address of that
    many bytes), ``si``/``oi`` are -1 for an absent column, and
    ``keys``/``sizes``/``ops`` are the addresses of
    ``int64``/``int64``/``int8`` arrays of at least ``cap`` rows.  Returns
    the row count, or -1 when the block is not clean.
    """
    decode = library.csv_decode_block
    decode.restype = ctypes.c_int64
    decode.argtypes = [
        ctypes.c_void_p,  # data
        ctypes.c_int64,   # len
        ctypes.c_int64,   # n_fields
        ctypes.c_int64,   # ki
        ctypes.c_int64,   # si
        ctypes.c_int64,   # oi
        ctypes.c_void_p,  # keys
        ctypes.c_void_p,  # sizes
        ctypes.c_void_p,  # ops
        ctypes.c_int64,   # cap
    ]
    return decode


def _bindings() -> Optional[Tuple[BackwardKernel, Callable[..., int]]]:
    """Both bindings of the process-wide library, or None if unavailable.

    Compilation is attempted once per process; failures (no compiler, a
    compiler that fails or times out, sandboxed tmpdir, ``REPRO_NATIVE=0``)
    are cached as None so callers silently stay on their pure-Python
    fallbacks.
    """
    global _KERNEL
    if _KERNEL is _UNSET:
        _KERNEL = _load()
    return _KERNEL if isinstance(_KERNEL, tuple) else None


def load_backward_kernel() -> Optional[BackwardKernel]:
    """The process-wide chain-walk kernel, or None if unavailable."""
    bound = _bindings()
    return None if bound is None else bound[0]


def load_csv_decoder() -> Optional[Callable[..., int]]:
    """The process-wide CSV block decoder, or None if unavailable."""
    bound = _bindings()
    return None if bound is None else bound[1]


def _load() -> Optional[Tuple[BackwardKernel, Callable[..., int]]]:
    if os.environ.get("REPRO_NATIVE", "1") == "0":
        return None
    if not _SOURCE.exists():
        return None
    lib_path = _build_library(_SOURCE)
    if lib_path is None:
        return None
    try:
        library = ctypes.CDLL(str(lib_path))
        return BackwardKernel(library), _bind_csv_decoder(library)
    except OSError:
        return None


def native_kernel_active() -> bool:
    """True when the compiled kernel is loaded (benchmarks report this)."""
    return load_backward_kernel() is not None
