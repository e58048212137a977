"""On-demand native build of the SoA chain-walk kernel.

The backward-update swap chain is a data-dependent scalar recurrence —
each step's slot is ``ceil(draw * j) - 1`` of the previous one — so NumPy
cannot vectorize it and the CPython interpreter caps the streaming KRR
path at a few hundred nanoseconds per chain step.  The kernel in
``_soa_kernel.c`` runs the identical arithmetic at C speed over the flat
SoA arrays (10x+ end to end; see docs/PERFORMANCE.md).  Its one export,
``krr_backward_lanes``, walks several stacks ("lanes") in one call and
keeps two of their swap chains in flight, so a grid's cells overlap
their chain latencies; a single stack is a one-lane call.

A ctypes call is cheap only when its arguments are plain ints: reading
``ndarray.ctypes.data`` builds a helper object per array (1-2 us each
on a 2-vCPU Xeon VM).  The caller therefore writes every lane's array
addresses into one ``int64`` descriptor table once per chunk, and
:meth:`BackwardKernel.bind` resolves the table and the control words
into a zero-argument call, which each draw-block refill (one every
4096 swap steps of a lane) re-enters.  The arrays must stay where they
are while the bound call is in use: the SoA stacks grow their arrays
before the table is built and fill their draw buffers in place.

This module compiles that one C file with the system compiler the first
time it is needed and binds it through :mod:`ctypes`.  There is no build
step, no packaging change and no new dependency: if no compiler is
available, the compiler fails or hangs, or ``REPRO_NATIVE=0`` disables
the attempt, callers fall back to the pure-Python SoA path, which
consumes the same draws and produces bit-identical results — the kernel
is a throughput lever, never a semantics change.  A failed build is
remembered for the life of the process, so it is tried once.

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
from typing import Callable, Optional

import numpy as np

__all__ = [
    "BackwardKernel",
    "load_backward_kernel",
    "native_kernel_active",
]


_SOURCE = Path(__file__).with_name("_soa_kernel.c")

#: Sentinel distinguishing "never tried" from "tried and unavailable".
_UNSET = object()
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

        ``desc`` is the C-contiguous ``(n_lanes, 8)`` ``int64`` lane table
        and ``ctl`` the three ``int64`` control words, laid out as the
        kernel header describes.  Each call of the result returns -1 when
        every lane is done, or the index of a lane whose draw buffer must
        be refilled (in place, with that lane's ``state[2]`` reset to 0)
        before calling again.  Neither these arrays nor any array the
        table points at may move or be freed while the call is in use.
        """
        return functools.partial(
            self._fn, desc.shape[0], desc.ctypes.data, ctl.ctypes.data
        )


def load_backward_kernel() -> Optional[BackwardKernel]:
    """The process-wide kernel instance, or None if unavailable.

    Compilation is attempted once per process; failures (no compiler, a
    compiler that fails or times out, sandboxed tmpdir, ``REPRO_NATIVE=0``)
    are cached as None so the SoA stack silently stays on its pure-Python
    fallback.
    """
    global _KERNEL
    if _KERNEL is _UNSET:
        _KERNEL = _load()
    return _KERNEL if isinstance(_KERNEL, BackwardKernel) else None


def _load() -> Optional[BackwardKernel]:
    if os.environ.get("REPRO_NATIVE", "1") == "0":
        return None
    if not _SOURCE.exists():
        return None
    lib_path = _build_library(_SOURCE)
    if lib_path is None:
        return None
    try:
        return BackwardKernel(ctypes.CDLL(str(lib_path)))
    except OSError:
        return None


def native_kernel_active() -> bool:
    """True when the compiled kernel is loaded (benchmarks report this)."""
    return load_backward_kernel() is not None
