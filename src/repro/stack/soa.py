"""Struct-of-arrays KRR stack: the streaming hot path on flat arrays.

:class:`~repro.core.krr.KRRStack` is a pointer-chasing Python object
structure — a list of boxed keys, a dict position map, per-access result
tuples — and that layout caps streaming throughput near 10^5 requests/s
no matter how carefully the loop is written.  :class:`SoAKRRStack` is the
same abstract data structure laid out the way the Multi-step LRU line of
work recommends: one flat ``int64`` array per field.

* ``stack[slot] -> key id`` — stack order, top of stack at slot 0;
* ``pos[key id] -> slot`` — the O(1) position lookup (``-1`` = absent);
* ``sizes[key id]`` — last-written object size;
* keys are *dense ids*: raw keys are factorized once per batch (or once
  per trace by a :class:`~repro.engine.plan.TracePlan`), so the hot loop
  never touches a Python dict or a boxed integer.

``access_many`` then processes whole request chunks: the inverse-CDF
draw blocks are produced vectorized by
:func:`~repro.core.updates.backward_draw_block`, survival probabilities
come from the shared :func:`~repro.core.updates.survival_table`, and the
data-dependent chain walk runs inside the compiled kernel from
:mod:`repro.stack._native` when a C compiler is available (pure-Python
fallback otherwise — same draws, same results, less speed).
:func:`walk_backward_lanes` walks several backward stacks over their own
chunks in one kernel call, two swap chains at a time; that is how
:class:`~repro.core.vkrr.MultiKRR` advances a grid, and a single stack's
chunk is the one-lane case of the same call.

**Seeding contract.**  For any ``(k, strategy, seed)`` this stack
consumes the generator's stream in exactly the refill pattern the scalar
strategies use (blocks of :data:`~repro.core.updates.DRAW_BLOCK` draws,
transformed by the shared helpers) and applies the identical update
arithmetic, so distances, final stack order and swap counters are
bit-identical to :class:`~repro.core.krr.KRRStack` — property-tested in
``tests/test_soa_engine.py``.  Each stack refills only its own buffer
from its own generator, so walking it beside other lanes changes
nothing.  Bit identity holds per host class (CPU SIMD level plus NumPy
build), not across hosts: NumPy's vectorized ``u ** (1/K)`` differs
from libm ``pow``, and from NumPy's own scalar ``**``, in the last bit
of a few percent of draws, so every draw must come from
:func:`~repro.core.updates.backward_draw_block` (see
docs/PERFORMANCE.md).  Supported strategies: ``"backward"`` (chain walk)
and ``"linear"`` (vectorized survival sweep); ``"topdown"`` has no
array-friendly formulation and stays scalar-only.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from .._util import RngLike, ensure_rng
from ..core.updates import (
    DRAW_BLOCK,
    backward_draw_block,
    survival_table,
)
from ._native import BackwardKernel, load_backward_kernel

__all__ = [
    "SOA_STRATEGIES",
    "SoAKRRStack",
    "walk_backward_lanes",
]


#: Update strategies with an SoA implementation.
SOA_STRATEGIES = ("backward", "linear")

_STATE_LEN = 6  # see _soa_kernel.c: [i, n_stack, bpos, cur_j, swaps, ref]


class SoAKRRStack:
    """Array-native KRR stack with batched, draw-identical updates.

    Parameters
    ----------
    k:
        The (possibly corrected) KRR parameter; may be fractional.
    strategy:
        ``"backward"`` (default) or ``"linear"``.
    rng:
        Seed or generator; the stream is consumed exactly as the scalar
        strategy with the same seed would consume it.
    initial_capacity:
        Starting length of the slot/id arrays (they double on demand).
    use_native:
        ``None`` (default) uses the compiled kernel when available;
        ``False`` forces the pure-Python walk (testing/diagnostics);
        ``True`` requires it (raises ``RuntimeError`` if unavailable).
    stack_buffer / pos_buffer:
        Preallocated ``int64`` state rows (e.g. rows of a grid-wide 2-D
        array, as :class:`~repro.core.vkrr.MultiKRR` passes).  Both must
        be given together, C-contiguous, and large enough for every
        distinct key; growth is disabled in this mode.
    """

    def __init__(
        self,
        k: float,
        strategy: str = "backward",
        rng: RngLike = None,
        initial_capacity: int = 1024,
        use_native: Optional[bool] = None,
        stack_buffer: Optional[np.ndarray] = None,
        pos_buffer: Optional[np.ndarray] = None,
    ) -> None:
        if k <= 0:
            raise ValueError("K must be positive")
        if strategy not in SOA_STRATEGIES:
            raise ValueError(
                f"SoA stack supports strategies {SOA_STRATEGIES}, got {strategy!r}"
            )
        self.k = float(k)
        self._inv_k = 1.0 / self.k
        self.strategy_name = strategy
        self._rng = ensure_rng(rng)

        self._kernel: Optional[BackwardKernel] = None
        if strategy == "backward" and use_native is not False:
            self._kernel = load_backward_kernel()
            if use_native and self._kernel is None:
                raise RuntimeError(
                    "use_native=True but no C compiler is available "
                    "(set REPRO_NATIVE=1 and install cc/gcc/clang)"
                )

        if (stack_buffer is None) != (pos_buffer is None):
            raise ValueError("stack_buffer and pos_buffer must be given together")
        if stack_buffer is not None and pos_buffer is not None:
            self._stack = self._check_buffer(stack_buffer, "stack_buffer")
            self._pos = self._check_buffer(pos_buffer, "pos_buffer")
            self._pos[:] = -1
            self._fixed_capacity = True
        else:
            cap = max(1, int(initial_capacity))
            self._stack = np.empty(cap, dtype=np.int64)
            self._pos = np.full(cap, -1, dtype=np.int64)
            self._fixed_capacity = False
        self._n = 0
        self._sizes = np.ones(self._pos.shape[0], dtype=np.int64)

        # Draw buffers, lazily filled on first use — exactly like the
        # scalar strategies, so construction consumes no generator state.
        # The backward buffer is one array for the stack's lifetime,
        # refilled in place, so the kernel call bound over it per chunk
        # stays valid across refills; it starts spent (bpos == block).
        self._buf = np.empty(DRAW_BLOCK, dtype=np.float64)  # (1-U)^(1/K)
        self._buf_list: List[float] = []                    # python mirror
        self._bpos = DRAW_BLOCK
        self._ubuf = np.empty(0, dtype=np.float64)  # linear: raw uniforms
        self._ubpos = 0
        self._table = survival_table(self.k) if strategy == "linear" else None

        # Raw-key interning (unused when ids are supplied externally).
        self._ids: Dict[int, int] = {}
        self._id_keys: List[int] = []
        self._key_table: Optional[np.ndarray] = None
        # True once access_many_interned bound this stack to an external
        # streaming interner (first-seen dense ids, no key table here).
        self._external_dense = False

        #: Cumulative number of swap positions drawn (Fig 5.4's cost proxy).
        self.total_swaps = 0
        #: Number of stack updates performed.
        self.updates = 0

    # ------------------------------------------------------------------
    @staticmethod
    def _check_buffer(buffer: np.ndarray, name: str) -> np.ndarray:
        if buffer.dtype != np.int64 or buffer.ndim != 1:
            raise ValueError(f"{name} must be a 1-D int64 array")
        if not buffer.flags.c_contiguous:
            raise ValueError(f"{name} must be C-contiguous")
        return buffer

    @property
    def uses_native_kernel(self) -> bool:
        """True when chain walks run in the compiled kernel."""
        return self._kernel is not None

    @property
    def tracks_sizes(self) -> bool:
        return False

    @property
    def uses_external_ids(self) -> bool:
        """True once :meth:`access_many_ids` has bound a key table."""
        return self._key_table is not None

    @property
    def has_interned_keys(self) -> bool:
        """True once raw-key :meth:`access_many` has interned keys."""
        return bool(self._ids)

    def __len__(self) -> int:
        return self._n

    def __contains__(self, key: int) -> bool:
        return self.position_of(key) > 0

    def position_of(self, key: int) -> int:
        """Current 1-based stack position of ``key`` (-1 if absent)."""
        kid = self._lookup_id(key)
        if kid is None:
            return -1
        slot = int(self._pos[kid])
        return -1 if slot < 0 else slot + 1

    def _lookup_id(self, key: int) -> Optional[int]:
        if self._external_dense:
            raise RuntimeError(
                "this stack consumes externally-interned dense ids "
                "(access_many_interned); the caller owns the key<->id map"
            )
        if self._key_table is not None:
            idx = int(np.searchsorted(self._key_table, key))
            if idx < self._key_table.shape[0] and int(self._key_table[idx]) == key:
                return idx
            return None
        return self._ids.get(key)

    def _key_of_id(self, kid: int) -> int:
        if self._external_dense:
            raise RuntimeError(
                "this stack consumes externally-interned dense ids; "
                "the caller owns the key<->id map"
            )
        if self._key_table is not None:
            return int(self._key_table[kid])
        return self._id_keys[kid]

    def keys_in_stack_order(self) -> List[int]:
        return [self._key_of_id(kid) for kid in self._stack[: self._n].tolist()]

    def sizes_in_stack_order(self) -> List[int]:
        return self._sizes[self._stack[: self._n]].tolist()

    @property
    def total_bytes(self) -> int:
        return int(self._sizes[self._stack[: self._n]].sum())

    # ------------------------------------------------------------------
    # capacity management
    # ------------------------------------------------------------------
    def _grow(self, array: np.ndarray, capacity: int, fill: int) -> np.ndarray:
        new_cap = max(capacity, array.shape[0] * 2, 1)
        grown = np.full(new_cap, fill, dtype=np.int64)
        grown[: array.shape[0]] = array
        return grown

    def _ensure_capacity(self, max_kid: int, incoming: int) -> None:
        """Room for ``incoming`` potential colds and ids up to ``max_kid``."""
        need_slots = self._n + incoming
        need_ids = max_kid + 1
        if self._fixed_capacity:
            if need_ids > self._pos.shape[0] or need_ids > self._stack.shape[0]:
                raise ValueError(
                    "fixed-capacity SoA stack too small for key ids up to "
                    f"{max_kid} (capacity {self._pos.shape[0]})"
                )
            if self._sizes.shape[0] < need_ids:
                self._sizes = self._grow(self._sizes, need_ids, 1)
            return
        if self._stack.shape[0] < need_slots:
            self._stack = self._grow(self._stack, need_slots, 0)
        if self._pos.shape[0] < need_ids:
            self._pos = self._grow(self._pos, need_ids, -1)
        if self._sizes.shape[0] < need_ids:
            self._sizes = self._grow(self._sizes, need_ids, 1)

    def _intern_keys(self, keys: np.ndarray) -> np.ndarray:
        """Map raw keys to dense ids, assigning fresh ids to unseen keys."""
        if self._key_table is not None or self._external_dense:
            raise RuntimeError(
                "this stack was fed pre-factorized ids (access_many_ids/"
                "access_many_interned); mixing raw-key access would corrupt "
                "the id space"
            )
        uniq, inverse = np.unique(keys, return_inverse=True)
        lut = np.empty(uniq.shape[0], dtype=np.int64)
        ids = self._ids
        id_keys = self._id_keys
        for j, key in enumerate(uniq.tolist()):
            kid = ids.get(key)
            if kid is None:
                kid = len(id_keys)
                ids[key] = kid
                id_keys.append(key)
            lut[j] = kid
        out = lut[inverse]
        assert isinstance(out, np.ndarray)
        return np.ascontiguousarray(out, dtype=np.int64)

    # ------------------------------------------------------------------
    # access paths
    # ------------------------------------------------------------------
    def access(self, key: int, size: int = 1) -> tuple[int, float]:
        """Single-request :meth:`access_many` (API parity with KRRStack)."""
        distances, _ = self.access_many(
            np.asarray([key], dtype=np.int64), [size]
        )
        return int(distances[0]), -1.0

    def access_many(
        self,
        keys: Union[np.ndarray, Sequence[int]],
        sizes: Union[np.ndarray, Sequence[int], None] = None,
    ) -> tuple[np.ndarray, None]:
        """Process a request chunk; returns ``(distances, None)``.

        ``distances`` is an ``int64`` array of pre-update 1-based stack
        positions (``-1`` for cold accesses) — elementwise identical to
        what :meth:`KRRStack.access_many` returns for the same seed.
        """
        keys_arr = np.ascontiguousarray(np.asarray(keys, dtype=np.int64))
        kids = self._intern_keys(keys_arr)
        return self._access_ids(kids, sizes), None

    def access_many_ids(
        self,
        kids: np.ndarray,
        key_table: np.ndarray,
        sizes: Union[np.ndarray, Sequence[int], None] = None,
    ) -> np.ndarray:
        """:meth:`access_many` on pre-factorized dense key ids.

        ``kids`` must be ``key_table``-relative ids (``key_table`` sorted
        ascending, as :func:`~repro.kernels.prep.factorize_keys` and
        :class:`~repro.engine.plan.TracePlan` produce); the table is
        retained for reverse lookups, and later raw-key calls are
        rejected to keep the id space consistent.
        """
        if self._ids or self._external_dense:
            raise RuntimeError(
                "this stack already interned keys (raw or streaming); "
                "cannot switch to pre-factorized table ids"
            )
        table = np.asarray(key_table, dtype=np.int64)
        if self._key_table is not None and table is not self._key_table:
            if not np.array_equal(table, self._key_table):
                raise ValueError(
                    "access_many_ids called with a different key table; "
                    "ids from another trace would corrupt the stack"
                )
        self._key_table = table
        kids = np.ascontiguousarray(np.asarray(kids, dtype=np.int64))
        return self._access_ids(kids, sizes)

    def access_many_interned(
        self,
        kids: np.ndarray,
        sizes: Union[np.ndarray, Sequence[int], None] = None,
    ) -> np.ndarray:
        """:meth:`access_many` on *externally streamed* dense key ids.

        The out-of-core feed: a streaming interner (e.g.
        :class:`~repro.engine.plan.StreamingTracePlan`) assigns dense ids
        in first-seen order, chunk by chunk, and this stack just consumes
        them — capacity grows on demand, so the distinct-key count never
        needs to be known up front.  Ids are opaque labels to the update
        walk (distances depend only on stack *positions*), so the
        resulting distance sequence is bit-identical to
        :meth:`access_many_ids` over the same trace with sorted-table
        ids.  The caller owns the key<->id map; reverse lookups
        (``position_of`` etc.) are refused in this mode, as is mixing
        with the other access paths.
        """
        if self._ids or self._key_table is not None:
            raise RuntimeError(
                "this stack already interned keys via another access path; "
                "mixing with streamed dense ids would corrupt the id space"
            )
        self._external_dense = True
        kids = np.ascontiguousarray(np.asarray(kids, dtype=np.int64))
        return self._access_ids(kids, sizes)

    def _access_ids(
        self,
        kids: np.ndarray,
        sizes: Union[np.ndarray, Sequence[int], None],
    ) -> np.ndarray:
        if kids.shape[0] == 0:
            return np.empty(0, dtype=np.int64)
        if self.strategy_name == "linear":
            self._ensure_capacity(int(kids.max()), kids.shape[0])
            distances = self._walk_linear(kids)
            self.updates += int(kids.shape[0])
        else:
            distances = _walk_backward([self], [kids])[0]
        if sizes is not None:
            # Fancy assignment applies duplicates in order, so the last
            # access's size wins — the same end state the scalar stack's
            # per-access dict writes produce.
            self._sizes[kids] = np.asarray(sizes, dtype=np.int64)
        return distances

    # ------------------------------------------------------------------
    def _walk_backward_python(self, kids: np.ndarray) -> np.ndarray:
        """Pure-Python mirror of the native kernel (same draws, same state)."""
        n_res = self._n
        stack_l = self._stack[:n_res].tolist()
        pos_l = self._pos.tolist()
        buf = self._buf_list
        bpos = self._bpos
        block = len(buf)
        swaps = 0
        distances: List[int] = []
        record = distances.append
        append = stack_l.append
        for kid in kids.tolist():
            p = pos_l[kid]
            if p < 0:
                append(kid)
                phi = len(stack_l)
                pos_l[kid] = phi - 1
                record(-1)
            else:
                phi = p + 1
                record(phi)
            swaps += 1
            j = phi - 1
            if j == 0:
                continue
            ref = stack_l[j]
            while j > 0:
                if bpos >= block:
                    buf = backward_draw_block(
                        self._rng, self._inv_k, DRAW_BLOCK
                    ).tolist()
                    bpos = 0
                    block = len(buf)
                v = buf[bpos] * j
                bpos += 1
                t = int(v)
                y = t if t < v else t - 1
                moved = stack_l[y]
                stack_l[j] = moved
                pos_l[moved] = j
                swaps += 1
                j = y
            stack_l[0] = ref
            pos_l[ref] = 0
        self._buf_list = buf
        self._bpos = bpos
        self._n = len(stack_l)
        self._stack[: self._n] = stack_l
        self._pos[:] = pos_l
        self.total_swaps += swaps
        return np.asarray(distances, dtype=np.int64)

    # ------------------------------------------------------------------
    def _take_uniforms(self, needed: int) -> np.ndarray:
        """Next ``needed`` uniforms, refilling in DRAW_BLOCK-sized blocks.

        Consumes ``Generator.random(DRAW_BLOCK)`` blocks exactly like the
        scalar ``_BufferedUniform``, so the value sequence matches the
        linear oracle draw for draw.
        """
        parts: List[np.ndarray] = []
        while needed > 0:
            available = self._ubuf.shape[0] - self._ubpos
            if available <= 0:
                self._ubuf = self._rng.random(DRAW_BLOCK)
                self._ubpos = 0
                available = DRAW_BLOCK
            take = min(needed, available)
            parts.append(self._ubuf[self._ubpos : self._ubpos + take])
            self._ubpos += take
            needed -= take
        if len(parts) == 1:
            return parts[0]
        return np.concatenate(parts)

    def _walk_linear(self, kids: np.ndarray) -> np.ndarray:
        """Vectorized linear sweep: one survival-table compare per access."""
        assert self._table is not None
        stack = self._stack
        pos = self._pos
        table = self._table
        n_res = self._n
        swaps = 0
        distances = np.empty(kids.shape[0], dtype=np.int64)
        for i, kid in enumerate(kids.tolist()):
            p = int(pos[kid])
            if p < 0:
                stack[n_res] = kid
                pos[kid] = n_res
                n_res += 1
                phi = n_res
                distances[i] = -1
            else:
                phi = p + 1
                distances[i] = phi
            if phi == 1:
                swaps += 1
                continue
            # Positions 2..phi-1 swap where their uniform clears the
            # survival probability — one vectorized compare per access.
            mids = np.empty(0, dtype=np.int64)
            if phi > 2:
                u = self._take_uniforms(phi - 2)
                surv = table.as_array(phi)
                mids = np.flatnonzero(u >= surv[2:phi])
            swaps += int(mids.shape[0]) + 2
            slots = np.empty(mids.shape[0] + 2, dtype=np.int64)
            slots[0] = 0
            slots[1:-1] = mids + 1  # 1-based position (m+2) -> slot (m+1)
            slots[-1] = phi - 1
            ref = int(stack[phi - 1])
            moved = stack[slots[:-1]]
            stack[slots[1:]] = moved
            pos[moved] = slots[1:]
            stack[0] = ref
            pos[ref] = 0
        self._n = n_res
        self.total_swaps += swaps
        return distances


def walk_backward_lanes(
    stacks: Sequence[SoAKRRStack], kids: Sequence[np.ndarray]
) -> List[np.ndarray]:
    """Walk each backward stack over its own chunk of dense ids at once.

    ``kids[i]`` feeds ``stacks[i]`` exactly as
    :meth:`SoAKRRStack.access_many_interned` would, with the same id-space
    guard, and the returned ``distances[i]`` are what that call returns:
    every stack keeps its own draws, refill order and counters, so the
    result does not depend on which stacks share the call or in what
    order they are listed.  The stacks with a kernel go through one
    native call that keeps two swap chains in flight; the others take
    their pure-Python walk.
    """
    if len(stacks) != len(kids):
        raise ValueError(f"{len(stacks)} stacks but {len(kids)} kid arrays")
    if any(stack.strategy_name != "backward" for stack in stacks):
        raise ValueError("walk_backward_lanes walks backward stacks only")
    if len({id(stack) for stack in stacks}) != len(stacks):
        # Two lanes on one stack would walk the same arrays at once.
        raise ValueError("walk_backward_lanes got the same stack twice")
    if any(stack._ids or stack._key_table is not None for stack in stacks):
        raise RuntimeError(
            "this stack already interned keys via another access path; "
            "mixing with streamed dense ids would corrupt the id space"
        )
    for stack in stacks:
        stack._external_dense = True
    return _walk_backward(
        stacks, [np.ascontiguousarray(ids, dtype=np.int64) for ids in kids]
    )


def _walk_backward(
    stacks: Sequence[SoAKRRStack], kids: Sequence[np.ndarray]
) -> List[np.ndarray]:
    """The backward walk behind every access path, for one or many stacks.

    Makes room in every stack first, so no array moves while the kernel
    is bound; sends the stacks with a kernel through one
    :func:`_walk_lanes` call and the others through their Python walk;
    counts the updates.
    """
    for stack, ids in zip(stacks, kids):
        if ids.shape[0]:
            stack._ensure_capacity(int(ids.max()), ids.shape[0])
    native = [i for i, stack in enumerate(stacks) if stack._kernel is not None]
    walked: Dict[int, np.ndarray] = {}
    if native:
        kernel = stacks[native[0]]._kernel
        assert kernel is not None
        lanes = _walk_lanes(
            kernel, [stacks[i] for i in native], [kids[i] for i in native]
        )
        walked = dict(zip(native, lanes))
    out: List[np.ndarray] = []
    for i, (stack, ids) in enumerate(zip(stacks, kids)):
        distances = walked.get(i)
        if distances is None:
            distances = stack._walk_backward_python(ids)
        stack.updates += int(ids.shape[0])
        out.append(distances)
    return out


def _walk_lanes(
    kernel: BackwardKernel,
    stacks: Sequence[SoAKRRStack],
    kids: Sequence[np.ndarray],
) -> List[np.ndarray]:
    """One native call over every (stack, kids) lane; returns distances.

    Every stack's ``_ensure_capacity`` must already cover its kids, so no
    array moves while the call is bound.  Lanes go to the kernel's two
    chain slots heaviest first (``K' x requests``): the longest lane then
    starts at once and the lighter ones pass through the other slot
    beside it, instead of one heavy lane finishing alone at the end.
    """
    order = sorted(
        range(len(stacks)), key=lambda i: -stacks[i].k * kids[i].shape[0]
    )
    starts = np.cumsum([0] + [kids[i].shape[0] for i in order]).tolist()
    flat = np.empty(starts[-1], dtype=np.int64)  # every lane's distances
    states = np.array(
        [
            [0, stacks[i]._n, stacks[i]._bpos, 0, stacks[i].total_swaps, -1]
            for i in order
        ],
        dtype=np.int64,
    )
    flat_at = flat.ctypes.data
    state_at = states.ctypes.data
    # One row per lane: kids, n, stack, pos, buf, block, distances, state.
    desc = np.array(
        [
            [
                kids[i].ctypes.data,
                kids[i].shape[0],
                stacks[i]._stack.ctypes.data,
                stacks[i]._pos.ctypes.data,
                stacks[i]._buf.ctypes.data,
                stacks[i]._buf.shape[0],
                flat_at + 8 * starts[row],
                state_at + 8 * _STATE_LEN * row,
            ]
            for row, i in enumerate(order)
        ],
        dtype=np.int64,
    )
    ctl = np.array([-1, -1, 0], dtype=np.int64)
    run = kernel.bind(desc, ctl)
    lane = run()
    while lane >= 0:
        stack = stacks[order[lane]]
        buf = stack._buf
        backward_draw_block(stack._rng, stack._inv_k, buf.shape[0], out=buf)
        states[lane, 2] = 0
        lane = run()
    distances: Dict[int, np.ndarray] = {}
    for row, (i, state) in enumerate(zip(order, states.tolist())):
        stack = stacks[i]
        stack._n, stack._bpos, stack.total_swaps = state[1], state[2], state[4]
        distances[i] = flat[starts[row] : starts[row + 1]]
    return [distances[i] for i in range(len(stacks))]
