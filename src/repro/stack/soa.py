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
* keys are *dense ids*: :meth:`~SoAKRRStack.access_many` interns raw
  keys once per batch, and :meth:`~SoAKRRStack.access_many_interned`
  takes ids a caller interned (a grid interns its keys once for all of
  its cells), so the hot loop never touches a Python dict or a boxed
  integer.  Every array grows on demand.

``access_many`` then processes whole request chunks: the data-dependent
chain walk of the backward update (Algorithm 2) runs inside the compiled
kernel from :mod:`repro.stack._native` when a C compiler is available
(pure-Python fallback otherwise — same draws, same results, less speed).
:func:`walk_backward_lanes` walks several stacks over their own chunks in
one kernel call, two swap chains at a time; that is how
:class:`~repro.core.vkrr.MultiKRR` advances a grid, and a single stack's
chunk is the one-lane case of the same call.

Inverse-CDF draws come in blocks of ``(1 - U)^(1/K)``.  The Python walk
takes each block from :func:`~repro.core.updates.backward_draw_block`.
The kernel draws a PCG64 stack's uniforms itself, one for the next
block beside each swap step of the current one, and hands the block
back for :func:`~repro.core.updates.backward_draw_power`, NumPy's
``**=``; a stack on any other bit generator gets its blocks from
:func:`~repro.core.updates.backward_draw_block` as in the Python walk.
After every walk the generator stands where the last block handed over
left it: uniforms a walk drew past that are dropped and drawn again by
the next walk.

**Seeding contract.**  For any ``(k, seed)`` this stack consumes the
generator's stream in exactly the refill pattern
:class:`~repro.core.updates.BackwardUpdate` uses (blocks of
:data:`~repro.core.updates.DRAW_BLOCK` draws, transformed by the shared
helpers) and applies the identical update arithmetic, so distances,
final stack order and swap counters are bit-identical to a backward
:class:`~repro.core.krr.KRRStack` — property-tested in
``tests/test_soa_engine.py``.  Each stack refills only its own buffer
from its own generator, so walking it beside other lanes changes
nothing; lanes walked together must therefore not share a generator.
Bit identity holds per host class (CPU SIMD level plus NumPy build),
not across hosts: NumPy's vectorized ``u ** (1/K)`` differs from libm
``pow``, and from NumPy's own scalar ``**``, in the last bit of a few
percent of draws, so every draw's power must come from
:func:`~repro.core.updates.backward_draw_power` (see
docs/PERFORMANCE.md).  The uniforms carry no such caveat: the kernel's
PCG64 step and ``1 - U`` are exact integer and power-of-two arithmetic.

``linear``, ``topdown`` and byte distances run on the scalar stack;
:func:`~repro.core.model.build_stack` picks the stack of a model and of a
grid cell alike, so a grid can mix both kinds of stack in its one pass.
Both stacks write one snapshot layout.
"""

from __future__ import annotations

from contextlib import ExitStack
from typing import Any, Dict, List, Optional, Sequence, Union

import numpy as np

from .._util import RngLike, ensure_rng
from ..core.updates import DRAW_BLOCK, backward_draw_block, backward_draw_power
from ._native import BackwardKernel, load_backward_kernel

__all__ = [
    "SoAKRRStack",
    "int64_keys",
    "walk_backward_lanes",
]


# See _soa_kernel.c: state is [i, n_stack, bpos, cur_j, swaps, ref,
# refills, npos]; gen is a PCG64 state, increment and block-end state as
# (high, low) word pairs.
_STATE_LEN = 8
_GEN_LEN = 6
_WORD = (1 << 64) - 1

#: Starting length of a stack's slot and id arrays (doubled on demand).
_INITIAL_CAPACITY = 1024


def int64_keys(keys: Union[np.ndarray, Sequence[int]]) -> np.ndarray:
    """Keys as a contiguous ``int64`` column, reduced mod 2^64 exactly as
    scalar ``splitmix64`` wraps them (``uint64`` columns reinterpreted)."""
    if isinstance(keys, np.ndarray):
        arr = keys.view(np.int64) if keys.dtype == np.uint64 else keys
        return np.ascontiguousarray(arr, dtype=np.int64)
    try:
        return np.asarray(keys, dtype=np.int64)
    except OverflowError:
        return np.fromiter(
            (key & 0xFFFFFFFFFFFFFFFF for key in keys),
            dtype=np.uint64,
            count=len(keys),
        ).view(np.int64)


class SoAKRRStack:
    """Array-native KRR stack with batched, draw-identical backward updates.

    Parameters
    ----------
    k:
        The (possibly corrected) KRR parameter; may be fractional.
    rng:
        Seed or generator; the stream is consumed exactly as the scalar
        backward strategy with the same seed would consume it.
    use_native:
        ``None`` (default) uses the compiled kernel when available;
        ``False`` forces the pure-Python walk (testing/diagnostics);
        ``True`` requires it (raises ``RuntimeError`` if unavailable).
    """

    def __init__(
        self,
        k: float,
        rng: RngLike = None,
        use_native: Optional[bool] = None,
    ) -> None:
        if k <= 0:
            raise ValueError("K must be positive")
        self.k = float(k)
        self._inv_k = 1.0 / self.k
        self._rng = ensure_rng(rng)

        self._kernel: Optional[BackwardKernel] = None
        if use_native is not False:
            self._kernel = load_backward_kernel()
            if use_native and self._kernel is None:
                raise RuntimeError(
                    "use_native=True but no C compiler is available "
                    "(set REPRO_NATIVE=1 and install cc/gcc/clang)"
                )

        # Slot and id arrays, doubled on demand by _ensure_capacity.
        self._stack = np.empty(_INITIAL_CAPACITY, dtype=np.int64)
        self._pos = np.full(_INITIAL_CAPACITY, -1, dtype=np.int64)
        self._sizes = np.ones(_INITIAL_CAPACITY, dtype=np.int64)
        self._n = 0

        # Draw buffers, lazily filled on first use — exactly like the
        # scalar strategy, so construction consumes no generator state.
        # The buffer is one array for the stack's lifetime, refilled in
        # place, so the kernel call bound over it per chunk stays valid
        # across refills; it starts spent (bpos == block).
        # The kernel draws the next block's 1 - U into _next beside the
        # chain walk; what it holds between walks is never read.
        self._buf = np.empty(DRAW_BLOCK, dtype=np.float64)  # (1-U)^(1/K)
        self._next = np.empty(DRAW_BLOCK, dtype=np.float64)  # next 1 - U
        self._buf_list: List[float] = []                    # python mirror
        self._bpos = DRAW_BLOCK
        self._refills = -1  # counted as BackwardUpdate counts them

        # Raw-key interning (unused when ids are supplied externally).
        self._ids: Dict[int, int] = {}
        self._id_keys: List[int] = []
        # True once access_many_interned or walk_backward_lanes bound this
        # stack to an external interner (the caller owns the key<->id map).
        self._external_dense = False

        #: Cumulative number of swap positions drawn (Fig 5.4's cost proxy).
        self.total_swaps = 0
        #: Number of stack updates performed.
        self.updates = 0

    # ------------------------------------------------------------------
    @property
    def uses_native_kernel(self) -> bool:
        """True when chain walks run in the compiled kernel."""
        return self._kernel is not None

    @property
    def tracks_sizes(self) -> bool:
        return False

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

    def _check_own_ids(self) -> None:
        """Refuse key lookups on a stack fed externally interned ids."""
        if self._external_dense:
            raise RuntimeError(
                "this stack consumes externally-interned dense ids "
                "(access_many_interned); the caller owns the key<->id map"
            )

    def _lookup_id(self, key: int) -> Optional[int]:
        self._check_own_ids()
        return self._ids.get(int(int64_keys([key])[0]))

    def keys_in_stack_order(self) -> List[int]:
        self._check_own_ids()
        id_keys = self._id_keys
        return [id_keys[kid] for kid in self._stack[: self._n].tolist()]

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
        if self._stack.shape[0] < need_slots:
            self._stack = self._grow(self._stack, need_slots, 0)
        if self._pos.shape[0] < need_ids:
            self._pos = self._grow(self._pos, need_ids, -1)
        if self._sizes.shape[0] < need_ids:
            self._sizes = self._grow(self._sizes, need_ids, 1)

    def _intern_keys(self, keys: np.ndarray) -> np.ndarray:
        """Map raw keys to dense ids, assigning fresh ids to unseen keys."""
        if self._external_dense:
            raise RuntimeError(
                "this stack was fed externally interned ids "
                "(access_many_interned); mixing raw-key access would corrupt "
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
        distances, _ = self.access_many([key], [size])
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
        Keys are reduced mod 2^64 (:func:`int64_keys`).
        """
        kids = self._intern_keys(int64_keys(keys))
        return self._access_ids(kids, sizes), None

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
        resulting distance sequence is bit-identical to :meth:`access_many`
        over the raw keys.  The caller owns the key<->id map; reverse
        lookups (``position_of`` etc.) are refused in this mode, as is
        mixing with raw-key access.  A negative id raises ``ValueError``
        and leaves the stack as it was.
        """
        if self._ids:
            raise RuntimeError(
                "this stack already interned keys via another access path; "
                "mixing with streamed dense ids would corrupt the id space"
            )
        kids = np.ascontiguousarray(np.asarray(kids, dtype=np.int64))
        _check_dense(kids)
        self._external_dense = True
        return self._access_ids(kids, sizes)

    def _access_ids(
        self,
        kids: np.ndarray,
        sizes: Union[np.ndarray, Sequence[int], None],
    ) -> np.ndarray:
        if kids.shape[0] == 0:
            return np.empty(0, dtype=np.int64)
        distances = _walk_backward([self], [kids])[0]
        if sizes is not None:
            # Fancy assignment applies duplicates in order, so the last
            # access's size wins — the same end state the scalar stack's
            # per-access dict writes produce.
            self._sizes[kids] = np.asarray(sizes, dtype=np.int64)
        return distances

    # ------------------------------------------------------------------
    # snapshots
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, Any]:
        """JSON-safe snapshot in :meth:`KRRStack.state_dict`'s layout.

        Keys and sizes in stack order; the draw buffer as the scalar
        strategy writes it, a spent one as ``[]``.  A stack fed
        externally interned ids has no keys to write and refuses.
        """
        keys = self.keys_in_stack_order()
        buf = self._buf_list if self._kernel is None else self._buf.tolist()
        pos = self._bpos
        if pos >= len(buf):  # spent, or never filled
            buf, pos = [], DRAW_BLOCK
        return {
            "k": self.k,
            "stack": keys,
            "sizes": [list(pair) for pair in zip(keys, self.sizes_in_stack_order())],
            "strategy": {
                "buf": list(buf),
                "pos": pos,
                "kind": "backward",
                "refills": self._refills,
            },
            "size_array": None,
            "total_swaps": self.total_swaps,
            "updates": self.updates,
        }

    def load_state(self, state: Dict[str, Any]) -> None:
        """Restore a :meth:`state_dict`, or a :class:`KRRStack` one.

        Keys are reduced mod 2^64 (a scalar stack's snapshot may hold
        raw ints >= 2^63) and interned in stack order.
        """
        if float(state["k"]) != self.k:
            raise ValueError(
                f"stack state is for K={state['k']!r}, this stack has K={self.k}"
            )
        draws = state["strategy"] or {}
        if draws.get("kind") != "backward":
            raise ValueError(f"stack state is for strategy {draws.get('kind')!r}")
        buf = [float(v) for v in draws["buf"]]
        pos = int(draws["pos"])
        if len(buf) != DRAW_BLOCK and (buf or pos < DRAW_BLOCK):
            raise ValueError(f"draw buffer of {len(buf)} at pos {pos}")
        id_keys = int64_keys(state["stack"]).tolist()
        n = len(id_keys)
        ids = {key: kid for kid, key in enumerate(id_keys)}
        if len(ids) != n:
            raise ValueError("stack state holds a key twice")
        pairs = state["sizes"]
        size_ids = [ids[key] for key in int64_keys([k for k, _ in pairs]).tolist()]
        capacity = max(_INITIAL_CAPACITY, n)
        self._stack = np.zeros(capacity, dtype=np.int64)
        self._pos = np.full(capacity, -1, dtype=np.int64)
        self._sizes = np.ones(capacity, dtype=np.int64)
        self._stack[:n] = self._pos[:n] = np.arange(n, dtype=np.int64)
        self._sizes[size_ids] = [int(size) for _, size in pairs]
        self._n, self._ids, self._id_keys = n, ids, id_keys
        self._external_dense = False
        if buf:
            self._buf[:] = buf  # in place: the array outlives refills
        self._buf_list, self._bpos = buf, pos
        self._refills = int(draws["refills"])
        self.total_swaps = int(state["total_swaps"])
        self.updates = int(state["updates"])

    # ------------------------------------------------------------------
    def _walk_backward_python(self, kids: np.ndarray) -> np.ndarray:
        """Pure-Python mirror of the native kernel (same draws, same state)."""
        n_res = self._n
        stack_l = self._stack[:n_res].tolist()
        pos_l = self._pos.tolist()
        buf = self._buf_list
        bpos = self._bpos
        block = len(buf)
        refills = self._refills
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
                    refills += 1
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
        self._refills = refills
        self._n = len(stack_l)
        self._stack[: self._n] = stack_l
        self._pos[:] = pos_l
        self.total_swaps += swaps
        return np.asarray(distances, dtype=np.int64)


def _check_dense(kids: np.ndarray) -> None:
    """Refuse negative dense ids: the walks index ``pos`` with them."""
    if kids.shape[0] and int(kids.min()) < 0:
        raise ValueError(f"dense key ids must be >= 0, got {int(kids.min())}")


def walk_backward_lanes(
    stacks: Sequence[SoAKRRStack], kids: Sequence[np.ndarray]
) -> List[np.ndarray]:
    """Walk each stack over its own chunk of dense ids at once.

    ``kids[i]`` feeds ``stacks[i]`` exactly as
    :meth:`SoAKRRStack.access_many_interned` would, with the same id-space
    guard, and the returned ``distances[i]`` are what that call returns:
    every stack keeps its own draws, refill order and counters, so the
    result does not depend on which stacks share the call or in what
    order they are listed.  Stacks must not share a generator, and ids
    must not be negative.  The stacks with a kernel go through one
    native call that keeps two swap chains in flight; the others take
    their pure-Python walk.
    """
    if len(stacks) != len(kids):
        raise ValueError(f"{len(stacks)} stacks but {len(kids)} kid arrays")
    if len({id(stack) for stack in stacks}) != len(stacks):
        # Two lanes on one stack would walk the same arrays at once.
        raise ValueError("walk_backward_lanes got the same stack twice")
    if len({id(stack._rng.bit_generator) for stack in stacks}) != len(stacks):
        # Each lane draws from its generator as if it were the only one.
        raise ValueError("walk_backward_lanes got stacks sharing a generator")
    if any(stack._ids for stack in stacks):
        raise RuntimeError(
            "this stack already interned keys via another access path; "
            "mixing with streamed dense ids would corrupt the id space"
        )
    kids = [np.ascontiguousarray(ids, dtype=np.int64) for ids in kids]
    for ids in kids:
        _check_dense(ids)
    for stack in stacks:
        stack._external_dense = True
    return _walk_backward(stacks, kids)


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
        with ExitStack() as held:
            lanes = _walk_lanes(
                kernel,
                [stacks[i] for i in native],
                [kids[i] for i in native],
                held,
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


def _pcg64_state(
    rng: np.random.Generator, held: ExitStack
) -> Optional[Dict[str, Any]]:
    """``rng``'s state when the kernel can draw its uniforms (PCG64), else
    None.

    The generator's lock is then held until ``held`` closes, so that it
    covers the state's write-back: the kernel call releases the GIL, and
    a draw another thread made from the generator meanwhile would be
    overwritten.
    """
    bit_generator = rng.bit_generator
    if type(bit_generator) is not np.random.PCG64:
        return None
    held.enter_context(bit_generator.lock)
    state: Dict[str, Any] = bit_generator.state
    return state


def _walk_lanes(
    kernel: BackwardKernel,
    stacks: Sequence[SoAKRRStack],
    kids: Sequence[np.ndarray],
    held: ExitStack,
) -> List[np.ndarray]:
    """One native call over every (stack, kids) lane; returns distances.

    Every stack's ``_ensure_capacity`` must already cover its kids, so no
    array moves while the call is bound.  Lanes go to the kernel's two
    chain slots heaviest first (``K' x requests``): the longest lane then
    starts at once and the lighter ones pass through the other slot
    beside it, instead of one heavy lane finishing alone at the end.

    A PCG64 lane's state goes to the kernel, which draws its uniforms; at
    each return for that lane the block's power is all that is left to
    do, and at the end the generator takes the state that follows the
    last block handed over (``has_uint32`` and ``uinteger`` kept as they
    were); its lock joins ``held``.  Any other lane's blocks come from
    ``backward_draw_block``.
    """
    order = sorted(
        range(len(stacks)), key=lambda i: -stacks[i].k * kids[i].shape[0]
    )
    starts = np.cumsum([0] + [kids[i].shape[0] for i in order]).tolist()
    flat = np.empty(starts[-1], dtype=np.int64)  # every lane's distances
    states = np.array(
        [
            [0, stacks[i]._n, stacks[i]._bpos, 0, stacks[i].total_swaps, -1,
             stacks[i]._refills, 0]
            for i in order
        ],
        dtype=np.int64,
    )
    pcg = [_pcg64_state(stacks[i]._rng, held) for i in order]
    gens = np.zeros((len(order), _GEN_LEN), dtype=np.uint64)
    for row, state in enumerate(pcg):
        if state is not None:
            at, inc = state["state"]["state"], state["state"]["inc"]
            words = [at >> 64, at & _WORD, inc >> 64, inc & _WORD]
            gens[row] = words + words[:2]
    flat_at = flat.ctypes.data
    state_at = states.ctypes.data
    gen_at = gens.ctypes.data
    # One row per lane: kids, n, stack, pos, buf, block, distances, state,
    # next, gen.
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
                stacks[i]._next.ctypes.data,
                0 if pcg[row] is None else gen_at + 8 * _GEN_LEN * row,
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
        if pcg[lane] is None:
            backward_draw_block(
                stack._rng, stack._inv_k, stack._buf.shape[0], out=stack._buf
            )
        else:
            backward_draw_power(stack._buf, stack._inv_k)
        lane = run()
    distances: Dict[int, np.ndarray] = {}
    for row, (i, state) in enumerate(zip(order, states.tolist())):
        stack = stacks[i]
        stack._n, stack._bpos, stack.total_swaps = state[1], state[2], state[4]
        generator = pcg[row]
        if generator is not None and state[6] != stack._refills:
            hi, lo = gens[row, 4:].tolist()
            generator["state"]["state"] = hi << 64 | lo
            stack._rng.bit_generator.state = generator
        stack._refills = state[6]
        distances[i] = flat[starts[row] : starts[row + 1]]
    return [distances[i] for i in range(len(stacks))]
