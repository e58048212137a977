"""The KRR probabilistic stack (§4.1, §4.4).

:class:`KRRStack` is the paper's data structure: a simple array holding
objects in stack order plus a hash table mapping key → array index, so a
referenced object's stack distance is found in ``O(1)``.  Each access draws
a swap-position set from the configured update strategy (linear / top-down /
backward — all sampling the same distribution, Eq. 4.1) and applies one
cyclic shift (Figure 4.2(b)).

With ``track_sizes=True`` the stack also maintains the logarithmic
``sizeArray`` so byte-level stack distances come back alongside the
object-level ones (var-KRR, §4.4.1).
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional

import numpy as np

from .._util import RngLike, ensure_rng
from .sizearray import SizeArray
from .updates import UpdateStrategy, apply_swaps, make_strategy

__all__ = [
    "KRRStack",
]



class KRRStack:
    """Array-backed KRR stack with pluggable fast update.

    Parameters
    ----------
    k:
        The KRR parameter (possibly already corrected, i.e. ``K'``); may be
        fractional.  ``k=1`` reproduces Mattson's RR stack; large ``k``
        approaches an exact LRU stack.
    strategy:
        ``"backward"`` (default, ``O(K logM)``), ``"topdown"``
        (``O(K log^2 M)``) or ``"linear"`` (``O(M)``, oracle).
    track_sizes:
        Maintain the sizeArray for byte-level distances (var-KRR).
    size_array_base:
        Anchor spacing base ``b`` for the sizeArray.
    """

    def __init__(
        self,
        k: float,
        strategy: str = "backward",
        rng: RngLike = None,
        track_sizes: bool = False,
        size_array_base: int = 2,
    ) -> None:
        if k <= 0:
            raise ValueError("K must be positive")
        self.k = float(k)
        self._strategy: UpdateStrategy = make_strategy(
            strategy, self.k, ensure_rng(rng)
        )
        self._stack: List[int] = []
        self._pos: dict[int, int] = {}
        self._sizes: dict[int, int] = {}
        self._size_array: Optional[SizeArray] = (
            SizeArray(size_array_base) if track_sizes else None
        )
        #: Cumulative number of swap positions drawn (Fig 5.4's cost proxy).
        self.total_swaps = 0
        #: Number of stack updates performed.
        self.updates = 0

    # ------------------------------------------------------------------
    def set_strategy(self, strategy: str, rng: RngLike = None) -> None:
        """Swap the update strategy mid-stream.

        All strategies draw from the same swap-set distribution (§4.3), so
        the stack's statistics are unaffected; this exists so experiments
        can time one strategy on a stack warmed cheaply by another.
        """
        self._strategy = make_strategy(strategy, self.k, ensure_rng(rng))

    @property
    def tracks_sizes(self) -> bool:
        return self._size_array is not None

    def __len__(self) -> int:
        return len(self._stack)

    def __contains__(self, key: int) -> bool:
        return key in self._pos

    def position_of(self, key: int) -> int:
        """Current 1-based stack position of ``key`` (-1 if absent)."""
        idx = self._pos.get(key)
        return -1 if idx is None else idx + 1

    def keys_in_stack_order(self) -> List[int]:
        return list(self._stack)

    def sizes_in_stack_order(self) -> List[int]:
        return [self._sizes.get(key, 1) for key in self._stack]

    @property
    def total_bytes(self) -> int:
        if self._size_array is not None:
            return self._size_array.total_bytes
        return sum(self._sizes.values())

    # ------------------------------------------------------------------
    def access(self, key: int, size: int = 1) -> tuple[int, float]:
        """Reference ``key``: returns ``(stack_distance, byte_distance)``.

        ``stack_distance`` is the pre-update 1-based position (``-1`` for a
        cold access).  ``byte_distance`` is the sizeArray estimate of the
        bytes in positions ``1..distance`` (``-1.0`` for cold accesses or
        when size tracking is off).  The stack is then updated.
        """
        idx = self._pos.get(key)
        cold = idx is None
        if cold:
            distance = -1
            self._stack.append(key)
            self._pos[key] = len(self._stack) - 1
            if self._size_array is not None:
                self._size_array.append(size)
            old_size = size
            phi = len(self._stack)
        else:
            distance = idx + 1
            phi = distance
            old_size = self._sizes.get(key, size)

        byte_distance = -1.0
        if not cold and self._size_array is not None:
            byte_distance = self._size_array.byte_distance(phi)

        swaps = self._strategy.swap_positions(phi)
        self.total_swaps += len(swaps)
        self.updates += 1
        if self._size_array is not None:
            resident_sizes = [
                self._sizes.get(self._stack[p - 1], size if p == phi else 1)
                for p in swaps
            ]
            self._size_array.apply_update(swaps, resident_sizes, size, old_size)
        apply_swaps(self._stack, self._pos, swaps)
        self._sizes[key] = size
        return distance, byte_distance

    def access_many(
        self, keys: List[int], sizes: Optional[List[int]] = None
    ) -> tuple[List[int], Optional[List[float]]]:
        """Batched :meth:`access`: one loop over many requests.

        Returns ``(distances, byte_distances)``; ``byte_distances`` is
        ``None`` unless ``track_sizes``.  Draw-for-draw identical to an
        equivalent sequence of :meth:`access` calls — same RNG consumption,
        same final stack order — with attribute and method lookups hoisted
        out of the loop, the cyclic shift inlined, and no per-access
        result tuple.  Every strategy draws through its
        ``swap_positions``, as the paper writes it (Algorithm 2 for
        backward): this stack is the reference that
        :class:`~repro.stack.soa.SoAKRRStack` is checked against.

        ``keys``/``sizes`` should be Python lists (callers convert NumPy
        columns with ``tolist()`` once; NumPy scalar unboxing inside the
        loop would dominate otherwise).
        """
        if sizes is None:
            sizes = [1] * len(keys)
        if self._size_array is not None:
            # Size-tracked path: the sizeArray update is the bottleneck,
            # so per-access dispatch overhead is immaterial here.
            access = self.access
            distances: List[int] = []
            byte_distances: List[float] = []
            d_append = distances.append
            b_append = byte_distances.append
            for key, size in zip(keys, sizes):
                d, bd = access(key, size)
                d_append(d)
                b_append(bd)
            return distances, byte_distances
        pos = self._pos
        pos_get = pos.get
        stack = self._stack
        stack_append = stack.append
        obj_sizes = self._sizes
        distances = []
        record = distances.append
        total_swaps = 0
        swap_positions = self._strategy.swap_positions
        for key, size in zip(keys, sizes):
            idx = pos_get(key)
            if idx is None:
                stack_append(key)
                phi = len(stack)
                pos[key] = phi - 1
                record(-1)
            else:
                phi = idx + 1
                record(phi)
            swaps = swap_positions(phi)
            n = len(swaps)
            total_swaps += n
            if n > 1:
                # Inlined apply_swaps(): cyclic shift along the swap chain.
                referenced = stack[phi - 1]
                for j in range(n - 1, 0, -1):
                    dst = swaps[j]
                    moved = stack[swaps[j - 1] - 1]
                    stack[dst - 1] = moved
                    pos[moved] = dst - 1
                stack[0] = referenced
                pos[referenced] = 0
            obj_sizes[key] = size
        self.total_swaps += total_swaps
        self.updates += len(distances)
        return distances, None

    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, Any]:
        """JSON-safe snapshot of the stack's mutable state.

        Covers the stack order, per-object sizes, the strategy's buffered
        draws and the cost counters; the RNG generator itself belongs to
        the owning model (one generator is shared model-wide).  Restoring
        via :meth:`load_state` and continuing consumes draws identically
        to a run that never stopped.
        """
        return {
            "k": self.k,
            "stack": [int(key) for key in self._stack],
            "sizes": [[int(key), int(sz)] for key, sz in self._sizes.items()],
            "strategy": self._strategy.state_dict(),
            "size_array": (
                self._size_array.state_dict()
                if self._size_array is not None
                else None
            ),
            "total_swaps": self.total_swaps,
            "updates": self.updates,
        }

    def load_state(self, state: Dict[str, Any]) -> None:
        if float(state["k"]) != self.k:
            raise ValueError(
                f"stack state is for K={state['k']!r}, this stack has K={self.k}"
            )
        self._stack = [int(key) for key in state["stack"]]
        self._pos = {key: i for i, key in enumerate(self._stack)}
        self._sizes = {int(key): int(sz) for key, sz in state["sizes"]}
        if state["strategy"] is not None:
            self._strategy.load_state(state["strategy"])
        if self._size_array is not None:
            if state["size_array"] is None:
                raise ValueError("state has no sizeArray but track_sizes is on")
            self._size_array.load_state(state["size_array"])
        self.total_swaps = int(state["total_swaps"])
        self.updates = int(state["updates"])

    # ------------------------------------------------------------------
    def remove(self, key: int) -> None:
        """Remove an object from the stack (fixed-size spatial sampling).

        Used by the SHARDS ``s_max`` mode: when the sampling threshold
        drops, ejected objects must leave the model's state.  Everything
        below the removed position shifts up one slot; with size tracking
        on, every anchor prefix that contained the object loses its bytes.
        ``O(M)`` — removal happens only ``s_max`` times total, so the
        amortized cost is negligible.
        """
        idx = self._pos.pop(key, None)
        if idx is None:
            return
        self._sizes.pop(key, None)
        del self._stack[idx]
        for i in range(idx, len(self._stack)):
            self._pos[self._stack[i]] = i
        if self._size_array is not None:
            self._size_array.rebuild(self.sizes_in_stack_order())

    def remove_many(self, keys: Iterable[int]) -> None:
        """Remove a batch of objects in one ``O(M)`` pass.

        Used by TTL purging (many expirations at once): rebuilding the
        stack once beats repeated single removals' ``O(M)`` shifts.
        """
        doomed = {k for k in keys if k in self._pos}
        if not doomed:
            return
        self._stack = [k for k in self._stack if k not in doomed]
        self._pos = {k: i for i, k in enumerate(self._stack)}
        for k in doomed:
            self._sizes.pop(k, None)
        if self._size_array is not None:
            self._size_array.rebuild(self.sizes_in_stack_order())

    # ------------------------------------------------------------------
    def exact_byte_distance(self, phi: int) -> int:
        """Exact bytes in positions ``1..phi`` by scanning (test oracle, O(M))."""
        return sum(self._sizes.get(k, 1) for k in self._stack[:phi])

    def memory_estimate_bytes(self) -> int:
        """Rough resident-set estimate mirroring the paper's §5.6 accounting.

        The paper's C implementation spends 68 B per object (stack slot +
        hash entry + auxiliaries) plus 4 B for var-KRR sizes; we report the
        same accounting model so the space-cost bench can reproduce the
        0.036 %-of-working-set claim independent of CPython object overhead.
        """
        per_object = 68 + (4 if self._size_array is not None else 0)
        return per_object * len(self._stack)
