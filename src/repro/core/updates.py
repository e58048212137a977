"""KRR stack-update strategies: linear, top-down, backward (§4.3).

All three strategies draw a *swap-position set* for a reference hitting
stack position ``phi`` — the 1-based positions whose resident is displaced
one hop downward — from the identical distribution: position ``i`` in
``[2, phi-1]`` swaps independently with probability ``1 - ((i-1)/i)^K``,
and positions ``1`` and ``phi`` always swap.  They differ only in cost:

============  =====================  =========================
strategy      expected cost/update   mechanism
============  =====================  =========================
`linear`      ``O(M)``               per-position draws (Mattson sweep)
`topdown`     ``O(K log^2 M)``       interval splitting (Algorithm 1)
`backward`    ``O(K log M)``         inverse-CDF chain (Algorithm 2)
============  =====================  =========================

The equivalence of the three distributions is property-tested in
``tests/test_update_equivalence.py``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Protocol

import numpy as np

from .._util import RngLike, ensure_rng

__all__ = [
    "BackwardUpdate",
    "DRAW_BLOCK",
    "LinearUpdate",
    "TopDownUpdate",
    "UpdateStrategy",
    "apply_swaps",
    "backward_draw_block",
    "backward_draw_power",
    "make_strategy",
]


#: Draw-buffer block size shared by every consumer of a strategy's RNG
#: stream.  The scalar strategies and the SoA stack
#: (:mod:`repro.stack.soa`) both refill in blocks of exactly this many
#: ``Generator.random`` draws, which is what makes their consumption
#: patterns — and therefore their results — bit-identical.  That
#: identity holds on one host class (CPU SIMD level plus NumPy build):
#: the transformed draws come from NumPy's vectorized ``power``, whose
#: last bit differs from libm ``pow`` on other hosts' builds (see
#: :func:`backward_draw_block`).
DRAW_BLOCK = 4096


def backward_draw_block(
    rng: np.random.Generator,
    inv_k: float,
    block: int = DRAW_BLOCK,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """One backward-update draw block: ``(1 - U)^(1/K)`` for a uniform block.

    The inverse-CDF power is pre-applied to the whole block at once (the
    vectorized ``u^(1/K)`` is ~20x cheaper than scalar ``pow`` in the
    chain loop).  This is the *single* source of backward-update draws:
    :class:`BackwardUpdate` serves the block as Python floats and the SoA
    stack consumes the array directly, so for the same generator state
    both paths see exactly the same IEEE-754 values in the same order.
    The native chain walk (:mod:`repro.stack.soa`) makes the first two
    steps itself for a PCG64 generator, with the same bytes and generator
    state, and hands the block to :func:`backward_draw_power` for the
    third.

    The block is computed in place, in ``out`` (a C-contiguous
    ``float64`` array of length ``block``) when given, else in a new
    array; both give the bytes and generator consumption of
    ``(1.0 - rng.random(block)) ** inv_k``: ``**=`` takes NumPy's
    scalar-exponent fast paths (``sqrt``, ``square``, copy) exactly where
    ``u ** inv_k`` does.

    Bit identity across stacks and chunkings therefore holds per host
    class (CPU SIMD level plus NumPy build), not across hosts.  On an
    AVX-512 host with NumPy 2.4, the array ``power`` differs from libm
    ``pow`` by one ulp on about 6% of draws, and NumPy's scalar
    ``np.float64 ** inv_k`` differs from the array path on about 7%.  So
    a draw computed anywhere but here, by a C ``pow``, a scalar ``**``
    or a differently-built NumPy, breaks identity.
    """
    if out is None:
        out = np.empty(block, dtype=np.float64)
    elif out.shape != (block,):
        raise ValueError(f"out must have shape ({block},), got {out.shape}")
    rng.random(out=out)
    np.subtract(1.0, out, out=out)  # uniform on (0, 1]
    return backward_draw_power(out, inv_k)


def backward_draw_power(out: np.ndarray, inv_k: float) -> np.ndarray:
    """The power step of a draw block, in place: ``out **= inv_k``.

    ``out`` holds ``1 - U`` for a block of uniforms.  Every draw block
    ends here, whichever path drew its uniforms:
    :func:`backward_draw_block` and the native walk, which draws a PCG64
    block's uniforms itself but leaves the power to NumPy.
    """
    out **= inv_k
    return out


class _BufferedUniform:
    """Amortized scalar uniforms from a NumPy generator.

    Per-call overhead of ``Generator.random()`` dominates the fast updates;
    refilling a block and serving *Python* floats (``tolist`` strips the
    NumPy scalar wrapper, whose arithmetic is ~10x slower) keeps draws cheap
    while preserving seeded reproducibility.  The first block is drawn
    lazily on first use, so constructing a strategy consumes no generator
    state.
    """

    __slots__ = ("_rng", "_buf", "_pos", "_block")

    def __init__(self, rng: np.random.Generator, block: int = DRAW_BLOCK) -> None:
        self._rng = rng
        self._block = block
        self._buf: List[float] = []
        self._pos = block  # forces a refill on first draw

    def __call__(self) -> float:
        pos = self._pos
        if pos >= self._block:
            self._buf = self._rng.random(self._block).tolist()
            self._pos = pos = 0
        self._pos = pos + 1
        return self._buf[pos]

    def state_dict(self) -> Dict[str, Any]:
        """Buffered draws not yet served (the generator state lives with
        the owner of the shared ``Generator``, not here)."""
        return {"buf": list(self._buf), "pos": self._pos}

    def load_state(self, state: Dict[str, Any]) -> None:
        self._buf = [float(v) for v in state["buf"]]
        self._pos = int(state["pos"])


class UpdateStrategy(Protocol):
    """Draws swap-position sets for KRR stack updates."""

    name: str

    def swap_positions(self, phi: int) -> List[int]:
        """Sorted 1-based swap positions for a hit at ``phi`` (includes 1, phi)."""
        ...

    def state_dict(self) -> Dict[str, Any]:
        """Buffered draws not yet served, JSON-safe."""
        ...

    def load_state(self, state: Dict[str, Any]) -> None:
        """Restore :meth:`state_dict` output."""
        ...


class LinearUpdate:
    """Naive Mattson sweep: one Bernoulli draw per stack position, ``O(M)``."""

    name = "linear"

    def __init__(self, k: float, rng: RngLike = None) -> None:
        if k <= 0:
            raise ValueError("K must be positive")
        self.k = float(k)
        self._uniform = _BufferedUniform(ensure_rng(rng))
        # Survival probabilities ((i-1)/i)^K (Eq. 4.1) depend only on the
        # position, not the access: cache them, grown on demand and
        # indexed by position, instead of paying one pow() per position
        # per access.  Entries 0 and 1 are never drawn against.
        self._survival: List[float] = [0.0, 0.0]

    def state_dict(self) -> Dict[str, Any]:
        return {"kind": self.name, "uniform": self._uniform.state_dict()}

    def load_state(self, state: Dict[str, Any]) -> None:
        if state.get("kind") != self.name:
            raise ValueError(f"state is for strategy {state.get('kind')!r}")
        self._uniform.load_state(state["uniform"])

    def swap_positions(self, phi: int) -> List[int]:
        if phi < 1:
            raise ValueError("phi must be >= 1")
        if phi == 1:
            return [1]
        survival = self._survival
        if phi > len(survival):
            k = self.k
            survival.extend(((i - 1) / i) ** k for i in range(len(survival), phi))
        swaps = [1]
        u = self._uniform
        for i in range(2, phi):
            if u() >= survival[i]:
                swaps.append(i)
        swaps.append(phi)
        return swaps


class BackwardUpdate:
    """Algorithm 2: generate swap positions bottom-up via the inverse CDF.

    Starting at ``i = phi``, the next swap position below ``i`` is the
    evicted rank in a KRR cache of size ``i - 1``; its CDF is
    ``(x/(i-1))^K``, so ``x = ceil(u^(1/K) * (i-1))`` with ``u`` uniform on
    (0, 1].  Each loop iteration produces exactly one swap position, so the
    expected cost matches Corollary 1's ``O(K logM)``.
    """

    name = "backward"

    _BLOCK = DRAW_BLOCK

    def __init__(self, k: float, rng: RngLike = None) -> None:
        if k <= 0:
            raise ValueError("K must be positive")
        self.k = float(k)
        self._inv_k = 1.0 / float(k)
        self._rng = ensure_rng(rng)
        # The first block is drawn lazily (pos == _BLOCK forces a refill
        # on first use): constructing the strategy consumes no generator
        # state, exactly like the SoA stack it is the reference for.
        self._buf: List[float] = []
        self._pos = self._BLOCK
        # Refill count, kept in the snapshot layout both stacks share;
        # the first _refill() brings it to 0.
        self._refills = -1

    def _refill(self) -> None:
        # One shared inverse-CDF block transform (see backward_draw_block);
        # served as Python floats for the scalar chain loop.
        self._buf = backward_draw_block(self._rng, self._inv_k, self._BLOCK).tolist()
        self._pos = 0
        self._refills += 1

    def state_dict(self) -> Dict[str, Any]:
        """Unserved buffered draws + refill count (floats round-trip
        exactly through JSON ``repr``, so a restored strategy replays the
        identical tail of the current block before touching the RNG)."""
        return {
            "kind": self.name,
            "buf": list(self._buf),
            "pos": self._pos,
            "refills": self._refills,
        }

    def load_state(self, state: Dict[str, Any]) -> None:
        if state.get("kind") != self.name:
            raise ValueError(f"state is for strategy {state.get('kind')!r}")
        self._buf = [float(v) for v in state["buf"]]
        self._pos = int(state["pos"])
        self._refills = int(state["refills"])

    def swap_positions(self, phi: int) -> List[int]:
        if phi < 1:
            raise ValueError("phi must be >= 1")
        if phi == 1:
            return [1]
        rev: List[int] = [phi]
        i = phi
        buf = self._buf
        pos = self._pos
        block = self._BLOCK
        while i > 1:
            if pos >= block:
                self._refill()
                buf = self._buf
                pos = 0
            v = buf[pos] * (i - 1)
            pos += 1
            x = int(v)
            if x < v:
                x += 1
            if x < 1:
                x = 1
            elif x > i - 1:
                x = i - 1
            rev.append(x)
            i = x
        self._pos = pos
        rev.reverse()
        return rev


class TopDownUpdate:
    """Algorithm 1: identify swap positions by recursive interval splitting.

    The survival probabilities telescope — P(no swap in ``[a, b]``) is
    ``((a-1)/b)^K`` — so an interval known to contain at least one swap can
    be split at its midpoint and the (only-left / only-right / both) case
    drawn from the correctly conditioned joint distribution.  Expected node
    visits are ``O(K log^2 M)`` (Proposition 3); the instance counter
    :attr:`nodes_visited` lets benchmarks verify that scaling.
    """

    name = "topdown"

    def __init__(self, k: float, rng: RngLike = None) -> None:
        if k <= 0:
            raise ValueError("K must be positive")
        self.k = float(k)
        self._uniform = _BufferedUniform(ensure_rng(rng))
        self.nodes_visited = 0

    def _no_swap(self, a: int, b: int) -> float:
        """P(no swap position in [a, b]) = ((a-1)/b)^K."""
        return ((a - 1) / b) ** self.k

    def state_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.name,
            "uniform": self._uniform.state_dict(),
            "nodes_visited": self.nodes_visited,
        }

    def load_state(self, state: Dict[str, Any]) -> None:
        if state.get("kind") != self.name:
            raise ValueError(f"state is for strategy {state.get('kind')!r}")
        self._uniform.load_state(state["uniform"])
        self.nodes_visited = int(state.get("nodes_visited", 0))

    def swap_positions(self, phi: int) -> List[int]:
        if phi < 1:
            raise ValueError("phi must be >= 1")
        if phi == 1:
            return [1]
        swaps: List[int] = []
        u = self._uniform
        if phi > 2:
            a, b = 2, phi - 1
            # Condition on at least one swap existing in [2, phi-1].
            if u() >= self._no_swap(a, b):
                stack: List[tuple[int, int]] = [(a, b)]
                while stack:
                    self.nodes_visited += 1
                    lo, hi = stack.pop()
                    if lo == hi:
                        swaps.append(lo)
                        continue
                    mid = (lo + hi + 1) // 2  # split: [lo, mid-1], [mid, hi]
                    nsw1 = self._no_swap(lo, mid - 1)
                    nsw2 = self._no_swap(mid, hi)
                    sw1 = 1.0 - nsw1
                    sw2 = 1.0 - nsw2
                    only1 = sw1 * nsw2
                    only2 = nsw1 * sw2
                    both = sw1 * sw2
                    weight = only1 + only2 + both
                    r = u() * weight
                    if r < only1:
                        stack.append((lo, mid - 1))
                    elif r < only1 + only2:
                        stack.append((mid, hi))
                    else:
                        stack.append((mid, hi))
                        stack.append((lo, mid - 1))
        swaps.sort()
        return [1] + swaps + [phi]


def make_strategy(name: str, k: float, rng: RngLike = None) -> UpdateStrategy:
    """Factory: ``"linear"``, ``"topdown"`` or ``"backward"`` by name."""
    table = {
        "linear": LinearUpdate,
        "topdown": TopDownUpdate,
        "backward": BackwardUpdate,
    }
    if name not in table:
        raise ValueError(f"unknown update strategy {name!r}; choose from {sorted(table)}")
    return table[name](k, rng)


def apply_swaps(stack: list, pos: dict, swaps: List[int]) -> None:
    """Apply one cyclic shift over sorted swap positions (Fig 4.2(b)).

    ``stack`` is 0-indexed (slot 0 = position 1); ``pos`` maps key -> index.
    The referenced object at ``swaps[-1]`` moves to the top and every other
    swap position's resident moves down to the next swap position.
    """
    if len(swaps) == 1:  # phi == 1, referenced already on top
        return
    phi = swaps[-1]
    referenced = stack[phi - 1]
    # Shift residents downward along the swap chain, bottom-up.
    for j in range(len(swaps) - 1, 0, -1):
        src = swaps[j - 1]
        dst = swaps[j]
        moved = stack[src - 1]
        stack[dst - 1] = moved
        pos[moved] = dst - 1
    stack[0] = referenced
    pos[referenced] = 0
