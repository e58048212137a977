"""The shared K-sampling eviction core (§3, Redis ``maxmemory-samples``).

One policy, two consumers: the ground-truth simulators in
:mod:`repro.simulator.klru` and the production
:class:`~repro.cache.lru.SamplingLRUCache` both pick victims through
:func:`select_victim`, so "the model's cache" and "the cache you deploy"
are the exact same eviction law — draw-for-draw, not just in spirit.

The core is deliberately tiny and dependency-free: a resident set with
O(1) insert / swap-remove / uniform indexing, and a victim selector that
samples ``K`` residents (with replacement — Redis semantics,
Proposition 1 — or without, Proposition 2) and returns the least
recently used of the sample.  The simulators pass a
:class:`ResidentSet`'s keys and a key -> clock dict; the cache passes
its slot numbers (``range(n)``) and a clock column indexed by slot.

PRNG contract
-------------
``select_victim`` consumes exactly ``K`` ``rnd.randrange(n)``-equivalent
draws in with-replacement mode and exactly one ``rnd.sample`` draw
otherwise, regardless of ``protect`` — callers that inline the same loop
for speed (``KLRUCache.access_many``) stay bit-identical to callers that
delegate.  A draw is ``randrange(n)`` inlined as CPython's
``Random._randbelow_with_getrandbits``: ``getrandbits(n.bit_length())``
until the value is below ``n``.  It yields the same numbers and leaves
the same generator state as ``randrange(n)`` (tested on each CPython
version CI runs), but one draw may call ``getrandbits`` more than once.
``rnd`` must therefore draw ``randrange`` through ``getrandbits``, as
``random.Random`` does.

Protect semantics
-----------------
``protect`` shields one key (the key that triggered the eviction) while
*alternatives exist*: sampled draws that hit it are skipped whenever the
resident set holds more than one key, and if every draw hit the
protected key a linear fallback scan picks any other resident.  When the
protected key is the lone resident it *is* returned — a cache whose only
object outgrew the budget must drop that object rather than stay over
budget forever (the ``ByteKLRUCache`` lone-resident bug this module's
extraction fixed).
"""

from __future__ import annotations

import random
from typing import (
    Any,
    Dict,
    Hashable,
    List,
    Optional,
    Protocol,
    Sequence,
    TypeVar,
)

__all__ = [
    "NO_PROTECT",
    "ResidentSet",
    "select_victim",
]


class _NoProtect:
    """Sentinel: no key is shielded (distinct from a legitimate ``None`` key)."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "NO_PROTECT"


#: Pass as ``protect`` (the default) when no key should be shielded.
NO_PROTECT: Hashable = _NoProtect()

_K = TypeVar("_K", bound=Hashable)


class _Recency(Protocol):
    """A key -> clock dict, or a clock column indexed by slot number."""

    def __getitem__(self, key: Any, /) -> int: ...


class ResidentSet:
    """Array + index map: O(1) insert, remove, and uniform sampling.

    ``keys`` is the dense array the victim selector indexes uniformly;
    ``index`` maps key -> position for swap-remove.  Keys may be any
    hashable (the simulators use ints; the production cache uses
    whatever the application does).
    """

    __slots__ = ("keys", "index")

    def __init__(self) -> None:
        self.keys: List[Hashable] = []
        self.index: Dict[Hashable, int] = {}

    def __len__(self) -> int:
        return len(self.keys)

    def __contains__(self, key: Hashable) -> bool:
        return key in self.index

    def add(self, key: Hashable) -> None:
        self.index[key] = len(self.keys)
        self.keys.append(key)

    def remove(self, key: Hashable) -> None:
        i = self.index.pop(key)
        last = self.keys.pop()
        if last != key:
            self.keys[i] = last
            self.index[last] = i


def select_victim(
    keys: Sequence[_K],
    last_access: _Recency,
    rnd: random.Random,
    k: int,
    with_replacement: bool,
    protect: Hashable = NO_PROTECT,
) -> Optional[_K]:
    """Pick the sampled-LRU victim among ``keys``.

    Parameters
    ----------
    keys:
        Dense resident-key array (a :attr:`ResidentSet.keys`), or the
        slot numbers ``range(n)`` of a slot table.
    last_access:
        key -> monotone access-clock value, smaller is older; for slot
        numbers, the clock column indexed by slot.
    rnd:
        The cache's PRNG (``random.Random``); consumed per the module
        contract above.
    k:
        Sampling size ``K``.
    with_replacement:
        Redis "placing back" sampling when True, distinct-resident
        sampling when False.
    protect:
        Key (or slot) to shield while alternatives exist (see module
        docstring).

    Returns the victim key, or ``None`` only when ``keys`` is empty.
    """
    n = len(keys)
    if n == 0:
        return None
    victim: Optional[_K] = None
    vt: Optional[int] = None
    if with_replacement:
        getrandbits = rnd.getrandbits
        bits = n.bit_length()
        for _ in range(k):
            # rnd.randrange(n), inlined (see the PRNG contract)
            i = getrandbits(bits)
            while i >= n:
                i = getrandbits(bits)
            cand = keys[i]
            if cand == protect and n > 1:
                continue
            ct = last_access[cand]
            if vt is None or ct < vt:
                victim, vt = cand, ct
    else:
        for i in rnd.sample(range(n), k if k < n else n):
            cand = keys[i]
            if cand == protect and n > 1:
                continue
            ct = last_access[cand]
            if vt is None or ct < vt:
                victim, vt = cand, ct
    if victim is None:
        # Every draw hit the protected key (n > 1): any other resident.
        for cand in keys:
            if cand != protect:
                return cand
    return victim
