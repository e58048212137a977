"""The victim-draw contract of :func:`repro.cache.eviction.select_victim`.

``select_victim`` inlines ``rnd.randrange(n)`` as CPython's
``Random._randbelow_with_getrandbits``.  These tests pin that the inline
draw gives the numbers ``randrange`` gives and leaves the same generator
state, on whichever CPython runs them; that slot numbers plus a clock
column pick what a key list plus a clock dict picks; and that an
eviction still consumes exactly K ``randrange(n)``-equivalent draws.
"""

import random
from collections import defaultdict

from repro._util import ensure_rng
from repro.cache.eviction import NO_PROTECT, select_victim

#: n = 1..300, 2^j - 1, 2^j and 2^j + 1 for j <= 30, and 10^6.
SIZES = sorted(
    set(range(1, 301))
    | {m for j in range(31) for m in (2**j - 1, 2**j, 2**j + 1) if m > 0}
    | {10**6}
)


def _select_victim_randrange(keys, last_access, rnd, k, with_replacement,
                             protect=NO_PROTECT):
    """``select_victim`` as it read with ``rnd.randrange``: the reference."""
    n = len(keys)
    if n == 0:
        return None
    victim = None
    vt = None
    if with_replacement:
        for _ in range(k):
            cand = keys[rnd.randrange(n)]
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
        for cand in keys:
            if cand != protect:
                return cand
    return victim


def _rnd(seed):
    return random.Random(int(ensure_rng(seed).integers(0, 2**63)))


def _twins(seed):
    return _rnd(seed), _rnd(seed)


def test_inline_draw_is_randrange():
    # K = 1 over equal clocks: the victim is the drawn slot itself.
    equal = defaultdict(int)
    for n in SIZES:
        ours, ref = _twins(n)
        for _ in range(8):
            assert select_victim(range(n), equal, ours, 1, True) == ref.randrange(n)
        assert ours.getstate() == ref.getstate(), n


def test_eviction_consumes_k_randrange_draws():
    equal = defaultdict(int)
    for n in (1, 2, 3, 5, 17, 64, 65, 1000, 2**20 + 1):
        for k in (1, 2, 5, 8, 16):
            for protect in (NO_PROTECT, 0, n - 1):
                ours, ref = _twins(n * 100 + k)
                select_victim(range(n), equal, ours, k, True, protect=protect)
                for _ in range(k):
                    ref.randrange(n)
                assert ours.getstate() == ref.getstate(), (n, k, protect)


def test_matches_the_randrange_reference():
    rng = _rnd(2021)
    for case in range(3000):
        n = rng.randrange(1, 70)
        k = rng.randrange(1, 10)
        with_replacement = bool(case % 2)
        keys = [f"key{rng.randrange(10**6)}-{i}" for i in range(n)]
        clocks = rng.sample(range(10 * n + 10), n)
        last = dict(zip(keys, clocks))
        protect = keys[rng.randrange(n)] if case % 3 else NO_PROTECT
        ours, ref = _twins(case)
        got = select_victim(keys, last, ours, k, with_replacement, protect=protect)
        want = _select_victim_randrange(keys, last, ref, k, with_replacement,
                                        protect=protect)
        assert got == want, case
        assert ours.getstate() == ref.getstate(), case


def test_slots_pick_what_keys_pick():
    rng = _rnd(7)
    for case in range(3000):
        n = rng.randrange(1, 70)
        k = rng.randrange(1, 10)
        with_replacement = bool(case % 2)
        keys = [(rng.randrange(10**6), i) for i in range(n)]
        clocks = rng.sample(range(10 * n + 10), n)
        p = rng.randrange(n) if case % 3 else -1
        by_key, by_slot = _twins(case)
        key = select_victim(
            keys, dict(zip(keys, clocks)), by_key, k, with_replacement,
            protect=keys[p] if p >= 0 else NO_PROTECT,
        )
        slot = select_victim(range(n), clocks, by_slot, k, with_replacement,
                             protect=p)
        assert keys[slot] == key, case
        assert by_key.getstate() == by_slot.getstate(), case
