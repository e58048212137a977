"""NAT-* rule coverage: the ctypes ↔ C prototype contract checker, the
unbound-export and fallback-twin rules, the build's fallback when the
compiler hangs, plus direct native-kernel exercises (chain-walk resume,
mid-chain draw-buffer refill, the rare exact-integer swap step, the
in-place draw refill, the multi-lane walk and the CSV block decoder's
bounds) that the sanitizer CI job runs under ASan/UBSan.

The lint fixtures build a tiny binding module next to a C file in a temp
directory and run :func:`lint_paths` over it, exactly how the real
``stack/_native.py`` ↔ ``stack/_soa_kernel.c`` pair is checked.
"""

from __future__ import annotations

import subprocess
import textwrap
from pathlib import Path

import numpy as np
import pytest

from repro._util import ensure_rng
from repro.core.correction import corrected_k
from repro.devtools.analysis.nat import parse_c_exports
from repro.devtools.lint import lint_paths

REPO = Path(__file__).resolve().parents[1]

_KERNEL_C = """\
/* demo kernel */
#include <stdint.h>

static int64_t helper(int64_t x) { return x + 1; }  /* not exported */

int64_t walk_chunk(const int64_t *kids, int64_t n,
                   double *buf /* draws */, int64_t block) {
    (void)buf; (void)block;
    return helper(n) - 1 + kids[0] * 0;
}
"""

_GOOD_BINDING = """\
import ctypes
from pathlib import Path

_SOURCE = Path(__file__).with_name("_kernel.c")


def bind(library):
    fn = library.walk_chunk
    fn.restype = ctypes.c_int64
    fn.argtypes = [
        ctypes.c_void_p,
        ctypes.c_int64,
        ctypes.c_void_p,
        ctypes.c_int64,
    ]
    return fn
"""


def _lint_pair(tmp_path: Path, binding_py: str, kernel_c: str = _KERNEL_C):
    (tmp_path / "_kernel.c").write_text(kernel_c)
    mod = tmp_path / "_native.py"
    mod.write_text(textwrap.dedent(binding_py))
    return lint_paths([mod])


def nat_rules(findings) -> set:
    return {f.rule for f in findings if f.rule.startswith("NAT")}


# ----------------------------------------------------------------------
# C prototype parsing
# ----------------------------------------------------------------------


class TestCParser:
    def test_static_functions_are_not_exports(self):
        exports = parse_c_exports(_KERNEL_C)
        assert [e.name for e in exports] == ["walk_chunk"]

    def test_params_and_pointers_survive_comments(self):
        (export,) = parse_c_exports(_KERNEL_C)
        assert len(export.params) == 4
        assert [p.is_pointer for p in export.params] == [True, False, True, False]
        assert [p.kind for p in export.params] == ["i64", "i64", "f64", "i64"]
        assert export.ret_kind == "i64" and not export.ret_is_pointer

    def test_real_kernel_parses(self):
        text = (REPO / "src/repro/stack/_soa_kernel.c").read_text()
        exports = parse_c_exports(text)
        assert [e.name for e in exports] == ["krr_backward_lanes", "csv_decode_block"]
        walk, decode = exports
        assert len(walk.params) == 3
        assert [p.is_pointer for p in walk.params] == [False, True, True]
        assert walk.ret_kind == "i64"
        assert [p.is_pointer for p in decode.params] == [
            True, False, False, False, False, False, True, True, True, False,
        ]
        assert [p.kind for p in decode.params if p.is_pointer] == [
            "u8", "i64", "i64", "i8",
        ]
        assert decode.ret_kind == "i64"


# ----------------------------------------------------------------------
# NAT-001: binding vs prototype
# ----------------------------------------------------------------------


class TestNAT001:
    def test_matching_binding_clean(self, tmp_path):
        assert nat_rules(_lint_pair(tmp_path, _GOOD_BINDING)) == set()

    def test_arity_skew_violates(self, tmp_path):
        skewed = _GOOD_BINDING.replace("        ctypes.c_int64,\n    ]", "    ]", 1)
        findings = _lint_pair(tmp_path, skewed)
        assert "NAT-001" in nat_rules(findings)
        (f,) = [f for f in findings if f.rule == "NAT-001"]
        assert "3" in f.message and "4" in f.message

    def test_width_skew_violates(self, tmp_path):
        skewed = _GOOD_BINDING.replace(
            "ctypes.c_int64,\n        ctypes.c_void_p,\n        ctypes.c_int64",
            "ctypes.c_int32,\n        ctypes.c_void_p,\n        ctypes.c_int64",
        )
        findings = _lint_pair(tmp_path, skewed)
        assert "NAT-001" in nat_rules(findings)
        (f,) = [f for f in findings if f.rule == "NAT-001"]
        assert "i32" in f.message and "i64" in f.message

    def test_scalar_for_pointer_violates(self, tmp_path):
        skewed = _GOOD_BINDING.replace(
            "fn.argtypes = [\n        ctypes.c_void_p,",
            "fn.argtypes = [\n        ctypes.c_int64,",
        )
        findings = _lint_pair(tmp_path, skewed)
        assert "NAT-001" in nat_rules(findings)
        assert any("pointer" in f.message for f in findings)

    def test_restype_skew_violates(self, tmp_path):
        skewed = _GOOD_BINDING.replace(
            "fn.restype = ctypes.c_int64", "fn.restype = None"
        )
        findings = _lint_pair(tmp_path, skewed)
        assert "NAT-001" in nat_rules(findings)
        assert any("restype" in f.message for f in findings)

    def test_typed_pointer_must_match_pointee(self, tmp_path):
        skewed = _GOOD_BINDING.replace(
            "fn.argtypes = [\n        ctypes.c_void_p,",
            "fn.argtypes = [\n        ctypes.POINTER(ctypes.c_int32),",
        )
        findings = _lint_pair(tmp_path, skewed)
        assert "NAT-001" in nat_rules(findings)

    def test_suppression_on_multiline_argtypes(self, tmp_path):
        skewed = _GOOD_BINDING.replace(
            "        ctypes.c_int64,\n    ]",
            "    ]  # repro: allow[NAT-001]: intentionally skewed fixture",
            1,
        )
        assert nat_rules(_lint_pair(tmp_path, skewed)) == set()


# ----------------------------------------------------------------------
# NAT-002 / NAT-003
# ----------------------------------------------------------------------


class TestNAT002:
    def test_unbound_export_violates(self, tmp_path):
        kernel = _KERNEL_C + "\nint64_t orphan(int64_t x) { return x; }\n"
        findings = _lint_pair(tmp_path, _GOOD_BINDING, kernel)
        assert "NAT-002" in nat_rules(findings)
        assert any("orphan" in f.message for f in findings)

    def test_static_symbol_needs_no_binding(self, tmp_path):
        kernel = _KERNEL_C + "\nstatic int64_t quiet(int64_t x) { return x; }\n"
        assert nat_rules(_lint_pair(tmp_path, _GOOD_BINDING, kernel)) == set()


class TestNAT003:
    def test_native_without_python_twin_violates(self, tmp_path):
        findings = _lint_pair(
            tmp_path,
            _GOOD_BINDING
            + "\n\ndef walk_native(kids):\n    return kids\n",
        )
        assert "NAT-003" in nat_rules(findings)

    def test_native_with_python_twin_clean(self, tmp_path):
        findings = _lint_pair(
            tmp_path,
            _GOOD_BINDING
            + "\n\ndef walk_native(kids):\n    return kids\n"
            + "\n\ndef walk_python(kids):\n    return kids\n",
        )
        assert "NAT-003" not in nat_rules(findings)


class TestRealBindingIsClean:
    def test_stack_native_module_has_no_nat_findings(self):
        findings = lint_paths([REPO / "src" / "repro" / "stack"])
        assert nat_rules(findings) == set()


# ----------------------------------------------------------------------
# Build failures fall back to the Python walk
# ----------------------------------------------------------------------


class TestBuildFailure:
    def test_hung_compiler_falls_back_once_and_leaves_nothing(
        self, monkeypatch, tmp_path
    ):
        import repro.stack._native as native_mod
        from repro.stack.soa import SoAKRRStack

        compiles = []

        def hung_compiler(cmd, **kwargs):
            compiles.append(cmd)
            raise subprocess.TimeoutExpired(cmd, kwargs.get("timeout", 120))

        monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path))
        monkeypatch.delenv("REPRO_NATIVE", raising=False)
        monkeypatch.setattr(native_mod, "_compiler", lambda: "cc")
        monkeypatch.setattr(native_mod.subprocess, "run", hung_compiler)
        monkeypatch.setattr(native_mod, "_KERNEL", native_mod._UNSET)

        assert native_mod.load_backward_kernel() is None
        assert not SoAKRRStack(5, rng=0).uses_native_kernel
        assert native_mod.load_backward_kernel() is None
        assert len(compiles) == 1
        assert list(tmp_path.iterdir()) == []


# ----------------------------------------------------------------------
# Native kernel exercises for the sanitizer job (ASan/UBSan)
# ----------------------------------------------------------------------


needs_kernel = pytest.mark.skipif(
    not __import__("repro.stack._native", fromlist=["native_kernel_active"])
    .native_kernel_active(),
    reason="no C compiler available",
)


@needs_kernel
class TestKernelUnderSanitizers:
    """Chain-walk resume and mid-chain refill paths, driven hard enough
    that ASan/UBSan (CI rebuilds the kernel with -fsanitize) would catch
    any out-of-bounds access or integer misbehavior."""

    def _stack(self, k: int, rng):
        from repro.stack.soa import SoAKRRStack

        return SoAKRRStack(k, rng=rng, use_native=True)

    def test_mid_chain_refill_is_exercised(self, monkeypatch):
        # Shrink the draw block so the kernel returns done=False mid-chain
        # and the resume path (state re-entry after refill) runs many times.
        import repro.stack.soa as soa_mod

        monkeypatch.setattr(soa_mod, "DRAW_BLOCK", 7)
        stack = self._stack(4, rng=np.random.default_rng(123))
        rng = np.random.default_rng(99)
        keys = rng.integers(0, 200, size=2000)
        distances, _ = stack.access_many(keys)
        assert np.asarray(distances).shape == keys.shape

    def test_native_matches_python_with_tiny_refills(self, monkeypatch):
        import repro.stack.soa as soa_mod

        monkeypatch.setattr(soa_mod, "DRAW_BLOCK", 5)
        rng = np.random.default_rng(7)
        keys = rng.integers(0, 100, size=1500)

        from repro.stack.soa import SoAKRRStack

        native = SoAKRRStack(8, rng=np.random.default_rng(42), use_native=True)
        python = SoAKRRStack(8, rng=np.random.default_rng(42), use_native=False)
        d_native, _ = native.access_many(keys)
        d_python, _ = python.access_many(keys)
        assert np.array_equal(np.asarray(d_native), np.asarray(d_python))
        assert native.total_swaps == python.total_swaps

    @staticmethod
    def _exact_power(out, inv_k):
        """The draw blocks' power step, with about half the draws set to
        1.0, 0.5 or 0.25.

        ``u * j`` then lands on an integer at many chain steps, so the
        kernel's rare ``y = t - 1`` branch runs (random draws reach it
        with odds of about 1e-13 a step).  Which draws change, and to
        what, follows from the uniforms alone, so the native walk, the
        Python walk and ``BackwardUpdate``, which all end their blocks
        in this step, see the same blocks.
        """
        exact = np.array([1.0, 0.5, 0.25])[(out * 2.0**40).astype(np.int64) % 3]
        out[:] = np.where(out > 0.5, exact, out**inv_k)
        return out

    @pytest.mark.parametrize("block", [4096, 7])
    def test_exact_integer_steps_match_python_and_scalar(
        self, monkeypatch, block
    ):
        import repro.core.updates as updates_mod
        import repro.stack.soa as soa_mod
        from repro.core.krr import KRRStack
        from repro.stack.soa import SoAKRRStack

        monkeypatch.setattr(updates_mod, "backward_draw_power", self._exact_power)
        monkeypatch.setattr(soa_mod, "backward_draw_power", self._exact_power)
        monkeypatch.setattr(soa_mod, "DRAW_BLOCK", block)
        monkeypatch.setattr(updates_mod.BackwardUpdate, "_BLOCK", block)
        keys = np.random.default_rng(5).integers(0, 300, size=3000)
        native = SoAKRRStack(3, rng=np.random.default_rng(11), use_native=True)
        python = SoAKRRStack(3, rng=np.random.default_rng(11), use_native=False)
        scalar = KRRStack(3, rng=np.random.default_rng(11))
        d_native = np.concatenate(
            [native.access_many(c)[0] for c in np.array_split(keys, 3)]
        )
        d_python = np.concatenate(
            [python.access_many(c)[0] for c in np.array_split(keys, 3)]
        )
        d_scalar, _ = scalar.access_many(keys.tolist())
        assert d_native.tolist() == d_python.tolist() == d_scalar
        assert native.total_swaps == python.total_swaps == scalar.total_swaps
        assert (
            native.keys_in_stack_order()
            == python.keys_in_stack_order()
            == scalar.keys_in_stack_order()
        )

    @pytest.mark.parametrize(
        "inv_k",
        [1.0, 0.5, 2.0] + [1.0 / corrected_k(k) for k in (2, 5, 10)],
    )
    @pytest.mark.parametrize("block", [4096, 7])
    def test_in_place_draw_block_matches_allocating_form(self, inv_k, block):
        from repro.core.updates import backward_draw_block

        alloc_rng = np.random.default_rng(17)
        fresh_rng = np.random.default_rng(17)
        inplace_rng = np.random.default_rng(17)
        buf = np.empty(block, dtype=np.float64)
        for _ in range(3):  # the same buffer serves every refill
            expected = (1.0 - alloc_rng.random(block)) ** inv_k
            fresh = backward_draw_block(fresh_rng, inv_k, block)
            got = backward_draw_block(inplace_rng, inv_k, block, out=buf)
            assert got is buf
            assert fresh.tobytes() == expected.tobytes()
            assert got.tobytes() == expected.tobytes()
            state = alloc_rng.bit_generator.state
            assert fresh_rng.bit_generator.state == state
            assert inplace_rng.bit_generator.state == state

    def test_in_place_draw_block_rejects_wrong_length(self):
        from repro.core.updates import backward_draw_block

        with pytest.raises(ValueError):
            backward_draw_block(
                np.random.default_rng(0), 0.5, 8, out=np.empty(7)
            )

    @staticmethod
    def _lane_streams():
        """Uneven ``(K', kids)`` lanes: K' from 1 to 25.1, a full and a
        sampled stream, an empty lane and an all-cold lane."""
        from repro.sampling.spatial import SpatialSampler

        full = np.random.default_rng(5).integers(0, 300, size=3000)
        sampled = full[SpatialSampler(0.3).mask(full)]
        cold = np.random.default_rng(6).permutation(2000)[:900]
        empty = np.empty(0, dtype=np.int64)
        return [
            (1.0, full),
            (corrected_k(2), sampled),
            (corrected_k(10), full),
            (5.0, empty),
            (corrected_k(5), cold),
            (2.0, sampled),
        ]

    @pytest.mark.parametrize("exact", [False, True])
    @pytest.mark.parametrize("block", [5, 7])
    def test_lanes_walk_matches_python_and_scalar(self, monkeypatch, block, exact):
        """Every lane runs dry mid-chain in both chain slots; each must
        equal its own Python walk and the scalar stack on distances,
        ``total_swaps`` and stack order, with random or exact draws."""
        import repro.core.updates as updates_mod
        import repro.stack.soa as soa_mod
        from repro.core.krr import KRRStack
        from repro.stack.soa import SoAKRRStack, walk_backward_lanes

        if exact:
            for mod in (updates_mod, soa_mod):
                monkeypatch.setattr(mod, "backward_draw_power", self._exact_power)
        monkeypatch.setattr(soa_mod, "DRAW_BLOCK", block)
        monkeypatch.setattr(updates_mod.BackwardUpdate, "_BLOCK", block)
        lanes = self._lane_streams()
        seeds = range(40, 40 + len(lanes))
        ks = [k for k, _ in lanes]
        native = [SoAKRRStack(k, rng=s, use_native=True) for k, s in zip(ks, seeds)]
        python = [SoAKRRStack(k, rng=s, use_native=False) for k, s in zip(ks, seeds)]
        walked = [[] for _ in lanes]
        for part in range(3):
            chunks = [np.array_split(kids, 3)[part] for _, kids in lanes]
            for got, d in zip(walked, walk_backward_lanes(native, chunks)):
                got.append(d)
            for stack, chunk, got in zip(python, chunks, walked):
                d = stack.access_many_interned(chunk)
                assert got[-1].tolist() == d.tolist()
        for (k, kids), s, nat, py, got in zip(lanes, seeds, native, python, walked):
            scalar = KRRStack(k, rng=np.random.default_rng(s))
            d_scalar, _ = scalar.access_many(kids.tolist())
            assert np.concatenate(got).tolist() == d_scalar
            assert nat.total_swaps == py.total_swaps == scalar.total_swaps
            assert nat.updates == py.updates == kids.shape[0]
            order = scalar.keys_in_stack_order()
            assert nat._stack[: len(nat)].tolist() == order
            assert py._stack[: len(py)].tolist() == order


def _advanced(seed, steps):
    rng = ensure_rng(seed)
    rng.bit_generator.advance(steps)
    return rng


def _after_uint32_draws(seed, count):
    rng = ensure_rng(seed)
    rng.integers(0, 2**32, size=count, dtype=np.uint32)
    return rng


def _same_state(a, b):
    """Bit-generator states equal, arrays (MT19937's key) included."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same_state(a[k], b[k]) for k in a)
    return np.array_equal(a, b)


def _generator_twin(rng):
    """A generator of the same kind standing in the same state."""
    twin = np.random.Generator(type(rng.bit_generator)())
    twin.bit_generator.state = rng.bit_generator.state
    return twin


@needs_kernel
class TestKernelDraws:
    """The kernel draws a PCG64 lane's uniforms itself: its blocks must be
    NumPy's bytes and leave the generator where NumPy's would, and lanes
    on other bit generators must keep their Python-drawn blocks."""

    @pytest.mark.parametrize(
        "make_rng",
        [
            lambda: np.random.default_rng(0),
            lambda: np.random.default_rng(2**63 - 1),
            lambda: _advanced(3, 2**64 + 3),
            lambda: _after_uint32_draws(4, 5),
        ],
        ids=["seed0", "seed2^63-1", "advanced", "has_uint32"],
    )
    @pytest.mark.parametrize("block", [7, 4096])
    def test_blocks_and_state_equal_numpys(self, monkeypatch, make_rng, block):
        import repro.core.updates as updates_mod
        import repro.stack.soa as soa_mod
        from repro.core.krr import KRRStack
        from repro.stack.soa import SoAKRRStack

        monkeypatch.setattr(soa_mod, "DRAW_BLOCK", block)
        monkeypatch.setattr(updates_mod.BackwardUpdate, "_BLOCK", block)
        handed = []

        def record(out, inv_k):
            handed.append(out.tobytes())
            return updates_mod.backward_draw_power(out, inv_k)

        monkeypatch.setattr(soa_mod, "backward_draw_power", record)
        rng = make_rng()
        numpy_rng, scalar_rng = _generator_twin(rng), _generator_twin(rng)
        start = rng.bit_generator.state
        stack = SoAKRRStack(5.0, rng=rng, use_native=True)
        kids = np.random.default_rng(8).integers(0, 3000, size=6000)
        distances = [stack.access_many_interned(c) for c in np.array_split(kids, 5)]
        assert len(handed) >= 2
        for got in handed:
            assert got == (1.0 - numpy_rng.random(block)).tobytes()
        assert rng.bit_generator.state == numpy_rng.bit_generator.state
        assert rng.bit_generator.state["has_uint32"] == start["has_uint32"]
        assert rng.bit_generator.state["uinteger"] == start["uinteger"]
        scalar = KRRStack(5.0, rng=scalar_rng)
        assert np.concatenate(distances).tolist() == scalar.access_many(
            kids.tolist()
        )[0]
        assert stack.total_swaps == scalar.total_swaps
        assert scalar_rng.bit_generator.state == rng.bit_generator.state

    @pytest.mark.parametrize("block", [5, 7, 4096])
    def test_other_bit_generators_walk_beside_pcg64_lanes(self, monkeypatch, block):
        """Lanes on MT19937, Philox and SFC64 refill in Python inside the
        same walk as PCG64 lanes; small blocks run every lane dry
        mid-chain in both chain slots."""
        import repro.core.updates as updates_mod
        import repro.stack.soa as soa_mod
        from repro.core.krr import KRRStack
        from repro.stack.soa import SoAKRRStack, walk_backward_lanes

        monkeypatch.setattr(soa_mod, "DRAW_BLOCK", block)
        monkeypatch.setattr(updates_mod.BackwardUpdate, "_BLOCK", block)
        kinds = [np.random.MT19937, np.random.PCG64, np.random.Philox,
                 np.random.SFC64, np.random.PCG64, np.random.MT19937]
        lanes = TestKernelUnderSanitizers._lane_streams()

        def generator(c):
            return np.random.Generator(kinds[c](60 + c))

        stacks = [
            SoAKRRStack(k, rng=generator(c), use_native=True)
            for c, (k, _) in enumerate(lanes)
        ]
        walked = [[] for _ in lanes]
        for part in range(3):
            chunks = [np.array_split(kids, 3)[part] for _, kids in lanes]
            for got, d in zip(walked, walk_backward_lanes(stacks, chunks)):
                got.append(d)
        for c, ((k, kids), stack, got) in enumerate(zip(lanes, stacks, walked)):
            scalar_rng = generator(c)
            scalar = KRRStack(k, rng=scalar_rng)
            d_scalar, _ = scalar.access_many(kids.tolist())
            assert np.concatenate(got).tolist() == d_scalar
            assert stack.total_swaps == scalar.total_swaps
            assert stack._stack[: len(stack)].tolist() == scalar.keys_in_stack_order()
            assert _same_state(
                stack._rng.bit_generator.state, scalar_rng.bit_generator.state
            )

    def test_int_seeded_lanes_draw_in_the_kernel(self, monkeypatch):
        """``ensure_rng(int)`` gives PCG64, whose uniforms the kernel
        draws: if NumPy's default bit generator changed, this fails
        instead of every walk silently going back to Python refills."""
        import repro.stack.soa as soa_mod
        from repro.stack.soa import SoAKRRStack, walk_backward_lanes

        def python_refill(*args, **kwargs):
            raise AssertionError("an int-seeded lane refilled in Python")

        monkeypatch.setattr(soa_mod, "backward_draw_block", python_refill)
        kids = np.random.default_rng(2).integers(0, 2000, size=4000)
        stacks = [SoAKRRStack(k, rng=seed, use_native=True)
                  for k, seed in ((5.0, 1), (2.0, 2))]
        walk_backward_lanes(stacks, [kids, kids[::2]])
        stacks[0].access_many_interned(kids)
        assert all(stack._refills >= 2 for stack in stacks)

    def test_walk_holds_the_generator_lock(self, monkeypatch):
        """The kernel call releases the GIL and the walk writes the
        generator state back at its end, so no other thread may draw from
        a PCG64 lane's generator in between: the walk holds its lock."""
        import threading

        import repro.core.updates as updates_mod
        import repro.stack.soa as soa_mod
        from repro.stack.soa import SoAKRRStack

        rng = np.random.default_rng(4)
        stack = SoAKRRStack(5.0, rng=rng, use_native=True)
        free_elsewhere = []

        def probe(out, inv_k):
            def try_lock():
                got = rng.bit_generator.lock.acquire(blocking=False)
                if got:
                    rng.bit_generator.lock.release()
                free_elsewhere.append(got)

            thread = threading.Thread(target=try_lock)
            thread.start()
            thread.join()
            return updates_mod.backward_draw_power(out, inv_k)

        monkeypatch.setattr(soa_mod, "backward_draw_power", probe)
        stack.access_many_interned(np.random.default_rng(1).integers(0, 500, 2000))
        assert free_elsewhere and not any(free_elsewhere)
        assert rng.bit_generator.lock.acquire(blocking=False)
        rng.bit_generator.lock.release()

    def test_portable_pcg64_step_matches(self, monkeypatch, tmp_path):
        """Without ``unsigned __int128`` the kernel steps PCG64 on 64-bit
        halves; that build must draw the same blocks."""
        import ctypes
        import os

        from repro.core.krr import KRRStack
        from repro.stack import _native
        from repro.stack.soa import SoAKRRStack, walk_backward_lanes

        flags = os.environ.get("REPRO_NATIVE_CFLAGS", "")
        monkeypatch.setenv("REPRO_NATIVE_CFLAGS", flags + " -U__SIZEOF_INT128__")
        monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path))
        lib_path = _native._build_library(_native._SOURCE)
        assert lib_path is not None
        kernel = _native.BackwardKernel(ctypes.CDLL(str(lib_path)))
        lanes = TestKernelUnderSanitizers._lane_streams()
        stacks = [SoAKRRStack(k, rng=70 + c, use_native=True)
                  for c, (k, _) in enumerate(lanes)]
        for stack in stacks:
            stack._kernel = kernel
        walked = walk_backward_lanes(stacks, [kids for _, kids in lanes])
        for c, ((k, kids), stack, got) in enumerate(zip(lanes, stacks, walked)):
            scalar_rng = np.random.default_rng(70 + c)
            scalar = KRRStack(k, rng=scalar_rng)
            assert got.tolist() == scalar.access_many(kids.tolist())[0]
            assert stack._rng.bit_generator.state == scalar_rng.bit_generator.state


_CLEAN_LINES = ["7,31,get", "406,5,set", "1,1002,delete"]


@needs_kernel
class TestCsvDecoderUnderSanitizers:
    """The CSV block decoder's bounds: every input sits in an exact-size
    heap buffer and every output column holds exactly ``cap`` rows (plus
    a guard row), so an ASan build catches a read or write past either."""

    @staticmethod
    def _decode(data: bytes, cap: int, fields=(3, 0, 1, 2)):
        from repro.stack._native import load_csv_decoder

        block = np.frombuffer(data, dtype=np.uint8).copy()
        keys = np.full(cap + 1, -7, dtype=np.int64)
        sizes = np.full(cap + 1, -7, dtype=np.int64)
        ops = np.full(cap + 1, -7, dtype=np.int8)
        n = load_csv_decoder()(
            block.ctypes.data, block.size, *fields,
            keys.ctypes.data, sizes.ctypes.data, ops.ctypes.data, cap,
        )
        assert keys[cap] == sizes[cap] == ops[cap] == -7  # nothing past cap
        return n, keys[: max(n, 0)], sizes[: max(n, 0)], ops[: max(n, 0)]

    def test_refuses_a_block_with_more_rows_than_cap(self):
        data = "".join(line + "\n" for line in _CLEAN_LINES).encode()
        for cap in range(5):
            n, keys, sizes, ops = self._decode(data, cap)
            assert n == (3 if cap >= 3 else -1)
        assert keys.tolist() == [7, 406, 1]
        assert sizes.tolist() == [31, 5, 1002]
        assert ops.tolist() == [0, 1, 2]

    @pytest.mark.parametrize("ending", ["\n", "\r\n"])
    def test_every_prefix_decodes_as_the_row_parser_does(self, ending):
        """Cut a clean three-line block at each byte: the kernel takes a
        prefix only if it is whole lines, and ``_decode_block`` (which
        ends the final line) returns exactly the row parser's rows or
        leaves the prefix to it."""
        import io

        from repro.workloads.io import _CsvRowReader, _decode_block

        data = "".join(line + ending for line in _CLEAN_LINES).encode()
        line_ends = {0} | {
            i + 1 for i in range(len(data)) if data[i : i + 1] == b"\n"
        }
        for cut in range(len(data) + 1):
            prefix = data[:cut]
            n = self._decode(prefix, len(prefix) // 2 + 1)[0]
            assert n == (data[:cut].count(b"\n") if cut in line_ends else -1)
            columns = _decode_block(prefix, 3, 0, 1, 2)
            if columns is None:
                continue
            text = "key,size,op" + ending + prefix.decode()
            rows = list(_CsvRowReader("t.csv").rows(io.StringIO(text, newline="")))
            assert list(zip(*(c.tolist() for c in columns))) == rows
            assert [c.dtype for c in columns] == [np.int64, np.int64, np.int8]
