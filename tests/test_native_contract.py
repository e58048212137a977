"""NAT-* rule coverage: the ctypes ↔ C prototype contract checker, the
unbound-export and fallback-twin rules, the build's fallback when the
compiler hangs, plus direct native-kernel exercises (chain-walk resume,
mid-chain draw-buffer refill, the rare exact-integer swap step, the
in-place draw refill and the multi-lane walk) that the sanitizer CI job
runs under ASan/UBSan.

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
        assert [e.name for e in exports] == ["krr_backward_lanes"]
        (export,) = exports
        assert len(export.params) == 3
        assert [p.is_pointer for p in export.params] == [False, True, True]
        assert export.ret_kind == "i64"


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

        return SoAKRRStack(k, strategy="backward", rng=rng, use_native=True)

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

        native = SoAKRRStack(
            8, strategy="backward", rng=np.random.default_rng(42),
            use_native=True,
        )
        python = SoAKRRStack(
            8, strategy="backward", rng=np.random.default_rng(42),
            use_native=False,
        )
        d_native, _ = native.access_many(keys)
        d_python, _ = python.access_many(keys)
        assert np.array_equal(np.asarray(d_native), np.asarray(d_python))
        assert native.total_swaps == python.total_swaps

    @staticmethod
    def _exact_draws(rng, inv_k, block=4096, out=None):
        """Draw blocks where about half the values are 1.0, 0.5 or 0.25.

        ``u * j`` then lands on an integer at many chain steps, so the
        kernel's rare ``y = t - 1`` branch runs (random draws reach it
        with odds of about 1e-13 a step).  Both calling forms consume
        ``rng`` identically, so every path sees the same blocks.
        """
        u = rng.random(block)
        exact = np.array([1.0, 0.5, 0.25])[rng.integers(0, 3, block)]
        drawn = np.where(u < 0.5, exact, (1.0 - u) ** inv_k)
        if out is None:
            return drawn
        out[:] = drawn
        return out

    @pytest.mark.parametrize("block", [4096, 7])
    def test_exact_integer_steps_match_python_and_scalar(
        self, monkeypatch, block
    ):
        import repro.core.updates as updates_mod
        import repro.stack.soa as soa_mod
        from repro.core.krr import KRRStack
        from repro.stack.soa import SoAKRRStack

        monkeypatch.setattr(updates_mod, "backward_draw_block", self._exact_draws)
        monkeypatch.setattr(soa_mod, "backward_draw_block", self._exact_draws)
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
                monkeypatch.setattr(mod, "backward_draw_block", self._exact_draws)
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
