"""Fault-tolerance tests: runner recovery paths, checkpoint/resume, shm cleanup.

Every recovery path the resilient runner claims is proven here with
injected faults (``repro.engine.faults``), on the pools that use it — a
``FleetSweep`` (one task per trace) and the simulation sweep:

* a worker crash mid-fleet rebuilds the pool and finishes with results
  bit-identical to an uninterrupted ``max_workers=1`` run;
* a hung worker trips the per-task timeout, is killed, and the task
  retries successfully;
* transient failures retry with a bounded budget, then fail loudly;
* a pool that keeps dying degrades to serial with a warning — and the
  same bit-identical results;
* a checkpointed ``ModelSweep`` that dies mid-pass leaves no rows, a
  partial checkpoint resumes appending exactly the missing grid rows,
  and a finished one appends nothing;
* the shared-memory segment is unlinked when the parent is SIGTERM-killed
  mid-life or exits without ``close()``.
"""

from __future__ import annotations

import json
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.krr import KRRStack
from repro.engine import (
    CheckpointMismatch,
    FleetSweep,
    ModelSweep,
    ResilientRunner,
    SweepConfig,
    TaskFailedError,
    TransientTaskError,
)
from repro.engine.faults import FaultPlan
from repro.simulator.parallel import parallel_klru_mrc_with_report
from repro.workloads.trace import Trace
from repro.workloads.zipf import zipf_trace_keys

SRC = str(Path(__file__).resolve().parent.parent / "src")


# ----------------------------------------------------------------------
# module-level workers (must be picklable for the pool path)
# ----------------------------------------------------------------------
def _square(x: int) -> int:
    return x * x


def _square_flaky(args) -> int:
    """Fails with a transient error until a latch file exists."""
    x, state = args
    latch = Path(state) / f"tick-{x}"
    if not latch.exists():
        latch.touch()
        raise TransientTaskError(f"flaky {x}")
    return x * x


def _square_broken(x: int) -> int:
    raise KeyError(f"deterministic bug for {x}")


def _zipf_trace(n_objects=300, n_requests=5_000, seed=0):
    return Trace(
        zipf_trace_keys(n_objects, n_requests, 0.9, rng=seed), name="faults"
    )


@pytest.fixture
def trace():
    return _zipf_trace()


@pytest.fixture
def traces():
    return [_zipf_trace(seed=i) for i in range(3)]


@pytest.fixture
def fleet():
    return FleetSweep.grid(ks=[1, 4], sampling_rates=[None, 0.5], seed=5)


_COUNTERS = (
    "requests_seen",
    "requests_sampled",
    "cold_misses",
    "stack_updates",
    "swap_positions",
)


def _assert_same_grid(clean, results):
    """Bit-for-bit: config, seed, sizes (with dtype), ratios, unit, counters."""
    assert len(clean) == len(results)
    for a, b in zip(clean, results):
        assert a.config == b.config
        assert a.seed == b.seed
        assert a.sizes.dtype == b.sizes.dtype
        np.testing.assert_array_equal(a.sizes, b.sizes)
        np.testing.assert_array_equal(a.miss_ratios, b.miss_ratios)
        assert a.unit == b.unit
        for name in _COUNTERS:
            assert getattr(a, name) == getattr(b, name)


def _assert_same_fleet(clean, results):
    assert len(clean) == len(results)
    for a, b in zip(clean, results):
        _assert_same_grid(a.results, b.results)


def _row_indices(raw: bytes):
    """Grid positions of the checkpoint rows in ``raw`` (headers skipped)."""
    records = [json.loads(line) for line in raw.splitlines() if line.strip()]
    return [r["index"] for r in records if "index" in r]


# ----------------------------------------------------------------------
class TestRunnerCore:
    def test_serial_results_ordered(self):
        runner = ResilientRunner(_square, max_workers=1)
        results, report = runner.run([3, 1, 2])
        assert results == [9, 1, 4]
        assert report.mode == "serial"
        assert report.completed == 3
        assert report.attempts == 3

    def test_pool_results_ordered(self):
        runner = ResilientRunner(_square, max_workers=2, backoff=0)
        results, report = runner.run([5, 6, 7, 8])
        assert results == [25, 36, 49, 64]
        assert report.mode == "pool"
        assert report.pool_rebuilds == 0

    def test_serial_transient_retry(self, tmp_path):
        runner = ResilientRunner(_square_flaky, max_workers=1, retries=1,
                                 backoff=0)
        results, report = runner.run([(2, str(tmp_path)), (3, str(tmp_path))])
        assert results == [4, 9]
        assert report.retries == 2
        assert report.attempts == 4

    def test_retries_exhausted_raises(self, tmp_path):
        runner = ResilientRunner(_square_flaky, max_workers=1, retries=0)
        with pytest.raises(TaskFailedError) as exc_info:
            runner.run([(2, str(tmp_path))])
        assert exc_info.value.index == 0
        assert isinstance(exc_info.value.cause, TransientTaskError)

    def test_deterministic_error_fails_fast_in_pool(self):
        runner = ResilientRunner(_square_broken, max_workers=2, retries=3,
                                 backoff=0)
        with pytest.raises(TaskFailedError) as exc_info:
            runner.run([1, 2])
        # A non-retryable exception must not burn the retry budget.
        assert exc_info.value.attempts == 1

    def test_completed_tasks_skipped(self):
        runner = ResilientRunner(_square, max_workers=1)
        results, report = runner.run([2, 3, 4], completed={1: 999})
        assert results == [4, 999, 16]
        assert report.from_checkpoint == 1
        assert report.attempts == 2  # only the two uncompleted tasks ran
        assert report.tasks[1].outcome == "from-checkpoint"

    def test_per_task_wall_time_recorded(self):
        runner = ResilientRunner(_square, max_workers=1)
        _, report = runner.run([4])
        assert report.tasks[0].wall_time >= 0.0
        assert report.tasks[0].outcome == "ok"
        assert report.wall_time > 0.0

    def test_report_json_round_trip(self):
        runner = ResilientRunner(_square, max_workers=1)
        _, report = runner.run([1, 2])
        decoded = json.loads(report.to_json())
        assert decoded["total_tasks"] == 2
        assert decoded["mode"] == "serial"
        assert len(decoded["tasks"]) == 2


# ----------------------------------------------------------------------
class TestFaultPlanParsing:
    def test_parse_clauses_and_state(self):
        plan = FaultPlan.parse("crash-once@2;flaky@1:3;state=/tmp/x")
        assert plan.state_dir == "/tmp/x"
        assert len(plan.clauses) == 2
        assert plan.clauses[0].mode == "crash-once"
        assert plan.clauses[0].index == "2"
        assert plan.clauses[1].arg == 3.0

    def test_bad_clause_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan.parse("explode@1")

    def test_flaky_fires_limit_times(self, tmp_path):
        plan = FaultPlan.parse(f"flaky@0:2;state={tmp_path}")
        for _ in range(2):
            with pytest.raises(TransientTaskError):
                plan.fire(0)
        plan.fire(0)  # third call: tickets exhausted, no fault
        plan.fire(1)  # other indices never fire


# ----------------------------------------------------------------------
class TestSweepFaultRecovery:
    """Runner recovery paths on a fleet pool; the fault index is the trace."""

    def test_worker_crash_recovers_bit_identical(
        self, traces, fleet, tmp_path, monkeypatch
    ):
        clean, _ = fleet.run(traces, max_workers=1)
        monkeypatch.setenv("REPRO_FAULTS", f"crash-once@1;state={tmp_path}")
        results, report = fleet.run(
            traces, max_workers=2, retries=2, backoff=0
        )
        assert report.pool_rebuilds >= 1
        assert not report.degraded_to_serial
        _assert_same_fleet(clean, results)

    def test_timeout_fires_on_hung_worker(
        self, traces, fleet, tmp_path, monkeypatch
    ):
        clean, _ = fleet.run(traces, max_workers=1)
        monkeypatch.setenv("REPRO_FAULTS", f"hang-once@0:60;state={tmp_path}")
        results, report = fleet.run(
            traces, max_workers=2, retries=2, backoff=0, task_timeout=1.5
        )
        assert report.timeouts >= 1
        assert report.tasks[0].timeouts >= 1
        _assert_same_fleet(clean, results)

    def test_degrades_to_serial_when_pool_keeps_dying(
        self, traces, fleet, monkeypatch
    ):
        clean, _ = fleet.run(traces, max_workers=1)
        monkeypatch.setenv("REPRO_FAULTS", "crash@0")  # crashes every attempt
        with pytest.warns(RuntimeWarning, match="degrading"):
            results, report = fleet.run(
                traces, max_workers=2, retries=1, backoff=0,
                max_pool_rebuilds=1,
            )
        assert report.degraded_to_serial
        _assert_same_fleet(clean, results)

    def test_transient_worker_failure_retried(
        self, traces, fleet, tmp_path, monkeypatch
    ):
        clean, _ = fleet.run(traces, max_workers=1)
        monkeypatch.setenv("REPRO_FAULTS", f"flaky@0:2;state={tmp_path}")
        results, report = fleet.run(
            traces, max_workers=2, retries=3, backoff=0
        )
        assert report.retries >= 2
        _assert_same_fleet(clean, results)

    def test_retry_budget_exhausted_raises(
        self, traces, fleet, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_FAULTS", f"flaky@0:10;state={tmp_path}")
        with pytest.raises(TaskFailedError):
            fleet.run(traces, max_workers=1, retries=1, backoff=0)

    def test_simulation_sweep_recovers_from_crash(
        self, trace, tmp_path, monkeypatch
    ):
        clean, _ = parallel_klru_mrc_with_report(
            trace, 3, n_points=4, rng=19, max_workers=1
        )
        monkeypatch.setenv("REPRO_FAULTS", f"crash-once@2;state={tmp_path}")
        curve, report = parallel_klru_mrc_with_report(
            trace, 3, n_points=4, rng=19, max_workers=2, retries=2, backoff=0
        )
        assert report.pool_rebuilds >= 1
        np.testing.assert_array_equal(clean.sizes, curve.sizes)
        np.testing.assert_array_equal(clean.miss_ratios, curve.miss_ratios)


# ----------------------------------------------------------------------
class TestCheckpointResume:
    @staticmethod
    def _mixed_sweep(trace):
        """Every kind of cell in one pass: SoA and scalar, objects and bytes."""
        trace = Trace(
            trace.keys,
            np.arange(len(trace)) % 97 + 1,  # byte sizes for the track_sizes cell
            name=trace.name,
        )
        configs = ModelSweep.grid(
            ks=[1, 4],
            strategies=["backward", "linear", "topdown"],
            sampling_rates=[None, 0.5],
        ).configs + [SweepConfig(k=2, track_sizes=True)]
        return trace, ModelSweep(configs, seed=7)

    def test_crash_mid_pass_keeps_no_rows(self, trace, tmp_path, monkeypatch):
        trace, sweep = self._mixed_sweep(trace)
        clean = sweep.run(trace, max_size=150)
        ck = tmp_path / "sweep.ckpt"

        def crash(*args, **kwargs):
            raise RuntimeError("killed mid-pass")

        # The scalar cells run after the SoA cells have walked the chunk,
        # so this dies in the middle of the grid's one pass.
        with monkeypatch.context() as m:
            m.setattr(KRRStack, "access_many", crash)
            with pytest.raises(RuntimeError, match="mid-pass"):
                sweep.run(trace, max_size=150, checkpoint=ck)
        # Rows (and the header with them) reach the file only once the
        # pass completes.
        assert not ck.exists()
        _assert_same_grid(clean, sweep.run(trace, max_size=150, checkpoint=ck))
        assert _row_indices(ck.read_bytes()) == list(range(len(sweep)))

    def test_resume_skips_completed_configs(self, trace, tmp_path):
        trace, sweep = self._mixed_sweep(trace)
        ck = tmp_path / "sweep.ckpt"
        clean = sweep.run(trace, max_size=150, checkpoint=ck)
        header, *lines = ck.read_bytes().splitlines(keepends=True)
        rows = dict(zip(_row_indices(b"".join(lines)), lines))
        # Keep the header and the object-level SoA rows: what a sweep that
        # ran its SoA cells before its scalar ones left on disk.
        kept = [
            i
            for i, c in enumerate(sweep.configs)
            if c.strategy != "topdown" and not c.track_sizes
        ]
        missing = [i for i in range(len(sweep)) if i not in kept]
        before = header + b"".join(rows[i] for i in kept)
        ck.write_bytes(before)

        results = sweep.run(trace, max_size=150, checkpoint=ck)
        after = ck.read_bytes()
        assert after.startswith(before)
        appended = after[len(before):].splitlines(keepends=True)
        assert _row_indices(b"".join(appended)) == missing
        assert appended == [rows[i] for i in missing]  # byte for byte
        _assert_same_grid(clean, results)

    def test_finished_checkpoint_runs_nothing(self, trace, tmp_path):
        sweep = ModelSweep.grid(ks=[1, 4], seed=3)
        ck = tmp_path / "sweep.ckpt"
        first = sweep.run(trace, checkpoint=ck)
        before = ck.read_bytes()
        results = sweep.run(trace, checkpoint=ck)
        assert ck.read_bytes() == before
        _assert_same_grid(first, results)

    def test_mismatched_checkpoint_rejected(self, trace, tmp_path):
        ck = tmp_path / "sweep.ckpt"
        ModelSweep.grid(ks=[1, 4], seed=3).run(trace, checkpoint=ck)
        other = ModelSweep.grid(ks=[1, 4], seed=99)  # different sweep seed
        with pytest.raises(CheckpointMismatch):
            other.run(trace, checkpoint=ck)

    def test_garbage_checkpoint_rejected(self, trace, tmp_path):
        ck = tmp_path / "sweep.ckpt"
        ck.write_text("not json at all\n")
        with pytest.raises(CheckpointMismatch):
            ModelSweep.grid(ks=[1], seed=3).run(trace, checkpoint=ck)

    def test_truncated_tail_row_ignored(self, trace, tmp_path):
        sweep = ModelSweep.grid(ks=[1, 4], seed=3)
        ck = tmp_path / "sweep.ckpt"
        sweep.run(trace, checkpoint=ck)
        # Simulate a crash mid-write: chop the last row in half.
        text = ck.read_text()
        ck.write_text(text[: len(text) - len(text.splitlines()[-1]) // 2 - 1])
        with pytest.warns(RuntimeWarning, match="torn final checkpoint line"):
            results = sweep.run(trace, checkpoint=ck)
        # The intact row was kept and only the torn one redone.
        assert _row_indices(ck.read_bytes()) == [0, 1]
        clean = sweep.run(trace)
        _assert_same_grid(clean, results)


# ----------------------------------------------------------------------
class TestSharedMemoryCleanup:
    CREATE_AND_WAIT = (
        "import sys, time\n"
        "sys.path.insert(0, {src!r})\n"
        "import numpy as np\n"
        "from repro.engine.shm import SharedTraceStore\n"
        "from repro.workloads.trace import Trace\n"
        "store = SharedTraceStore(Trace(np.arange(500), name='victim'))\n"
        "print(store.spec.shm_name, flush=True)\n"
        "{tail}\n"
    )

    def _segment_path(self, name: str) -> Path:
        return Path("/dev/shm") / name

    @pytest.mark.skipif(
        not Path("/dev/shm").is_dir(), reason="needs POSIX /dev/shm"
    )
    def test_sigterm_unlinks_segment(self):
        script = self.CREATE_AND_WAIT.format(src=SRC, tail="time.sleep(60)")
        proc = subprocess.Popen(
            [sys.executable, "-c", script],
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            name = proc.stdout.readline().strip()
            assert self._segment_path(name).exists()
            proc.send_signal(signal.SIGTERM)
            rc = proc.wait(timeout=20)
        finally:
            if proc.poll() is None:  # pragma: no cover - safety net
                proc.kill()
        assert rc == -signal.SIGTERM  # kill-by-SIGTERM semantics preserved
        deadline = time.monotonic() + 5
        while self._segment_path(name).exists():
            assert time.monotonic() < deadline, "segment leaked after SIGTERM"
            time.sleep(0.05)

    @pytest.mark.skipif(
        not Path("/dev/shm").is_dir(), reason="needs POSIX /dev/shm"
    )
    def test_exit_without_close_unlinks_segment(self):
        script = self.CREATE_AND_WAIT.format(src=SRC, tail="")
        out = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            timeout=60,
        )
        name = out.stdout.strip().splitlines()[0]
        assert not self._segment_path(name).exists()


# ----------------------------------------------------------------------
class TestSweepCLIFaultFlags:
    def test_checkpoint_report_flags(self, trace, tmp_path):
        from repro.cli import main
        from repro.workloads import io

        trace_path = tmp_path / "t.csv"
        io.save_csv(trace, trace_path)
        ck = tmp_path / "sweep.ckpt"
        out = tmp_path / "grid.csv"
        argv = [
            "sweep", str(trace_path), "--ks", "1,4", "--seed", "3",
            "--checkpoint", str(ck), "-o", str(out),
        ]
        assert main(argv) == 0
        first_grid = out.read_text()
        first_ckpt = ck.read_bytes()
        assert _row_indices(first_ckpt) == [0, 1]

        # Second invocation resumes everything from the checkpoint.
        assert main(argv) == 0
        assert ck.read_bytes() == first_ckpt
        assert out.read_text() == first_grid


# ----------------------------------------------------------------------
class TestDelayFaults:
    """The delay@/delay-once@ latency-injection clauses (service paths)."""

    def test_parse_named_point_and_delay(self):
        plan = FaultPlan.parse("delay@ingest:50;crash-once@worker;state=/tmp/x")
        assert plan.clauses[0].mode == "delay"
        assert plan.clauses[0].index == "ingest"
        assert plan.clauses[0].arg == 50.0
        assert plan.clauses[1].index == "worker"
        assert plan.state_dir == "/tmp/x"

    def test_delay_sleeps_in_any_process(self, tmp_path):
        plan = FaultPlan.parse(f"delay@ingest:80;state={tmp_path}")
        start = time.monotonic()
        plan.fire("ingest")
        plan.fire("ingest")
        assert time.monotonic() - start >= 0.15  # fires every time
        start = time.monotonic()
        plan.fire("other-point")
        assert time.monotonic() - start < 0.05  # string-matched, no hit

    def test_delay_once_uses_the_latch(self, tmp_path):
        plan = FaultPlan.parse(f"delay-once@snapshot:120;state={tmp_path}")
        start = time.monotonic()
        plan.fire("snapshot")
        first = time.monotonic() - start
        start = time.monotonic()
        plan.fire("snapshot")
        second = time.monotonic() - start
        assert first >= 0.1
        assert second < 0.05  # latch consumed: one-shot across processes
        assert list(tmp_path.glob("delay-snapshot.*"))

    def test_numeric_task_index_still_matches(self, tmp_path):
        plan = FaultPlan.parse(f"delay@2:60;state={tmp_path}")
        start = time.monotonic()
        plan.fire(2)  # int fault point, string clause
        assert time.monotonic() - start >= 0.05


# ----------------------------------------------------------------------
class TestCheckpointTornTail:
    """SweepCheckpoint's crash-debris handling, straight at the API."""

    def _written(self, tmp_path) -> Path:
        from repro.engine.checkpoint import SweepCheckpoint

        ck = tmp_path / "sweep.ckpt"
        cp = SweepCheckpoint(ck, {"sig": 1})
        cp.load()
        cp.append((0, np.array([1.0, 2.0]), np.array([0.5, 0.25]), "objects", {}))
        cp.append((1, np.array([1.0, 2.0]), np.array([0.4, 0.2]), "objects", {}))
        return ck

    def test_torn_final_line_truncated_with_warning(self, tmp_path):
        from repro.engine.checkpoint import SweepCheckpoint

        ck = self._written(tmp_path)
        raw = ck.read_bytes()
        ck.write_bytes(raw[:-17])  # crash mid-append of row 1
        with pytest.warns(RuntimeWarning, match="torn final checkpoint line"):
            rows = SweepCheckpoint(ck, {"sig": 1}).load()
        assert sorted(rows) == [0]
        # The torn bytes were physically truncated: the file ends on a
        # record boundary and a further append produces a loadable file.
        assert ck.read_bytes().endswith(b"\n")
        cp = SweepCheckpoint(ck, {"sig": 1})
        cp.load()
        cp.append((1, np.array([1.0]), np.array([0.9]), "objects", {}))
        assert sorted(SweepCheckpoint(ck, {"sig": 1}).load()) == [0, 1]

    def test_mid_file_corruption_rejected(self, tmp_path):
        from repro.engine.checkpoint import SweepCheckpoint

        ck = self._written(tmp_path)
        lines = ck.read_bytes().split(b"\n")
        lines[1] = lines[1][: len(lines[1]) // 2]  # row 0: fsynced, acked
        ck.write_bytes(b"\n".join(lines))
        with pytest.raises(CheckpointMismatch, match="not at the tail"):
            SweepCheckpoint(ck, {"sig": 1}).load()


# ----------------------------------------------------------------------
class TestSigtermChaining:
    """on_sigterm(): callbacks chain with a pre-existing SIGTERM handler."""

    SCRIPT = r"""
import os, signal, sys, time
sys.path.insert(0, {src!r})
marker = {marker!r}

order = []

def preexisting(signum, frame):
    order.append("prev")
    with open(marker, "w") as fh:
        fh.write(",".join(order))
    os._exit(42)

signal.signal(signal.SIGTERM, preexisting)

import numpy as np
from repro.engine.shm import SharedTraceStore, on_sigterm
from repro.workloads.trace import Trace

store = SharedTraceStore(Trace(np.arange(100), name="victim"))

@on_sigterm
def service_callback():
    order.append("callback")

print(store.spec.shm_name, flush=True)
time.sleep(60)
"""

    @pytest.mark.skipif(
        not Path("/dev/shm").is_dir(), reason="needs POSIX /dev/shm"
    )
    def test_preexisting_handler_still_runs_after_callbacks(self, tmp_path):
        marker = tmp_path / "order.txt"
        script = self.SCRIPT.format(src=SRC, marker=str(marker))
        proc = subprocess.Popen(
            [sys.executable, "-c", script], stdout=subprocess.PIPE, text=True
        )
        try:
            name = proc.stdout.readline().strip()
            assert (Path("/dev/shm") / name).exists()
            proc.send_signal(signal.SIGTERM)
            rc = proc.wait(timeout=20)
        finally:
            if proc.poll() is None:  # pragma: no cover - safety net
                proc.kill()
        # The pre-existing handler decided the exit (42), not a re-kill.
        assert rc == 42
        # Callbacks ran newest-first, then the captured previous handler.
        assert marker.read_text() == "callback,prev"
        # The shm cleanup callback (registered first) unlinked the store.
        deadline = time.monotonic() + 5
        while (Path("/dev/shm") / name).exists():
            assert time.monotonic() < deadline, "segment leaked"
            time.sleep(0.05)

    def test_remove_sigterm_callback(self):
        from repro.engine.shm import on_sigterm, remove_sigterm_callback

        def cb():  # pragma: no cover - never fired
            pass

        on_sigterm(cb)
        assert remove_sigterm_callback(cb) is True
        assert remove_sigterm_callback(cb) is False
