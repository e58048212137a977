"""Unit tests for the service daemon's building blocks.

Covers the durability primitives (WAL, snapshot store, registry) with
crash-shaped corruption, the HTTP layer's status-code mapping through a
stub supervisor, and one real end-to-end supervisor exercising ingest,
live query, worker death, stale degradation and backpressure.
"""

from __future__ import annotations

import io
import json
import time
from pathlib import Path

import pytest

from repro.service import (
    Backpressure,
    SnapshotStore,
    Supervisor,
    TenantConfig,
    TenantRegistry,
    TenantUnavailable,
    TenantWAL,
)
from repro.service.handlers import Api
from repro.service.snapshot import SnapshotError, write_atomic
from repro.service.supervisor import _start_with_sigterm_blocked, _worker_signals
from repro.service.wal import WALError


# ----------------------------------------------------------------------
# WAL
# ----------------------------------------------------------------------
class TestTenantWAL:
    def test_append_replay_roundtrip(self, tmp_path):
        wal = TenantWAL(tmp_path)
        wal.append(1, [1, 2, 3], None)
        wal.append(2, [4, 5], [10, 20])
        assert wal.last_seq == 2
        batches = list(wal.replay(0))
        assert batches == [(1, [1, 2, 3], None), (2, [4, 5], [10, 20])]
        assert list(wal.replay(1)) == [(2, [4, 5], [10, 20])]
        wal.close()

    def test_last_seq_survives_reopen(self, tmp_path):
        wal = TenantWAL(tmp_path)
        for seq in (1, 2, 3):
            wal.append(seq, [seq], None)
        wal.close()
        reopened = TenantWAL(tmp_path)
        assert reopened.last_seq == 3
        assert reopened.next_seq() == 4
        reopened.close()

    def test_non_monotonic_append_rejected(self, tmp_path):
        wal = TenantWAL(tmp_path)
        wal.append(5, [1], None)
        with pytest.raises(WALError, match="non-monotonic"):
            wal.append(5, [2], None)
        wal.close()

    def test_torn_trailing_line_dropped_with_warning(self, tmp_path):
        wal = TenantWAL(tmp_path)
        wal.append(1, [1], None)
        wal.append(2, [2], None)
        wal.close()
        seg = sorted(tmp_path.glob("wal-*.jsonl"))[0]
        raw = seg.read_bytes()
        seg.write_bytes(raw[: len(raw) - 5])  # crash mid-append
        with pytest.warns(RuntimeWarning, match="torn trailing"):
            batches = list(TenantWAL(tmp_path).replay(0))
        assert batches == [(1, [1], None)]

    def test_mid_file_corruption_raises(self, tmp_path):
        wal = TenantWAL(tmp_path)
        wal.append(1, [1], None)
        wal.append(2, [2], None)
        wal.close()
        seg = sorted(tmp_path.glob("wal-*.jsonl"))[0]
        lines = seg.read_bytes().split(b"\n")
        lines[0] = b'{"broken'  # an *acked* record, not crash debris
        seg.write_bytes(b"\n".join(lines))
        with pytest.raises(WALError, match="acked batch is unreadable"):
            list(TenantWAL(tmp_path).replay(0))

    def test_segment_roll_and_compact(self, tmp_path):
        wal = TenantWAL(tmp_path, segment_bytes=64)  # force rolling
        for seq in range(1, 9):
            wal.append(seq, [seq * 10, seq * 10 + 1], None)
        segments = sorted(tmp_path.glob("wal-*.jsonl"))
        assert len(segments) > 2
        # Everything is still replayable across the roll.
        assert [b[0] for b in wal.replay(0)] == list(range(1, 9))
        removed = wal.compact(through_seq=6)
        assert removed >= 1
        # Only records > 6 are required after compaction; none below are
        # resurrected and none above are lost.
        remaining = [b[0] for b in wal.replay(6)]
        assert remaining == [7, 8]
        wal.close()


# ----------------------------------------------------------------------
# Snapshots
# ----------------------------------------------------------------------
class TestSnapshotStore:
    def test_save_load_roundtrip(self, tmp_path):
        store = SnapshotStore(tmp_path)
        gen = store.save({"applied_seq": 3, "x": [1.5, 2.5]})
        assert gen == 1
        loaded = store.load_latest()
        assert loaded == (1, {"applied_seq": 3, "x": [1.5, 2.5]})

    def test_prune_keeps_newest_generations(self, tmp_path):
        store = SnapshotStore(tmp_path, keep=2)
        for i in range(5):
            store.save({"i": i})
        assert store.generations() == [4, 5]

    def test_torn_newest_falls_back_to_previous(self, tmp_path):
        store = SnapshotStore(tmp_path, keep=3)
        store.save({"i": 1})
        store.save({"i": 2})
        newest = tmp_path / "snap-000000000002.json"
        raw = newest.read_bytes()
        newest.write_bytes(raw[: len(raw) // 2])  # torn write
        with pytest.warns(RuntimeWarning, match="unusable snapshot"):
            loaded = store.load_latest()
        assert loaded == (1, {"i": 1})

    def test_checksum_mismatch_detected(self, tmp_path):
        store = SnapshotStore(tmp_path)
        store.save({"i": 1})
        path = tmp_path / "snap-000000000001.json"
        env = json.loads(path.read_bytes())
        env["body"]["i"] = 999  # bit-rot without updating the digest
        path.write_text(json.dumps(env))
        with pytest.raises(ValueError, match="checksum"):
            store.load(1)

    def test_all_generations_corrupt_raises(self, tmp_path):
        store = SnapshotStore(tmp_path)
        store.save({"i": 1})
        (tmp_path / "snap-000000000001.json").write_text("garbage")
        with pytest.warns(RuntimeWarning):
            with pytest.raises(SnapshotError, match="none verified"):
                store.load_latest()

    def test_empty_store_returns_none(self, tmp_path):
        assert SnapshotStore(tmp_path).load_latest() is None

    def test_write_atomic_leaves_no_tmp_debris(self, tmp_path):
        target = tmp_path / "out.json"
        write_atomic(target, b"payload")
        assert target.read_bytes() == b"payload"
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
class TestTenantRegistry:
    def test_persists_across_reopen(self, tmp_path):
        reg = TenantRegistry(tmp_path)
        reg.add(TenantConfig(tenant_id="a", k=3, window=500, shards_rate=0.5))
        reg.add(TenantConfig(tenant_id="b"))
        reopened = TenantRegistry(tmp_path)
        assert [c.tenant_id for c in reopened.list()] == ["a", "b"]
        assert reopened.get("a").shards_rate == 0.5
        assert reopened.get("a").k == 3

    def test_duplicate_add_rejected(self, tmp_path):
        reg = TenantRegistry(tmp_path)
        reg.add(TenantConfig(tenant_id="a"))
        with pytest.raises(KeyError):
            reg.add(TenantConfig(tenant_id="a"))

    def test_remove(self, tmp_path):
        reg = TenantRegistry(tmp_path)
        reg.add(TenantConfig(tenant_id="a"))
        reg.remove("a")
        assert "a" not in reg
        assert len(TenantRegistry(tmp_path)) == 0

    @pytest.mark.parametrize("bad", ["", "a/b", "../up", "x" * 80, ".hidden"])
    def test_invalid_tenant_id_rejected(self, bad):
        with pytest.raises(ValueError, match="invalid tenant id"):
            TenantConfig(tenant_id=bad)

    def test_unknown_config_field_rejected(self):
        with pytest.raises(ValueError, match="unknown tenant config"):
            TenantConfig.from_dict({"tenant_id": "a", "bogus": 1})

    def test_shards_rate_validated(self):
        with pytest.raises(ValueError, match="shards_rate"):
            TenantConfig(tenant_id="a", shards_rate=1.5)


# ----------------------------------------------------------------------
# HTTP layer (stub supervisor: transport mapping only)
# ----------------------------------------------------------------------
def _call(app, method, path, body=None):
    raw = json.dumps(body).encode() if body is not None else b""
    path, _, query = path.partition("?")
    environ = {
        "REQUEST_METHOD": method,
        "PATH_INFO": path,
        "QUERY_STRING": query,
        "CONTENT_LENGTH": str(len(raw)),
        "wsgi.input": io.BytesIO(raw),
    }
    captured = {}

    def start_response(status, headers):
        captured["status"] = status
        captured["headers"] = dict(headers)

    payload = b"".join(app(environ, start_response))
    return int(captured["status"][:3]), captured["headers"], json.loads(payload)


class _StubSupervisor:
    """Duck-typed supervisor driving the Api's error mapping."""

    def __init__(self, registry):
        self.registry = registry

    def health(self):
        return {"tenants": {}}

    def add_tenant(self, config):
        self.registry.add(config)

    def remove_tenant(self, tenant_id):
        self.registry.remove(tenant_id)

    def ingest(self, tenant_id, keys, sizes=None):
        if tenant_id == "full":
            raise Backpressure(tenant_id, retry_after=2.5)
        if tenant_id not in self.registry:
            raise TenantUnavailable(tenant_id)
        return 7

    def query(self, tenant_id, max_size=None):
        if tenant_id not in self.registry:
            raise TenantUnavailable(tenant_id)
        return {"stale": False, "max_size": max_size}


class TestApi:
    @pytest.fixture
    def api(self, tmp_path):
        registry = TenantRegistry(tmp_path)
        registry.add(TenantConfig(tenant_id="t"))
        registry.add(TenantConfig(tenant_id="full"))
        return Api(_StubSupervisor(registry))

    def test_health(self, api):
        code, _, body = _call(api, "GET", "/health")
        assert code == 200 and body["status"] == "ok"

    def test_tenant_crud(self, api):
        code, _, body = _call(
            api, "POST", "/tenants", {"tenant_id": "new", "k": 3}
        )
        assert code == 201 and body["tenant"]["k"] == 3
        code, _, body = _call(api, "GET", "/tenants")
        assert {t["tenant_id"] for t in body["tenants"]} == {"t", "full", "new"}
        code, _, _ = _call(api, "DELETE", "/tenants/new")
        assert code == 200
        code, _, _ = _call(api, "DELETE", "/tenants/new")
        assert code == 404

    def test_duplicate_tenant_is_409(self, api):
        code, _, _ = _call(api, "POST", "/tenants", {"tenant_id": "t"})
        assert code == 409

    def test_bad_config_is_400(self, api):
        code, _, _ = _call(api, "POST", "/tenants", {"tenant_id": "bad/id"})
        assert code == 400

    def test_ingest_maps_backpressure_to_429(self, api):
        code, headers, body = _call(
            api, "POST", "/tenants/full/ingest", {"keys": [1, 2]}
        )
        assert code == 429
        assert headers["Retry-After"] == "2.5"
        assert body["retry_after"] == 2.5

    def test_ingest_unknown_tenant_is_404(self, api):
        code, _, _ = _call(api, "POST", "/tenants/nope/ingest", {"keys": [1]})
        assert code == 404

    def test_ingest_validates_body(self, api):
        code, _, _ = _call(api, "POST", "/tenants/t/ingest", {"keys": []})
        assert code == 400
        code, _, _ = _call(
            api, "POST", "/tenants/t/ingest", {"keys": [1, 2], "sizes": [1]}
        )
        assert code == 400

    def test_ingest_ok(self, api):
        code, _, body = _call(api, "POST", "/tenants/t/ingest", {"keys": [1]})
        assert code == 200 and body == {"seq": 7, "durable": True}

    def test_mrc_passes_max_size(self, api):
        code, _, body = _call(api, "GET", "/tenants/t/mrc?max_size=64")
        assert code == 200 and body["max_size"] == 64

    def test_unroutable_paths(self, api):
        assert _call(api, "GET", "/nope")[0] == 404
        assert _call(api, "PUT", "/tenants")[0] == 405
        assert _call(api, "GET", "/tenants/t")[0] == 405


_UNBUILDABLE = [
    {"strategy": "bogus"},
    {"k": 0},
    {"window": 0},
    {"sampling_rate": 2.0},
]


@pytest.mark.parametrize(
    "bad", _UNBUILDABLE, ids=[next(iter(bad)) for bad in _UNBUILDABLE]
)
class TestUnbuildableTenant:
    """A configuration no worker could build is refused before it is
    persisted or forked (on a supervisor that was never started, so no
    worker runs either way)."""

    @pytest.fixture
    def sup(self, tmp_path):
        registry = TenantRegistry(tmp_path)
        registry.add(TenantConfig(tenant_id="ok"))
        return Supervisor(registry, max_restarts=2, restart_backoff=0.05)

    def assert_unchanged(self, sup):
        assert [c.tenant_id for c in sup.registry.list()] == ["ok"]
        reopened = TenantRegistry(sup.registry.data_dir)
        assert reopened.list() == [TenantConfig(tenant_id="ok")]
        assert sup.health() == {"tenants": {}}
        assert not sup.registry.tenant_dir("bad").exists()

    def test_add_tenant_raises(self, sup, bad):
        with pytest.raises(ValueError):
            sup.add_tenant(TenantConfig(tenant_id="bad", **bad))
        self.assert_unchanged(sup)

    def test_post_tenants_is_400(self, sup, bad):
        code, _, body = _call(Api(sup), "POST", "/tenants", {"tenant_id": "bad", **bad})
        assert code == 400 and body["error"]
        self.assert_unchanged(sup)

    def test_registry_still_loads_such_an_entry(self, tmp_path, bad):
        """The check lives in the supervisor, not the config: a registry
        written before it still opens."""
        TenantRegistry(tmp_path).add(TenantConfig(tenant_id="bad", **bad))
        assert "bad" in TenantRegistry(tmp_path)


# ----------------------------------------------------------------------
# Real supervisor end to end (worker processes, degradation, 429)
# ----------------------------------------------------------------------
class TestSupervisorEndToEnd:
    def test_ingest_query_death_degradation_backpressure(self, tmp_path):
        registry = TenantRegistry(tmp_path)
        sup = Supervisor(
            registry,
            queue_depth=4,
            snapshot_every=2,
            snapshot_interval=60.0,
            watchdog_timeout=8.0,
            restart_backoff=30.0,  # stay down: we want the degraded path
            retry_after=0.5,
        )
        sup.start()
        try:
            sup.add_tenant(TenantConfig(tenant_id="t", k=4, window=2_000, seed=9))
            with pytest.raises(TenantUnavailable):
                sup.ingest("nope", [1])
            # Wait for a live answer, so the batches below reach the
            # worker through its queue, not a start-up WAL replay.
            deadline = time.monotonic() + 10
            while sup.query("t")["stale"]:
                assert time.monotonic() < deadline
                time.sleep(0.05)

            for b in range(4):
                sup.ingest("t", [i % 50 for i in range(b * 31, b * 31 + 100)])
            deadline = time.monotonic() + 10
            while True:
                live = sup.query("t")
                if not live["stale"] and live["counters"]["requests_seen"] == 400:
                    break
                assert time.monotonic() < deadline, live
                time.sleep(0.1)
            # A live answer can overtake the worker's "snapshotted" message;
            # wait until the supervisor has handled it, so a snapshot is on
            # disk before the worker dies.
            while sup.health()["tenants"]["t"]["applied_seq"] < 2:
                assert time.monotonic() < deadline
                time.sleep(0.05)

            # Kill the worker: queries must degrade to the snapshot, with
            # a staleness age, instead of erroring.
            t = sup._tenant("t")
            t.proc.terminate()
            t.proc.join(timeout=5)
            deadline = time.monotonic() + 10
            while True:
                stale = sup.query("t")
                if stale["stale"]:
                    break
                assert time.monotonic() < deadline
                time.sleep(0.05)
            assert stale["staleness_seconds"] is not None
            assert 0.0 <= stale["staleness_seconds"] < 60.0
            assert stale["applied_seq"] >= 2  # snapshot_every=2

            # Wait for the supervision tick to register the death (it
            # swaps in fresh queues and schedules the backed-off restart).
            deadline = time.monotonic() + 30
            while sup.health()["tenants"]["t"]["restarts"] < 1:
                assert time.monotonic() < deadline
                time.sleep(0.1)

            # With the worker down (long backoff), the bounded queue
            # fills and ingest turns into 429-shaped backpressure.
            with pytest.raises(Backpressure) as exc_info:
                for b in range(20):
                    sup.ingest("t", [b])
            assert exc_info.value.retry_after == 0.5
            health = sup.health()["tenants"]["t"]
            assert health["state"] == "restarting"
            assert health["restarts"] == 1
        finally:
            sup.stop(grace=5.0)

    def test_restarted_worker_snapshots_replayed_batches(
        self, tmp_path, monkeypatch
    ):
        import functools

        from repro.service import wal as wal_mod

        # One WAL segment per batch, so compaction deletes whole files.
        monkeypatch.setattr(
            wal_mod.TenantWAL,
            "__init__",
            functools.partialmethod(wal_mod.TenantWAL.__init__, segment_bytes=64),
        )
        registry = TenantRegistry(tmp_path)
        sup = Supervisor(registry, snapshot_interval=60.0, restart_backoff=0.1)
        sup.start()
        try:
            sup.add_tenant(TenantConfig(tenant_id="t", k=4, window=2_000, seed=3))
            for b in range(3):
                sup.ingest("t", [(i * 7) % 40 for i in range(b, b + 50)])
            deadline = time.monotonic() + 10
            while True:
                live = sup.query("t")
                if not live["stale"] and live["counters"]["requests_seen"] == 150:
                    break
                assert time.monotonic() < deadline, live
                time.sleep(0.05)
            root = registry.tenant_dir("t")
            assert SnapshotStore(root / "snapshots").generations() == []
            assert len(list((root / "wal").glob("wal-*.jsonl"))) == 3

            # The next worker generation reads the interval at spawn.  It
            # replays seqs 1-3 from the WAL, and nothing new arrives.
            interval = 1.0
            sup.snapshot_interval = interval
            t = sup._tenant("t")
            t.proc.kill()
            t.proc.join(timeout=5)
            killed = time.monotonic()
            while sup.health()["tenants"]["t"]["applied_seq"] < 3:
                assert time.monotonic() - killed < interval + 10.0
                time.sleep(0.05)
            loaded = SnapshotStore(root / "snapshots").load_latest()
            assert loaded is not None and loaded[1]["applied_seq"] == 3
            assert sup.health()["tenants"]["t"]["restarts"] == 1
            # Compacted through seq 3: only the append target is left.
            while len(list((root / "wal").glob("wal-*.jsonl"))) > 1:
                assert time.monotonic() - killed < interval + 10.0
                time.sleep(0.05)
            assert [p.name for p in (root / "wal").glob("wal-*.jsonl")] == [
                "wal-000000000003.jsonl"
            ]
        finally:
            sup.stop(grace=5.0)

    @staticmethod
    def _await_live(sup, tenant_id, requests_seen):
        deadline = time.monotonic() + 15
        while True:
            live = sup.query(tenant_id)
            if not live["stale"] and live["counters"]["requests_seen"] == requests_seen:
                return live
            assert time.monotonic() < deadline, live
            time.sleep(0.05)

    def test_unappliable_batch_is_refused_before_the_wal(self, tmp_path):
        # Once fsynced, a batch no worker can apply crashes every worker
        # that replays it, until the tenant fails for good.
        sup = Supervisor(
            TenantRegistry(tmp_path), snapshot_interval=60.0, restart_backoff=0.1
        )
        sup.start()
        try:
            sup.add_tenant(
                TenantConfig(tenant_id="t", k=4, window=2_000, track_sizes=True)
            )
            self._await_live(sup, "t", 0)
            for keys, sizes in (
                ([1, 2, 3], [10, -5, 7]),
                ([1, 2**64], None),
                ([-(2**63) - 1], None),
                ([1, 2], [10]),
            ):
                with pytest.raises(ValueError):
                    sup.ingest("t", keys, sizes)
            assert sup._tenant("t").wal.last_seq == 0
            sup.ingest("t", [1, 2, 3], [10, 5, 7])
            self._await_live(sup, "t", 3)
            health = sup.health()["tenants"]["t"]
            assert health["state"] == "running" and health["restarts"] == 0
        finally:
            sup.stop(grace=5.0)

    def test_large_batch_with_keys_above_2_63_is_applied_live(self, tmp_path):
        # A batch at the shared-memory threshold holding a key >= 2^63
        # must reach the live worker through its int64 column, not only
        # the WAL.
        config = TenantConfig(tenant_id="t", k=4, window=2_000, seed=3)
        sup = Supervisor(
            TenantRegistry(tmp_path), snapshot_interval=60.0, shm_threshold=8
        )
        sup.start()
        try:
            sup.add_tenant(config)
            self._await_live(sup, "t", 0)
            keys = [i % 5 for i in range(13)] + [2**63 + 5]
            assert sup.ingest("t", keys) == 1
            live = self._await_live(sup, "t", 14)
        finally:
            sup.stop(grace=5.0)
        oracle = config.build_model()
        oracle.access_many(keys)
        assert live["mrc"]["miss_ratios"] == [
            float(m) for m in oracle.mrc().miss_ratios
        ]

    def test_query_to_a_worker_that_dies_answers_stale_at_once(
        self, tmp_path, monkeypatch
    ):
        """A worker that dies on a query must not hold the caller for the
        whole watchdog: the stale answer comes back once the process it
        asked is gone."""
        latches = tmp_path / "faults"
        monkeypatch.setenv("REPRO_FAULTS", f"crash-once@query;state={latches}")
        registry = TenantRegistry(tmp_path / "data")
        sup = Supervisor(
            registry,
            watchdog_timeout=10.0,
            restart_backoff=30.0,
            snapshot_interval=60.0,
        )
        sup.start()
        try:
            sup.add_tenant(TenantConfig(tenant_id="t", seed=1))
            t0 = time.monotonic()
            answer = sup.query("t")
            elapsed = time.monotonic() - t0
            assert list(latches.iterdir()), "the worker never got the query"
            assert answer["stale"]
            assert elapsed < 3.0
        finally:
            sup.stop(grace=5.0)

    def test_query_without_any_snapshot_still_answers(self, tmp_path):
        registry = TenantRegistry(tmp_path)
        sup = Supervisor(registry, restart_backoff=30.0, snapshot_interval=60.0)
        sup.start()
        try:
            sup.add_tenant(TenantConfig(tenant_id="t", seed=1))
            t = sup._tenant("t")
            t.proc.terminate()
            t.proc.join(timeout=5)
            deadline = time.monotonic() + 10
            while True:
                r = sup.query("t")
                if r["stale"]:
                    break
                assert time.monotonic() < deadline
                time.sleep(0.05)
            assert r["staleness_seconds"] is None
            assert r["counters"]["requests_seen"] == 0
        finally:
            sup.stop(grace=5.0)

    def test_graceful_stop_snapshots_and_resumes_exactly(self, tmp_path):
        from repro.core.windowed import WindowedKRRModel

        registry = TenantRegistry(tmp_path)
        config = TenantConfig(tenant_id="t", k=4, window=1_000, seed=21)
        keys = [(i * 7919) % 120 for i in range(600)]

        sup = Supervisor(registry, snapshot_interval=60.0)
        sup.start()
        sup.add_tenant(config)
        sup.ingest("t", keys[:300])
        sup.stop(grace=10.0)  # workers snapshot on stop

        # A second daemon lifetime over the same data directory resumes
        # from the snapshot and continues bit-identically to a model
        # that never stopped.
        sup2 = Supervisor(TenantRegistry(tmp_path), snapshot_interval=60.0)
        sup2.start()
        try:
            sup2.ingest("t", keys[300:])
            deadline = time.monotonic() + 15
            while True:
                r = sup2.query("t")
                if not r["stale"] and r["counters"]["requests_seen"] == 600:
                    break
                assert time.monotonic() < deadline, r
                time.sleep(0.1)
        finally:
            sup2.stop(grace=10.0)

        oracle = config.build_model()
        oracle.access_many(keys)
        assert r["counters"] == oracle.counters()
        curve = oracle.mrc()
        assert r["mrc"]["sizes"] == [float(s) for s in curve.sizes]
        assert r["mrc"]["miss_ratios"] == [float(m) for m in curve.miss_ratios]


# ----------------------------------------------------------------------
# Worker start-up
# ----------------------------------------------------------------------
def _prologue_then_wait() -> None:
    _worker_signals()
    time.sleep(30)


def test_terminate_right_after_start_always_kills():
    """A worker terminated before its prologue has run must still die.

    The parent holds a Python-level SIGTERM handler, as ``repro serve``
    always does.  Without SIGTERM blocked across the fork, a signal that
    reached the child before the prologue reset SIGTERM was lost and the
    child ran on; this loop then fails at its first child.  One child at
    a time.
    """
    import multiprocessing
    import signal

    ctx = multiprocessing.get_context("fork")
    prev = signal.signal(signal.SIGTERM, lambda signum, frame: None)
    try:
        for i in range(200):
            proc = ctx.Process(target=_prologue_then_wait, daemon=True)
            _start_with_sigterm_blocked(proc)
            proc.terminate()
            proc.join(timeout=5)
            if proc.is_alive():
                proc.kill()
                proc.join(timeout=5)
                pytest.fail(f"child {i} survived terminate()")
            assert proc.exitcode == -signal.SIGTERM
        assert signal.SIGTERM not in signal.pthread_sigmask(signal.SIG_BLOCK, [])
    finally:
        signal.signal(signal.SIGTERM, prev)
