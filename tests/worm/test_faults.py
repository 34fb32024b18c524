"""Crash-safety suite: recovery under exhaustive fault injection.

The invariant under test, for *every* registered injection point: after
a torn write, failed journal I/O, or simulated crash anywhere in a
scripted workload, reopen-and-replay yields exactly the state produced
by some prefix of the committed operations — never a ``struct.error``,
divergent in-memory state, or a false ``TamperDetectedError``.
"""

import os
import shutil

import pytest

from repro.worm.device import WormDevice
from repro.worm.faults import (
    CRASH_POINTS,
    JOURNAL_OPS,
    FaultInjectingWormDevice,
    FaultPlan,
    InjectedFaultError,
    SimulatedCrashError,
    tear_journal,
)
from repro.worm.persistent import JournaledWormDevice, scan_journal
from tests.helpers import device_state

BLOCK_SIZE = 128
LARGE_BLOCK_SIZE = 1 << 17
LARGE_PAYLOAD = b"L" * 70000  # would overflow a v1 u16 record length


def workload_ops(large=False):
    """A scripted workload covering every opcode (one journal record each)."""
    mid = LARGE_PAYLOAD if large else b"beta"
    return [
        lambda d: d.create_file("a", slot_count=2),
        lambda d: d.open_file("a").append_record(b"alpha"),
        lambda d: d.create_file("tmp", retention_until=10.0),
        lambda d: d.open_file("a").set_slot(0, 0, 7),
        lambda d: d.open_file("a").append_record(mid),
        lambda d: d.open_file("tmp").append_record(b"gone"),
        lambda d: d.open_file("a").set_slot(0, 1, 9),
        lambda d: d.delete_file("tmp", now=20.0),
        lambda d: d.open_file("a").append_record(b"tail"),
    ]


def model_snapshots(large=False):
    """``snapshots[k]`` = state after the first ``k`` ops, on a plain device."""
    block_size = LARGE_BLOCK_SIZE if large else BLOCK_SIZE
    model = WormDevice(block_size=block_size)
    snapshots = [device_state(model)]
    for op in workload_ops(large):
        op(model)
        snapshots.append(device_state(model))
    return snapshots


def run_workload(device, large=False):
    """Apply ops until one raises; returns the count that completed."""
    done = 0
    for op in workload_ops(large):
        op(device)
        done += 1
    return done


def assert_consistent_prefix(path, snapshots, *, at_least=0):
    """Reopen ``path``; its state must equal a committed-prefix snapshot."""
    report = scan_journal(path)
    assert report.ok, f"false tamper alarm after fault: {report.error}"
    recovered = JournaledWormDevice(path)
    seq = recovered._sequence
    assert at_least <= seq <= len(snapshots) - 1
    assert device_state(recovered) == snapshots[seq]
    recovered.close()
    return seq


def count_calls(tmp_path, *, large=False, fsync=True, group_commit=1):
    """Dry-run the workload; the plan's counters enumerate fault points."""
    plan = FaultPlan()
    device = FaultInjectingWormDevice(
        str(tmp_path / "dry.worm"),
        plan=plan,
        block_size=LARGE_BLOCK_SIZE if large else BLOCK_SIZE,
        fsync=fsync,
        group_commit=group_commit,
    )
    run_workload(device, large)
    device.close()
    return dict(plan.counts)


class TestTearEveryByteBoundary:
    def test_replay_after_tear_at_every_boundary(self, tmp_path):
        """Truncate the journal at every byte; replay must always yield a
        consistent committed prefix and leave the device usable."""
        source = str(tmp_path / "clean.worm")
        device = JournaledWormDevice(source, block_size=BLOCK_SIZE)
        run_workload(device)
        device.close()
        snapshots = model_snapshots()
        size = os.path.getsize(source)
        torn = str(tmp_path / "torn.worm")
        seqs = []
        for boundary in range(size + 1):
            shutil.copy(source, torn)
            tear_journal(torn, boundary)
            seqs.append(assert_consistent_prefix(torn, snapshots))
        # Tears sweep monotonically through every commit point.
        assert seqs[0] == 0
        assert seqs[-1] == len(workload_ops())
        assert sorted(set(seqs)) == list(range(len(workload_ops()) + 1))

    def test_torn_journal_accepts_new_appends(self, tmp_path):
        source = str(tmp_path / "clean.worm")
        device = JournaledWormDevice(source, block_size=BLOCK_SIZE)
        run_workload(device)
        device.close()
        size = os.path.getsize(source)
        torn = str(tmp_path / "torn.worm")
        for boundary in range(10, size, max(1, size // 8)):
            shutil.copy(source, torn)
            tear_journal(torn, boundary)
            recovered = JournaledWormDevice(torn, block_size=BLOCK_SIZE)
            if recovered.exists("a"):
                recovered.open_file("a").append_record(b"+")
                total = recovered.open_file("a").total_bytes()
                recovered.close()
                reopened = JournaledWormDevice(torn)
                assert reopened.open_file("a").total_bytes() == total
                reopened.close()
            else:
                recovered.close()

    def test_large_append_torn_at_key_boundaries(self, tmp_path):
        """Tears inside a 70 KiB append frame (spanning the old u16 limit)."""
        source = str(tmp_path / "large.worm")
        device = JournaledWormDevice(source, block_size=LARGE_BLOCK_SIZE)
        run_workload(device, large=True)
        device.close()
        snapshots = model_snapshots(large=True)
        size = os.path.getsize(source)
        boundaries = sorted(
            {0, 1, 8, 9, 17, size // 3, size // 2, 65535, 65536, 70000,
             size - 1, size}
        )
        torn = str(tmp_path / "torn.worm")
        for boundary in boundaries:
            shutil.copy(source, torn)
            tear_journal(torn, boundary)
            assert_consistent_prefix(torn, snapshots)
        # An untorn journal replays the whole workload, 70 KiB append included.
        shutil.copy(source, torn)
        recovered = JournaledWormDevice(torn)
        # Block 0 holds b"alpha" at offset 0, then the 70 KiB payload.
        assert recovered.open_file("a").read(0, 5, len(LARGE_PAYLOAD)) == LARGE_PAYLOAD
        recovered.close()


def _fault_cases():
    """(journal op, 1-based call index) for every call the workload makes.

    Counts are fixed by the workload shape: the magic stamp is write and
    flush call #1, then one write/flush/fsync per record (fsync=True,
    group_commit=1), so record N rides call N+1 (fsync: call N).
    """
    records = len(workload_ops())
    cases = []
    for call in range(1, records + 2):  # +1 for the magic stamp
        cases.append(("write", call))
        cases.append(("flush", call))
    for call in range(1, records + 1):
        cases.append(("fsync", call))
    return cases


class TestFailEveryJournalCall:
    def test_registry_matches_workload(self, tmp_path):
        counts = count_calls(tmp_path)
        records = len(workload_ops())
        assert counts["write"] == records + 1  # + magic stamp
        assert counts["flush"] == records + 1
        assert counts["fsync"] == records
        assert set(counts) <= set(JOURNAL_OPS) | set(CRASH_POINTS)

    @pytest.mark.parametrize(("op", "call"), _fault_cases())
    def test_injected_failure_rolls_back_and_recovers(self, tmp_path, op, call):
        """A failed write/flush/fsync aborts the op, leaves memory and
        journal in agreement, and the device keeps working."""
        path = str(tmp_path / "j.worm")
        plan = FaultPlan().fail(op, on_call=call, keep_bytes=3 if op == "write" else None)
        snapshots = model_snapshots()
        try:
            device = FaultInjectingWormDevice(
                path, plan=plan, block_size=BLOCK_SIZE, fsync=True
            )
        except InjectedFaultError:
            # Failed while stamping the magic of the new journal.
            assert (op, call) in {("write", 1), ("flush", 1)}
            return
        with pytest.raises(InjectedFaultError):
            run_workload(device)
        # Live memory equals some committed prefix...
        live = device_state(device)
        assert live in snapshots
        completed = snapshots.index(live)
        # ...and the journal agrees with memory exactly (no divergence).
        device.close()
        seq = assert_consistent_prefix(path, snapshots, at_least=completed)
        assert seq == completed

    @pytest.mark.parametrize("keep_bytes", [0, 1, 4, 9, 20])
    def test_torn_write_is_rolled_back_in_process(self, tmp_path, keep_bytes):
        path = str(tmp_path / "j.worm")
        plan = FaultPlan().fail("write", on_call=3, keep_bytes=keep_bytes)
        device = FaultInjectingWormDevice(path, plan=plan, block_size=BLOCK_SIZE)
        f = device.create_file("a", slot_count=2)
        with pytest.raises(InjectedFaultError):
            f.append_record(b"alpha")
        # Rollback scrubbed the partial frame: the append can be retried.
        f.append_record(b"alpha")
        device.close()
        recovered = JournaledWormDevice(path)
        assert recovered.open_file("a").read(0) == b"alpha"
        recovered.close()


class TestCrashEverywhere:
    @pytest.mark.parametrize("point", CRASH_POINTS)
    def test_crash_at_every_wal_stage(self, tmp_path, point):
        """Power loss between logging and applying (or just after
        applying) any op recovers to the logged prefix on replay."""
        path = str(tmp_path / "j.worm")
        device = FaultInjectingWormDevice(
            path, plan=FaultPlan().crash(point), block_size=BLOCK_SIZE
        )
        snapshots = model_snapshots()
        with pytest.raises(SimulatedCrashError):
            run_workload(device)
        applied = snapshots.index(device_state(device))
        # The crashed op was journaled before either crash point fires,
        # so replay recovers it even when live memory never applied it.
        seq = assert_consistent_prefix(path, snapshots, at_least=1)
        if point.endswith("between-log-and-apply"):
            assert seq == applied + 1
        else:
            assert seq == applied

    @pytest.mark.parametrize("call", range(2, len(workload_ops()) + 2))
    @pytest.mark.parametrize("keep_bytes", [0, 1, 5, 9, 16])
    def test_crash_mid_write_leaves_torn_recoverable_tail(
        self, tmp_path, call, keep_bytes
    ):
        """Power loss part-way through any record write: the torn frame
        stays on disk and replay discards exactly it."""
        path = str(tmp_path / "j.worm")
        plan = FaultPlan().crash("write", on_call=call, keep_bytes=keep_bytes)
        device = FaultInjectingWormDevice(path, plan=plan, block_size=BLOCK_SIZE)
        snapshots = model_snapshots()
        with pytest.raises(SimulatedCrashError):
            run_workload(device)
        if keep_bytes:
            assert os.path.getsize(path) > 0
        # Record N rides write call N+1 (call 1 stamps the magic), so all
        # records before the torn one are committed.
        seq = assert_consistent_prefix(path, snapshots)
        assert seq == call - 2

    def test_device_is_dead_after_crash(self, tmp_path):
        path = str(tmp_path / "j.worm")
        plan = FaultPlan().crash("append:between-log-and-apply")
        device = FaultInjectingWormDevice(path, plan=plan, block_size=BLOCK_SIZE)
        device.create_file("a")
        with pytest.raises(SimulatedCrashError):
            device.open_file("a").append_record(b"x")
        with pytest.raises(SimulatedCrashError):
            device.create_file("b")

    def test_crash_during_large_append_write(self, tmp_path):
        """Tear a 70 KiB append frame at the old u16 horizon: recovery
        must not mis-frame it (the v1 bug class)."""
        path = str(tmp_path / "j.worm")
        # The 70 KiB append is record 5, i.e. journal write call 6.
        plan = FaultPlan().crash("write", on_call=6, keep_bytes=65537)
        device = FaultInjectingWormDevice(
            path, plan=plan, block_size=LARGE_BLOCK_SIZE
        )
        snapshots = model_snapshots(large=True)
        with pytest.raises(SimulatedCrashError):
            run_workload(device, large=True)
        seq = assert_consistent_prefix(path, snapshots)
        assert seq == 4  # everything before the torn large append


class TestShardJournals:
    """The same crash-safety guarantees across a sharded archive."""

    def _build(self, tmp_path, shard_plans):
        from repro.search.engine import EngineConfig
        from repro.sharding.engine import ShardedSearchEngine
        from repro.worm.storage import CachedWormStore

        config = EngineConfig(num_lists=8, branching=4, block_size=512)
        devices = []

        def store_factory(shard_id):
            device = FaultInjectingWormDevice(
                str(tmp_path / f"shard{shard_id:02d}.worm"),
                plan=shard_plans.get(shard_id, FaultPlan()),
                block_size=512,
            )
            devices.append(device)
            return CachedWormStore(None, device=device)

        coordinator_device = JournaledWormDevice(
            str(tmp_path / "coordinator.worm"), block_size=512
        )
        engine = ShardedSearchEngine(
            config,
            num_shards=2,
            store_factory=store_factory,
            coordinator_store=CachedWormStore(None, device=coordinator_device),
        )
        return config, engine, devices + [coordinator_device]

    def _reopen(self, tmp_path, config):
        from repro.sharding.engine import ShardedSearchEngine
        from repro.worm.storage import CachedWormStore

        def store_factory(shard_id):
            return CachedWormStore(
                None,
                device=JournaledWormDevice(
                    str(tmp_path / f"shard{shard_id:02d}.worm")
                ),
            )

        return ShardedSearchEngine(
            config,
            num_shards=2,
            store_factory=store_factory,
            coordinator_store=CachedWormStore(
                None,
                device=JournaledWormDevice(str(tmp_path / "coordinator.worm")),
            ),
        )

    @pytest.mark.parametrize(
        ("shard", "point", "on_call"),
        [
            (1, "append:between-log-and-apply", 40),
            (1, "create:after-apply", 20),
            (0, "set_slot:after-apply", 1),
        ],
    )
    def test_shard_crash_recovers_committed_documents(
        self, tmp_path, shard, point, on_call
    ):
        plan = FaultPlan().crash(point, on_call=on_call)
        config, engine, devices = self._build(tmp_path, {shard: plan})
        committed = 0
        try:
            for i in range(60):
                engine.index_document(f"memo d{i} keyword{i}")
                committed += 1
        except SimulatedCrashError:
            pass
        assert committed < 60, "the shard fault never fired"
        engine.close()
        for device in devices:
            if not getattr(device, "plan", None) or not device.plan.crashed:
                device.close()
        # Every journal replays clean — no false tamper alarms.
        for shard_id in range(2):
            assert scan_journal(
                str(tmp_path / f"shard{shard_id:02d}.worm")
            ).ok
        assert scan_journal(str(tmp_path / "coordinator.worm")).ok
        # Every fully committed document is still found after recovery.
        recovered = self._reopen(tmp_path, config)
        with recovered:
            for i in range(committed):
                hits = recovered.search(f"keyword{i}", verify=False)
                assert any(h.doc_id == i for h in hits), f"doc {i} lost"

    def test_sync_barrier_spans_all_shard_journals(self, tmp_path):
        plans = {0: FaultPlan(), 1: FaultPlan()}
        config, engine, devices = self._build(tmp_path, plans)
        for device in devices[:2]:
            device.fsync = True
            device.group_commit = 1 << 30  # never auto-fsync
        for i in range(10):
            engine.index_document(f"doc {i}")
        before = [plans[s].count("fsync") for s in range(2)]
        engine.sync()
        after = [plans[s].count("fsync") for s in range(2)]
        assert after == [b + 1 for b in before]
        engine.close()
        for device in devices:
            device.close()


class TestGroupCommit:
    def _appends(self, tmp_path, *, group_commit, records):
        plan = FaultPlan()
        device = FaultInjectingWormDevice(
            str(tmp_path / "j.worm"),
            plan=plan,
            block_size=BLOCK_SIZE,
            fsync=True,
            group_commit=group_commit,
        )
        f = device.create_file("a")
        for i in range(records - 1):  # the create is record #1
            f.append_record(b"r")
        return plan, device

    def test_fsync_every_record_by_default(self, tmp_path):
        plan, device = self._appends(tmp_path, group_commit=1, records=12)
        assert plan.count("fsync") == 12
        device.close()
        assert plan.count("fsync") == 12  # nothing pending at close

    def test_group_commit_amortizes_fsync(self, tmp_path):
        plan, device = self._appends(tmp_path, group_commit=4, records=12)
        assert plan.count("fsync") == 3  # after records 4, 8, 12
        device.close()
        assert plan.count("fsync") == 3

    def test_close_syncs_the_open_tail_group(self, tmp_path):
        plan, device = self._appends(tmp_path, group_commit=5, records=12)
        assert plan.count("fsync") == 2  # records 5 and 10; 2 pending
        device.close()
        assert plan.count("fsync") == 3

    def test_explicit_sync_barrier(self, tmp_path):
        plan, device = self._appends(tmp_path, group_commit=100, records=6)
        assert plan.count("fsync") == 0
        device.sync()
        assert plan.count("fsync") == 1
        device.open_file("a").append_record(b"x")
        assert plan.count("fsync") == 1  # group restarted after barrier
        device.close()
        assert plan.count("fsync") == 2

    def test_sync_works_without_fsync_mode(self, tmp_path):
        plan = FaultPlan()
        device = FaultInjectingWormDevice(
            str(tmp_path / "j.worm"), plan=plan, block_size=BLOCK_SIZE
        )
        device.create_file("a")
        device.sync()  # explicit barrier fsyncs even with fsync=False
        assert plan.count("fsync") == 1
        device.close()

    def test_crash_loses_at_most_the_unsynced_group(self, tmp_path):
        plan = FaultPlan().crash("write", on_call=9)
        device = FaultInjectingWormDevice(
            str(tmp_path / "j.worm"),
            plan=plan,
            block_size=BLOCK_SIZE,
            fsync=True,
            group_commit=4,
        )
        f = device.create_file("a")
        with pytest.raises(SimulatedCrashError):
            for i in range(20):
                f.append_record(b"r%d" % i)
        recovered = JournaledWormDevice(str(tmp_path / "j.worm"))
        # Records 1..7 (create + 6 appends) were written; the 8th append
        # tore.  Everything on disk before the tear replays.
        assert recovered.open_file("a").total_bytes() == 12
        recovered.close()

    def test_group_commit_validation(self, tmp_path):
        with pytest.raises(ValueError):
            JournaledWormDevice(str(tmp_path / "j.worm"), group_commit=0)
