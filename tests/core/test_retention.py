"""Unit tests for retention horizons and trustworthy disposition."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.retention import RetentionManager
from repro.errors import TamperDetectedError, WorkloadError, WormViolationError
from repro.search.documents import DocumentStore
from repro.search.engine import EngineConfig, TrustworthySearchEngine
from repro.worm.faults import (
    FaultInjectingWormDevice,
    FaultPlan,
    SimulatedCrashError,
)
from repro.worm.persistent import JournaledWormDevice
from repro.worm.storage import CachedWormStore


def make_engine(retention_period=10):
    return TrustworthySearchEngine(
        EngineConfig(
            num_lists=16,
            branching=None,
            block_size=512,
            retention_period=retention_period,
        )
    )


class TestHorizons:
    def test_document_cannot_be_deleted_early(self):
        engine = make_engine(retention_period=10)
        doc_id = engine.index_document("keep me", commit_time=0)
        name = engine.documents.file_name(doc_id)
        with pytest.raises(WormViolationError):
            engine.store.device.delete_file(name, now=5)

    def test_dispose_expired_removes_and_logs(self):
        engine = make_engine(retention_period=10)
        engine.index_document("old record", commit_time=0)
        engine.index_document("new record", commit_time=8)
        disposed = engine.dispose_expired(now=12)
        assert disposed == [0]
        assert not engine.documents.exists(0)
        assert engine.documents.exists(1)
        record = engine.retention.disposition_for(0)
        assert record.retention_until == 10
        assert record.disposed_at == 12

    def test_dispose_is_idempotent(self):
        engine = make_engine(retention_period=5)
        engine.index_document("old", commit_time=0)
        assert engine.dispose_expired(now=100) == [0]
        assert engine.dispose_expired(now=200) == []

    def test_permanent_documents_never_disposed(self):
        engine = make_engine(retention_period=None)
        engine.index_document("forever", commit_time=0)
        assert engine.dispose_expired(now=10**9) == []
        assert engine.documents.exists(0)


class TestQueryBehaviour:
    def test_disposed_docs_leave_results(self):
        engine = make_engine(retention_period=10)
        engine.index_document("imclone old memo", commit_time=0)
        engine.index_document("imclone current memo", commit_time=8)
        assert {r.doc_id for r in engine.search("imclone")} == {0, 1}
        engine.dispose_expired(now=12)
        assert {r.doc_id for r in engine.search("imclone")} == {1}

    def test_disposed_docs_pass_verification(self):
        """A disposed doc's dangling posting is not stuffing."""
        engine = make_engine(retention_period=10)
        engine.index_document("imclone old memo", commit_time=0)
        engine.dispose_expired(now=50)
        report = engine.verify_results([0], "imclone")
        assert report.ok

    def test_fabricated_ids_still_flagged(self):
        engine = make_engine(retention_period=10)
        engine.index_document("imclone memo", commit_time=0)
        engine.dispose_expired(now=50)
        report = engine.verify_results([0, 999], "imclone")
        assert not report.ok  # 999 has no disposition record
        assert engine.retention.classify_dangling(0) == "disposed"
        assert engine.retention.classify_dangling(999) == "fabricated"


class TestDisposedColumn:
    """The query filter's column of disposed IDs names exactly the IDs
    :meth:`RetentionManager.is_disposed` does, after every sweep and
    after a reopen."""

    @given(
        horizons=st.lists(st.integers(1, 30), min_size=1, max_size=30),
        sweeps=st.lists(st.integers(0, 40), max_size=4),
    )
    @settings(max_examples=40, deadline=None)
    def test_column_matches_is_disposed(self, horizons, sweeps):
        store = CachedWormStore(None, block_size=256)
        docs = DocumentStore(store)
        retention = RetentionManager(store)
        for doc_id, horizon in enumerate(horizons):
            docs.commit("text", commit_time=doc_id, retention_until=horizon)
        for now in sorted(sweeps):
            retention.dispose_expired(docs, now=now)
            column = retention.disposed_ids().tolist()
            assert column == sorted(column)
            ids = range(len(horizons) + 2)
            assert [i in column for i in ids] == [retention.is_disposed(i) for i in ids]
        reopened = RetentionManager(store)
        assert reopened.disposed_ids().tolist() == retention.disposed_ids().tolist()


class TestLogIntegrity:
    def test_log_survives_reopen(self):
        engine = make_engine(retention_period=5)
        engine.index_document("old", commit_time=0)
        engine.dispose_expired(now=20)
        reopened = RetentionManager(engine.store, log_name="engine/dispositions")
        assert reopened.is_disposed(0)
        assert len(reopened) == 1

    def test_forged_early_disposition_detected(self, store):
        """A disposition claiming to predate the horizon is tampering."""
        import struct

        manager = RetentionManager(store, log_name="d")
        store.append_record("d", struct.pack("<IQQ", 3, 100, 50))
        with pytest.raises(TamperDetectedError) as excinfo:
            list(manager.dispositions())
        assert excinfo.value.invariant == "retention-horizon"

    def test_bytes_appended_to_the_log_are_tampering(self):
        """Anyone can append to the WORM log: a partial record makes every
        search on the reopened engine raise, typed."""
        engine = make_engine(retention_period=5)
        engine.index_batch(["imclone old memo", "imclone older memo"], commit_times=[0, 1])
        assert engine.dispose_expired(now=20) == [0, 1]
        engine.store.append_record("engine/dispositions", b"\x01\x02\x03")
        reopened = TrustworthySearchEngine(engine.config, store=engine.store)
        with pytest.raises(TamperDetectedError) as excinfo:
            reopened.search("imclone")
        assert excinfo.value.invariant == "disposition-record-size"
        assert "engine/dispositions" in excinfo.value.location


class TestSweepEfficiency:
    """The sweep must not re-read WORM state it has already learned."""

    def test_repeat_sweeps_reuse_cached_horizons(self, monkeypatch):
        engine = make_engine(retention_period=100)
        for i in range(5):
            engine.index_document(f"record {i}", commit_time=i)
        opens = []
        original = engine.store.open_file
        monkeypatch.setattr(
            engine.store,
            "open_file",
            lambda name: (opens.append(name), original(name))[1],
        )
        assert engine.dispose_expired(now=10) == []
        first_sweep = len(opens)
        assert first_sweep == 5  # one horizon read per document
        assert engine.dispose_expired(now=20) == []
        assert len(opens) == first_sweep  # cache hit: no WORM re-opens

    def test_disposed_ids_skipped_without_worm_reads(self, monkeypatch):
        engine = make_engine(retention_period=5)
        engine.index_document("old", commit_time=0)
        assert engine.dispose_expired(now=100) == [0]

        def explode(name):
            raise AssertionError(f"sweep reopened {name}")

        monkeypatch.setattr(engine.store, "open_file", explode)
        assert engine.dispose_expired(now=200) == []

    def test_public_file_name_matches_legacy_alias(self):
        engine = make_engine()
        doc_id = engine.index_document("named", commit_time=0)
        assert engine.store.device.exists(engine.documents.file_name(doc_id))


class TestCrashRecovery:
    """Disposition is log-then-delete; a crash between the two must be
    completed by the next sweep, not skipped forever."""

    CONFIG = EngineConfig(
        num_lists=16, branching=None, block_size=512, retention_period=10
    )

    def test_crash_between_log_and_delete_completes_on_next_sweep(
        self, tmp_path
    ):
        path = str(tmp_path / "arch.worm")
        device = JournaledWormDevice(path, block_size=512)
        engine = TrustworthySearchEngine(
            self.CONFIG, store=CachedWormStore(None, device=device)
        )
        engine.index_document("old record", commit_time=0)
        device.close()

        # Reopen under fault injection and crash right after the
        # disposition-log append applies — the document deletion that
        # should follow never runs (power loss between _log and
        # delete_file).
        plan = FaultPlan()
        device = FaultInjectingWormDevice(path, plan=plan, block_size=512)
        engine = TrustworthySearchEngine(
            self.CONFIG, store=CachedWormStore(None, device=device)
        )
        plan.crash("append:after-apply", on_call=1)
        with pytest.raises(SimulatedCrashError):
            engine.dispose_expired(now=50)

        # Recovery: the log committed, the file survived.
        device = JournaledWormDevice(path, block_size=512)
        engine = TrustworthySearchEngine(
            self.CONFIG, store=CachedWormStore(None, device=device)
        )
        assert engine.retention.is_disposed(0)
        assert engine.documents.exists(0)
        # The next sweep must complete the interrupted disposition.
        assert engine.dispose_expired(now=50) == [0]
        assert not engine.documents.exists(0)
        # ... and stay idempotent afterwards.
        assert engine.dispose_expired(now=60) == []
        device.close()

    def test_premature_rerun_defers_completion(self):
        """A re-run *before* the logged horizon leaves the file alone
        (the WORM device would refuse the deletion) and a later sweep
        finishes the job."""
        store = CachedWormStore(None, block_size=512)
        docs = DocumentStore(store)
        docs.commit("interrupted", commit_time=0, retention_until=10)
        manager = RetentionManager(store)
        # Simulate the crashed sweep's surviving state: record logged,
        # file still present.
        manager._log(0, 10, 20)
        assert manager.dispose_expired(docs, now=5) == []
        assert docs.exists(0)
        assert manager.dispose_expired(docs, now=20) == [0]
        assert not docs.exists(0)


class TestFractionalHorizons:
    """The disposition log packs integer horizons; fractional horizons
    must be rejected at commit, and legacy ones rounded *up* in the log
    so the replay tamper check stays sufficient."""

    def test_commit_rejects_fractional_horizon(self, store):
        docs = DocumentStore(store)
        with pytest.raises(WorkloadError):
            docs.commit("x", commit_time=0, retention_until=100.7)
        assert docs.next_doc_id == 0  # nothing was committed
        assert docs.commit("x", commit_time=0, retention_until=100.0) == 0

    def test_legacy_fractional_horizon_rounds_up_in_log(self, store):
        # A legacy archive may hold a fractional horizon committed
        # before commit-time validation existed; build one directly.
        docs = DocumentStore(store)
        legacy = store.device.create_file(
            docs.file_name(0), retention_until=100.7
        )
        legacy.append_record(b"legacy record")
        docs.restore([0], [0])
        manager = RetentionManager(store)
        # Every sweep at or before the true horizon refuses to dispose:
        # truncation would have opened a one-unit window here.
        for now in range(95, 101):
            assert manager.dispose_expired(docs, now=now) == []
        assert manager.dispose_expired(docs, now=101) == [0]
        record = manager.disposition_for(0)
        assert record.retention_until == 101  # ceil(100.7), not int()
        assert record.disposed_at >= 100.7
        # The logged pair still satisfies the replay invariant.
        assert [d.doc_id for d in manager.dispositions()] == [0]

    def test_boundary_record_below_ceiled_horizon_is_tampering(self, store):
        """A record claiming disposal inside the fractional boundary —
        possible output of the old truncating packer — is classified as
        tampering on replay once horizons are ceiled."""
        import struct

        manager = RetentionManager(store, log_name="d")
        # True horizon 100.7 ceils to 101; a disposal stamped 100 sits
        # inside the retention window.
        store.append_record("d", struct.pack("<IQQ", 0, 101, 100))
        with pytest.raises(TamperDetectedError) as excinfo:
            list(manager.dispositions())
        assert excinfo.value.invariant == "retention-horizon"
