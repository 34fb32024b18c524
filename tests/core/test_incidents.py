"""Unit tests for the incident log (the paper's future work, implemented)."""

import pytest

from repro.core.incidents import IncidentLog
from repro.errors import TamperDetectedError


@pytest.fixture()
def log(store):
    return IncidentLog(store, "incidents")


class TestRecording:
    def test_sequencing(self, log):
        a = log.record("tamper", description="first")
        b = log.record("stuffing", description="second")
        assert (a.seq, b.seq) == (0, 1)
        assert len(log) == 2

    def test_roundtrip(self, log):
        log.record(
            "stuffing",
            location="posting list 'x'",
            invariant="result-document-consistency",
            description="3 fabricated postings",
            quarantine_doc_ids=[9, 7],
        )
        incidents = list(log.incidents())
        assert len(incidents) == 1
        incident = incidents[0]
        assert incident.kind == "stuffing"
        assert incident.location == "posting list 'x'"
        assert incident.quarantined_doc_ids == (7, 9)

    def test_record_exception(self, log):
        exc = TamperDetectedError(
            "bad pointer", location="block 3", invariant="jump-monotonicity"
        )
        incident = log.record_exception(exc)
        assert incident.invariant == "jump-monotonicity"
        assert incident.location == "block 3"

    def test_long_description_truncated_to_fit_block(self, log):
        log.record("tamper", description="x" * 10_000)
        assert list(log.incidents())  # still parseable

    def test_many_records_span_blocks(self, log):
        for i in range(50):
            log.record("tamper", description=f"incident {i}")
        assert [i.seq for i in log.incidents()] == list(range(50))


class TestQuarantine:
    def test_quarantine_membership(self, log):
        log.record("stuffing", quarantine_doc_ids=[4, 5])
        assert log.is_quarantined(4)
        assert not log.is_quarantined(3)
        assert log.quarantined_doc_ids == {4, 5}

    def test_quarantine_accumulates(self, log):
        log.record("stuffing", quarantine_doc_ids=[1])
        log.record("stuffing", quarantine_doc_ids=[2])
        assert log.quarantined_doc_ids == {1, 2}


class TestDurability:
    def test_reopen_restores_state(self, store):
        log = IncidentLog(store, "i")
        log.record("stuffing", quarantine_doc_ids=[11])
        log.record("tamper")
        reopened = IncidentLog(store, "i")
        assert len(reopened) == 2
        assert reopened.is_quarantined(11)
        # And sequencing continues where it left off.
        assert reopened.record("tamper").seq == 2

    def test_log_lives_on_worm(self, store):
        from repro.errors import FileExistsOnWormError

        IncidentLog(store, "i").record("tamper")
        with pytest.raises(FileExistsOnWormError):
            store.create_file("i")  # cannot be replaced


class TestEngineIntegration:
    def _stuffed_engine(self):
        from repro.adversary.attacks import posting_stuffing_attack
        from repro.search.engine import EngineConfig, TrustworthySearchEngine

        engine = TrustworthySearchEngine(EngineConfig(num_lists=16, branching=4))
        engine.index_document("imclone memo for stewart")
        engine.index_document("meeting about imclone results")
        tid = engine.term_id("imclone")
        posting_stuffing_attack(
            engine.posting_list_for("imclone")[0], tid, count=4
        )
        return engine

    def test_stuffing_quarantined_then_clean(self):
        engine = self._stuffed_engine()
        results, report = engine.search_with_incident_handling("imclone")
        assert not report.ok                       # the attack was caught
        assert {r.doc_id for r in results} == {0, 1}  # fakes excluded
        assert len(engine.incidents) == 1
        # Second query: quarantine already applies, verification is clean.
        results2, report2 = engine.search_with_incident_handling("imclone")
        assert report2.ok
        assert {r.doc_id for r in results2} == {0, 1}
        assert len(engine.incidents) == 1  # no duplicate incident

    def test_clean_engine_records_nothing(self):
        from repro.search.engine import EngineConfig, TrustworthySearchEngine

        engine = TrustworthySearchEngine(EngineConfig(num_lists=16, branching=4))
        engine.index_document("plain honest memo")
        results, report = engine.search_with_incident_handling("memo")
        assert report.ok
        assert [r.doc_id for r in results] == [0]
        assert len(engine.incidents) == 0
