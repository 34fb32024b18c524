"""Unit tests for the incident log (the paper's future work, implemented)."""

import struct

import pytest

from repro.core.incidents import IncidentLog
from repro.errors import TamperDetectedError


#: A well-formed second record, for the cases to spoil one field of.
_FIELDS = (
    b'{"seq":1,"kind":"","location":"","invariant":"","description":"","quarantined":[]}'
)


def _record(payload: bytes) -> bytes:
    """``payload`` framed as the log frames a record."""
    return struct.pack("<H", len(payload)) + payload


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


class TestHostileBytes:
    """Anyone can append to the WORM log; what the log did not write
    reads as tampering, typed, never as a parser's own error."""

    @pytest.mark.parametrize(
        "appended",
        [
            struct.pack("<I", 2) + b"{[",  # a length prefix over NULs
            struct.pack("<H", 40) + b"{}",  # a record past its block
            b"\x07",  # half a length prefix
            _record(b"[1, 2]"),
            _record(b'{"seq": 1}'),
            _record(_FIELDS.replace(b'"kind":""', b'"kind":3')),
            _record(_FIELDS.replace(b"[]", b'["x"]')),
            _record(_FIELDS.replace(b'"seq":1', b'"seq":true')),
            _record(b"\xff\xfe"),
        ],
    )
    def test_malformed_record_raises_tamper(self, store, appended):
        IncidentLog(store, "i").record("stuffing", quarantine_doc_ids=[5])
        store.append_record("i", appended)
        with pytest.raises(TamperDetectedError) as excinfo:
            IncidentLog(store, "i")
        assert excinfo.value.invariant == "incident-record"
        assert "incident log 'i'" in excinfo.value.location

    def test_engine_incident_handling_raises_tamper(self):
        from repro.search.engine import EngineConfig, TrustworthySearchEngine

        engine = TrustworthySearchEngine(EngineConfig(num_lists=16))
        engine.index_document("imclone memo")
        engine.incidents.record("stuffing")
        engine.store.append_record("engine/incidents", struct.pack("<I", 2) + b"{[")
        reopened = TrustworthySearchEngine(engine.config, store=engine.store)
        with pytest.raises(TamperDetectedError):
            reopened.search_with_incident_handling("imclone")


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
