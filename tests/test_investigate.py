"""Tests for the certified investigation session (Bob's toolkit)."""

import json

import pytest

from repro.adversary.attacks import posting_stuffing_attack
from repro.investigate import Investigation
from repro.search.engine import EngineConfig, TrustworthySearchEngine


@pytest.fixture()
def engine():
    engine = TrustworthySearchEngine(EngineConfig(num_lists=16, branching=4))
    for text in [
        "imclone trading memo for stewart",
        "quarterly finance audit",
        "stewart waksal november summary",
    ]:
        engine.index_document(text)
    return engine


class TestCleanInvestigation:
    def test_search_records_verified_results(self, engine):
        case = Investigation(engine, case_id="C-1")
        hits = case.search("stewart")
        assert sorted(h.doc_id for h in hits) == [0, 2]
        record = case.case_file()["queries"][0]
        assert record["verified"]
        assert record["alarm"] is None
        assert case.alarm_count == 0

    def test_retrieve_folds_text_into_case_file(self, engine):
        case = Investigation(engine)
        text = case.retrieve(1)
        assert "finance" in text
        assert case.case_file()["documents_retrieved"]["1"] == text

    def test_full_audit_clean(self, engine):
        case = Investigation(engine)
        assert case.run_full_audit() is True
        audits = case.case_file()["audits"]
        assert audits and all(a["ok"] for a in audits)

    def test_export_round_trips(self, engine, tmp_path):
        case = Investigation(engine, case_id="SEC-2002-001")
        case.search("+stewart +imclone")
        path = tmp_path / "case.json"
        case.export(str(path))
        data = json.loads(path.read_text())
        assert data["case_id"] == "SEC-2002-001"
        assert data["queries"][0]["results"] == [0]


class TestTamperedInvestigation:
    def test_stuffing_becomes_a_finding_not_a_failure(self, engine):
        tid = engine.term_id("imclone")
        posting_stuffing_attack(
            engine.posting_list_for("imclone")[0], tid, count=4
        )
        case = Investigation(engine)
        hits = case.search("imclone")
        # The genuine document still surfaces; fakes are quarantined.
        assert [h.doc_id for h in hits] == [0]
        assert case.alarm_count == 1
        record = case.case_file()["queries"][0]
        assert record["verified"] and record["alarm"]

    def test_structural_tamper_recorded_without_crashing(self, engine):
        import struct

        engine.store.device.open_file("engine/commit-times").append_record(
            struct.pack("<QI", 0, 99)
        )
        case = Investigation(engine)
        hits = case.search("imclone @0..10")  # range scan hits the bad record
        assert hits == []
        assert case.alarm_count == 1
        alarm = case.case_file()["alarms"][0]
        assert alarm["invariant"] == "commit-time-monotonicity"

    def test_audit_findings_folded_into_case_file(self, engine):
        from repro.core.posting import encode_posting

        name = next(engine.iter_posting_lists())[0].name
        target = engine.store.device.open_file(name)
        # A legal-looking but out-of-order raw append (if the list's
        # last ID is 0, use a different victim below it instead).
        target.append_record(encode_posting(0, 0))
        case = Investigation(engine)
        healthy = case.run_full_audit()
        audits = case.case_file()["audits"]
        assert len(audits) == len(list(engine.iter_posting_lists())) + 2  # and the two logs
        # Whether this particular list had last ID > 0 decides if the
        # violation fires; either way the audit ran and was recorded.
        assert isinstance(healthy, bool)
