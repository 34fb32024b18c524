"""Unit tests for the full-engine audit pass."""

import struct

import pytest

from repro.adversary.attacks import posting_stuffing_attack
from repro.adversary.detection import full_engine_audit
from repro.search.engine import EngineConfig, TrustworthySearchEngine


@pytest.fixture()
def engine():
    engine = TrustworthySearchEngine(EngineConfig(num_lists=16, branching=4))
    for text in [
        "imclone trading memo for stewart",
        "quarterly revenue audit for finance",
        "meeting notes about drug development",
    ]:
        engine.index_document(text)
    return engine


class TestCleanEngine:
    def test_all_reports_ok(self, engine):
        reports = full_engine_audit(engine)
        assert reports  # at least the commit-log report
        assert all(r.ok for r in reports)

    def test_covers_every_list_and_the_commit_log(self, engine):
        reports = full_engine_audit(engine)
        assert len(reports) == len(list(engine.iter_posting_lists())) + 1
        assert reports[-1].subject == "commit-time log"
        assert reports[-1].entries_checked == 3


class TestTamperedEngine:
    def test_out_of_order_raw_posting_caught(self, engine):
        from repro.core.posting import encode_posting

        name = next(engine.iter_posting_lists())[0].name
        engine.store.device.open_file(name).append_record(encode_posting(0, 0))
        reports = full_engine_audit(engine)
        bad = [r for r in reports if not r.ok]
        # Doc IDs already reached 2, so appending 0 violates order —
        # unless the list's last ID was 0, in which case it is legal.
        assert len(bad) <= 1

    def test_retro_dated_commit_caught(self, engine):
        engine.store.device.open_file("engine/commit-times").append_record(
            struct.pack("<QI", 0, 99)
        )
        reports = full_engine_audit(engine)
        commit_report = reports[-1]
        assert not commit_report.ok

    def test_stuffing_passes_structural_audit(self, engine):
        """Stuffing is structurally clean — only result verification or a
        document cross-check exposes it, which is the Section 5 point."""
        tid = engine.term_id("imclone")
        pl = engine.posting_list_for("imclone")[0]
        posting_stuffing_attack(pl, tid, count=3)
        reports = full_engine_audit(engine)
        assert all(r.ok for r in reports)
        report = engine.verify_results(
            [p.doc_id for p in pl.scan(counted=False) if p.term_code == tid],
            ["imclone"],
        )
        assert not report.ok
