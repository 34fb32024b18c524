"""Unit tests for the full-engine audit pass."""

import struct

import pytest

from repro.adversary.attacks import posting_stuffing_attack
from repro.adversary.detection import full_engine_audit
from repro.core.posting import encode_posting, pack_term_tf
from repro.errors import TamperDetectedError
from repro.search.engine import EngineConfig, TrustworthySearchEngine
from tests.core.test_trust_checks import brute_force_descents


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
        assert len(reports) == len(list(engine.iter_posting_lists())) + 2
        assert reports[-2].subject == "lexicon log"
        assert reports[-2].entries_checked == engine.vocabulary_size
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

    def test_a_list_no_reader_attaches_is_reported_with_every_descent(self):
        """Mala appends two descending postings to a legacy list: a
        reopened engine refuses to attach it, and the audit reports it,
        naming each descent a brute-force pass over the stored bytes
        finds, and audits every other subject as well."""
        config = EngineConfig(num_lists=16, block_size=4096)
        engine = TrustworthySearchEngine(config)
        engine.index_batch([f"alpha {'beta' if i % 2 else 'gamma'} doc{i}" for i in range(200)])
        name = engine.posting_list_for("alpha")[0].name
        worm_file = engine.store.device.open_file(name)
        alpha = engine.term_id("alpha")
        worm_file.append_record(encode_posting(3, pack_term_tf(alpha, 1)))
        worm_file.append_record(encode_posting(5, pack_term_tf(alpha, 1)))
        reopened = TrustworthySearchEngine(config, store=engine.store)
        with pytest.raises(TamperDetectedError):
            reopened.search("alpha")
        reports = full_engine_audit(reopened)
        (bad,) = [r for r in reports if not r.ok]
        expected, total = brute_force_descents(worm_file)
        assert len(expected) == 2 and bad.subject == f"posting list '{name}'"
        assert bad.violations == [
            f"block {block_no}: doc ID {doc_id} after {last} (append-order violation)"
            for block_no, _, doc_id, last in expected
        ]
        assert bad.entries_checked == total
        assert [r.subject for r in reports[-2:]] == ["lexicon log", "commit-time log"]
        lists = [n for n in engine.store.device.list_files() if n.startswith("engine/pl/")]
        assert len(reports) == len(lists) + 2

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
            [
                doc_id
                for docs, codes in pl.scan_columns(counted=False)
                for doc_id, code in zip(docs, codes)
                if code == tid
            ],
            "imclone",
        )
        assert not report.ok
