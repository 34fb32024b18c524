"""Unit tests for the offline auditors (Section 5 countermeasures)."""


from repro.core.block_jump_index import BlockJumpIndex
from repro.core.posting import encode_posting
from repro.core.posting_list import PostingList
from repro.core.verification import AuditReport, audit_posting_list
from repro.worm.storage import CachedWormStore
from tests.helpers import build_engine


class TestAuditReport:
    def test_ok_when_empty(self):
        report = AuditReport(subject="x")
        assert report.ok
        report.add("bad")
        assert not report.ok
        assert report.violations == ["bad"]


class TestPostingListAudit:
    def test_clean_list(self, store):
        pl = PostingList(store, "pl")
        for i in range(100):
            pl.append(i, term_code=i % 3)
        report = audit_posting_list(pl)
        assert report.ok
        assert report.entries_checked == 100

    def test_order_violation_reported(self, store):
        pl = PostingList(store, "pl")
        pl.append(10)
        store.device.open_file("pl").append_record(encode_posting(3, 0))
        report = audit_posting_list(pl)
        assert not report.ok
        assert "append-order violation" in report.violations[0]

    def test_jump_pointers_clean(self):
        store = CachedWormStore(None, block_size=256)
        bji = BlockJumpIndex.create(store, "pl", branching=4, max_doc_bits=16)
        for i in range(0, 600, 2):
            bji.insert(i)
        report = audit_posting_list(bji.posting_list, bji)
        assert report.ok
        # Entries plus every committed pointer were checked.
        assert report.entries_checked > 300

    def test_backward_jump_pointer_reported(self):
        store = CachedWormStore(None, block_size=256)
        bji = BlockJumpIndex.create(store, "pl", branching=4, max_doc_bits=16)
        for i in range(600):
            bji.insert(i)
        for slot in range(bji.num_slots):
            if store.peek_slot("pl", 3, slot) is None:
                store.set_slot("pl", 3, slot, 1)
                break
        report = audit_posting_list(bji.posting_list, bji)
        assert not report.ok
        assert any("backwards" in v for v in report.violations)

    def test_nonexistent_target_reported(self):
        store = CachedWormStore(None, block_size=256)
        bji = BlockJumpIndex.create(store, "pl", branching=4, max_doc_bits=16)
        for i in range(600):
            bji.insert(i)
        for slot in range(bji.num_slots):
            if store.peek_slot("pl", 0, slot) is None:
                store.set_slot("pl", 0, slot, 9999)
                break
        report = audit_posting_list(bji.posting_list, bji)
        assert any("nonexistent block" in v for v in report.violations)

    def test_wrong_range_target_reported(self):
        store = CachedWormStore(None, block_size=256)
        bji = BlockJumpIndex.create(store, "pl", branching=2, max_doc_bits=16)
        for i in range(0, 2000, 4):
            bji.insert(i)
        nb = bji.posting_list.block_max_hint(0)
        for slot in range(bji.num_slots):
            lo, hi = bji.slot_range(nb, slot)
            if hi < 2000 and store.peek_slot("pl", 0, slot) is None:
                store.set_slot("pl", 0, slot, bji.posting_list.num_blocks - 1)
                break
        report = audit_posting_list(bji.posting_list, bji)
        assert any("no ID in" in v for v in report.violations)


class TestSearchResultAudit:
    """The result check against a two-document archive: document 0
    holds "imclone", document 1 "finance"; no document 99 exists."""

    def _world(self):
        return build_engine(
            ["imclone memo for stewart", "quarterly finance report"]
        )

    def test_clean_results(self):
        report = self._world().verify_results([0], "imclone")
        assert report.ok

    def test_nonexistent_document_flagged(self):
        report = self._world().verify_results([0, 99], "imclone")
        assert not report.ok
        assert "nonexistent" in report.violations[0]

    def test_keyword_mismatch_flagged(self):
        report = self._world().verify_results([1], "imclone")
        assert not report.ok
        assert "none of the query terms" in report.violations[0]

    def test_disjunctive_contract_any_term_suffices(self):
        report = self._world().verify_results([1], "imclone finance")
        assert report.ok

    def test_conjunctive_contract_needs_every_term(self):
        engine = self._world()
        assert engine.verify_results([0], "+imclone +stewart").ok
        report = engine.verify_results([0], "+imclone +finance")
        assert not report.ok
        assert report.mismatched == [0]
        assert report.violations == [
            "doc 0: document lacks the query terms ['finance'] (stuffed posting)"
        ]
