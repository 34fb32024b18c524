"""Restart-recovery tests: rebuild engine state from WORM.

The paper's trust argument requires that everything needed to answer
queries lives on WORM; application memory (lexicon map, ranking
statistics, jump-index path caches) is derived data.  These tests
simulate a restart by constructing a fresh engine over the same WORM
store and checking that queries, statistics and trust checks all
survive.
"""

import pytest

from repro.errors import TamperDetectedError
from repro.search.engine import EngineConfig, TrustworthySearchEngine
from repro.worm.storage import CachedWormStore


CONFIG = EngineConfig(num_lists=32, branching=4, block_size=512)

TEXTS = [
    "imclone trading memo for stewart and waksal",
    "quarterly revenue audit for the finance team",
    "meeting notes about imclone drug development",
    "stewart waksal imclone november trading archive",
]


def build_engine():
    engine = TrustworthySearchEngine(CONFIG)
    for text in TEXTS:
        engine.index_document(text)
    return engine


def reopen(engine):
    """Simulate a restart: new engine object over the same WORM store."""
    return TrustworthySearchEngine(CONFIG, store=engine.store)


class TestRecovery:
    def test_lexicon_restored(self):
        engine = build_engine()
        reopened = reopen(engine)
        assert reopened.vocabulary_size == engine.vocabulary_size
        assert reopened.term_id("imclone") == engine.term_id("imclone")

    def test_queries_survive_restart(self):
        engine = build_engine()
        reopened = reopen(engine)
        assert [r.doc_id for r in reopened.search("+stewart +waksal")] == [0, 3]
        assert {r.doc_id for r in reopened.search("imclone")} == {0, 2, 3}

    def test_time_ranged_queries_survive(self):
        engine = build_engine()
        reopened = reopen(engine)
        hits = [r.doc_id for r in reopened.search("imclone @0..1")]
        assert hits == [0]

    def test_ranking_stats_rebuilt(self):
        engine = build_engine()
        reopened = reopen(engine)
        assert reopened.stats.num_docs == 4
        assert reopened.stats.df == engine.stats.df

    def test_ingest_continues_after_restart(self):
        engine = build_engine()
        reopened = reopen(engine)
        doc_id = reopened.index_document("fresh imclone disclosure filing")
        assert doc_id == len(TEXTS)
        assert doc_id in {r.doc_id for r in reopened.search("imclone")}
        # Commit clock resumed past the previous session's last commit.
        assert reopened.documents.get(doc_id).commit_time >= len(TEXTS)

    def test_results_verify_after_restart(self):
        engine = build_engine()
        reopened = reopen(engine)
        assert reopened.search("imclone", verify=True)

    def test_jump_indexes_rebuilt_and_extended(self):
        engine = build_engine()
        reopened = reopen(engine)
        for _ in range(30):
            reopened.index_document("imclone repeat filler entry")
        docs, _ = reopened.conjunctive_doc_ids(["imclone"])
        assert len(docs) == 3 + 30

    def test_tampered_posting_list_fails_reattach(self):
        from repro.core.posting import encode_posting

        engine = build_engine()
        tid = engine.term_id("imclone")
        name = engine.posting_list_for("imclone")[0].name
        # Mala appends an out-of-order posting between sessions.
        engine.store.device.open_file(name).append_record(encode_posting(0, tid))
        reopened = reopen(engine)
        with pytest.raises(TamperDetectedError):
            reopened.search("imclone")

    def test_tampered_commit_log_fails_reattach(self):
        import struct

        engine = build_engine()
        engine.store.device.open_file("engine/commit-times").append_record(
            struct.pack("<QI", 0, 999)
        )
        with pytest.raises(TamperDetectedError):
            reopen(engine)

    def test_fresh_store_unaffected(self):
        engine = TrustworthySearchEngine(CONFIG, store=CachedWormStore(None))
        assert engine.vocabulary_size == 0
        assert len(engine.documents) == 0
