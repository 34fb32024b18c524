"""Restart-recovery tests: rebuild engine state from WORM.

The paper's trust argument requires that everything needed to answer
queries lives on WORM; application memory (lexicon map, ranking
statistics, jump-index path caches) is derived data.  These tests
simulate a restart by constructing a fresh engine over the same WORM
store and checking that queries, statistics and trust checks all
survive.
"""

import shutil
from dataclasses import replace

import pytest

from repro.adversary.detection import full_engine_audit
from repro.errors import TamperDetectedError
from repro.search.engine import EngineConfig, TrustworthySearchEngine
from repro.worm.faults import FaultInjectingWormDevice, FaultPlan, SimulatedCrashError
from repro.worm.persistent import JournaledWormDevice
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


class TestCommitCrashRecovery:
    """Power loss at any WAL stage of one document's commit leaves an
    archive that reopens, takes new documents and answers like one that
    never crashed.

    A commit creates the document's file and appends its text, logs the
    terms it introduces, appends its postings to the merged lists
    (legacy mode; the tail keeps them in memory) and then logs its
    commit-time record, the step that makes it a document.  A crash
    before that record leaves the file, and in legacy mode some
    postings, under an ID no document holds: the ID is burned, never
    reused, and no query answers with it.
    """

    BEFORE = ["alpha beta", "beta gamma", "gamma alpha beta"]
    DOCUMENT = "delta alpha epsilon"
    #: They introduce the crashed document's new terms in its order, so
    #: term IDs — and with them every score's bits — do not depend on
    #: whether it survived.
    AFTER = ["delta epsilon beta", "alpha epsilon gamma"]
    QUERIES = [
        "alpha",
        "delta epsilon",
        "beta delta gamma",
        "+alpha +epsilon",
        "+beta +gamma",
        "alpha epsilon @1..5",
    ]
    LEGACY = EngineConfig(num_lists=4, branching=4, block_size=512)

    def engine_on(self, path, config, plan=None):
        device = (
            JournaledWormDevice(path, block_size=512)
            if plan is None
            else FaultInjectingWormDevice(path, plan=plan, block_size=512)
        )
        return TrustworthySearchEngine(config, store=CachedWormStore(None, device=device))

    def answers(self, engine):
        """Each query's ranking by document text (IDs move past a burned
        one; their order does not) with ``float.hex()`` scores."""
        text = engine.documents.get
        return {
            query: [(text(r.doc_id).text, r.score.hex()) for r in engine.search(query)]
            for query in self.QUERIES
        }

    def reference(self, config, survived):
        engine = TrustworthySearchEngine(config)
        for text in self.BEFORE + [self.DOCUMENT] * survived + self.AFTER:
            engine.index_document(text)
        return self.answers(engine)

    @pytest.mark.parametrize("mode", ["legacy", "tail"])
    def test_crash_sweep_over_every_commit_write(self, tmp_path, mode):
        config = self.LEGACY if mode == "legacy" else replace(self.LEGACY, tail_max_docs=3)
        template = str(tmp_path / "template.worm")
        engine = self.engine_on(template, config)
        for text in self.BEFORE:
            engine.index_document(text)
        engine.store.device.close()

        dry = str(tmp_path / "dry.worm")
        shutil.copy(template, dry)
        plan = FaultPlan()
        engine = self.engine_on(dry, config, plan=plan)
        engine.index_document(self.DOCUMENT)
        engine.store.device.close()
        ops = {
            op: plan.count(f"{op}:between-log-and-apply")
            for op in ("create", "append", "set_slot")
        }
        # The document's create and text, the lexicon record and the
        # commit-time record; in legacy mode also a posting appended to
        # each of three lists.
        assert ops == {"create": 1, "append": 3 if mode == "tail" else 6, "set_slot": 0}

        burned = 0
        for op, total in sorted(ops.items()):
            for call in range(1, total + 1):
                for stage in ("between-log-and-apply", "after-apply"):
                    path = str(tmp_path / f"{op}-{stage}-{call}.worm")
                    shutil.copy(template, path)
                    plan = FaultPlan().crash(f"{op}:{stage}", on_call=call)
                    crashing = self.engine_on(path, config, plan=plan)
                    with pytest.raises(SimulatedCrashError):
                        crashing.index_document(self.DOCUMENT)
                    crashing.store.device.close()
                    burned += self.check_recovery(path, config)
        # Every write before the commit-time record leaves the file.
        assert burned == 2 * (sum(ops.values()) - 1)

    def check_recovery(self, path, config):
        """Reopen, ingest, reopen; returns how many IDs were burned."""
        recovered = self.engine_on(path, config)
        survived = len(recovered.documents) - len(self.BEFORE)
        assert survived in (0, 1)
        for text in self.AFTER:
            recovered.index_document(text)
        recovered.store.device.close()
        reopened = self.engine_on(path, config)
        expected = self.reference(config, survived)
        assert self.answers(reopened) == expected
        assert all(report.ok for report in full_engine_audit(reopened))
        documents = reopened.documents
        assert len(documents) == len(self.BEFORE) + survived + len(self.AFTER)
        reopened.store.device.close()
        return documents.next_doc_id - len(documents)
