"""Restart-recovery tests: rebuild engine state from WORM.

The paper's trust argument requires that everything needed to answer
queries lives on WORM; application memory (lexicon map, ranking
statistics, jump-index path caches) is derived data.  These tests
simulate a restart by constructing a fresh engine over the same WORM
store and checking that queries, statistics and trust checks all
survive.
"""

import os
import shutil
from dataclasses import replace

import pytest

from repro.adversary.detection import full_engine_audit
from repro.cli import open_archive
from repro.errors import TamperDetectedError, WorkloadError
from repro.search.engine import EngineConfig, TrustworthySearchEngine
from repro.sharding.engine import ShardedSearchEngine
from repro.sharding.router import stable_shard
from repro.worm.faults import FaultInjectingWormDevice, FaultPlan, SimulatedCrashError
from repro.worm.persistent import JournaledWormDevice
from repro.worm.storage import CachedWormStore


CONFIG = EngineConfig(num_lists=32, branching=4, block_size=512)
DATA = os.path.join(os.path.dirname(__file__), os.pardir, "data")

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

    @pytest.mark.parametrize("tail_max_docs", [None, 8])
    @pytest.mark.parametrize("commit_times", [[20, 19], [20, 20], [2, 30]])
    def test_a_refused_batch_commits_nothing(self, tail_max_docs, commit_times):
        """Commit times that do not rise from the engine clock refuse the
        whole batch before its first document: nothing is counted this
        session that a reopen would not find."""
        config = replace(CONFIG, tail_max_docs=tail_max_docs)
        engine = TrustworthySearchEngine(config)
        engine.index_batch(TEXTS, commit_times=[1, 3, 5, 7])
        with pytest.raises(WorkloadError):
            engine.index_batch(["late memo", "later memo"], commit_times=commit_times)
        assert len(engine.documents) == engine.stats.num_docs == len(engine.time_index) == 4
        assert not engine.documents.exists(4)
        assert engine.index_batch(["late memo"], commit_times=[8]) == [4]
        reopened = TrustworthySearchEngine(config, store=engine.store)
        assert len(reopened.documents) == 5
        assert {r.doc_id for r in reopened.search("memo", verify=True)} == {0, 4}

    @pytest.mark.parametrize("tail_max_docs", [None, 8])
    def test_reopen_reads_each_commit_log_block_once(self, tail_max_docs, monkeypatch):
        """The time index's one checked pass yields the columns the
        documents are rebuilt from: no second walk of the log."""
        log = "engine/commit-times"
        config = replace(CONFIG, tail_max_docs=tail_max_docs)
        engine = TrustworthySearchEngine(config)
        engine.index_batch([f"memo {i} for imclone" for i in range(100)])
        store = engine.store
        blocks = store.device.open_file(log).num_blocks
        assert blocks >= 3  # 42 records per 512-byte block
        reads = []
        peek = store.peek_block

        def counting_peek(name, block_no, *args, **kwargs):
            if name == log:
                reads.append(block_no)
            return peek(name, block_no, *args, **kwargs)

        monkeypatch.setattr(store, "peek_block", counting_peek)
        reopened = TrustworthySearchEngine(config, store=store)
        assert sorted(reads) == list(range(blocks))
        assert len(reopened.documents) == 100
        window = reopened.search("memo @50..59", top_k=20, verify=True)
        assert {r.doc_id for r in window} == set(range(50, 60))


class TestCommitCrashRecovery:
    """Power loss at any WAL stage of one document's commit leaves an
    archive that reopens, answers, takes new documents and answers like
    one that never crashed.

    A commit creates the document's file and appends its text, logs the
    terms it introduces, appends its postings to the merged lists
    (legacy mode; the tail keeps them in memory) and then logs its
    commit-time record, the step that makes it a document.  A crash
    before that record leaves the file, and in legacy mode some
    postings, under an ID no document holds: the ID is burned from the
    reopen on, never reused, and no query answers with it — verified,
    so a posting of it would raise as a fabricated result.
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
            query: [
                (text(r.doc_id).text, r.score.hex())
                for r in engine.search(query, verify=True)
            ]
            for query in self.QUERIES
        }

    def reference(self, config, survived, after=AFTER):
        engine = TrustworthySearchEngine(config)
        for text in self.BEFORE + [self.DOCUMENT] * survived + after:
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
        """Reopen, query, ingest, reopen, query; returns how many IDs
        were burned."""
        recovered = self.engine_on(path, config)
        survived = len(recovered.documents) - len(self.BEFORE)
        assert survived in (0, 1)
        assert self.answers(recovered) == self.reference(config, survived, after=[])
        burned = recovered.archive_stats()["burned_documents"]
        for text in self.AFTER:
            recovered.index_document(text)
        recovered.store.device.close()
        reopened = self.engine_on(path, config)
        expected = self.reference(config, survived)
        assert self.answers(reopened) == expected
        assert all(report.ok for report in full_engine_audit(reopened))
        documents = reopened.documents
        assert len(documents) == len(self.BEFORE) + survived + len(self.AFTER)
        # Known burned at the reopen, before any commit allocated past it.
        assert burned == documents.next_doc_id - len(documents)
        assert reopened.archive_stats()["burned_documents"] == burned
        reopened.store.device.close()
        return burned


class TestShardedCommitCrashRecovery:
    """Power loss at any WAL stage of any write one 2-shard batch makes,
    on either shard's journal, leaves an archive that reopens, answers
    like one built from the documents that survived, and takes new
    batches.

    A batch routes its documents and then commits each shard's group in
    turn; a shard's commit-time record is the one commit point of a
    document, and fixes its global ID.  A crash commits the groups of
    the shards before the crashed one, a prefix of its own group and
    nothing after.  The global IDs left uncommitted are holes, and the
    next batch's documents routed to those shards take them.  In legacy
    mode a group's postings go to the merged lists before its
    commit-time records, so a crash among them burns the group's IDs
    rather than committing documents some of whose postings are missing.
    """

    #: Global IDs 0 and 2 are the first on shards 1 and 0: each shard
    #: meets the batch's terms in one order before the batch, so no
    #: batch document adds a term and term IDs (with them every score's
    #: bits) do not depend on what survived.
    BEFORE = [
        "alpha beta gamma delta epsilon memo",
        "beta gamma gamma",
        "alpha beta gamma delta epsilon filing",
        "alpha delta delta",
    ]
    #: Global IDs 4–9: shard 0 gets five, shard 1 the fourth.
    BATCH = [
        "alpha alpha beta",
        "gamma delta",
        "beta epsilon epsilon",
        "alpha gamma delta",
        "delta epsilon alpha beta",
        "gamma gamma gamma",
    ]
    #: As many as the batch, so they fill every hole it can leave.
    AFTER = [
        "alpha zeta",
        "beta gamma zeta",
        "epsilon",
        "alpha beta delta",
        "zeta zeta gamma",
        "beta epsilon alpha",
    ]
    QUERIES = ["alpha", "gamma delta", "+alpha +beta", "epsilon zeta", "+beta +gamma", "memo"]
    CONFIG = EngineConfig(num_lists=4, branching=4, block_size=512, tail_max_docs=100)
    #: Documents of the batch each shard commits, and their postings.
    GROUPS = {0: (5, 11), 1: (1, 3)}

    def open(self, path, config, crash=None):
        """The archive at ``path``: ``(engine, devices)``, coordinator
        first; ``crash`` is ``(shard, plan)`` for one shard's journal."""
        devices = [JournaledWormDevice(path, block_size=512)]
        for shard_id in range(2):
            shard_path = f"{path}.shard{shard_id}"
            if crash is not None and crash[0] == shard_id:
                devices.append(
                    FaultInjectingWormDevice(shard_path, plan=crash[1], block_size=512)
                )
            else:
                devices.append(JournaledWormDevice(shard_path, block_size=512))
        engine = ShardedSearchEngine(
            config,
            num_shards=2,
            store_factory=lambda i: CachedWormStore(None, device=devices[i + 1]),
            coordinator_store=CachedWormStore(None, device=devices[0]),
        )
        return engine, devices

    def copy(self, source, path):
        for suffix in ("", ".shard0", ".shard1"):
            shutil.copy(source + suffix, path + suffix)

    def answers(self, engine):
        """Each query's ranking by document text, verified (a burned ID's
        posting would raise as a fabricated result), ``float.hex()``
        scores."""
        text = engine.documents.get
        return {
            query: [
                (text(r.doc_id).text, r.score.hex())
                for r in engine.search(query, top_k=40, verify=True)
            ]
            for query in self.QUERIES
        }

    def texts(self, engine):
        """Every committed document's text, by global ID."""
        documents = engine.documents
        every_id = range(len(self.BEFORE + self.BATCH + self.AFTER))
        return {g: documents.get(g).text for g in every_id if documents.exists(g)}

    def burned_by(self, mode, op, call, shard_id):
        """IDs a crash at the ``call``-th ``op`` of a shard's group burns.

        Tail mode writes each document's create, text and commit-time
        record in turn.  Legacy mode writes every create and text, then
        the group's postings, then its commit-time records.
        """
        documents, postings = self.GROUPS[shard_id]
        if mode == "tail":
            return 1 if op == "create" else call % 2
        if op == "create" or call <= documents:
            return call
        return min(documents, 2 * documents + postings - call)

    @pytest.mark.parametrize("mode", ["legacy", "tail"])
    def test_crash_sweep_over_every_batch_write(self, tmp_path, mode):
        config = self.CONFIG if mode == "tail" else replace(self.CONFIG, tail_max_docs=None)
        template = str(tmp_path / "template.worm")
        engine, devices = self.open(template, config)
        assert engine.index_batch(self.BEFORE) == [0, 1, 2, 3]
        for device in devices:
            device.close()

        dry = str(tmp_path / "dry.worm")
        ops = {}
        for shard_id in range(2):
            self.copy(template, dry)
            plan = FaultPlan()
            engine, devices = self.open(dry, config, crash=(shard_id, plan))
            assert engine.index_batch(self.BATCH) == list(range(4, 10))
            for device in devices:
                device.close()
            for op in ("create", "append", "set_slot"):
                ops[shard_id, op] = plan.count(f"{op}:between-log-and-apply")
        # Per document: its file's create, its text and its commit-time
        # record; in legacy mode also its postings (no new terms).
        for shard_id, (documents, postings) in self.GROUPS.items():
            appends = 2 * documents + (postings if mode == "legacy" else 0)
            assert ops.pop((shard_id, "create")) == documents
            assert ops.pop((shard_id, "append")) == appends
            assert ops.pop((shard_id, "set_slot")) == 0
            ops[shard_id, "create"], ops[shard_id, "append"] = documents, appends

        for (shard_id, op), total in sorted(ops.items()):
            for call in range(1, total + 1):
                for stage in ("between-log-and-apply", "after-apply"):
                    path = str(tmp_path / f"{shard_id}-{op}-{stage}-{call}.worm")
                    self.copy(template, path)
                    plan = FaultPlan().crash(f"{op}:{stage}", on_call=call)
                    crashing, devices = self.open(path, config, crash=(shard_id, plan))
                    with pytest.raises(SimulatedCrashError):
                        crashing.index_batch(self.BATCH)
                    for device in devices:
                        device.close()
                    burned = self.check_recovery(path, config, shard_id)
                    assert burned == self.burned_by(mode, op, call, shard_id)

    def test_a_map_record_no_shard_committed_is_not_read(self, tmp_path):
        """What a crash left when the coordinator stored a document map,
        written before any shard committed: a map record for a document
        no shard holds.  Code that read the map refused every later
        batch ("shard and map are out of step")."""
        path = str(tmp_path / "archive.worm")
        for suffix in ("", ".shard00", ".shard01"):
            shutil.copy(os.path.join(DATA, "sharded_archive_docmap.worm") + suffix, path + suffix)
        device = JournaledWormDevice(path)
        shard_id = stable_shard(30, 2)
        local_id = sum(stable_shard(g, 2) == shard_id for g in range(30))
        device.open_file("shard/doc-map").append_record(f"30 {shard_id} {local_id}\n".encode())
        device.close()
        engine, handle = open_archive(path)
        try:
            assert len(engine.documents) == 30
            assert engine.index_batch(["residue memo", "residue ledger"]) == [30, 31]
            assert {r.doc_id for r in engine.search("residue", verify=True)} == {30, 31}
        finally:
            handle.close()

    def committed_only(self, recovered, config):
        """A 2-shard archive holding each shard's committed documents in
        its order, and nothing else: what the recovered archive answers
        like before its next batch."""
        stores = []
        for shard in recovered.shards:
            documents = shard.documents
            local = TrustworthySearchEngine(config)
            local.index_batch(
                [documents.get(i).text for i in range(documents.next_doc_id) if documents.exists(i)]
            )
            stores.append(local.store)
        return ShardedSearchEngine(config, num_shards=2, store_factory=stores.__getitem__)

    def check_recovery(self, path, config, crashed_shard):
        """Reopen, query, ingest, reopen, query; returns ``burned_documents``."""
        recovered, devices = self.open(path, config)
        survivors = self.texts(recovered)
        assert {g: survivors[g] for g in range(4)} == dict(enumerate(self.BEFORE))
        batch = {g: text for g, text in survivors.items() if g >= 4}
        # Every surviving batch document holds the ID the batch routed it
        # to: the groups of the shards before the crashed one and a
        # prefix of the crashed shard's own group.
        assert all(self.BATCH[g - 4] == text for g, text in batch.items())
        groups = [[g for g in range(4, 10) if stable_shard(g, 2) == s] for s in range(2)]
        committed = [[g for g in group if g in batch] for group in groups]
        assert committed[crashed_shard] == groups[crashed_shard][: len(committed[crashed_shard])]
        assert committed[:crashed_shard] == groups[:crashed_shard]
        assert not any(committed[crashed_shard + 1 :])
        assert self.answers(recovered) == self.answers(self.committed_only(recovered, config))
        burned = recovered.archive_stats()["burned_documents"]

        records = devices[0].records
        after_ids = recovered.index_batch(self.AFTER)
        assert devices[0].records == records  # the coordinator is not written
        expected = {**survivors, **dict(zip(after_ids, self.AFTER))}
        assert sorted(expected) == list(range(len(expected)))  # every hole filled
        for device in devices:
            device.close()

        reopened, devices = self.open(path, config)
        assert self.texts(reopened) == expected
        reference = ShardedSearchEngine(config, num_shards=2)
        reference.index_batch([expected[g] for g in sorted(expected)])
        assert self.answers(reopened) == self.answers(reference)
        assert all(report.ok for report in full_engine_audit(reopened))
        # Known burned at the reopen, before the batch allocated past them.
        assert reopened.archive_stats()["burned_documents"] == burned
        for device in devices:
            device.close()
        return burned
