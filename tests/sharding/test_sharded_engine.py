"""The sharded engine: equivalence, batching, and trust properties."""

import json
import os
import shutil
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adversary.attacks import posting_stuffing_attack
from repro.adversary.detection import full_sharded_audit
from repro.cli import open_archive
from repro.errors import TamperDetectedError, WorkloadError
from repro.search.engine import EngineConfig, TrustworthySearchEngine
from repro.search.profiling import profile_sharded_query
from repro.sharding.engine import ShardedSearchEngine
from repro.worm.storage import CachedWormStore
from tests.data.make_sharded_archive import answers, placement
from tests.helpers import SHARD_CONFIG, build_engine_pair

CONFIG = SHARD_CONFIG
DATA = os.path.join(os.path.dirname(__file__), os.pardir, "data")

VOCAB = [f"term{i}" for i in range(12)]

documents = st.lists(
    st.lists(st.sampled_from(VOCAB), min_size=1, max_size=8).map(" ".join),
    min_size=1,
    max_size=30,
)

queries = st.one_of(
    st.lists(st.sampled_from(VOCAB), min_size=1, max_size=3).map(" ".join),
    st.lists(st.sampled_from(VOCAB), min_size=1, max_size=3).map(
        lambda ts: " ".join(f"+{t}" for t in ts)
    ),
)


def build_engines(docs, num_shards):
    return build_engine_pair(docs, num_shards, config=CONFIG)


class TestEquivalence:
    """A K-shard archive answers exactly like a 1-shard archive."""

    @given(docs=documents, query=queries, num_shards=st.integers(2, 5))
    @settings(max_examples=40, deadline=None)
    def test_same_results_and_scores(self, docs, query, num_shards):
        single, sharded = build_engines(docs, num_shards)
        try:
            # Every engine sums a score's terms in ascending canonical
            # text, which no shard assignment changes: the same floats.
            expected = single.search(query, top_k=len(docs) + 1)
            got = sharded.search(query, top_k=len(docs) + 1)
            assert [(r.doc_id, r.score.hex()) for r in got] == [
                (r.doc_id, r.score.hex()) for r in expected
            ]
        finally:
            sharded.close()

    @given(docs=documents, query=queries)
    @settings(max_examples=20, deadline=None)
    def test_single_shard_is_exactly_the_engine(self, docs, query):
        single, sharded = build_engines(docs, num_shards=1)
        try:
            expected = [
                (r.doc_id, r.score) for r in single.search(query, top_k=50)
            ]
            got = [
                (r.doc_id, r.score) for r in sharded.search(query, top_k=50)
            ]
            assert got == expected
        finally:
            sharded.close()

    @given(
        docs=documents,
        query=queries,
        num_shards=st.integers(1, 4),
        top_k=st.integers(0, 6),
    )
    @settings(max_examples=40, deadline=None)
    def test_top_k_is_a_prefix_of_the_full_ranking(
        self, docs, query, num_shards, top_k
    ):
        """Heap selection (per engine and per shard before the merge)
        returns exactly what sorting every candidate and cutting did —
        ties on score included, broken by document id."""
        single, sharded = build_engines(docs, num_shards)
        try:
            for engine in (single, sharded):
                ranked = engine.search(query, top_k=len(docs) + 1)
                assert ranked == sorted(
                    ranked, key=lambda r: (-r.score, r.doc_id)
                )
                assert engine.search(query, top_k=top_k) == ranked[:top_k]
        finally:
            sharded.close()

    def test_ranked_order_deterministic(self):
        docs = ["alpha beta", "alpha alpha beta", "beta gamma", "alpha"]
        single, sharded = build_engines(docs, num_shards=3)
        with sharded:
            expected = [r.doc_id for r in single.search("alpha beta")]
            assert [r.doc_id for r in sharded.search("alpha beta")] == expected

    def test_each_shard_resolves_each_query_term_once(self, monkeypatch):
        """A shard's match resolves the query's terms, and the summed
        statistics and the scoring order read what it resolved."""
        lookups = []
        resolve = TrustworthySearchEngine.term_id

        def spy(engine, term):
            lookups.append((id(engine), term))
            return resolve(engine, term)

        with ShardedSearchEngine(CONFIG, num_shards=3) as sharded:
            sharded.index_batch([f"alpha beta doc{i}" for i in range(9)])
            monkeypatch.setattr(TrustworthySearchEngine, "term_id", spy)
            for query, terms in [
                ("alpha beta alpha", {"alpha", "beta"}),
                ("+alpha +beta", {"alpha", "beta"}),
                ("alpha never", {"alpha", "never"}),
                ("doc3", {"doc3"}),
                ("beta @2..4", {"beta"}),
            ]:
                lookups.clear()
                assert sharded.search(query)
                assert sorted(lookups) == sorted(
                    (id(shard), term) for shard in sharded.shards for term in terms
                ), query

    def test_time_range_filter_respected(self):
        sharded = ShardedSearchEngine(CONFIG, num_shards=3)
        with sharded:
            sharded.index_batch([f"common doc{i}" for i in range(9)])
            hits = sharded.search("common @3..5", top_k=20)
            docs = {r.doc_id for r in hits}
            assert docs == {3, 4, 5}


class TestIngest:
    def test_global_ids_dense_in_input_order(self):
        sharded = ShardedSearchEngine(CONFIG, num_shards=4)
        with sharded:
            ids = sharded.index_batch([f"doc {i}" for i in range(17)])
            assert ids == list(range(17))
            ids2 = sharded.index_document("one more")
            assert ids2 == 17

    def test_batched_ingest_io_matches_single_doc_ingest(self):
        docs = [f"term{i % 7} term{(i * 3) % 7} filler" for i in range(24)]
        one_at_a_time = ShardedSearchEngine(CONFIG, num_shards=3)
        for doc in docs:
            one_at_a_time.index_document(doc)
        batched = ShardedSearchEngine(CONFIG, num_shards=3)
        batched.index_batch(docs)
        try:
            for lone, grouped in zip(one_at_a_time.shards, batched.shards):
                assert grouped.store.io.block_writes == (
                    lone.store.io.block_writes
                )
                assert grouped.store.io.block_reads == (
                    lone.store.io.block_reads
                )
        finally:
            one_at_a_time.close()
            batched.close()

    def test_commit_times_validated(self):
        sharded = ShardedSearchEngine(CONFIG, num_shards=2)
        with sharded:
            sharded.index_batch(["a b", "c d"], commit_times=[5, 9])
            with pytest.raises(WorkloadError):
                sharded.index_batch(["late"], commit_times=[7])

    @pytest.mark.parametrize("num_shards", [None, 2])
    def test_a_refused_batch_leaves_the_clock(self, num_shards):
        """Both engines check a batch's commit times by one rule before
        the first write: a refused batch moves neither the clock nor the
        document count, and the refusal names what it compared with."""
        if num_shards is None:
            engine = TrustworthySearchEngine(CONFIG)
        else:
            engine = ShardedSearchEngine(CONFIG, num_shards=num_shards)
        engine.index_document("a b", commit_time=10)
        with pytest.raises(WorkloadError, match="does not follow 20, the time before it"):
            engine.index_batch(["c", "d"], commit_times=[20, 19])
        with pytest.raises(WorkloadError, match="precedes the engine clock 11"):
            engine.index_batch(["e"], commit_times=[5])
        assert engine._clock == 11
        assert len(engine.documents) == 1
        (doc_id,) = engine.index_batch(["f"])
        assert engine.documents.get(doc_id).commit_time == 11

    def test_ingest_latency_is_observed_once_per_shard_batch(self):
        sharded = ShardedSearchEngine(CONFIG, num_shards=2)
        with sharded:
            sharded.index_batch([f"memo number {i}" for i in range(8)])
            assert all(sharded.router.shard_size(i) for i in range(2))
            series = sharded.metrics.snapshot()["repro_ingest_seconds"]["series"]
            assert sorted((s["labels"]["shard"], s["count"]) for s in series) == [
                ("0", 1),
                ("1", 1),
            ]

    def test_commit_time_length_mismatch_rejected(self):
        sharded = ShardedSearchEngine(CONFIG, num_shards=2)
        with sharded:
            with pytest.raises(WorkloadError):
                sharded.index_batch(["a", "b"], commit_times=[1])

    def test_document_view_round_trip(self):
        sharded = ShardedSearchEngine(CONFIG, num_shards=3)
        with sharded:
            texts = [f"payload number {i}" for i in range(11)]
            ids = sharded.index_batch(texts)
            for global_id, text in zip(ids, texts):
                doc = sharded.documents.get(global_id)
                assert doc.doc_id == global_id
                assert doc.text == text


class TestTrust:
    def test_per_shard_jump_tampering_detected(self):
        from repro.adversary.attacks import block_jump_pointer_attack

        config = EngineConfig(num_lists=1, block_size=512, branching=2)
        sharded = ShardedSearchEngine(config, num_shards=2)
        with sharded:
            # Enough postings that each shard's single merged list spans
            # multiple blocks, so a planted pointer is plausible.
            sharded.index_batch([f"alpha beta doc{i}" for i in range(60)])
            shard = sharded.shards[0]
            _, jump = next(shard.iter_posting_lists())
            block_jump_pointer_attack(jump, target_block=0)
            reports = full_sharded_audit(sharded)
            bad = [r for r in reports if not r.ok]
            assert bad
            assert all(r.subject.startswith("shard 0") for r in bad)

    def test_stuffed_shard_fails_verified_search(self):
        sharded = ShardedSearchEngine(CONFIG, num_shards=2)
        with sharded:
            sharded.index_batch([f"evidence doc{i}" for i in range(8)])
            shard = sharded.shards[1]
            tid = shard.term_id("evidence")
            posting_list = shard.posting_list_for("evidence")[0]
            posting_stuffing_attack(
                posting_list, tid, count=len(shard.documents) + 3
            )
            with pytest.raises(TamperDetectedError):
                sharded.search("evidence", top_k=50, verify=True)

    def test_incident_handling_quarantines_fabricated_ids(self):
        sharded = ShardedSearchEngine(CONFIG, num_shards=2)
        with sharded:
            sharded.index_batch([f"evidence doc{i}" for i in range(8)])
            shard = sharded.shards[1]
            tid = shard.term_id("evidence")
            posting_list = shard.posting_list_for("evidence")[0]
            stuffed = posting_stuffing_attack(
                posting_list, tid, count=len(shard.documents) + 3
            )
            fabricated = [s for s in stuffed if s >= len(shard.documents)]
            results, report = sharded.search_with_incident_handling(
                "evidence", top_k=50
            )
            assert not report.ok
            assert {r.doc_id for r in results} == set(range(8))
            quarantined = sharded.incidents.quarantined_doc_ids
            assert len([g for g in quarantined if g < 0]) == len(fabricated)
            # Quarantine persists: the second query returns clean results.
            again, _ = sharded.search_with_incident_handling(
                "evidence", top_k=50
            )
            assert {r.doc_id for r in again} == set(range(8))

    def test_clean_archive_passes_audit(self):
        sharded = ShardedSearchEngine(CONFIG, num_shards=3)
        with sharded:
            sharded.index_batch([f"record doc{i}" for i in range(10)])
            assert all(r.ok for r in full_sharded_audit(sharded))


class TestRetention:
    def test_dispose_expired_returns_global_ids(self):
        config = EngineConfig(
            num_lists=64, block_size=4096, branching=None, retention_period=5
        )
        sharded = ShardedSearchEngine(config, num_shards=3)
        with sharded:
            sharded.index_batch([f"purge doc{i}" for i in range(7)])
            assert sharded.dispose_expired(now=100) == list(range(7))
            assert sharded.search("purge", top_k=20) == []
            # Disposition records vouch for the vanished documents.
            assert sharded.verify_results([0, 3], "purge").ok


class TestTailMode:
    """Tail-mode shards answer exactly like legacy shards, and the
    seal/merge fan-out reaches every shard."""

    TAIL_CONFIG = replace(CONFIG, tail_max_docs=4, merge_at_segments=None)

    def test_sharded_tail_matches_sharded_legacy(self):
        docs = [f"term{i % 5} term{(i * 3) % 5} filing" for i in range(18)]
        legacy = ShardedSearchEngine(CONFIG, num_shards=3)
        tailed = ShardedSearchEngine(self.TAIL_CONFIG, num_shards=3)
        with legacy, tailed:
            legacy.index_batch(docs)
            tailed.index_batch(docs)
            tailed.seal_tail()
            tailed.index_batch(["term0 straggler"])
            legacy.index_batch(["term0 straggler"])
            for query in ("term0", "+term1 +term3", "filing @2..9"):
                expected = [
                    (r.doc_id, r.score)
                    for r in legacy.search(query, top_k=25)
                ]
                got = [
                    (r.doc_id, r.score)
                    for r in tailed.search(query, top_k=25)
                ]
                assert got == expected, query

    def test_seal_and_merge_fan_out(self):
        config = replace(CONFIG, tail_max_docs=100, merge_at_segments=None)
        sharded = ShardedSearchEngine(config, num_shards=3)
        with sharded:
            assert sharded.tail_enabled
            sharded.index_batch([f"fanout doc{i}" for i in range(9)])
            first = sharded.seal_tail()
            sharded.index_batch([f"fanout late{i}" for i in range(9)])
            second = sharded.seal_tail()
            assert len(first) == len(second) == 3
            merged = sharded.merge_segments()
            assert len(merged) == 3
            info = sharded.segments_info()
            assert info["tail_enabled"] is True
            assert info["tail_docs"] == 0
            assert len(info["shards"]) == 3
            # Doc conservation: every ingested doc is in some shard's
            # segments (nothing stranded, nothing duplicated).
            sealed = sum(
                record["doc_count"]
                for shard in info["shards"]
                for record in shard["segments"]
            )
            assert sealed == 18
            assert {r.doc_id for r in sharded.search("fanout", top_k=25)} == set(
                range(18)
            )

    def test_legacy_shards_refuse_tail_ops(self):
        sharded = ShardedSearchEngine(CONFIG, num_shards=2)
        with sharded:
            assert not sharded.tail_enabled
            with pytest.raises(WorkloadError):
                sharded.seal_tail()


class TestProfiling:
    def test_sharded_profile_sums_its_shards(self):
        sharded = ShardedSearchEngine(CONFIG, num_shards=4)
        with sharded:
            sharded.index_batch(
                [f"common unique{i}" for i in range(64)]
            )
            profile = profile_sharded_query(sharded, "common")
            assert profile.shards == 4
            assert profile.total_entries_scanned == sum(
                p.entries_scanned for p in profile.per_shard
            )
            assert profile.total_blocks_read == sum(
                p.blocks_read for p in profile.per_shard
            )
            assert "4 shards" in profile.summary()


class TestArchiveWithADocumentMap:
    """An archive whose coordinator stored a document map (``shard/doc-map``,
    written by commit c5c5966) opens with the placement and answers that
    commit recorded, though nothing reads the map, and keeps ingesting."""

    @staticmethod
    def copy_archive(tmp_path):
        """The fixture's journals copied under ``tmp_path``, and what it recorded."""
        with open(os.path.join(DATA, "sharded_archive_docmap.json")) as handle:
            recorded = json.load(handle)
        path = str(tmp_path / "archive.worm")
        for suffix in ("", ".shard00", ".shard01"):
            shutil.copy(os.path.join(DATA, "sharded_archive_docmap.worm") + suffix, path + suffix)
        return path, recorded

    def test_concurrent_searches_after_reopen(self, tmp_path):
        # Searches share a reader lock in the service, so lookups on a
        # freshly reopened archive must only read the routing table.
        path, recorded = self.copy_archive(tmp_path)
        engine, handle = open_archive(path)
        try:
            table = list(engine.router._shard_of)
            with ThreadPoolExecutor(max_workers=4) as pool:
                runs = list(pool.map(lambda _: answers(engine), range(16)))
            assert all(run == recorded["answers"] for run in runs)
            assert engine.router._shard_of == table
            assert placement(engine) == recorded["placement"]
            for g, (shard_id, local_id) in enumerate(recorded["placement"]):
                assert engine.router.to_global(shard_id, local_id) == g
        finally:
            handle.close()

    def test_same_placement_and_answers_then_ingest(self, tmp_path):
        path, recorded = self.copy_archive(tmp_path)
        engine, handle = open_archive(path)
        assert placement(engine) == recorded["placement"]
        assert answers(engine) == recorded["answers"]
        assert engine.index_batch(["memo ledger appended", "audit appended"]) == [30, 31]
        handle.close()

        engine, handle = open_archive(path)
        try:
            assert placement(engine)[:30] == recorded["placement"]
            texts = recorded["texts"] + ["memo ledger appended", "audit appended"]
            assert [engine.documents.get(g).text for g in range(32)] == texts
            assert {r.doc_id for r in engine.search("appended", verify=True)} == {30, 31}
            assert all(report.ok for report in full_sharded_audit(engine))
        finally:
            handle.close()


class TestConstruction:
    def test_invalid_shard_count_rejected(self):
        with pytest.raises(WorkloadError):
            ShardedSearchEngine(CONFIG, num_shards=0)

    def test_custom_stores_are_used(self):
        stores = [
            CachedWormStore(None, block_size=CONFIG.block_size)
            for _ in range(2)
        ]
        sharded = ShardedSearchEngine(
            CONFIG, num_shards=2, store_factory=lambda i: stores[i]
        )
        with sharded:
            sharded.index_batch(["hello world", "goodbye world"])
            assert any(s.device.total_bytes() for s in stores)

    def test_archive_stats_aggregates(self):
        sharded = ShardedSearchEngine(CONFIG, num_shards=3)
        with sharded:
            sharded.index_batch([f"stat doc{i}" for i in range(9)])
            stats = sharded.archive_stats()
            assert stats["shards"] == 3
            assert stats["documents"] == 9
            assert sum(stats["shard_documents"]) == 9
            assert stats["commit_log_records"] == 9
