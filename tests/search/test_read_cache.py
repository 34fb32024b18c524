"""Unit tests for the read-path cache hierarchy."""

import threading

import pytest

from repro.observability import QueryTrace, export_read_cache
from repro.observability.metrics import MetricsRegistry
from repro.search.engine import EngineConfig, TrustworthySearchEngine
from array import array

from repro.core.vecdecode import DecodedBlock
from repro.search.readcache import DecodedBlockCache, QueryResultCache
from repro.errors import WorkloadError
from repro.worm.storage import CachedWormStore
from tests.helpers import DEFAULT_CORPUS, SMALL_CONFIG, build_engine


def cached_config(**kwargs):
    from dataclasses import replace

    return replace(SMALL_CONFIG, read_cache=True, **kwargs)


def block(postings):
    """A decoded block of ``postings`` postings: 8 bytes of columns each."""
    return DecodedBlock(array("I", range(postings)), array("I", range(postings)))


# ----------------------------------------------------------------------
# tier 1: decoded blocks
# ----------------------------------------------------------------------
class TestDecodedBlockCache:
    def test_hit_miss_and_invalidate(self):
        cache = DecodedBlockCache(capacity_bytes=1 << 20)
        entries = block(3)
        assert cache.get("pl", 0) is None
        cache.put("pl", 0, entries)
        assert cache.get("pl", 0) is entries
        cache.invalidate("pl", 0)
        assert cache.get("pl", 0) is None
        assert cache.stats.hits == 1
        assert cache.stats.misses == 2
        assert cache.stats.invalidations == 1

    def test_byte_budget_evicts(self):
        # Each put weighs 128 + 8*80 = 768 bytes; cap fits two blocks.
        cache = DecodedBlockCache(capacity_bytes=1600)
        for block_no in range(4):
            cache.put("pl", block_no, block(80))
        assert len(cache) == 2
        assert cache.stats.evictions == 2
        assert cache.resident_bytes == 2 * 768

    def test_oversized_block_not_cached(self):
        cache = DecodedBlockCache(capacity_bytes=256)
        cache.put("pl", 0, block(100))
        assert len(cache) == 0

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            DecodedBlockCache(capacity_bytes=0)

    def test_evicts_least_recently_used(self):
        # 128 + 8*40 = 448 bytes a block; the budget fits three.
        cache = DecodedBlockCache(capacity_bytes=1400)
        for block_no in range(3):
            cache.put("pl", block_no, block(40))
        cache.get("pl", 0)
        cache.put("pl", 3, block(40))
        assert cache.get("pl", 1) is None
        assert all(cache.get("pl", n) is not None for n in (0, 2, 3))
        cache.put("pl", 2, block(40))  # a re-put counts as a use
        cache.put("pl", 4, block(40))
        assert cache.get("pl", 0) is None
        assert cache.stats.evictions == 2


# ----------------------------------------------------------------------
# tier 2: query results
# ----------------------------------------------------------------------
class TestQueryResultCache:
    def test_fingerprint_mismatch_invalidates_exactly(self):
        cache = QueryResultCache()
        cache.put("q1", (5,), {"r": 1})
        cache.put("q2", (9,), {"r": 2})
        # q1's dependency grew; q2's did not.
        assert cache.get("q1", (6,)) is None
        assert cache.get("q2", (9,)) == {"r": 2}
        assert cache.stats.invalidations == 1

    def test_entry_bound_evicts(self):
        cache = QueryResultCache(max_entries=2)
        for i in range(4):
            cache.put(f"q{i}", (), i)
        assert len(cache) == 2
        assert cache.stats.evictions == 2

    def test_evicts_least_recently_used(self):
        cache = QueryResultCache(max_entries=3)
        for key in "abc":
            cache.put(key, (), key)
        cache.get("a", ())
        cache.put("d", (), "d")
        assert cache.get("b", ()) is None
        cache.put("c", (1,), "a re-put counts as a use")
        cache.put("e", (), "e")
        assert cache.get("a", ()) is None
        assert [cache.get(key, ()) for key in "de"] == ["d", "e"]
        assert cache.stats.evictions == 2 and cache.stats.invalidations == 0

    def test_put_refreshes_existing_key(self):
        cache = QueryResultCache()
        cache.put("q", (1,), "old")
        cache.put("q", (2,), "new")
        assert len(cache) == 1
        assert cache.get("q", (2,)) == "new"


# ----------------------------------------------------------------------
# engine integration
# ----------------------------------------------------------------------
class TestEngineIntegration:
    def test_config_validates_budget(self):
        with pytest.raises(WorkloadError, match="read_cache_mb"):
            EngineConfig(read_cache_mb=-1)

    def test_cache_off_by_default(self):
        engine = build_engine()
        assert engine.read_cache is None
        assert engine.read_cache_stats() is None

    def test_repeated_query_hits_result_cache(self):
        engine = build_engine(config=cached_config())
        first = engine.search("+imclone +stewart")
        second = engine.search("+imclone +stewart")
        assert [(r.doc_id, r.score) for r in first] == [
            (r.doc_id, r.score) for r in second
        ]
        stats = engine.read_cache_stats()
        assert stats["results"]["hits"] == 1

    def test_append_invalidates_only_touched_queries(self):
        engine = build_engine(config=cached_config())

        # Invalidation is exact at *physical list* granularity (terms
        # share merged lists), so pick an untouched term that provably
        # lives on a different list than the appended term.
        def lid(term):
            return engine._list_id_for(engine.term_id(term))

        untouched = next(
            t
            for t in ("finance", "quarterly", "revenue", "meeting")
            if lid(t) != lid("imclone")
        )
        engine.search("imclone")   # caches the imclone query
        engine.search(untouched)   # caches the untouched query
        engine.index_document("imclone")  # appends to one list
        engine.search("imclone")
        engine.search(untouched)
        stats = engine.read_cache_stats()["results"]
        assert stats["invalidations"] == 1   # only the imclone entry
        assert stats["hits"] == 1            # the other query survived

    def test_new_term_appearance_invalidates(self):
        engine = build_engine(config=cached_config())
        assert engine.search("unheard") == []
        engine.index_document("unheard of term")
        assert [r.doc_id for r in engine.search("unheard")] == [
            len(DEFAULT_CORPUS)
        ]

    def test_disposition_invalidates_cached_results(self):
        """The fingerprint's disposition-count component must catch a
        live ``dispose_expired``: postings of a disposed document stay
        on WORM (lists are append-only), so only the disposition log
        distinguishes a stale cached result from a fresh one."""
        engine = build_engine(
            config=cached_config(retention_period=10),
        )
        before = [r.doc_id for r in engine.search("imclone")]
        assert 0 in before
        disposed = engine.dispose_expired(now=10_000)
        assert disposed  # every document is past the tiny horizon
        after = [r.doc_id for r in engine.search("imclone")]
        assert after == []
        stats = engine.read_cache_stats()["results"]
        assert stats["invalidations"] >= 1
        assert stats["hits"] == 0

    def test_segment_merge_forgets_retired_lists(self):
        """Merging segments retires their posting lists; the block cache
        must drop them instead of pinning dead entries."""
        from dataclasses import replace

        engine = build_engine(
            config=replace(
                cached_config(),
                tail_max_docs=2,
                merge_at_segments=None,
            )
        )
        engine.search("imclone")  # warms blocks of segment lists
        retired = [
            name
            for segment in engine.iter_segments()
            for name in segment.list_names()
        ]
        cache = engine.read_cache
        # Short lists are cached under the names they would have as files.
        assert not any(engine.store.device.exists(name) for name in retired)
        assert {key[0] for key in cache.blocks._entries} <= set(retired)
        assert cache.blocks._entries
        engine.merge_segments()
        assert all(
            key[0] not in retired for key in cache.blocks._entries
        )
        # And the merged layout still answers identically.
        legacy = build_engine()
        assert [r.doc_id for r in engine.search("imclone")] == [
            r.doc_id for r in legacy.search("imclone")
        ]

    def test_cached_candidates_are_read_only(self):
        """The result tier hands every hit the same object, so nothing
        about it can be changed: not a column, not the document list."""
        engine = build_engine(config=cached_config())
        first = engine.match("imclone")
        assert first.columns
        for _, docs, tfs in first.columns:
            with pytest.raises(ValueError):
                docs[0] = 99
            with pytest.raises(ValueError):
                tfs[0] = 99
        with pytest.raises(ValueError):
            first.doc_ids[0] = 99
        again = engine.match("imclone")
        assert again is first  # a hit: shared, not copied
        assert again.rows() == build_engine().match("imclone").rows()

    def test_racing_first_touches_attach_one_list(self):
        """Regression: two searches that first-touch a list at once used
        to leave the family holding one search's list and the other's
        jump index.  The writer appends through the jump index's own
        list, so the list the fingerprint measured stopped growing, and
        the result cache went on answering from before the ingest —
        omitting a committed document."""
        store = CachedWormStore(None, block_size=SMALL_CONFIG.block_size)
        build_engine(["alpha beta"] * 5, store=store)
        # A new session over the same device: nothing attached yet.
        engine = TrustworthySearchEngine(cached_config(), store=store)
        parked, release = threading.Event(), threading.Event()

        class ParkingLists(dict):
            def __setitem__(self, list_id, attached):
                # The first caller stops here, about to publish what it
                # attached, until released.
                if not parked.is_set():
                    parked.set()
                    assert release.wait(timeout=10)
                super().__setitem__(list_id, attached)

        engine._family._lists = ParkingLists()
        first = threading.Thread(target=engine.search, args=("alpha",))
        first.start()
        assert parked.wait(timeout=10)
        engine.search("alpha")  # attaches the same list, start to finish
        release.set()
        first.join(timeout=10)
        assert not first.is_alive()

        engine.index_document("alpha gamma")
        assert [r.doc_id for r in engine.search("alpha")] == [0, 1, 2, 3, 4, 5]

    def test_cache_span_recorded(self):
        engine = build_engine(config=cached_config())
        engine.search("imclone")
        trace = QueryTrace("imclone")
        engine.search("imclone", trace=trace)
        spans = {s["name"]: s for s in trace.to_dict()["spans"]}
        assert spans["cache"]["attrs"] == {"hit": True}

    def test_verify_reruns_on_cached_results(self):
        """Result verification is never skipped for cache hits."""
        from repro.adversary.attacks import posting_stuffing_attack
        from repro.errors import TamperDetectedError

        engine = build_engine(config=cached_config())
        engine.search("imclone", verify=True)
        tid = engine.term_id("imclone")
        posting_stuffing_attack(
            engine.posting_list_for("imclone")[0],
            tid,
            count=len(engine.documents) + 3,
        )
        # The attack *appended* postings, so the fingerprint changed and
        # retrieval re-runs; either way verification must fire.
        with pytest.raises(TamperDetectedError):
            engine.search("imclone", verify=True)

    def test_rerun_join_reads_frozen_blocks_from_cache(self):
        # Small blocks so each posting list spans many blocks and the
        # jump index actually navigates.
        config = cached_config(block_size=512)
        engine = build_engine(
            [f"alpha beta doc{i}" for i in range(200)], config=config
        )
        engine.search("+alpha +beta")
        stats = engine.read_cache_stats()
        # An append invalidates the result tier and only the tail
        # posting blocks, so the re-run's seeks hit the block tier.
        engine.index_document("alpha beta")
        engine.search("+alpha +beta")
        stats2 = engine.read_cache_stats()
        assert stats2["results"]["invalidations"] == 1
        assert stats2["blocks"]["hits"] > stats["blocks"]["hits"]

    def test_metrics_export(self):
        engine = build_engine(config=cached_config())
        engine.search("imclone")
        engine.search("imclone")
        registry = MetricsRegistry()
        export_read_cache(registry, engine.read_cache, shard="0")
        snapshot = registry.snapshot()
        hits = {
            s["labels"]["tier"]: s["value"]
            for s in snapshot["repro_readcache_hits_total"]["series"]
        }
        assert hits["results"] == 1
        assert "repro_readcache_resident_bytes" in snapshot

    def test_export_no_op_when_cache_off(self):
        registry = MetricsRegistry()
        export_read_cache(registry, None)
        assert registry.snapshot() == {}


class TestShardedIntegration:
    def test_sharded_repeat_query_hits_per_shard_caches(self):
        from tests.helpers import SHARD_CONFIG, build_sharded
        from dataclasses import replace

        config = replace(SHARD_CONFIG, read_cache=True)
        sharded = build_sharded(
            [f"common doc{i}" for i in range(12)],
            num_shards=3,
            config=config,
        )
        with sharded:
            first = sharded.search("common", top_k=20)
            second = sharded.search("common", top_k=20)
            assert [(r.doc_id, r.score) for r in first] == [
                (r.doc_id, r.score) for r in second
            ]
            stats = sharded.read_cache_stats()
            assert stats["results"]["hits"] >= 1
            assert len(stats["per_shard"]) == 3

    def test_batch_ingest_keeps_shard_caches_coherent(self):
        from tests.helpers import SHARD_CONFIG, build_sharded
        from dataclasses import replace

        config = replace(SHARD_CONFIG, read_cache=True)
        sharded = build_sharded(
            [f"common doc{i}" for i in range(8)], num_shards=2, config=config
        )
        with sharded:
            sharded.search("common", top_k=50)
            sharded.index_batch([f"common late{i}" for i in range(5)])
            hits = {r.doc_id for r in sharded.search("common", top_k=50)}
            assert hits == set(range(13))

    def test_sharded_stats_none_when_off(self):
        from tests.helpers import build_sharded

        sharded = build_sharded(["a b"], num_shards=2)
        with sharded:
            assert sharded.read_cache_stats() is None
