"""Unit tests for the read-path cache hierarchy."""

import threading
from dataclasses import replace

import numpy as np
import pytest

from repro.adversary.attacks import posting_stuffing_attack
from repro.core.posting import pack_term_tf
from repro.core.segments import ReadCosts
from repro.errors import WorkloadError
from repro.observability.adapters import export_read_cache
from repro.observability.trace import QueryTrace
from repro.observability.metrics import MetricsRegistry
from repro.search.engine import EngineConfig, TrustworthySearchEngine
from repro.search.readcache import ReadCache
from repro.worm.storage import CachedWormStore
from tests.helpers import DEFAULT_CORPUS, SMALL_CONFIG, build_engine


def cached_config(**kwargs):
    return replace(SMALL_CONFIG, read_cache=True, **kwargs)


def column(*doc_ids):
    """A one-term scan entry: ``(term_id, doc_ids, tfs)``, 8 bytes a posting."""
    docs = np.array(doc_ids, dtype=np.uint32)
    return [(7, docs, np.ones(len(docs), dtype=np.uint32))]


def budget(capacity_bytes):
    """A read cache of exactly ``capacity_bytes``."""
    return ReadCache(capacity_mb=capacity_bytes / (1 << 20))


def keys(cache):
    """The keys ``cache`` holds, least recently used first."""
    return list(cache.entries)


# ----------------------------------------------------------------------
# the cache: per-family retrievals
# ----------------------------------------------------------------------
class TestQueryResultCache:
    """Entries keyed ``(segment number, mode, term IDs)``, stored under
    the lengths of the lists they read that can still grow."""

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            ReadCache(capacity_mb=0)

    def test_fingerprint_mismatch_invalidates_exactly(self):
        cache = budget(1 << 20)
        cache.put((0, "any", (7,)), column(1, 2), (5,))
        cache.put((1, "any", (7,)), column(9), ())
        # Segment 0's long list grew; segment 1 has none that can.
        assert cache.get((0, "any", (7,)), (6,)) is None
        assert cache.get((1, "any", (7,)), ())[0][1].tolist() == [9]
        assert cache.stats.invalidations == 1
        assert len(cache) == 1

    def test_entry_bound_evicts(self):
        # 128 + 8*50 = 528 bytes an entry, and room for three.
        cache = budget(1600)
        for seg_no in range(4):
            cache.put((seg_no, "any", (7,)), column(*range(50)))
        assert len(cache) == 3 and cache.get((0, "any", (7,))) is None
        assert cache.stats.evictions == 1
        assert cache.resident_bytes == 3 * 528
        cache.put("huge", column(*range(200)))  # more than the whole budget
        assert "huge" not in cache.entries and len(cache) == 3

    def test_evicts_least_recently_used(self):
        cache = budget(3 * (128 + 8 * 4))
        for key in "abc":
            cache.put(key, column(1, 2, 3, 4))
        cache.get("a")
        cache.put("d", column(1, 2, 3, 4))
        assert cache.get("b") is None
        cache.put("c", column(1, 2, 3, 4), (1,))  # a re-put counts as a use
        cache.put("e", column(1, 2, 3, 4))
        assert cache.get("a") is None
        assert all(cache.get(key) is not None for key in "de")
        assert cache.stats.evictions == 2 and cache.stats.invalidations == 0

    def test_put_refreshes_existing_key(self):
        cache = budget(1 << 20)
        cache.put("q", column(1), (1,))
        cache.put("q", column(2), (2,))
        assert len(cache) == 1
        assert cache.get("q", (2,))[0][1].tolist() == [2]

    def test_stored_arrays_are_read_only(self):
        cache = budget(1 << 20)
        piece = column(1, 2)
        cache.put("q", piece)
        _, docs, tfs = cache.get("q")[0]
        for array_ in (docs, tfs):
            with pytest.raises(ValueError):
                array_[0] = 99


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
            return engine._family.list_for(engine.term_id(term))

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

    def test_disposal_after_caching_shows_on_next_search(self):
        """A disposal appends to no posting list — a disposed document's
        postings stay on WORM — so the cached retrieval stays valid, and
        the filter every query runs after the union drops the document."""
        engine = build_engine(config=cached_config(retention_period=10))
        before = [r.doc_id for r in engine.search("imclone")]
        assert 0 in before
        disposed = engine.dispose_expired(now=10_000)
        assert disposed  # every document is past the tiny horizon
        after = [r.doc_id for r in engine.search("imclone")]
        assert after == []
        stats = engine.read_cache_stats()["results"]
        assert stats["hits"] == 1 and stats["invalidations"] == 0

    def test_segment_merge_forgets_retired_lists(self):
        """Merging segments retires their posting lists; the cache must
        drop their entries instead of pinning dead ones."""
        engine = build_engine(
            config=replace(
                cached_config(),
                tail_max_docs=2,
                merge_at_segments=None,
            )
        )
        engine.search("imclone")  # caches each segment's retrieval
        retired = {segment.info.seg_no for segment in engine.iter_segments()}
        assert {key[0] for key in keys(engine.read_cache)} == retired
        engine.merge_segments()
        assert not keys(engine.read_cache)
        # And the merged layout still answers identically.
        legacy = build_engine()
        assert [r.doc_id for r in engine.search("imclone")] == [
            r.doc_id for r in legacy.search("imclone")
        ]

    def test_cached_candidates_are_read_only(self):
        """The result tier hands every hit the same arrays, so nothing
        about them can be changed: a scan's columns and a join's
        document list are read-only — and a hit answers exactly what a
        recomputation would."""
        engine = build_engine(config=cached_config())
        first = engine.match("imclone")
        again = engine.match("imclone")
        assert engine.read_cache_stats()["results"]["hits"] == 1
        assert again.columns
        for _, docs, tfs in again.columns:
            with pytest.raises(ValueError):
                docs[0] = 99
            with pytest.raises(ValueError):
                tfs[0] = 99
        assert again.rows() == first.rows() == build_engine().match("imclone").rows()
        reference = build_engine().match("+imclone +stewart").rows()
        for _ in range(2):
            joined = engine.match("+imclone +stewart")
            assert joined.rows() == reference
            with pytest.raises(ValueError):
                joined.doc_ids[0] = 99
        assert engine.read_cache_stats()["results"]["hits"] == 2

    def test_racing_first_touches_attach_one_list(self):
        """Regression: two searches that first-touch a list at once used
        to leave the family holding one search's list and the other's
        jump index.  The writer appends through the jump index's own
        list, so the list the result tier measured stopped growing, and
        the tier went on answering from before the ingest — omitting a
        committed document."""
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
        assert spans["cache"]["attrs"] == {"families": 1, "families_cached": 1}

    def test_verify_reruns_on_cached_results(self):
        """Result verification is never skipped for cache hits."""
        from repro.errors import TamperDetectedError

        engine = build_engine(config=cached_config())
        engine.search("imclone", verify=True)
        tid = engine.term_id("imclone")
        posting_stuffing_attack(
            engine.posting_list_for("imclone")[0],
            tid,
            count=len(engine.documents) + 3,
        )
        # The attack *appended* postings, so the list's length changed
        # and retrieval re-runs; either way verification must fire.
        with pytest.raises(TamperDetectedError):
            engine.search("imclone", verify=True)

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


#: Three sealed segments of 48 documents and five in the tail.  "alpha"
#: is in every document, so its list in each segment is long (more than
#: the 40 postings a short list holds at 512-byte blocks, B = 4).
TAIL_CONFIG = EngineConfig(
    num_lists=16, branching=4, block_size=512, tail_max_docs=48, merge_at_segments=None
)
TAIL_TEXTS = [f"alpha {'beta' if i % 2 else 'gamma'} doc{i}" for i in range(149)]
QUERIES = ["alpha", "beta gamma", "alpha beta", "+alpha +beta", "+beta +gamma", "alpha @55..70"]


def tail_engine(read_cache=True):
    engine = TrustworthySearchEngine(replace(TAIL_CONFIG, read_cache=read_cache))
    for text in TAIL_TEXTS:
        engine.index_document(text)
    assert len(engine.iter_segments()) == 3
    return engine


def answers(engine):
    """Every query's ranking with ``float.hex()`` scores."""
    return {
        query: [(r.doc_id, r.score.hex()) for r in engine.search(query, top_k=200)]
        for query in QUERIES
    }


def result_segments(engine):
    return {key[0] for key in keys(engine.read_cache)}


class TestFamilyEntries:
    """A sealed segment's entry depends only on its long lists, so it
    outlives every ingest into the tail and every seal after it."""

    def test_sealed_entry_is_hit_after_a_tail_only_ingest(self):
        engine = tail_engine()
        answers(engine)
        engine.index_document("alpha beta gamma late")  # into the tail
        for query in ("alpha beta", "+alpha +beta"):
            costs = ReadCosts()
            matched = engine.match(query, costs=costs)
            assert costs.families_cached == 3 and costs.lists == costs.blocks == 0
            assert 149 in matched.doc_ids.tolist()
        assert engine.read_cache_stats()["results"]["invalidations"] == 0
        reference = tail_engine(read_cache=False)
        reference.index_document("alpha beta gamma late")
        assert answers(engine) == answers(reference)

    def test_a_seal_adds_entries_only_for_the_new_segment(self):
        engine = tail_engine()
        answers(engine)
        before = set(keys(engine.read_cache))
        for i in range(43):  # the tail reaches 48 and seals
            engine.index_document(f"alpha beta more{i}")
        new = engine.iter_segments()[-1].info.seg_no
        assert len(engine.iter_segments()) == 4
        answers(engine)
        after = set(keys(engine.read_cache))
        assert before < after
        assert {key[0] for key in after - before} == {new}
        assert engine.read_cache_stats()["results"]["invalidations"] == 0

    def test_a_merge_leaves_no_entry_for_a_retired_segment(self):
        engine = tail_engine()
        answers(engine)
        retired = {segment.info.seg_no for segment in engine.iter_segments()}
        assert result_segments(engine) == retired
        merged = engine.merge_segments()
        assert not result_segments(engine)
        assert answers(engine) == answers(tail_engine(read_cache=False))
        assert result_segments(engine) == {merged}

    def test_a_cached_family_reads_nothing(self):
        def scanned():
            (series,) = engine.metrics.snapshot()["repro_scan_entries_total"]["series"]
            return series["value"]

        engine = tail_engine()
        engine.profile("alpha")
        before = scanned()
        profile = engine.profile("alpha")
        assert profile.families_cached == 3
        assert (profile.physical_lists, profile.blocks_read) == (0, 0)
        assert profile.entries_scanned == 5  # the tail's alpha postings
        assert scanned() == before + 5

    @pytest.mark.parametrize("cached_first", [True, False])
    def test_stuffing_a_long_list_answers_as_without_the_cache(self, cached_first):
        """Mala stuffs the directly-appended "alpha" list — the paper's
        appendable list — with postings under fabricated IDs, at a
        frequency of 9: the cached engine's answers change exactly as
        the uncached engine's do — whether the family's entry was cached
        before (it is invalidated: the list grew) or no entry exists
        yet.  The entry holds the stuffed postings the list stores.  (A
        sealed segment's long list is an extent, which no reader reads
        past: test_sealed_extents.py.)"""
        legacy = replace(TAIL_CONFIG, tail_max_docs=None)
        on, off = (
            TrustworthySearchEngine(replace(legacy, read_cache=read_cache))
            for read_cache in (True, False)
        )
        for engine in (on, off):
            engine.index_batch(TAIL_TEXTS)
        before = answers(off)
        if cached_first:
            assert answers(on) == before
        for engine in (on, off):
            alpha = engine.term_id("alpha")
            posting_list, _ = engine.posting_list_for("alpha")
            posting_stuffing_attack(
                posting_list, pack_term_tf(alpha, 9), count=3, first_fake_doc_id=160
            )
        stuffed = answers(off)
        assert [doc_id for doc_id, _ in stuffed["alpha"][:3]] == [160, 161, 162]
        assert answers(on) == stuffed
        assert bool(on.read_cache.stats.invalidations) == cached_first
        scans = [key for key in keys(on.read_cache) if key[1] == "any"]
        assert any(key[0] is None and alpha in key[2] for key in scans)
        assert answers(on) == stuffed  # and again, from what was cached


class TestShardedIntegration:
    def test_sharded_repeat_query_hits_per_shard_caches(self):
        from tests.helpers import SHARD_CONFIG, build_sharded

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

    @pytest.mark.parametrize("num_shards", [1, 2])
    def test_summed_stats_carry_every_key_a_shard_does(self, num_shards):
        """README documents ``read_cache_stats()["results"]["hit_rate"]``:
        the sum over shards has it, from the summed counts."""
        from tests.helpers import SHARD_CONFIG, build_sharded

        config = replace(SHARD_CONFIG, read_cache=True)
        sharded = build_sharded(
            [f"common doc{i}" for i in range(12)], num_shards=num_shards, config=config
        )
        with sharded:
            for _ in range(2):
                sharded.search("common", top_k=20)
            stats = sharded.read_cache_stats()
            for tier in ("results", "blocks"):
                for shard in stats["per_shard"]:
                    assert stats[tier].keys() == shard[tier].keys()
            assert stats["results"]["hit_rate"] == 0.5
            assert stats["blocks"]["hits"] == stats["blocks"]["misses"] == 0

    def test_batch_ingest_keeps_shard_caches_coherent(self):
        from tests.helpers import SHARD_CONFIG, build_sharded

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
