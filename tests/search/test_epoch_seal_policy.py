"""What the ``"epoch"`` seal policy learns from, and what a window reads.

Two behaviours :class:`~repro.search.engine.TrustworthySearchEngine`
took over from the per-epoch engine it replaced (the re-pointed tests
of that engine are in ``test_epoched.py``):

* *evidence* — a sealed segment unmerges the terms the previous epoch's
  queries asked for most (``qi``, counted where term IDs resolve, so a
  result-cache hit counts), or with no query that epoch's most
  posting-heavy terms (``ti``);
* *window pruning* — a time range resolves to its document-ID window
  before anything is scanned or joined, and sealed segments whose
  manifest range misses the window are not read.  Pruning must be
  invisible except in the costs: a Hypothesis property holds every
  time-ranged answer to a scan-everything-then-filter reference.
"""

from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.segments import ReadCosts
from repro.observability.trace import QueryTrace
from repro.search.engine import EngineConfig, TrustworthySearchEngine
from repro.search.query import Query, QueryMode
from repro.sharding import ShardedSearchEngine
from tests.helpers import epoch_config, epoch_layouts


def make_engine(docs_per_epoch=3, **kwargs):
    return TrustworthySearchEngine(epoch_config(docs_per_epoch, **kwargs))


class TestEvidence:
    def test_result_cache_hits_still_count_as_queries(self):
        engine = make_engine(docs_per_epoch=100, popular=1, read_cache=True)
        engine.index_document("hotterm filler filler")
        for _ in range(4):
            engine.search("hotterm")  # served from the result cache after #1
        assert engine.read_cache_stats()["results"]["hits"] >= 3
        engine.search("filler")
        engine.seal_tail()
        engine.index_document("anything")
        engine.seal_tail()
        assert epoch_layouts(engine) == [[], ["hotterm"]]

    def test_unqueried_epoch_hands_on_its_term_counts(self):
        engine = make_engine(docs_per_epoch=2, popular=1)
        engine.index_document("filler hotterm")
        engine.index_document("filler coldterm")     # seals epoch 0, no query
        engine.index_document("anything else")
        engine.index_document("more of anything")    # seals epoch 1 from ti
        assert epoch_layouts(engine) == [[], ["filler"]]

    def test_each_epoch_learns_from_the_one_before_only(self):
        engine = make_engine(docs_per_epoch=100, popular=1)
        for hot in ("alpha", "beta", "gamma"):
            engine.index_document("alpha beta gamma")
            engine.search(hot)
            engine.seal_tail()
        assert epoch_layouts(engine) == [[], ["alpha"], ["beta"]]


class TestTimeWindow:
    """A time-ranged query reads only the epochs its window overlaps."""

    @pytest.fixture()
    def engine(self):
        engine = make_engine(docs_per_epoch=2)
        for i in range(6):
            engine.index_document(f"imclone filing doc{i}", commit_time=100 + i)
        assert len(engine.iter_segments()) == 3
        return engine

    def test_scan_reads_only_overlapping_segments(self, engine):
        # (the blocks it saves: test_epoched.py, through profile_query)
        trace = QueryTrace("imclone @102..103")
        hits = engine.search("imclone @102..103", trace=trace)
        assert {r.doc_id for r in hits} == {2, 3}
        scan = next(s for s in trace.spans if s.name == "scan")
        assert scan.attrs["families"] == 1
        assert scan.attrs["families_skipped"] == 2

    def test_join_reads_only_overlapping_segments(self, engine):
        costs = ReadCosts()
        matched = engine.match("+imclone +filing @101..102", costs=costs)
        assert sorted(matched) == [1, 2]  # a window across a segment edge
        assert costs.families_skipped == 1
        everything = ReadCosts()
        engine.match("+imclone +filing", costs=everything)
        assert everything.families_skipped == 0
        assert 0 < costs.blocks < everything.blocks

        trace = QueryTrace()
        engine.search("+imclone +filing @101..102", trace=trace)
        join = next(s for s in trace.spans if s.name == "join")
        assert join.attrs["families"] == 2
        assert join.attrs["families_skipped"] == 1

    def test_empty_window_touches_no_list(self, engine):
        costs = ReadCosts()
        trace = QueryTrace()
        assert engine.match("imclone @500..600", costs=costs, trace=trace) == {}
        assert costs.blocks == 0 and costs.lists == 0
        assert not any(s.name in ("scan", "join") for s in trace.spans)
        filtered = next(s for s in trace.spans if s.name == "filter")
        assert filtered.attrs["window_docs"] == 0
        assert filtered.attrs["kept"] == 0

    def test_open_epoch_is_always_consulted(self, engine):
        engine.index_document("imclone late filing", commit_time=200)
        assert [r.doc_id for r in engine.search("imclone @200..200")] == [6]

    def test_legacy_lists_are_never_skipped(self):
        """The directly-appended family has no manifest range."""
        engine = TrustworthySearchEngine(EngineConfig(num_lists=16, branching=4))
        for i in range(6):
            engine.index_document(f"imclone doc{i}", commit_time=100 + i)
        costs = ReadCosts()
        assert sorted(engine.match("imclone @102..103", costs=costs)) == [2, 3]
        assert costs.families_skipped == 0 and costs.lists == 1


WORDS = ["alpha", "beta", "gamma", "delta", "omega"]
FIRST_TIME = 5


@st.composite
def archives(draw):
    """A small archive of several segments plus a live tail, and what
    was put into it: ``(engine, docs)`` with ``docs[global_id] =
    (words, commit_time)``.  Commit times leave gaps (the engine's clock
    is strict, so they cannot repeat); layouts, shard count, the read
    cache and a mid-stream merge are drawn too."""
    count = draw(st.integers(6, 18))
    words = draw(
        st.lists(
            st.lists(st.sampled_from(WORDS), min_size=1, max_size=4, unique=True),
            min_size=count,
            max_size=count,
        )
    )
    steps = draw(st.lists(st.integers(1, 3), min_size=count, max_size=count))
    times = list(accumulate(steps, initial=FIRST_TIME - 1))[1:]
    merge_after = draw(st.none() | st.integers(4, count))
    engine = ShardedSearchEngine(
        EngineConfig(
            num_lists=8,
            block_size=512,
            branching=draw(st.sampled_from([None, 4])),
            tail_max_docs=draw(st.integers(2, 4)),
            seal_strategy=draw(st.sampled_from(["uniform", "popular", "epoch"])),
            seal_popular_terms=2,
            merge_at_segments=None,
            read_cache=draw(st.booleans()),
        ),
        num_shards=draw(st.sampled_from([1, 2])),
    )
    docs = {}
    for text, commit_time in zip(words, times):
        doc_id = engine.index_document(" ".join(text), commit_time=commit_time)
        docs[doc_id] = (set(text), commit_time)
        if len(docs) == merge_after:
            engine.merge_segments()
    return engine, docs


def windows_of(engine, docs, draw):
    """The named windows, on this archive, plus a few drawn ones."""
    times = sorted(t for _, t in docs.values())
    first, last = times[0], times[-1]
    named = [
        (0, FIRST_TIME - 1),                      # empty, before everything
        (last + 1, last + 3),                     # empty, past the end
        (first, last),                            # spanning all
        (draw(st.sampled_from(times)), last + 10),  # running past the end
    ]
    one = draw(st.sampled_from(times))
    named.append((one, one))                      # one commit time wide
    for shard_id, shard in enumerate(engine.shards):
        for segment in shard.iter_segments():     # on a segment's edges
            edge = docs[engine.router.to_global(shard_id, segment.info.last_doc)][1]
            named += [(first, edge), (edge, edge), (edge + 1, last + 1)]
    bounds = st.integers(first - 1, last + 2)
    for _ in range(3):
        low, high = sorted((draw(bounds), draw(bounds)))
        named.append((low, high))
    return named


class TestWindowPruningProperty:
    """Pruning is invisible: every time-ranged answer equals scanning
    everything and filtering afterwards, the way match() used to."""

    @staticmethod
    def scan_everything_then_filter(shard, query, commit_time_of):
        unranged = Query(terms=query.terms, mode=query.mode)
        low, high = query.time_range
        return {
            doc_id: tf
            for doc_id, tf in shard.match(unranged).items()
            if low <= commit_time_of(doc_id) <= high
        }

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_pruned_equals_scan_all_then_filter(self, data):
        engine, docs = data.draw(archives())
        terms = tuple(
            data.draw(st.lists(st.sampled_from(WORDS), min_size=1, max_size=3, unique=True))
        )
        for window in windows_of(engine, docs, data.draw):
            for mode in (QueryMode.ANY, QueryMode.ALL):
                query = Query(terms=terms, mode=mode, time_range=window)
                wanted = any if mode is QueryMode.ANY else all
                expected_ids = {
                    doc_id
                    for doc_id, (words, commit_time) in docs.items()
                    if window[0] <= commit_time <= window[1]
                    and wanted(t in words for t in terms)
                }
                matched = set()
                for shard_id, shard in enumerate(engine.shards):
                    reference = self.scan_everything_then_filter(
                        shard,
                        query,
                        lambda d: docs[engine.router.to_global(shard_id, d)][1],
                    )
                    # Twice: the second answer may come from the result cache.
                    assert shard.match(query) == reference, (window, mode)
                    assert shard.match(query) == reference, (window, mode)
                    matched |= {
                        engine.router.to_global(shard_id, d) for d in reference
                    }
                assert matched == expected_ids, (window, mode)
                # Ranked, across shards: the unranged ranking, filtered.
                unranged = Query(terms=terms, mode=mode)
                assert engine.search(query, top_k=len(docs)) == [
                    hit
                    for hit in engine.search(unranged, top_k=len(docs))
                    if hit.doc_id in expected_ids
                ], (window, mode)
