"""Unit tests for learning term popularity from a workload prefix, and
for the epochs that apply it."""

import numpy as np
import pytest

from repro.core.epochs import (
    learn_popular_terms,
    prefix_query_frequencies,
    prefix_term_frequencies,
)
from repro.errors import WorkloadError
from repro.sharding import ShardedSearchEngine
from repro.workloads.corpus import CorpusConfig, CorpusGenerator
from repro.workloads.queries import QueryLogConfig, QueryLogGenerator
from repro.workloads.stats import WorkloadStats
from tests.helpers import epoch_config, epoch_layouts


class TestLearning:
    def test_learn_by_qi(self):
        stats = WorkloadStats(ti=np.array([1, 2, 3]), qi=np.array([9, 1, 5]))
        assert list(learn_popular_terms(stats, 2, by="qi")) == [0, 2]

    def test_learn_by_ti(self):
        stats = WorkloadStats(ti=np.array([1, 2, 3]), qi=np.array([9, 1, 5]))
        assert list(learn_popular_terms(stats, 2, by="ti")) == [2, 1]

    def test_bad_by_rejected(self):
        stats = WorkloadStats(ti=np.array([1]), qi=np.array([1]))
        with pytest.raises(WorkloadError):
            learn_popular_terms(stats, 1, by="xx")

    def test_prefix_term_frequencies(self):
        corpus = CorpusGenerator(
            CorpusConfig(num_docs=100, vocabulary_size=500, mean_terms_per_doc=20)
        )
        prefix = prefix_term_frequencies(corpus, 0.1)
        full = corpus.term_document_frequencies()
        assert prefix.sum() < full.sum()
        assert (prefix <= full).all()

    def test_prefix_stability(self):
        """Figures 3(f)/3(g)'s premise: the 10% prefix ranks the same head."""
        corpus = CorpusGenerator(
            CorpusConfig(num_docs=500, vocabulary_size=2000, mean_terms_per_doc=60)
        )
        prefix = prefix_term_frequencies(corpus, 0.1)
        full = corpus.term_document_frequencies()
        top_prefix = set(np.argsort(prefix)[::-1][:20].tolist())
        top_full = set(np.argsort(full)[::-1][:20].tolist())
        assert len(top_prefix & top_full) >= 14  # strong head agreement

    def test_prefix_query_frequencies(self):
        log = QueryLogGenerator(
            QueryLogConfig(num_queries=200, vocabulary_size=500)
        )
        prefix = prefix_query_frequencies(log, 0.25)
        full = log.term_query_frequencies()
        assert (prefix <= full).all()
        assert prefix.sum() > 0

    def test_bad_fraction_rejected(self):
        corpus = CorpusGenerator(CorpusConfig(num_docs=10, vocabulary_size=10))
        with pytest.raises(WorkloadError):
            prefix_term_frequencies(corpus, 0.0)


class TestEpochManager:
    """The epochs themselves are the engine's sealed segments (this
    class used to test a standalone manager, deleted); here the
    manager is the sharded facade: every shard rolls, learns and is
    queried on its own, and the facade adds the answers up."""

    DOCS = [f"imclone filing number{i}" for i in range(9)]

    def _sharded(self, docs_per_epoch=2, ingest=True, **kwargs):
        sharded = ShardedSearchEngine(
            epoch_config(docs_per_epoch, **kwargs), num_shards=2
        )
        if ingest:
            # One document a call: a batch seals as one epoch however
            # many documents it brings.
            for i, text in enumerate(self.DOCS):
                assert sharded.index_document(text, commit_time=100 + i) == i
        return sharded

    def test_auto_roll(self):
        sharded = self._sharded(docs_per_epoch=2)
        info = sharded.segments_info()
        for shard in info["shards"]:
            assert all(s["doc_count"] == 2 for s in shard["segments"])
            assert shard["tail_docs"] < 2
        sealed = 2 * info["segments_live"]
        assert sealed + info["tail_docs"] == len(self.DOCS)

    def test_doc_ids_global_monotone(self):
        # _sharded asserts that global ids count up in arrival order;
        # each shard's epochs cover its local ids in order, without gaps.
        sharded = self._sharded(docs_per_epoch=2)
        for shard in sharded.shards:
            ranges = [
                (s.info.first_doc, s.info.last_doc)
                for s in shard.iter_segments()
            ]
            assert ranges == [(2 * i, 2 * i + 1) for i in range(len(ranges))]

    def test_stats_handed_to_next_epoch(self):
        sharded = self._sharded(docs_per_epoch=100, ingest=False, popular=1)
        sharded.index_batch(["hotterm filler filler", "hotterm filler"] * 2)
        for _ in range(3):
            sharded.search("hotterm")  # reaches every shard's evidence
        sharded.search("filler")
        sharded.seal_tail()
        sharded.index_batch(["anything at all"] * 4)
        sharded.seal_tail()
        for shard in sharded.shards:
            assert epoch_layouts(shard) == [[], ["hotterm"]]

    def test_first_epoch_has_no_stats(self):
        sharded = self._sharded(docs_per_epoch=2)
        for shard in sharded.shards:
            assert epoch_layouts(shard)[0] == []

    def test_query_epochs_all(self):
        sharded = self._sharded(docs_per_epoch=2)
        hits = {r.doc_id for r in sharded.search("imclone", top_k=20)}
        assert hits == set(range(len(self.DOCS)))

    def test_query_epochs_range_filtered(self):
        """Section 3.3: time-constrained queries touch only overlapping
        epochs — on every shard."""
        sharded = self._sharded(docs_per_epoch=2)
        hits = {r.doc_id for r in sharded.search("imclone @102..104", top_k=20)}
        assert hits == {2, 3, 4}
        everything = sharded.profile("imclone")
        ranged = sharded.profile("imclone @102..104")
        assert ranged.matches == 3
        assert 0 < ranged.total_blocks_read < everything.total_blocks_read
        for whole, part in zip(everything.per_shard, ranged.per_shard):
            assert part.physical_lists < whole.physical_lists

    def test_manual_epoch_roll(self):
        sharded = self._sharded(docs_per_epoch=100)
        assert sharded.seal_tail() == [0, 0]
        assert sharded.seal_tail() == [None, None]  # empty epochs stay open
        sharded.index_document("one more, for one shard")
        assert sorted(sharded.seal_tail(), key=str) == [1, None]

    def test_invalid_config_rejected(self):
        with pytest.raises(WorkloadError):
            epoch_config(docs_per_epoch=0)  # an epoch holds a document
        with pytest.raises(WorkloadError):
            epoch_config(popular=-1)
