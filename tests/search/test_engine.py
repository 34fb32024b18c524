"""Integration tests for the end-to-end trustworthy search engine."""

import pytest

from repro.core.merge import PopularUnmergedMerge
from repro.errors import TamperDetectedError, WorkloadError
from repro.search.engine import EngineConfig, SearchResult, TrustworthySearchEngine
from repro.search.query import Query, QueryMode
from tests.helpers import build_engine


@pytest.fixture()
def engine():
    return build_engine()


class TestIngest:
    def test_ids_monotonic(self, engine):
        assert engine.index_document("another memo") == 6

    def test_documents_on_worm(self, engine):
        assert engine.documents.get(0).text.startswith("imclone")

    def test_vocabulary_grows(self, engine):
        before = engine.vocabulary_size
        engine.index_document("xylophone zebra")
        assert engine.vocabulary_size == before + 2

    def test_commit_times_monotonic(self, engine):
        engine.index_document("later doc", commit_time=100)
        with pytest.raises(WorkloadError):
            engine.index_document("backdated doc", commit_time=50)

    def test_index_term_counts_path(self, engine):
        doc_id = engine.index_term_counts({"gadget": 2, "widget": 1})
        assert [r.doc_id for r in engine.search("gadget")][0] == doc_id

    def test_real_time_update_no_buffering(self, engine):
        """A document is searchable the moment index_document returns."""
        doc_id = engine.index_document("immediately searchable unicorns")
        assert [r.doc_id for r in engine.search("unicorns")] == [doc_id]


class TestDisjunctiveSearch:
    def test_matches_any_term(self, engine):
        hits = {r.doc_id for r in engine.search("imclone finance")}
        assert hits == {0, 2, 3, 1, 5}

    def test_ranking_prefers_more_matching_terms(self, engine):
        results = engine.search("stewart waksal imclone")
        assert results[0].doc_id in (0, 3)  # docs with all three terms

    def test_top_k(self, engine):
        assert len(engine.search("imclone finance", top_k=2)) == 2

    def test_no_hits(self, engine):
        assert engine.search("nonexistentterm") == []

    def test_scores_descending(self, engine):
        results = engine.search("quarterly revenue")
        scores = [r.score for r in results]
        assert scores == sorted(scores, reverse=True)


class TestConjunctiveSearch:
    def test_all_terms_required(self, engine):
        hits = [r.doc_id for r in engine.search("+stewart +waksal +imclone")]
        assert sorted(hits) == [0, 3]

    def test_conjunctive_vs_disjunctive(self, engine):
        any_hits = {r.doc_id for r in engine.search("quarterly finance")}
        all_hits = {r.doc_id for r in engine.search("+quarterly +finance")}
        assert all_hits <= any_hits
        assert all_hits == {1, 5}

    def test_absent_term_short_circuits(self, engine):
        assert engine.search("+imclone +nonexistentterm") == []

    def test_conjunctive_doc_ids_reports_blocks(self, engine):
        docs, blocks = engine.conjunctive_doc_ids(["imclone", "stewart"])
        assert sorted(docs) == [0, 3]
        assert blocks >= 1


class TestTimeRangeSearch:
    def test_range_filters_results(self, engine):
        hits = [r.doc_id for r in engine.search("imclone @0..2")]
        assert sorted(hits) == [0, 2]

    def test_query_object_interface(self, engine):
        q = Query(terms=("imclone",), mode=QueryMode.ANY, time_range=(3, 5))
        assert [r.doc_id for r in engine.search(q)] == [3]


class TestVerification:
    def test_clean_results_verify(self, engine):
        results = engine.search("imclone", verify=True)
        assert results  # no exception

    def test_stuffed_results_detected(self, engine):
        from repro.adversary.attacks import posting_stuffing_attack

        tid = engine.term_id("imclone")
        pl = engine.posting_list_for("imclone")[0]
        posting_stuffing_attack(pl, tid, count=4)
        with pytest.raises(TamperDetectedError):
            engine.search("imclone", verify=True)

    def test_verify_config_flag(self):
        engine = TrustworthySearchEngine(
            EngineConfig(num_lists=8, branching=None)
        )
        engine.index_document("hello world memo")
        assert engine.search("memo", verify=True)  # verification on, passes


class TestConfigurations:
    def test_no_jump_index_mode(self):
        engine = TrustworthySearchEngine(EngineConfig(num_lists=8, branching=None))
        engine.index_document("alpha beta gamma")
        engine.index_document("alpha delta")
        assert [r.doc_id for r in engine.search("+alpha +beta")] == [0]
        assert not any(jump for _, jump in engine.iter_posting_lists())

    def test_cosine_ranking(self):
        engine = TrustworthySearchEngine(
            EngineConfig(num_lists=8, branching=None, ranking="cosine")
        )
        engine.index_document("apple apple apple")
        engine.index_document("apple pear")
        results = engine.search("apple")
        assert results[0].doc_id == 0

    def test_custom_merge_strategy(self):
        strategy = PopularUnmergedMerge(16, popular_terms=[0, 1])
        engine = TrustworthySearchEngine(
            EngineConfig(num_lists=16, branching=None), merge_strategy=strategy
        )
        engine.index_document("first second third")
        assert [r.doc_id for r in engine.search("+first +third")] == [0]

    def test_invalid_config_rejected(self):
        with pytest.raises(WorkloadError):
            EngineConfig(num_lists=0)
        with pytest.raises(WorkloadError):
            EngineConfig(ranking="pagerank")

    def test_small_cache_engine_still_correct(self):
        engine = TrustworthySearchEngine(
            EngineConfig(num_lists=8, branching=2, cache_blocks=4, block_size=512)
        )
        for i in range(20):
            engine.index_document(f"common term{i} filler words here")
        hits = [r.doc_id for r in engine.search("common")]
        assert len(hits) == 10  # top_k default
        assert engine.store.io.total > 0  # cache pressure produced I/O


class TestRepr:
    def test_search_result_is_value_object(self):
        assert SearchResult(1, 2.0) == SearchResult(1, 2.0)
