"""Integration tests for the end-to-end trustworthy search engine."""

from dataclasses import replace

import pytest

from repro.core.merge import PopularUnmergedMerge
from repro.errors import TamperDetectedError, WorkloadError
from repro.search.engine import EngineConfig, SearchResult, TrustworthySearchEngine
from repro.search.query import Query, QueryMode
from repro.worm.storage import CachedWormStore
from tests.helpers import SMALL_CONFIG, build_engine, device_state


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

    def test_real_time_update_no_buffering(self, engine):
        """A document is searchable the moment index_document returns."""
        doc_id = engine.index_document("immediately searchable unicorns")
        assert [r.doc_id for r in engine.search("unicorns")] == [doc_id]


#: One config per ingest mode; the tail seals inside the seventh
#: document's call.
MODES = {"legacy": SMALL_CONFIG, "tail": replace(SMALL_CONFIG, tail_max_docs=7)}


class TestOneIngestPath:
    """``index_document`` is ``index_batch`` of one text, in either mode,
    with the engine clock's commit time or an explicit one."""

    TEXT = "imclone stewart memo zebra quokka quokka"
    QUERIES = ["imclone memo", "quokka", "+imclone +memo", "zebra stewart @0..60"]

    @staticmethod
    def answers(engine):
        return [
            [(r.doc_id, r.score.hex()) for r in engine.search(query)]
            for query in TestOneIngestPath.QUERIES
        ]

    @pytest.mark.parametrize("mode", sorted(MODES))
    @pytest.mark.parametrize("commit_time", [None, 50])
    def test_a_document_is_a_batch_of_one(self, mode, commit_time):
        one = build_engine(config=MODES[mode])
        batch = build_engine(config=MODES[mode])
        one.index_document(self.TEXT, commit_time=commit_time)
        batch.index_batch(
            [self.TEXT], commit_times=None if commit_time is None else [commit_time]
        )
        assert device_state(one.store.device) == device_state(batch.store.device)
        assert one.store.io.snapshot() == batch.store.io.snapshot()
        assert self.answers(one) == self.answers(batch)
        assert len(one.iter_segments()) == (mode == "tail")

    @pytest.mark.parametrize("mode", sorted(MODES))
    @pytest.mark.parametrize("commit_time", [None, 50])
    def test_a_refused_document_commits_nothing(self, mode, commit_time):
        engine = build_engine(config=MODES[mode])
        engine.index_document("memo before the refusal", commit_time=commit_time)
        before = (
            len(engine.documents),
            engine.documents.next_doc_id,
            len(engine.store.device),
        )
        with pytest.raises(WorkloadError, match="precedes the engine clock"):
            engine.index_document(self.TEXT, commit_time=3)
        after = (
            len(engine.documents),
            engine.documents.next_doc_id,
            len(engine.store.device),
        )
        assert after == before


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

    def test_a_block_no_list_can_use_is_refused(self):
        """217 pointer slots of B=32 take 868 B: no posting fits in 512."""
        with pytest.raises(WorkloadError, match="cannot fit any posting"):
            EngineConfig(block_size=512)
        assert EngineConfig(block_size=512, branching=4).block_size == 512

    def test_a_block_shorter_than_a_lexicon_line_is_refused(self):
        with pytest.raises(WorkloadError, match="129-byte lexicon line"):
            EngineConfig(num_lists=8, block_size=128, branching=None)
        engine = TrustworthySearchEngine(EngineConfig(num_lists=8, block_size=129, branching=None))
        engine.index_batch(["short words", "x" * 128 + " tail"])
        assert [r.doc_id for r in engine.search("tail")] == [1]

    def test_the_cache_size_is_the_store_s(self):
        with pytest.raises(TypeError):
            EngineConfig(cache_blocks=64)

    def test_small_cache_engine_still_correct(self):
        engine = TrustworthySearchEngine(
            EngineConfig(num_lists=8, branching=2, block_size=512),
            store=CachedWormStore(4, block_size=512),
        )
        for i in range(20):
            engine.index_document(f"common term{i} filler words here")
        hits = [r.doc_id for r in engine.search("common")]
        assert len(hits) == 10  # top_k default
        assert engine.store.io.total > 0  # cache pressure produced I/O


class TestRepr:
    def test_search_result_is_value_object(self):
        assert SearchResult(1, 2.0) == SearchResult(1, 2.0)
