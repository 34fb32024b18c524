"""Unit tests for query-cost profiling."""

import pytest

from repro.search.engine import EngineConfig, TrustworthySearchEngine
from repro.search.profiling import profile_query, recommend_configuration


def build_engine(**config):
    engine = TrustworthySearchEngine(
        EngineConfig(**{"num_lists": 8, "branching": 4, "block_size": 512, **config})
    )
    for i in range(40):
        terms = ["common"]
        if i % 2 == 0:
            terms.append("even")
        if i % 5 == 0:
            terms.append("fifth")
        engine.index_document(" ".join(terms) + f" filler{i}")
    return engine


@pytest.fixture()
def engine():
    return build_engine()


class TailEngine:
    """Re-runs a profile class on a decoupled index: two sealed
    segments of 16 documents plus 8 documents in the live tail."""

    @pytest.fixture()
    def engine(self):
        engine = build_engine(tail_max_docs=16, merge_at_segments=None)
        info = engine.segments_info()
        assert len(info["segments"]) == 2 and info["tail_docs"] == 8
        return engine


class TestDisjunctiveProfile:
    def test_counts_and_matches(self, engine):
        profile = profile_query(engine, "even fifth")
        assert profile.mode == "disjunctive"
        assert profile.matches == 20 + 8 - 4  # union of evens and fifths
        assert profile.blocks_read >= 1
        assert profile.entries_scanned > 0
        assert not profile.used_jump_index

    def test_scans_whole_lists(self, engine):
        profile = profile_query(engine, "common")
        total_blocks = sum(profile.per_list_blocks.values())
        assert profile.blocks_read == total_blocks

    def test_unknown_term_costs_nothing(self, engine):
        profile = profile_query(engine, "unknownterm")
        assert profile.matches == 0
        assert profile.blocks_read == 0

    def test_summary_readable(self, engine):
        text = profile_query(engine, "common even").summary()
        assert "disjunctive" in text
        assert "matches" in text

    def test_matches_what_the_engine_matches(self, engine):
        for query in ("common", "even fifth", "filler3 unknownterm"):
            profile = profile_query(engine, query)
            assert profile.matches == len(engine.match(query)), query
            assert profile.physical_lists >= len(profile.per_list_blocks)


class TestDisjunctiveProfileTail(TailEngine, TestDisjunctiveProfile):
    pass


class TestConjunctiveProfile:
    def test_counts_and_matches(self, engine):
        profile = profile_query(engine, "+even +fifth")
        assert profile.mode == "conjunctive"
        assert profile.matches == 4  # multiples of 10
        assert profile.used_jump_index
        assert profile.blocks_read >= 1

    def test_absent_term_short_circuits(self, engine):
        profile = profile_query(engine, "+common +unknownterm")
        assert profile.matches == 0
        assert profile.blocks_read == 0

    def test_agrees_with_engine_answers(self, engine):
        profile = profile_query(engine, "+common +even")
        docs, _ = engine.conjunctive_doc_ids(["common", "even"])
        assert profile.matches == len(docs)

    def test_profiling_does_not_mutate_state(self, engine):
        before = len(engine.documents)
        profile_query(engine, "+even +fifth")
        profile_query(engine, "common")
        assert len(engine.documents) == before
        assert engine.search("common")  # engine still healthy

    def test_matches_what_the_engine_matches(self, engine):
        for query in ("+common +even", "+even +fifth", "+common +filler7"):
            profile = profile_query(engine, query)
            assert profile.matches == len(engine.match(query)) > 0, query
            assert profile.entries_scanned > 0


class TestConjunctiveProfileTail(TailEngine, TestConjunctiveProfile):
    def test_counts_and_matches(self, engine):
        """A sealed list of at most a block's postings is an extent of
        its segment's shared file: nothing to jump over, no jump index —
        and the profile says so.  At eight postings to a block the same
        lists span blocks and are joined through their jump indexes."""
        profile = profile_query(engine, "+even +fifth")
        assert profile.mode == "conjunctive"
        assert profile.matches == 4  # multiples of 10
        assert profile.blocks_read >= 1
        assert not profile.used_jump_index
        small_blocks = build_engine(
            tail_max_docs=16, merge_at_segments=None, block_size=256
        )
        profile = profile_query(small_blocks, "+even +fifth")
        assert profile.matches == 4
        assert profile.used_jump_index


class TestRecommendation:
    def test_short_query_mix(self, engine):
        profiles = [profile_query(engine, "common even") for _ in range(3)]
        advice = recommend_configuration(profiles)
        assert "without a jump index" in advice

    def test_many_keyword_mix(self, engine):
        profiles = [
            profile_query(engine, "+common +even +fifth +filler0")
            for _ in range(3)
        ]
        advice = recommend_configuration(profiles)
        assert "B=32 jump index" in advice

    def test_empty(self):
        assert "no profiles" in recommend_configuration([])
