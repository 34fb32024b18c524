"""Unit tests for the BM25 and cosine scorers."""

from array import array
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.posting import pack_term_tf
from repro.core.vecdecode import COLUMN_TYPECODE, term_columns
from repro.search import ranking as ranking_module
from repro.search.engine import Candidates
from repro.search.ranking import BM25Scorer, CollectionStats, CosineScorer, rank
from repro.sharding.executor import AggregatedTermStats, _ShardScopedStats


@pytest.fixture()
def stats():
    stats = CollectionStats()
    stats.add_document(0, {1: 3, 2: 1})      # short doc about term 1
    stats.add_document(1, {1: 1, 3: 5})      # doc about term 3
    stats.add_document(2, {2: 2, 3: 1, 4: 1})
    return stats


class TestCollectionStats:
    def test_document_frequencies(self, stats):
        assert stats.df[1] == 2
        assert stats.df[4] == 1
        assert stats.num_docs == 3

    def test_lengths(self, stats):
        assert stats.doc_length(0) == 4
        assert stats.doc_length(1) == 6
        assert stats.avg_doc_length == pytest.approx((4 + 6 + 4) / 3)

    def test_unknown_doc_length_zero(self, stats):
        assert stats.doc_length(99) == 0

    def test_empty_stats(self):
        empty = CollectionStats()
        assert empty.avg_doc_length == 1.0
        assert empty.num_docs == 0

    def test_readd_same_document_is_idempotent(self, stats):
        """Regression: re-adding a known doc_id must not double count."""
        before = (stats.num_docs, stats.total_length, dict(stats.df))
        stats.add_document(1, {1: 1, 3: 5})
        assert (stats.num_docs, stats.total_length, dict(stats.df)) == before
        assert stats.avg_doc_length == pytest.approx((4 + 6 + 4) / 3)

    def test_readd_replaces_previous_contributions(self, stats):
        """A changed re-index replaces, not accumulates, the old counts."""
        stats.add_document(1, {2: 2})
        assert stats.num_docs == 3
        assert stats.doc_length(1) == 2
        assert stats.total_length == 4 + 2 + 4
        # Terms 1 and 3 lost doc 1's contribution; term 2 gained it.
        assert stats.df[1] == 1
        assert stats.df[2] == 3
        assert stats.df.get(3, 0) == 1

    def test_readd_drops_df_to_zero_cleanly(self):
        stats = CollectionStats()
        stats.add_document(0, {7: 2})
        stats.add_document(0, {8: 1})
        assert 7 not in stats.df
        assert stats.df[8] == 1
        assert stats.num_docs == 1
        assert stats.total_length == 1


class TestBM25:
    def test_rarer_terms_score_higher(self, stats):
        scorer = BM25Scorer(stats)
        assert scorer.idf(4) > scorer.idf(1)  # df 1 vs df 2

    def test_more_occurrences_score_higher(self, stats):
        scorer = BM25Scorer(stats)
        low = scorer.score(0, {1: 1})
        high = scorer.score(0, {1: 3})
        assert high > low

    def test_absent_terms_contribute_nothing(self, stats):
        scorer = BM25Scorer(stats)
        assert scorer.score(0, {99: 0}) == 0.0
        assert scorer.score(0, {}) == 0.0

    def test_tf_saturation(self, stats):
        """BM25's hallmark: tf gains diminish."""
        scorer = BM25Scorer(stats)
        gain_early = scorer.score(0, {1: 2}) - scorer.score(0, {1: 1})
        gain_late = scorer.score(0, {1: 10}) - scorer.score(0, {1: 9})
        assert gain_early > gain_late

    def test_length_normalization(self, stats):
        """Same tf scores higher in a shorter document."""
        scorer = BM25Scorer(stats)
        assert scorer.score(0, {1: 1}) > scorer.score(1, {1: 1})

    def test_idf_floor(self):
        stats = CollectionStats()
        for doc_id in range(5):
            stats.add_document(doc_id, {7: 1})
        assert BM25Scorer(stats).idf(7) >= 0.0


class TestCosine:
    def test_log_tf_weighting(self, stats):
        scorer = CosineScorer(stats)
        assert scorer.score(0, {1: 3}) > scorer.score(0, {1: 1})

    def test_unseen_term_idf_zero(self, stats):
        assert CosineScorer(stats).idf(99) == 0.0

    def test_length_normalization(self, stats):
        scorer = CosineScorer(stats)
        assert scorer.score(0, {1: 1}) > scorer.score(1, {1: 1})

    def test_empty_query_scores_zero(self, stats):
        assert CosineScorer(stats).score(0, {}) == 0.0


# ----------------------------------------------------------------------
# the column scorer is the scalar scorer, bit for bit
# ----------------------------------------------------------------------
#: A document ID no length column reaches: what ``posting_stuffing_attack``
#: fabricates.  Its length is 0, as ``doc_length`` says of unknown IDs.
FABRICATED = 4_000_000_000
NUM_DOCS = 8
TERMS = range(5)


@st.composite
def scoring_cases(draw):
    """Collection statistics, and merged posting lists to rank under them.

    Lengths, frequencies and document frequencies come from small pools,
    so equal scores — ties the ranking must break by ID — are common.
    Terms are spread over two lists by parity; each list is sorted by
    ``(doc, term)`` as the writer leaves it, and may hold a stuffed
    repeat of a ``(doc, term)`` pair at another frequency.
    """
    stats = CollectionStats()
    for doc_id in range(NUM_DOCS):
        stats.add_document(
            doc_id,
            {
                term: draw(st.sampled_from([1, 2, 7]))
                for term in draw(st.sets(st.sampled_from([0, 1, 2, 3, 4, 9])))
            },
        )
    wanted = draw(st.lists(st.sampled_from(TERMS), min_size=1, max_size=5, unique=True))
    doc_ids = st.one_of(st.integers(0, NUM_DOCS - 1), st.just(FABRICATED))
    tfs = st.one_of(st.sampled_from([1, 2, 255]), st.integers(1, 255))
    postings = draw(st.lists(st.tuples(doc_ids, st.sampled_from(TERMS), tfs), max_size=60))
    lists = [
        sorted((p for p in postings if p[1] % 2 == parity), key=lambda p: p[:2])
        for parity in (0, 1)
    ]
    return stats, wanted, lists


def as_the_dict_pipeline_did(lists, wanted):
    """``doc -> {term: tf}`` by the loop ``collect_candidates`` used to
    be: a posting at a time, the largest frequency of a repeat winning."""
    rows = {}
    for postings in lists:
        for doc_id, term, tf in postings:
            if term in wanted:
                freqs = rows.setdefault(doc_id, {})
                if tf > freqs.get(term, 0):
                    freqs[term] = tf
    return rows


def as_columns(lists, wanted):
    columns = []
    for postings in lists:
        doc_ids = array(COLUMN_TYPECODE, [p[0] for p in postings])
        codes = array(COLUMN_TYPECODE, [pack_term_tf(p[1], p[2]) for p in postings])
        columns += term_columns(doc_ids, codes, sorted(wanted))
    return Candidates(columns)


def scorers_for(stats, wanted, ranking, aggregated):
    """``(scorer, term_keys)``: the engine's own scorer keyed by term
    ID, or a shard executor's — aggregated statistics keyed by query
    position over this shard's document lengths."""
    make = BM25Scorer if ranking == "bm25" else CosineScorer
    if not aggregated:
        return make(stats), None
    aggregate = AggregatedTermStats.of(
        {position: stats.df.get(term, 0) + position for position, term in enumerate(wanted)},
        stats.num_docs + 7,
        stats.total_length + 40,
    )
    keys = {term: position for position, term in enumerate(wanted)}
    return make(_ShardScopedStats(aggregate, stats)), keys


class TestColumnScorerIsTheScalarScorer:
    @settings(max_examples=300, deadline=None)
    @given(
        scoring_cases(),
        st.sampled_from(["bm25", "cosine"]),
        st.booleans(),
        st.data(),
    )
    def test_scores_and_rankings_are_bit_equal(self, case, ranking, aggregated, data):
        stats, wanted, lists = case
        scorer, keys = scorers_for(stats, wanted, ranking, aggregated)
        rows = as_the_dict_pipeline_did(lists, wanted)
        # A score sums its terms by ascending term ID, whatever list or
        # column holds them.
        reference = {
            doc_id: scorer.score(
                doc_id, {t if keys is None else keys[t]: tf for t, tf in sorted(freqs.items())}
            )
            for doc_id, freqs in rows.items()
        }
        candidates = as_columns(lists, wanted)
        assert {d: dict(f) for d, f in candidates.items()} == rows
        assert all(list(f) == sorted(f) for f in candidates.values())
        assert len(candidates) == len(rows)

        totals = scorer.score_columns(candidates.doc_ids, candidates.scoring_columns(keys))
        scored = dict(zip(candidates.doc_ids.tolist(), totals.tolist()))
        # == on floats, and on their bits: -0.0 and 0.0 are told apart.
        assert {d: s.hex() for d, s in scored.items()} == {
            d: s.hex() for d, s in reference.items()
        }

        by_rank = sorted(reference.items(), key=lambda pair: (-pair[1], pair[0]))
        count = len(rows)
        top_k = data.draw(st.sampled_from(sorted({1, 2, count, count + 3} - {0})))
        for scalar_up_to in (0, 10**9):  # every set by columns; by score()
            with patch.object(ranking_module, "SCALAR_UP_TO", scalar_up_to):
                best = rank(scorer, candidates, top_k, keys)
            assert best == by_rank[:top_k]
            assert all(type(d) is int and type(s) is float for d, s in best)

    @settings(max_examples=150, deadline=None)
    @given(
        scoring_cases(),
        st.sets(st.one_of(st.integers(0, NUM_DOCS - 1), st.just(FABRICATED)), min_size=1),
        st.sampled_from(["bm25", "cosine"]),
        st.booleans(),
    )
    def test_a_joins_answer_scores_on_presence(self, case, joined, ranking, aggregated):
        """An ALL query's candidates: the join's documents, every query
        term held by each, ``tf`` 1, added by ascending term ID."""
        stats, wanted, _ = case
        scorer, keys = scorers_for(stats, wanted, ranking, aggregated)
        doc_ids = np.array(sorted(joined), dtype=np.uint32)
        candidates = Candidates((), doc_ids, wanted)
        assert {d: dict(f) for d, f in candidates.items()} == {
            d: dict.fromkeys(wanted, 1) for d in sorted(joined)
        }
        presence = {t if keys is None else keys[t]: 1 for t in sorted(wanted)}
        by_rank = sorted(
            ((d, scorer.score(d, presence)) for d in joined),
            key=lambda pair: (-pair[1], pair[0]),
        )
        for scalar_up_to in (0, 10**9):
            with patch.object(ranking_module, "SCALAR_UP_TO", scalar_up_to):
                best = rank(scorer, candidates, len(joined), keys)
            assert [(d, s.hex()) for d, s in best] == [(d, s.hex()) for d, s in by_rank]

    def test_ties_break_by_doc_id_at_the_cut(self):
        """Five documents of one length holding one term once: one
        score.  Whatever the cut, the lowest IDs make it."""
        stats = CollectionStats()
        for doc_id in range(40):
            stats.add_document(doc_id, {1: 1, 2: 3})
        docs = np.array([3, 9, 17, 21, 38], dtype=np.uint32)
        tied = Candidates([(1, docs, np.ones(5, dtype=np.uint32))])
        for make in (BM25Scorer, CosineScorer):
            for scalar_up_to in (0, 10**9):
                with patch.object(ranking_module, "SCALAR_UP_TO", scalar_up_to):
                    for top_k in (1, 3, 5, 8):
                        best = rank(make(stats), tied, top_k)
                        assert [d for d, _ in best] == [3, 9, 17, 21, 38][:top_k]
                        assert len({s for _, s in best}) == 1

    def test_fabricated_doc_id_has_length_zero(self):
        """A stuffed posting may name any 32-bit document ID: far above
        the dense length column it reads as length 0 — it does not
        raise, and does not wrap around to a real document's length."""
        stats = CollectionStats()
        for doc_id in range(3):
            stats.add_document(doc_id, {1: 5})
        ids = np.array([1, 2, 5000, 2**32 - 1], dtype=np.uint32)
        assert stats.lengths_of(ids).tolist() == [5, 5, 0, 0]
        assert stats.lengths_of(ids[2:]).tolist() == [0, 0]
        assert stats.lengths_of(ids[:0]).tolist() == []

    def test_length_column_grows_with_the_collection(self):
        stats = CollectionStats()
        for doc_id in (0, 1023, 1024, 5000):
            stats.add_document(doc_id, {1: doc_id + 1})
        ids = np.array([0, 7, 1023, 1024, 5000], dtype=np.uint32)
        assert stats.lengths_of(ids).tolist() == [1, 0, 1024, 1025, 5001]
        stats.add_document(1024, {1: 2})  # a re-index replaces
        assert stats.lengths_of(ids).tolist() == [1, 0, 1024, 2, 5001]
