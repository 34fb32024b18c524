"""The engine's lexicon: a dict from canonical term to dense ID, and the
list of terms by ID.

IDs are assigned in first-appearance order and survive a restart (the
WORM lexicon log replays them in the same order); a term over
:data:`~repro.search.engine.MAX_LEXICON_TERM_BYTES` is known by its
canonical form, at ingest and at lookup alike.
"""

from repro.search.engine import (
    MAX_LEXICON_TERM_BYTES,
    EngineConfig,
    TrustworthySearchEngine,
)


def vocabulary(engine):
    return [engine.term_text(i) for i in range(engine.vocabulary_size)]


class TestHashTier:
    def test_dense_first_appearance_ids(self):
        engine = TrustworthySearchEngine(EngineConfig(num_lists=8, branching=None))
        engine.index_term_counts({"gamma": 1})
        engine.index_term_counts({"gamma": 2, "alpha": 1, "beta": 1})
        assert engine.term_id("gamma") == 0
        assert engine.term_id("alpha") == 1
        assert engine.term_id("beta") == 2
        assert engine.term_id("missing") is None
        assert engine.term_text(0) == "gamma"
        assert engine.vocabulary_size == 3


class TestEngineIntegration:
    def build(self):
        engine = TrustworthySearchEngine(
            EngineConfig(num_lists=8, block_size=4096, branching=None)
        )
        engine.index_document("retention policy for retained records")
        engine.index_document("retrieval of compliant records")
        return engine

    def test_prefix_canonicalized_like_terms(self):
        """An over-long term is known by its leading
        ``MAX_LEXICON_TERM_BYTES``: the indexed term, the cut form and
        any longer probe sharing it resolve to one ID."""
        engine = self.build()
        long_term = "r" * 400
        engine.index_term_counts({long_term: 1})
        cut = "r" * MAX_LEXICON_TERM_BYTES
        assert engine.term_id(long_term) == engine.term_id(cut) is not None
        assert engine.term_id("r" * 200) == engine.term_id(cut)
        assert engine.term_text(engine.term_id(long_term)) == cut

    def test_lexicon_survives_restart(self):
        engine = self.build()
        reopened = TrustworthySearchEngine(engine.config, store=engine.store)
        assert reopened.vocabulary_size == engine.vocabulary_size
        assert vocabulary(reopened) == vocabulary(engine)
        assert reopened.term_id("retrieval") == engine.term_id("retrieval")
