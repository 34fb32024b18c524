"""Stateful coherence proof for the read-path cache hierarchy.

A Hypothesis state machine drives one cache-off reference engine and one
cached engine per layout over the *same* WORM stores through
interleaved appends, searches, and restarts.  After every search, the
cached variants must return exactly the reference's ``(doc_id, score)``
list — i.e. the cache is invisible except for speed, across appends
(exact invalidation) and restarts (caches are derived state; recovery
re-reads the device).

Tail-mode variants ride the same machine: engines running the
write–read decoupled index (mutable tail + sealed WORM segments, with
and without the read cache on top) must answer byte-identically to the
legacy reference through interleaved appends, *seals*, *merges*, and
restarts — the structural proof that decoupling the write path never
changes what a query returns.
"""

from dataclasses import replace

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, rule

from repro.search.engine import EngineConfig, TrustworthySearchEngine

#: Small blocks + a jump index so every tier (decoded blocks, results,
#: jump memo) is actually exercised by modest histories.
BASE_CONFIG = EngineConfig(num_lists=16, branching=4, block_size=512)

VOCAB = [f"word{i}" for i in range(8)]

doc_texts = st.lists(
    st.sampled_from(VOCAB), min_size=1, max_size=6
).map(" ".join)

query_terms = st.lists(
    st.sampled_from(VOCAB), min_size=1, max_size=3, unique=True
)


class ReadCacheCoherence(RuleBasedStateMachine):
    """Cache-on engines always answer exactly like the cache-off one."""

    @initialize()
    def build_variants(self):
        self.variants = {}
        reference = TrustworthySearchEngine(replace(BASE_CONFIG))
        self.variants["off"] = reference
        self.variants["cached"] = TrustworthySearchEngine(
            replace(
                BASE_CONFIG,
                read_cache=True,
                # Tiny budget: eviction churn during the history, so
                # coherence holds under replacement too, not just hits.
                read_cache_mb=0.01,
            )
        )
        # Tail-mode variants: auto-seal + auto-merge at tiny thresholds
        # ("tail"), manual-only seal/merge with popular-term layout
        # ("tail-popular"), and tail + read cache stacked ("tail-cached")
        # so segment retirement exercises the cache's forget hooks.
        self.variants["tail"] = TrustworthySearchEngine(
            replace(BASE_CONFIG, tail_max_docs=3, merge_at_segments=3)
        )
        self.variants["tail-popular"] = TrustworthySearchEngine(
            replace(
                BASE_CONFIG,
                tail_max_docs=100,
                seal_strategy="popular",
                seal_popular_terms=2,
                merge_at_segments=None,
            )
        )
        self.variants["tail-cached"] = TrustworthySearchEngine(
            replace(
                BASE_CONFIG,
                tail_max_docs=4,
                merge_at_segments=3,
                read_cache=True,
                read_cache_mb=0.01,
            )
        )
        self.num_docs = 0

    @rule(text=doc_texts)
    def append(self, text):
        ids = {
            name: engine.index_document(text)
            for name, engine in self.variants.items()
        }
        self.num_docs += 1
        assert set(ids.values()) == {self.num_docs - 1}

    @rule(terms=query_terms, conjunctive=st.booleans())
    def search(self, terms, conjunctive):
        query = " ".join(f"+{t}" for t in terms) if conjunctive else " ".join(terms)
        expected = [
            (r.doc_id, r.score)
            for r in self.variants["off"].search(query, top_k=self.num_docs + 1)
        ]
        for name, engine in self.variants.items():
            if name == "off":
                continue
            got = [
                (r.doc_id, r.score)
                for r in engine.search(query, top_k=self.num_docs + 1)
            ]
            assert got == expected, f"variant {name} diverged on {query!r}"

    @rule(terms=query_terms, lo=st.integers(0, 6), span=st.integers(0, 4))
    def time_range_search(self, terms, lo, span):
        query = " ".join(terms) + f" @{lo}..{lo + span}"
        expected = [
            (r.doc_id, r.score)
            for r in self.variants["off"].search(query, top_k=self.num_docs + 1)
        ]
        for name, engine in self.variants.items():
            if name == "off":
                continue
            got = [
                (r.doc_id, r.score)
                for r in engine.search(query, top_k=self.num_docs + 1)
            ]
            assert got == expected, f"variant {name} diverged on {query!r}"

    @rule()
    def seal(self):
        """Freeze every tail variant's tail into a WORM segment."""
        for engine in self.variants.values():
            if engine.tail_enabled:
                engine.seal_tail()

    @rule()
    def merge(self):
        """Background-merge each tail variant's live segments."""
        for engine in self.variants.values():
            if engine.tail_enabled:
                engine.merge_segments()

    @rule()
    def restart(self):
        """Rebuild every engine from its WORM store, caches cold."""
        for name, engine in list(self.variants.items()):
            self.variants[name] = TrustworthySearchEngine(
                engine.config, store=engine.store
            )


#: Tier-1 runs 12 histories of 15 steps; ``--hypothesis-profile=ci``
#: (registered in ``tests/conftest.py``) runs 200 of 50.
_BUDGET = (
    {}
    if settings.get_current_profile_name() == "ci"
    else {"max_examples": 12, "stateful_step_count": 15}
)

ReadCacheCoherence.TestCase.settings = settings(deadline=None, **_BUDGET)

TestReadCacheCoherence = ReadCacheCoherence.TestCase
