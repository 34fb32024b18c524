"""End-to-end: the synthetic paper workload through the real engine.

Ingest a slice of the synthetic corpus through
:class:`TrustworthySearchEngine` (full WORM path: document store,
merged lists, jump indexes, commit-time log) and cross-check every
query form against brute-force answers computed from the raw term
vectors.
"""

from dataclasses import replace

import pytest

from repro.search.engine import EngineConfig, TrustworthySearchEngine
from repro.workloads.vocabulary import Vocabulary

NUM_DOCS = 300

LEGACY = EngineConfig(num_lists=64, branching=8, block_size=1024)
#: Tail sealed every 64 documents, never auto-merged: 4 segments + 44
#: documents in the live tail.
SEALED = replace(LEGACY, tail_max_docs=64, merge_at_segments=None)

#: Every other index layout the one read path serves, as
#: ``(config, merge after ingest)``.  The brute-force mirrors are the
#: independent reference: the Hypothesis coherence machines compare
#: layouts with each other, and all layouts share one scan and one join.
LAYOUTS = {
    "tail-live": (replace(LEGACY, tail_max_docs=10 * NUM_DOCS), False),
    "tail-sealed": (SEALED, False),
    "tail-merged": (SEALED, True),
    "tail-popular": (replace(SEALED, seal_strategy="popular"), False),
}


def _build_world(tiny_workload, config, *, merge=False):
    """Engine loaded with synthetic documents + brute-force mirrors."""
    vocabulary = Vocabulary(tiny_workload.vocabulary_size)
    engine = TrustworthySearchEngine(config)
    term_sets = {}
    for doc in tiny_workload.documents[:NUM_DOCS]:
        counts = {
            vocabulary.word(int(t)): int(c)
            for t, c in zip(doc.term_ids, doc.term_counts)
        }
        doc_id = engine.index_document(
            " ".join(" ".join([word] * count) for word, count in counts.items())
        )
        assert doc_id == doc.doc_id
        term_sets[doc_id] = set(counts)
    if merge:
        assert engine.merge_segments() is not None
    return engine, term_sets, vocabulary


@pytest.fixture(scope="module")
def world(tiny_workload):
    return _build_world(tiny_workload, LEGACY)


def _brute_disjunctive(term_sets, words):
    return {d for d, terms in term_sets.items() if any(w in terms for w in words)}


def _brute_conjunctive(term_sets, words):
    return {d for d, terms in term_sets.items() if all(w in terms for w in words)}


class TestWorkloadIntegration:
    def test_corpus_loaded(self, world):
        engine, term_sets, _ = world
        assert len(engine.documents) == NUM_DOCS
        assert engine.vocabulary_size >= 100

    def test_disjunctive_queries_match_brute_force(self, world, tiny_workload):
        engine, term_sets, vocabulary = world
        checked = 0
        for query in tiny_workload.queries[:120]:
            words = [vocabulary.word(int(t)) for t in query.term_ids]
            expected = _brute_disjunctive(term_sets, words)
            got = {
                r.doc_id
                for r in engine.search(
                    " ".join(words), top_k=NUM_DOCS + 1
                )
            }
            assert got == expected, words
            checked += 1
        assert checked == 120

    def test_conjunctive_queries_match_brute_force(self, world, tiny_workload):
        engine, term_sets, vocabulary = world
        for query in tiny_workload.queries_with_terms(2, limit=40) + \
                tiny_workload.queries_with_terms(3, limit=20):
            words = [vocabulary.word(int(t)) for t in query.term_ids]
            expected = sorted(_brute_conjunctive(term_sets, words))
            got, _ = engine.conjunctive_doc_ids(words)
            assert got == expected, words

    def test_time_windows_match_ingest_order(self, world):
        engine, _, _ = world
        # Commit times are the ingest counter: window == ID range.
        assert engine.time_index.docs_in_range(10, 19) == (10, 19)

    def test_full_audit_clean(self, world):
        from repro.adversary.detection import full_engine_audit

        engine, _, _ = world
        reports = full_engine_audit(engine)
        assert all(r.ok for r in reports)

    def test_jump_indexes_were_exercised(self, world):
        engine, _, _ = world
        if engine.tail_enabled:
            pytest.skip(
                "pointers_set counts this handle's own appends; sealed "
                "lists are written through the sealer's handles"
            )
        lists = list(engine.iter_posting_lists())
        pointers = sum(j.pointers_set for _, j in lists)
        blocks = sum(pl.num_blocks for pl, _ in lists)
        assert blocks > len(lists)  # multi-block lists exist
        assert pointers > 0         # jump pointers were committed


class TestWorkloadIntegrationCached(TestWorkloadIntegration):
    """The directly-appended lists again, read through the read cache."""

    @pytest.fixture(scope="class")
    def world(self, tiny_workload):
        return _build_world(tiny_workload, replace(LEGACY, read_cache=True))


class TestWorkloadIntegrationLayouts(TestWorkloadIntegration):
    """Live tail only, after seals, after a merge, popular-term seals —
    each with and without the read cache — against the same brute-force
    answers."""

    @pytest.fixture(
        scope="class",
        params=[
            (layout, read_cache)
            for layout in LAYOUTS
            for read_cache in (False, True)
        ],
        ids=lambda p: f"{p[0]}-{'cache' if p[1] else 'nocache'}",
    )
    def world(self, tiny_workload, request):
        layout, read_cache = request.param
        config, merge = LAYOUTS[layout]
        return _build_world(
            tiny_workload, replace(config, read_cache=read_cache), merge=merge
        )
