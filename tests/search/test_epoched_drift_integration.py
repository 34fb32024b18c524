"""End-to-end: epoch adaptation on a drifting workload.

Feeds the :class:`~repro.workloads.drift.DriftingWorkload`'s epochs
through one :class:`~repro.search.engine.TrustworthySearchEngine` under
``seal_strategy="epoch"``: per epoch, documents are ingested and queries
observed, the epoch seals, and the next one's layout is learned from
what was asked — then verifies correctness across the whole history
against a brute-force mirror.  (The module keeps the name it had when a
separate per-epoch engine ran this; the test ids are unchanged.)
"""

from collections import Counter

import pytest

from repro.adversary.detection import full_engine_audit
from repro.search.engine import TrustworthySearchEngine
from repro.workloads.drift import DriftConfig, DriftingWorkload
from repro.workloads.vocabulary import Vocabulary
from tests.helpers import epoch_config, epoch_layouts

DOCS_PER_EPOCH = 30
VOCAB = 300
POPULAR = 6


@pytest.fixture(scope="module")
def world():
    """Per epoch: ingest documents built from the epoch's hot terms and
    observe its queries; the epoch's last document fills the tail and
    seals it."""
    drift = DriftingWorkload(
        DriftConfig(
            vocabulary_size=VOCAB,
            num_epochs=3,
            queries_per_epoch=60,
            hot_pool_size=40,
            drift_stride=10,
            terms_per_query=2,
            seed=5,
        )
    )
    vocabulary = Vocabulary(VOCAB)
    engine = TrustworthySearchEngine(epoch_config(DOCS_PER_EPOCH, POPULAR))
    mirror = {}      # brute force: doc id -> set of words
    queried = []     # per epoch: how many queries asked for each word
    for epoch in drift.epochs():
        hot = epoch.qi.argsort()[::-1][:10]
        texts = [
            " ".join(
                sorted(
                    {vocabulary.word(int(hot[j % len(hot)])) for j in range(i, i + 3)}
                )
            )
            for i in range(DOCS_PER_EPOCH)
        ]
        seen = Counter()
        for text in texts[:-1]:
            mirror[engine.index_document(text)] = set(text.split())
        for query in epoch.queries:
            words = [w for w in vocabulary.words(query.term_ids) if w]
            engine.search(" ".join(words))
            seen.update(set(words))
        mirror[engine.index_document(texts[-1])] = set(texts[-1].split())
        queried.append(seen)
    return engine, mirror, queried


class TestDriftIntegration:
    def test_epochs_were_created(self, world):
        engine, mirror, _ = world
        assert sorted(mirror) == list(range(3 * DOCS_PER_EPOCH))
        assert [s.info.doc_count for s in engine.iter_segments()] == [
            DOCS_PER_EPOCH
        ] * 3

    def test_later_epochs_learned_popular_terms(self, world):
        engine, _, queried = world
        pinned = epoch_layouts(engine)
        assert pinned[0] == []
        for epoch_no in (1, 2):
            before = queried[epoch_no - 1]
            indexed = {w for w in before if engine.term_id(w) is not None}
            assert len(pinned[epoch_no]) == POPULAR
            assert set(pinned[epoch_no]) <= indexed
            # Nothing left out was asked for more than something pinned.
            floor = min(before[w] for w in pinned[epoch_no])
            assert all(
                before[w] <= floor for w in indexed - set(pinned[epoch_no])
            )
        assert pinned[1] != pinned[2]  # the interest drifted, and so did we

    def test_queries_correct_across_all_epochs(self, world):
        engine, mirror, _ = world
        terms = {w for words in mirror.values() for w in words}
        for term in sorted(terms):
            expected = {d for d, words in mirror.items() if term in words}
            got = {r.doc_id for r in engine.search(term, top_k=len(mirror))}
            assert got == expected, term

    def test_conjunctive_across_epochs(self, world):
        engine, mirror, _ = world
        pairs = {tuple(sorted(words)[:2]) for words in mirror.values()}
        for first, second in sorted(p for p in pairs if len(p) == 2):
            expected = {
                d for d, ws in mirror.items() if first in ws and second in ws
            }
            got = {
                r.doc_id
                for r in engine.search(f"+{first} +{second}", top_k=len(mirror))
            }
            assert got == expected, (first, second)

    def test_audits_clean_per_epoch(self, world):
        engine, _, _ = world
        reports = full_engine_audit(engine)
        assert len(reports) > 3 and all(r.ok for r in reports)
