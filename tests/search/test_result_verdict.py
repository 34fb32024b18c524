"""One verdict per verified hit.

:func:`repro.core.verification.verify_results` reads and analyses each
result's document once per query, and the report, the raise of
``search(verify=True)`` and the quarantine of
``search_with_incident_handling`` all read that one verdict.  An ANY
query's hit needs one of its terms; an ALL query's hit needs every one
(ROADMAP item 21's first reproduction).
"""

from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from repro.core.posting import pack_term_tf
from repro.errors import TamperDetectedError
from repro.search.analyzer import Analyzer
from repro.search.documents import DocumentStore
from repro.search.engine import EngineConfig, TrustworthySearchEngine
from repro.sharding.engine import ShardedSearchEngine

LEGACY = EngineConfig(num_lists=8)
#: Every document in the tail until Mala seals it, one posting per
#: block: a list of two or more postings is a file of its own.
SEALED = EngineConfig(
    num_lists=1, block_size=200, branching=4, tail_max_docs=100, merge_at_segments=None
)


def build(texts, config, shards):
    engine = (
        TrustworthySearchEngine(config)
        if shards == 1
        else ShardedSearchEngine(config, num_shards=shards)
    )
    engine.index_batch(texts)
    return engine


@pytest.fixture()
def closing():
    engines = []
    yield engines.append
    for engine in engines:
        if isinstance(engine, ShardedSearchEngine):
            engine.close()


def plant(engine, doc_id, term):
    """Mala's posting of ``doc_id`` under ``term``, in the index (the
    engine, or the document's shard) that holds the document, where
    every reader takes it: appended raw to a legacy list, or, in tail
    mode, sealed by Mala with the tail, among the postings the segment's
    manifest record counts."""
    index, local_id = engine, doc_id
    if isinstance(engine, ShardedSearchEngine):
        shard_id, local_id = engine.router.to_local(doc_id)
        index = engine.shards[shard_id]
    term_id = index.term_id(term)
    assert term_id is not None  # the document's index knows the term
    if index.tail_enabled:
        doc_ids, codes = index._tail.columns()
        planted = (np.append(doc_ids, local_id), np.append(codes, pack_term_tf(term_id, 1)))
        index._tail.columns = lambda: tuple(column.astype(np.uint32) for column in planted)
        assert index.seal_tail() is not None
        return
    posting_list, _ = index.posting_list_for(term)
    assert index.store.device.exists(posting_list.name)  # a file of its own
    posting_list.append(local_id, pack_term_tf(term_id, 1))


def ids(results):
    return [hit.doc_id for hit in results]


class TestConjunctiveHitNeedsEveryTerm:
    """Doc 1 holds "alpha" and not "beta"; Mala appends it to beta's
    list, so the ALL query "+alpha +beta" answers it."""

    @pytest.mark.parametrize("read_cache", [False, True], ids=["cache-off", "cache-on"])
    @pytest.mark.parametrize("shards", [1, 2])
    @pytest.mark.parametrize("config", [LEGACY, SEALED], ids=["legacy", "sealed"])
    def test_all_query_raises_and_incident_handling_drops_the_plant(
        self, config, shards, read_cache, closing
    ):
        engine = build(
            ["beta filler", "alpha incriminating"],
            replace(config, read_cache=read_cache),
            shards,
        )
        closing(engine)
        plant(engine, 1, "beta")
        assert ids(engine.search("+alpha +beta")) == [1]
        for query in ("+alpha +beta", "beta"):
            with pytest.raises(TamperDetectedError) as caught:
                engine.search(query, verify=True)
            assert "doc 1:" in str(caught.value)
        results, verdict = engine.search_with_incident_handling("+alpha +beta")
        assert results == []
        assert verdict.mismatched == [1] and verdict.fabricated == []
        assert verdict.violations == [
            "doc 1: document lacks the query terms ['beta'] (stuffed posting)"
        ]
        # A real document in the wrong list is not quarantined: it still
        # answers the query it matches.
        assert engine.incidents.quarantined_doc_ids == set()
        results, verdict = engine.search_with_incident_handling("alpha")
        assert verdict.ok and ids(results) == [1]


@pytest.fixture()
def calls(monkeypatch):
    """Counts of ``DocumentStore.get`` and ``Analyzer.term_counts`` calls
    (every shard's store and analyser included)."""
    counts = Counter()
    for owner, name in ((DocumentStore, "get"), (Analyzer, "term_counts")):
        original = getattr(owner, name)

        def counted(self, *args, _original=original, _name=name, **kwargs):
            counts[_name] += 1
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    return counts


@pytest.mark.parametrize("shards", [1, 2])
class TestOneReadPerHit:
    QUERY = "alpha beta gamma"

    def test_an_any_hit_holding_only_its_last_term(self, shards, calls, closing):
        engine = build(["gamma memo", "ledger note"], LEGACY, shards)
        closing(engine)
        for verify in (
            lambda: engine.verify_results([0], self.QUERY),
            lambda: engine.search(self.QUERY, verify=True),
            lambda: engine.search_with_incident_handling(self.QUERY),
        ):
            calls.clear()
            verify()
            assert calls == {"get": 1, "term_counts": 1}

    def test_two_hits_one_stuffed(self, shards, calls, closing):
        engine = build(["gamma memo", "ledger note"], LEGACY, shards)
        closing(engine)
        plant(engine, 1, "gamma")
        calls.clear()
        results, verdict = engine.search_with_incident_handling(self.QUERY)
        assert ids(results) == [0] and verdict.mismatched == [1]
        assert calls == {"get": 2, "term_counts": 2}
        calls.clear()
        with pytest.raises(TamperDetectedError):
            engine.search(self.QUERY, verify=True)
        assert calls == {"get": 2, "term_counts": 2}
