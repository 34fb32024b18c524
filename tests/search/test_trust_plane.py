"""The two engines' trust planes are the same function.

Result verification, the verify-and-raise step of ``search`` and
``search_with_incident_handling`` are written once, in
:mod:`repro.core.verification`, over what an archive can say about a
document ID.  The same corpus goes into a
:class:`TrustworthySearchEngine`, a one-shard and a three-shard
:class:`ShardedSearchEngine`; under the same Section 5 attacks — IDs of
documents that do not exist, and a real document's ID planted under a
term it does not hold — all three must raise, report, quarantine and
answer alike.
"""

from dataclasses import replace

import pytest

from repro.adversary.attacks import posting_stuffing_attack
from repro.core.posting import pack_term_tf
from repro.errors import TamperDetectedError
from repro.observability.trace import QueryTrace
from repro.search.engine import TrustworthySearchEngine
from repro.sharding.engine import ShardedSearchEngine
from tests.helpers import SHARD_CONFIG

#: Documents 0..8 hold "evidence"; 9..11 do not.
CORPUS = [f"evidence doc{i}" for i in range(9)] + [
    f"ledger note{i}" for i in range(9, 12)
]
EVIDENCE = set(range(9))
#: The document planted under "evidence", a term it does not hold: the
#: last one committed, so the raw append keeps its list ascending.
PLANT = 11
FAKES = 3

KINDS = ["unsharded", "one shard", "three shards"]


def build(kind, config=SHARD_CONFIG):
    if kind == "unsharded":
        engine = TrustworthySearchEngine(config)
    else:
        engine = ShardedSearchEngine(
            config, num_shards=1 if kind == "one shard" else 3
        )
    engine.index_batch(CORPUS)
    return engine


def closing(engine):
    """Fixture body: ``engine``, then its fan-out pool released."""
    yield engine
    if isinstance(engine, ShardedSearchEngine):
        engine.close()


@pytest.fixture(params=KINDS)
def engine(request):
    yield from closing(build(request.param))


def home_of(engine, doc_id):
    """``(index, local ID, result ID of a local ID)`` where ``doc_id``'s
    postings live: the engine itself, or the document's shard."""
    if isinstance(engine, TrustworthySearchEngine):
        return engine, doc_id, lambda local_id: local_id
    shard_id, local_id = engine.router.to_local(doc_id)
    return (
        engine.shards[shard_id],
        local_id,
        lambda local: engine.router.to_global(shard_id, local),
    )


def stuff_fabricated(engine):
    """Append ``FAKES`` IDs of documents that do not exist to the
    "evidence" list beside document 0; returns them as results carry
    them (negative synthetic global IDs under sharding)."""
    index, _, result_id = home_of(engine, 0)
    local_ids = posting_stuffing_attack(
        index.posting_list_for("evidence")[0],
        index.term_id("evidence"),
        count=FAKES,
        first_fake_doc_id=len(index.documents),
    )
    fabricated = {result_id(local_id) for local_id in local_ids}
    if not isinstance(engine, TrustworthySearchEngine):
        assert all(doc_id < 0 for doc_id in fabricated)
    return fabricated


def plant_mismatch(engine):
    """Raw-append ``PLANT``'s own ID under "evidence"."""
    index, local_id, _ = home_of(engine, PLANT)
    term_id = index.term_id("evidence")
    assert term_id is not None  # its shard indexes the term
    index.posting_list_for("evidence")[0].append(
        local_id, pack_term_tf(term_id, 1)
    )


def ids(results):
    return {hit.doc_id for hit in results}


class TestSameAnswersUnderAttack:
    def test_verified_search_raises_naming_every_violation(self, engine):
        plant_mismatch(engine)
        fabricated = stuff_fabricated(engine)
        with pytest.raises(TamperDetectedError) as caught:
            engine.search("evidence", top_k=50, verify=True)
        assert caught.value.invariant == "result-document-consistency"
        for doc_id in fabricated | {PLANT}:
            assert f"doc {doc_id}:" in str(caught.value)
        # Without verification the same query answers, diluted.
        assert ids(engine.search("evidence", top_k=50)) == (
            EVIDENCE | fabricated | {PLANT}
        )

    def test_incident_handling_quarantines_only_the_fabricated(self, engine):
        plant_mismatch(engine)
        fabricated = stuff_fabricated(engine)
        results, report = engine.search_with_incident_handling(
            "evidence", top_k=50
        )
        assert ids(results) == EVIDENCE
        assert report.ok is False
        assert len(report.violations) == FAKES + 1
        assert set(engine.incidents.quarantined_doc_ids) == fabricated
        # The plant is a real document in the wrong list: it stays a
        # legitimate answer to a query it does match.
        results, report = engine.search_with_incident_handling("ledger")
        assert report.ok
        assert PLANT in ids(results)

    def test_quarantine_silences_fabricated_ids_for_good(self, engine):
        fabricated = stuff_fabricated(engine)
        _, report = engine.search_with_incident_handling("evidence", top_k=50)
        assert not report.ok
        assert len(engine.incidents) == 1
        results, report = engine.search_with_incident_handling(
            "evidence", top_k=50
        )
        assert report.ok
        assert ids(results) == EVIDENCE
        assert len(engine.incidents) == 1  # nothing new to record
        assert set(engine.incidents.quarantined_doc_ids) == fabricated

    def test_a_mismatch_plant_is_reported_and_excluded_every_time(self, engine):
        plant_mismatch(engine)
        fabricated = stuff_fabricated(engine)
        engine.search_with_incident_handling("evidence", top_k=50)
        results, report = engine.search_with_incident_handling(
            "evidence", top_k=50
        )
        assert ids(results) == EVIDENCE
        assert len(report.violations) == 1
        assert f"doc {PLANT}:" in report.violations[0]
        assert len(engine.incidents) == 2
        assert set(engine.incidents.quarantined_doc_ids) == fabricated

    def test_top_k_is_refilled_past_quarantined_ids(self, engine):
        fabricated = stuff_fabricated(engine)
        top_k = len(EVIDENCE)
        # The fabricated IDs outrank real documents ...
        assert ids(engine.search("evidence", top_k=top_k)) & fabricated
        engine.search_with_incident_handling("evidence", top_k=top_k)
        # ... so a quarantine-blind cut would come back short.
        results, report = engine.search_with_incident_handling(
            "evidence", top_k=top_k
        )
        assert report.ok
        assert ids(results) == EVIDENCE


class TestDisposedDocuments:
    """A disposition record explains an absence; stuffing does not."""

    @pytest.fixture(params=KINDS)
    def engine(self, request):
        engine = build(request.param, replace(SHARD_CONFIG, retention_period=5))
        self.disposed = set(engine.dispose_expired(now=8))
        assert self.disposed and self.disposed < EVIDENCE
        yield from closing(engine)

    def test_neither_a_violation_nor_quarantined(self, engine):
        fabricated = stuff_fabricated(engine)
        # Still indexed — disposal deletes the document, not its
        # postings — and vouched for by the disposition log.
        report = engine.verify_results(
            sorted(self.disposed | fabricated), "evidence"
        )
        assert len(report.violations) == FAKES
        for doc_id in self.disposed:
            assert f"doc {doc_id}:" not in " ".join(report.violations)
        results, report = engine.search_with_incident_handling(
            "evidence", top_k=50
        )
        assert len(report.violations) == FAKES
        assert ids(results) == EVIDENCE - self.disposed
        assert set(engine.incidents.quarantined_doc_ids) == fabricated


class TestVerifySpan:
    def test_incident_handling_traces_one_verify_span(self, engine):
        stuff_fabricated(engine)
        for expected_ok in (False, True):
            trace = QueryTrace("evidence")
            engine.search_with_incident_handling(
                "evidence", top_k=50, trace=trace
            )
            verify = [span for span in trace.spans if span.name == "verify"]
            assert len(verify) == 1
            assert verify[0].attrs["ok"] is expected_ok
