"""The lexicon log takes one WORM record per document, not one per term.

``_commit_document`` collects the terms its document introduces and
appends them together, between the document's commit and its commit-time
record, where the per-term appends used to sit.  What must not move: the
IDs (order of first appearance), and the log's bytes — block payloads
concatenated, they are those of a record per term, which is all a
restart reads.
"""

import random

import pytest

from repro.search.engine import (
    MAX_LEXICON_TERM_BYTES,
    EngineConfig,
    TrustworthySearchEngine,
    lexicon_key,
)
from repro.worm.device import WormFile
from repro.worm.faults import FaultInjectingWormDevice, FaultPlan, SimulatedCrashError
from repro.worm.persistent import JournaledWormDevice
from repro.worm.storage import CachedWormStore

LEXICON = "engine/lexicon"


def lexicon_payload(engine):
    worm_file = engine.store.open_file(LEXICON)
    return b"".join(block.read() for block in worm_file.blocks())


def per_term_log(documents):
    """What logging a record per new term leaves: the payload, and every
    term's ID."""
    ids = {}
    for terms in documents:
        for term in terms:
            ids.setdefault(lexicon_key(term), len(ids))
    return b"".join(key.encode("utf-8") + b"\n" for key in ids), ids


@pytest.fixture()
def lexicon_records(monkeypatch):
    """Sizes of the records appended to the lexicon log."""
    sizes = []
    append_record = WormFile.append_record

    def counting(worm_file, payload, **kwargs):
        if worm_file.name == LEXICON:
            sizes.append(len(payload))
        return append_record(worm_file, payload, **kwargs)

    monkeypatch.setattr(WormFile, "append_record", counting)
    return sizes


def seeded_corpus(seed=21, documents=120):
    rng = random.Random(seed)
    long_stem = "x" * (MAX_LEXICON_TERM_BYTES - 2)
    vocabulary = (
        [f"term{i}" for i in range(300)]
        + [f"ü{i}ber" for i in range(40)]            # multi-byte characters
        + [f"{long_stem}é{i}" for i in range(6)]     # one key: cut before the digit
        + [f"{long_stem}x{i}é" for i in range(6)]    # cut inside the last character
    )
    return [
        rng.sample(vocabulary, rng.randint(1, 25)) for _ in range(documents)
    ]


@pytest.mark.parametrize("tail_max_docs", [None, 16])
@pytest.mark.parametrize("batch", [False, True])
def test_payload_and_term_ids_equal_per_term_logging(
    lexicon_records, tail_max_docs, batch
):
    engine = TrustworthySearchEngine(
        EngineConfig(
            num_lists=16, branching=4, block_size=512, tail_max_docs=tail_max_docs
        )
    )
    documents = seeded_corpus()
    if batch:
        # Through the analyzer, which keeps [a-z0-9]+: other terms.
        texts = [" ".join(terms) for terms in documents]
        documents = [list(engine.analyzer.term_counts(text)) for text in texts]
        for start in range(0, len(texts), 16):
            engine.index_batch(texts[start : start + 16])
    else:
        for terms in documents:
            engine.index_term_counts(dict.fromkeys(terms, 1))
    payload, ids = per_term_log(documents)
    # Terms past the log's length cap share a key, and so an ID.
    distinct = len({term for terms in documents for term in terms})
    assert 300 < len(ids) <= distinct and (batch or len(ids) < distinct)
    assert lexicon_payload(engine) == payload
    assert {key: engine.term_id(key) for key in ids} == ids
    assert engine.vocabulary_size == len(ids)
    # One record per document that brought a term, none spanning a block.
    seen, introducing = set(), 0
    for terms in documents:
        keys = {lexicon_key(term) for term in terms}
        introducing += bool(keys - seen)
        seen |= keys
    assert len(lexicon_records) == introducing < len(ids) // 3
    assert sum(lexicon_records) == len(payload)

    reopened = TrustworthySearchEngine(engine.config, store=engine.store)
    assert {key: reopened.term_id(key) for key in ids} == ids
    assert lexicon_payload(reopened) == payload


def test_more_than_a_block_of_new_terms_takes_several_records(lexicon_records):
    terms = [f"newterm{i:03d}" for i in range(100)]  # 1,100 bytes of lines
    engine = TrustworthySearchEngine(
        EngineConfig(num_lists=8, branching=4, block_size=256, tail_max_docs=8)
    )
    engine.index_document("first words")
    engine.index_document(" ".join(terms))
    engine.index_document("last words " + terms[7])
    payload, ids = per_term_log([["first", "words"], terms, ["last"]])
    assert lexicon_payload(engine) == payload
    assert {key: engine.term_id(key) for key in ids} == ids
    # 23 lines of 11 bytes fit a block: five records for the hundred.
    assert lexicon_records == [12, 253, 253, 253, 253, 88, 5]
    blocks = list(engine.store.open_file(LEXICON).blocks())
    assert [block.fill for block in blocks] == [12, 253, 253, 253, 253, 93]
    reopened = TrustworthySearchEngine(engine.config, store=engine.store)
    assert {key: reopened.term_id(key) for key in ids} == ids
    assert sorted(r.doc_id for r in reopened.search("newterm007")) == [1, 2]


class TestCrashAtTheLexiconRecord:
    """The document is on WORM, its terms' record is being logged, its
    commit-time record is not: the archive reopens without the document,
    and the terms — logged, so replayed — hold the IDs they were given."""

    CONFIG = EngineConfig(num_lists=8, branching=4, block_size=512, tail_max_docs=100)
    BEFORE = ["alpha beta", "beta gamma"]
    DOCUMENT = "delta alpha epsilon"
    QUERIES = ["alpha", "+beta +gamma", "delta epsilon"]

    def engine_on(self, device):
        return TrustworthySearchEngine(
            self.CONFIG, store=CachedWormStore(None, device=device)
        )

    def prepare(self, path):
        device = JournaledWormDevice(path, block_size=512)
        engine = self.engine_on(device)
        for text in self.BEFORE:
            engine.index_document(text)
        device.close()

    def answers(self, engine):
        return {
            query: [(r.doc_id, r.score.hex()) for r in engine.search(query)]
            for query in self.QUERIES
        }

    def test_the_record_is_the_documents_second_append(self, tmp_path):
        path = str(tmp_path / "dry.worm")
        self.prepare(path)
        plan = FaultPlan()
        device = FaultInjectingWormDevice(path, plan=plan, block_size=512)
        engine = self.engine_on(device)
        records = device.records
        engine.index_document(self.DOCUMENT)
        # create + text, the lexicon record, the commit-time record.
        assert device.records - records == 4
        assert plan.count("create:after-apply") == 1
        assert plan.count("append:after-apply") == 3
        device.close()

    @pytest.mark.parametrize("stage", ["between-log-and-apply", "after-apply"])
    def test_reopens_without_the_document_and_with_its_terms(self, tmp_path, stage):
        reference = TrustworthySearchEngine(self.CONFIG)
        for text in self.BEFORE:
            reference.index_document(text)
        before = self.answers(reference)
        reference.index_document(self.DOCUMENT)

        path = str(tmp_path / "crash.worm")
        self.prepare(path)
        plan = FaultPlan().crash(f"append:{stage}", on_call=2)
        device = FaultInjectingWormDevice(path, plan=plan, block_size=512)
        with pytest.raises(SimulatedCrashError):
            self.engine_on(device).index_document(self.DOCUMENT)
        device.close()

        recovered_device = JournaledWormDevice(path, block_size=512)
        recovered = self.engine_on(recovered_device)
        assert len(recovered.documents) == len(recovered.time_index) == 2
        assert self.answers(recovered) == before
        # The record was logged before either stage: it replays whole.
        assert lexicon_payload(recovered) == lexicon_payload(reference)
        for term in "alpha beta gamma delta epsilon".split():
            assert recovered.term_id(term) == reference.term_id(term) is not None
        recovered_device.close()
