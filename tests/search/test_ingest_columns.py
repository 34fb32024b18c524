"""Ingest by columns: a batch is analysed once, each distinct term
resolved once, and folded into the statistics and the tail as arrays.

What must not move is pinned against a reference kept here: the
per-document ingest the engine had before, each document analysed,
resolved, packed and folded on its own.  Its journal is what the
columns must write, byte for byte, and its memory the state they must
arrive at — in the session and after a restart.
"""

import os
import tempfile

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.cli import open_archive
from repro.core.posting import MAX_PACKED_TF, pack_term_tf
from repro.search.engine import (
    MAX_LEXICON_TERM_BYTES,
    EngineConfig,
    TrustworthySearchEngine,
    check_commit_times,
    lexicon_key,
)
from repro.worm.faults import FaultInjectingWormDevice, FaultPlan, InjectedFaultError
from repro.worm.persistent import JournaledWormDevice
from repro.worm.storage import CachedWormStore
from tests.helpers import budget


class PerDocumentEngine(TrustworthySearchEngine):
    """The reference: one document at a time, as ingest was before it
    went by columns — its file, the lexicon record of its new terms,
    its postings packed one by one, then (tail mode) its commit-time
    record; legacy lists per list after the batch, then its records."""

    def index_batch(self, texts, *, commit_times=None):
        texts = list(texts)
        commit_times = check_commit_times(self._clock, len(texts), commit_times)
        postings_by_list = {}
        doc_ids = []
        for text, commit_time in zip(texts, commit_times):
            term_counts = self.analyzer.term_counts(text)
            self._clock = commit_time + 1
            doc_id = self.documents.commit(text, commit_time=commit_time)
            keys = {term: lexicon_key(term) for term in term_counts}
            new = list(dict.fromkeys(k for k in keys.values() if self.term_id(k) is None))
            if new:
                self._add_terms(new)
            id_counts = {self.term_id(keys[t]): c for t, c in term_counts.items()}
            term_ids = sorted(id_counts)
            if self._tail is not None:
                self._tail.add(
                    [doc_id],
                    [doc_id] * len(term_ids),
                    term_ids,
                    [min(id_counts[t], MAX_PACKED_TF) for t in term_ids],
                )
                self.time_index.record_commit(doc_id, commit_time)
            else:
                for t in term_ids:
                    postings_by_list.setdefault(self._family.list_for(t), []).append(
                        (doc_id, pack_term_tf(t, id_counts[t]))
                    )
            self.stats.add_document(doc_id, id_counts)
            doc_ids.append(doc_id)
        if self._tail is None:
            self._family.append_many(sorted(postings_by_list.items()))
            for doc_id, commit_time in zip(doc_ids, commit_times):
                self.time_index.record_commit(doc_id, commit_time)
        elif self._tail.doc_count >= self.config.tail_max_docs:
            self.seal_tail()
        return doc_ids


def memory_state(engine):
    """What ingest leaves in memory: the lexicon, the statistics, and the
    tail's columns and document range."""
    stats = engine.stats
    state = {
        "terms": [engine.term_text(i) for i in range(engine.vocabulary_size)],
        "df": {t: n for t, n in stats.df.items() if n},
        "lengths": stats.lengths_of(np.arange(engine.documents.next_doc_id)).tolist(),
        "num_docs": stats.num_docs,
        "total_length": stats.total_length,
    }
    tail = engine._tail
    if tail is not None:
        docs, codes = tail.columns()
        snapshot = tail.snapshot()
        everything = range(engine.vocabulary_size)
        state["tail"] = (
            sorted(zip(docs.tolist(), codes.tolist())),
            [(t, d.tolist(), f.tolist()) for t, d, f in snapshot.collect_candidates(everything)],
            (tail.doc_count, tail.first_doc, tail.last_doc, tail.posting_count),
        )
    return state


LONG = "x" * MAX_LEXICON_TERM_BYTES
#: Short terms, stopwords (a document of only those has no terms), and
#: ASCII terms past the lexicon's cut that share one key.
WORDS = ["alpha", "beta", "gamma", "delta", "memo", "the", "of", "and"]
WORDS += [LONG, LONG + "1", LONG + "22"]

documents = st.lists(
    st.lists(st.sampled_from(WORDS), max_size=9).map(" ".join), min_size=1, max_size=24
)


@given(
    texts=documents,
    cuts=st.lists(st.integers(1, 7), min_size=1, max_size=24),
    tail_max_docs=st.sampled_from([None, 3, 8]),
)
@example(texts=["the of", "alpha", "", "beta alpha"], cuts=[4], tail_max_docs=None)
@budget(40)
def test_batches_fold_as_documents_one_at_a_time(texts, cuts, tail_max_docs):
    config = EngineConfig(
        num_lists=8, branching=4, block_size=512, tail_max_docs=tail_max_docs
    )
    with tempfile.TemporaryDirectory() as directory:
        paths = [os.path.join(directory, name) for name in ("columns", "reference")]
        devices = [JournaledWormDevice(path, block_size=512) for path in paths]
        engine, reference = (
            kind(config, store=CachedWormStore(None, device=device))
            for kind, device in zip((TrustworthySearchEngine, PerDocumentEngine), devices)
        )
        start = 0
        for cut in cuts * len(texts):
            if start >= len(texts):
                break
            batch = texts[start : start + cut]
            assert engine.index_batch(batch) == reference.index_batch(batch)
            start += cut
        assert memory_state(engine) == memory_state(reference)
        for device in devices:
            device.close()
        # The same WORM writes in the same order: the journals are equal.
        journal, expected = (open(path, "rb").read() for path in paths)
        assert journal == expected
        # A restart refolds the same state from WORM.
        device = JournaledWormDevice(paths[0], block_size=512)
        reopened = TrustworthySearchEngine(config, store=CachedWormStore(None, device=device))
        assert memory_state(reopened) == memory_state(reference)
        device.close()


@pytest.mark.parametrize("tail_max_docs", [None, 16])
def test_a_document_without_terms_counts_the_same_after_a_reopen(tmp_path, tail_max_docs):
    path = str(tmp_path / "rec.worm")
    engine, handle = open_archive(path, create=EngineConfig(tail_max_docs=tail_max_docs))
    engine.index_batch(["alpha beta memo", "the and of to", "alpha other text", "x y z"])
    session = [(r.doc_id, r.score.hex()) for r in engine.search("alpha")]
    assert engine.stats.num_docs == 4
    handle.close()
    engine, handle = open_archive(path)
    assert engine.stats.num_docs == 4
    assert [(r.doc_id, r.score.hex()) for r in engine.search("alpha")] == session
    assert session[0] == (0, "0x1.f7b77dd843132p-2")
    handle.close()


class TestFailurePartWayThroughABatch:
    """A WORM write that raises inside a batch: every document whose
    commit-time record landed is indexed in the session, and memory is
    what a restart rebuilds."""

    PRELOAD = ["alpha beta", "beta gamma memo"]
    BATCH = ["alpha delta", "gamma alpha", "the of", "delta beta beta", "epsilon alpha memo"]

    def engine_on(self, device, tail_max_docs):
        config = EngineConfig(
            num_lists=8, branching=4, block_size=512, tail_max_docs=tail_max_docs
        )
        return TrustworthySearchEngine(config, store=CachedWormStore(None, device=device))

    def prepare(self, path, tail_max_docs):
        device = JournaledWormDevice(path, block_size=512)
        self.engine_on(device, tail_max_docs).index_batch(self.PRELOAD)
        device.close()

    def journal_writes(self, path, tail_max_docs):
        """The journal write each document's create and commit-time
        append is, in a run without faults."""
        self.prepare(path, tail_max_docs)
        plan = FaultPlan()
        device = FaultInjectingWormDevice(path, plan=plan, block_size=512)
        engine = self.engine_on(device, tail_max_docs)
        writes = {"create": [], "commit-time": []}
        log_create, log_append = device._log_create, device.log_append

        def counting_create(name, *args):
            if name.startswith(engine.documents.file_name(0)[:-1]):
                writes["create"].append(plan.count("write") + 1)
            return log_create(name, *args)

        def counting_append(name_field, *args):
            if name_field.endswith(b"engine/commit-times"):
                writes["commit-time"].append(plan.count("write") + 1)
            return log_append(name_field, *args)

        device._log_create, device.log_append = counting_create, counting_append
        engine.index_batch(self.BATCH)
        device.close()
        return writes

    @pytest.mark.parametrize("tail_max_docs", [None, 3])
    @pytest.mark.parametrize("what", ["create", "commit-time"])
    @pytest.mark.parametrize("k", [0, 2, 4])
    def test_acknowledged_documents_are_indexed(self, tmp_path, tail_max_docs, what, k):
        writes = self.journal_writes(str(tmp_path / "dry.worm"), tail_max_docs)
        assert len(writes["create"]) == len(writes["commit-time"]) == len(self.BATCH)
        path = str(tmp_path / "faulty.worm")
        self.prepare(path, tail_max_docs)
        plan = FaultPlan().fail("write", on_call=writes[what][k])
        device = FaultInjectingWormDevice(path, plan=plan, block_size=512)
        engine = self.engine_on(device, tail_max_docs)
        with pytest.raises(InjectedFaultError):
            engine.index_batch(self.BATCH)
        # Legacy mode writes the batch's commit-time records last.
        acknowledged = 0 if tail_max_docs is None and what == "create" else k
        assert len(engine.time_index) == len(self.PRELOAD) + acknowledged
        for at, text in enumerate(self.BATCH[:acknowledged]):
            doc_id = len(self.PRELOAD) + at
            for term in engine.analyzer.term_counts(text):
                assert doc_id in [r.doc_id for r in engine.search(term, top_k=20)]
        session = memory_state(engine)
        device.close()

        reopened = self.engine_on(JournaledWormDevice(path, block_size=512), tail_max_docs)
        assert memory_state(reopened) == session
        reopened.store.device.close()


def test_a_batch_resolves_each_term_once(monkeypatch):
    """The canonical key is computed once per distinct term of a batch,
    and not at all for a term short enough to be canonical."""
    import repro.search.engine as engine_module

    calls = []
    real = engine_module.lexicon_key
    monkeypatch.setattr(
        engine_module, "lexicon_key", lambda term: calls.append(term) or real(term)
    )
    engine = TrustworthySearchEngine(EngineConfig(num_lists=8, tail_max_docs=64))
    engine.index_batch([f"alpha {LONG}1 beta", f"{LONG}1 alpha", "beta"])
    assert calls == [LONG + "1"]
    assert np.array_equal(engine.stats.lengths_of(np.arange(3)), [3, 2, 1])
