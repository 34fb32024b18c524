"""A reopen counts the ranking statistics from what the manifest fixes.

Each segment a seal or merge writes ends its shared file in a
document-length column, and each sealed ``(document, term)`` pair is
one posting among the postings its manifest record fixes.  A reopen
folds a live segment in from those two — lengths from the column, df
from one count of its postings' term IDs, both over the committed,
undisposed documents — and re-analyses only the documents above the
sealed horizon, and those of segments written before the column.

What must not move is the statistics themselves: after a reopen they
are ``==`` those of a full re-analysis of the stored documents (a reopen
with every column ignored, as the code before the column rebuilt them),
on every archive shape of ``test_ranked_answers.py``, on one and two
shards, with disposed documents, burned IDs, documents without terms
and long terms cut alike; on archives whose segments have no column;
and ranked answers stay ``float.hex()``-identical across a reopen.

A disposal sweep counts its documents out of a session's statistics, so
a session ranks after it as its reopen does, and the audit compares it.

Every reader takes of a sealed long list only the postings its
directory entry counts, so a posting appended to it after the seal is
neither answered nor carried into the merged segment, and the audit
reports the list.
"""

import glob
import os
import shutil
import tempfile

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bench.gen import documents
from repro.adversary.detection import full_engine_audit
from repro.cli import open_archive
from repro.core.posting import MAX_TERM_ID_WITH_TF, encode_posting, pack_term_tf
from repro.core.segments import (
    MANIFEST_FILE,
    SEGMENT_PREFIX,
    STRATEGY_UNIFORM,
    MergedListFamily,
    SegmentInfo,
    write_segment_lists,
)
from repro.errors import TamperDetectedError
from repro.search.analyzer import Analyzer
from repro.search.engine import MAX_LEXICON_TERM_BYTES, EngineConfig, TrustworthySearchEngine
from repro.search.ranking import CollectionStats
from repro.worm.faults import FaultInjectingWormDevice, FaultPlan, InjectedFaultError
from repro.worm.persistent import JournaledWormDevice
from repro.worm.storage import CachedWormStore
from tests.data.make_ranked_answers import DISPOSE_AT, QUERIES, VARIANTS, corpus
from tests.helpers import budget

LONG = "x" * MAX_LEXICON_TERM_BYTES
#: Documents without terms, and long terms that share one canonical key.
ODD_DOCUMENTS = ["the of and", f"{LONG}1 {LONG}22 audit", "", f"memo {LONG}333"]

#: One configuration per archive shape of the ranked answers.
SHAPES = {
    name.split("/")[0]: variant["config"]
    for name, variant in VARIANTS.items()
    if name.endswith("/1-shard/bm25")
}


def shards_of(engine):
    return getattr(engine, "shards", None) or [engine]


def statistics(engine):
    """Every shard's statistics, as ``==`` compares them: the lengths
    of the documents that exist, since a disposed one keeps its length
    in the session's column."""
    return [
        (
            {term: n for term, n in shard.stats.df.items() if n},
            shard.stats.lengths_of(np.array(shard.documents.alive_ids(), dtype=np.int64)).tolist(),
            shard.stats.num_docs,
            shard.stats.total_length,
        )
        for shard in shards_of(engine)
    ]


def ranked(engine):
    return {
        query: [(r.doc_id, r.score.hex()) for r in engine.search(query, top_k=12)]
        for query in QUERIES
    }


def reanalysed(path, monkeypatch, **kwargs):
    """The archive reopened as before the column: every document
    re-analysed, since no segment offers one."""
    with monkeypatch.context() as patch:
        patch.setattr(MergedListFamily, "doc_lengths", lambda self: None)
        return open_archive(path, **kwargs)


def reopened_copy(path, directory):
    """The archive at ``path`` as a reopen finds it, opened from a copy
    of its journals in ``directory``, so the session writing it goes on."""
    os.makedirs(directory)
    for name in glob.glob(path + "*"):
        shutil.copy(name, directory)
    return open_archive(os.path.join(directory, os.path.basename(path)))


def burn_next_id(engine):
    """A file where each shard's next document would go: the commit
    that meets it burns the ID, as a crash between a commit's create
    and its commit-time record does."""
    for shard in shards_of(engine):
        name = shard.documents.file_name(shard.documents.next_doc_id)
        if not shard.store.device.exists(name):
            shard.store.device.create_file(name)


def build(path, config, shards):
    """The ranked answers' corpus in batches of eight, a burned ID, the
    odd documents, and the first documents disposed."""
    engine, handle = open_archive(path, create=EngineConfig(**config), shards=shards)
    texts = corpus()
    for at in range(0, len(texts), 8):
        if at == 48:
            burn_next_id(engine)
            engine.index_batch(ODD_DOCUMENTS)
        engine.index_batch(texts[at : at + 8])
    engine.dispose_expired(now=DISPOSE_AT)
    for shard in shards_of(engine):
        assert shard.documents.has_burned and shard.retention.disposed_ids().size
    handle.close()


@pytest.mark.parametrize("shards", [1, 2])
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_a_reopen_counts_what_a_full_reanalysis_counts(tmp_path, monkeypatch, shape, shards):
    path = str(tmp_path / "rec.worm")
    build(path, SHAPES[shape], shards)
    reference, handle = reanalysed(path, monkeypatch)
    expected = statistics(reference)
    expected_answers = ranked(reference)
    handle.close()
    for read_cache in (False, True):
        engine, handle = open_archive(path, read_cache=read_cache)
        if shape != "legacy":
            assert all(s.info.lengths for shard in shards_of(engine) for s in shard.iter_segments())
        assert statistics(engine) == expected
        assert ranked(engine) == expected_answers
        assert all(r.ok for r in full_engine_audit(engine))
        handle.close()


#: Terms, stopwords (a document of only those has no terms), and terms
#: past the lexicon's cut that share one key.
WORDS = ["alpha", "beta", "gamma", "memo", "the", "of", LONG + "1", LONG + "22"]


@given(
    texts=st.lists(st.lists(st.sampled_from(WORDS), max_size=8).map(" ".join), max_size=40),
    events=st.lists(st.sampled_from(["seal", "merge", "burn", "dispose", "reopen"]), max_size=8),
    tail_max_docs=st.sampled_from([None, 3, 7]),
    shards=st.sampled_from([1, 2]),
)
@budget(20)
def test_statistics_after_any_history_equal_a_full_reanalysis(
    texts, events, tail_max_docs, shards
):
    """Batches of random documents, each followed by one event — a
    seal, a merge, a burned ID, a disposal sweep or a restart — then a
    restart: after every step the session's statistics are ``==`` those
    of a reopen, and at the end those of a reopen that re-analyses
    every document."""
    config = EngineConfig(
        num_lists=8,
        block_size=256,
        branching=4,
        tail_max_docs=tail_max_docs,
        merge_at_segments=3,
        retention_period=6,
    )
    tail = tail_max_docs is not None
    with tempfile.TemporaryDirectory() as directory, pytest.MonkeyPatch.context() as patch:
        path = os.path.join(directory, "rec.worm")
        engine, handle = open_archive(path, create=config, shards=shards)
        cut = max(1, len(texts) // (len(events) + 1))
        for at, event in enumerate([*events, None]):
            engine.index_batch(texts[at * cut : (at + 1) * cut] if event else texts[at * cut :])
            if event == "burn":
                burn_next_id(engine)
            elif event == "dispose":
                engine.dispose_expired(now=len(texts))
            elif event == "reopen":
                handle.close()
                engine, handle = open_archive(path)
            elif event and tail:
                for shard in shards_of(engine):
                    getattr(shard, "seal_tail" if event == "seal" else "merge_segments")()
            reopened, reopened_handle = reopened_copy(path, os.path.join(directory, str(at)))
            assert statistics(engine) == statistics(reopened), event
            reopened_handle.close()
        handle.close()
        engine, handle = open_archive(path)
        held = statistics(engine)
        assert all(r.ok for r in full_engine_audit(engine))
        handle.close()
        reference, handle = reanalysed(path, patch)
        assert held == statistics(reference)
        handle.close()


@pytest.mark.parametrize("read_cache", [False, True], ids=["cache-off", "cache-on"])
@pytest.mark.parametrize("shards", [1, 2])
def test_ranked_answers_survive_a_reopen_bit_for_bit(tmp_path, shards, read_cache):
    path = str(tmp_path / "rec.worm")
    config = EngineConfig(read_cache=read_cache, **SHAPES["tail-popular"])
    engine, handle = open_archive(path, create=config, shards=shards)
    texts = corpus()
    for at in range(0, len(texts), 8):
        engine.index_batch(texts[at : at + 8])
    session, held = ranked(engine), statistics(engine)
    handle.close()
    engine, handle = open_archive(path, read_cache=read_cache)
    assert statistics(engine) == held
    assert ranked(engine) == session
    handle.close()


@pytest.mark.parametrize("shards", [1, 2])
def test_a_reopen_reanalyses_only_the_documents_above_the_sealed_horizon(
    tmp_path, monkeypatch, shards
):
    path = str(tmp_path / "rec.worm")
    build(path, SHAPES["tail-uniform"], shards)
    engine, handle = open_archive(path)
    expected = sum(
        1
        for shard in shards_of(engine)
        for doc_id in shard.documents.alive_ids()
        if doc_id > shard._manifest.sealed_through
    )
    assert 0 < expected < sum(len(shard.documents) for shard in shards_of(engine)) // 4
    handle.close()
    analysed = []
    term_counts = Analyzer.term_counts
    monkeypatch.setattr(
        Analyzer, "term_counts", lambda self, text: analysed.append(text) or term_counts(self, text)
    )
    engine, handle = open_archive(path)
    assert len(analysed) == expected
    handle.close()


def write_without_columns(monkeypatch):
    """Seal and merge as the code before the column did: the same
    segment, its manifest record without the flag."""
    write = TrustworthySearchEngine._write_segment
    monkeypatch.setattr(
        TrustworthySearchEngine,
        "_write_segment",
        lambda self, columns, lengths, **kwargs: write(self, columns, None, **kwargs),
    )


@pytest.mark.parametrize("shards", [1, 2])
def test_segments_without_a_column_are_reanalysed_and_merged_into_one_with(
    tmp_path, monkeypatch, shards
):
    path = str(tmp_path / "rec.worm")
    config = dict(SHAPES["tail-uniform"], merge_at_segments=None)
    with monkeypatch.context() as old_code:
        write_without_columns(old_code)
        build(path, config, shards)
    engine, handle = open_archive(path)
    segments = [s for shard in shards_of(engine) for s in shard.iter_segments()]
    assert segments and not any(s.info.lengths for s in segments)
    reference, reference_handle = reanalysed(path, monkeypatch)
    assert statistics(engine) == statistics(reference)
    reference_handle.close()
    # A seal after it has a column; so has a merge of old and new.
    engine.index_batch(documents(1, 0, 40))
    for shard in shards_of(engine):
        shard.seal_tail()
        assert shard.iter_segments()[-1].info.lengths
        assert shard.merge_segments() is not None
        (merged,) = shard.iter_segments()
        assert merged.info.lengths
    held = statistics(engine)
    handle.close()
    engine, handle = open_archive(path)
    assert statistics(engine) == held
    reference, reference_handle = reanalysed(path, monkeypatch)
    assert statistics(reference) == held
    reference_handle.close()
    assert all(r.ok for r in full_engine_audit(engine))
    handle.close()


def test_a_wrong_length_column_is_an_audit_finding(tmp_path, monkeypatch):
    """The column carries no trust weight, but the audit holds it to the
    documents: lengths one too long, sealed and reopened, are found."""
    path = str(tmp_path / "rec.worm")
    write = TrustworthySearchEngine._write_segment
    with monkeypatch.context() as patch:
        patch.setattr(
            TrustworthySearchEngine,
            "_write_segment",
            lambda self, columns, lengths, **kwargs: write(self, columns, lengths + 1, **kwargs),
        )
        engine, handle = open_archive(path, create=EngineConfig(**SHAPES["tail-uniform"]))
        engine.index_batch(corpus()[:40])
        assert all(r.ok for r in full_engine_audit(engine))  # what the session counted
        handle.close()
    engine, handle = open_archive(path)
    findings = [r for r in full_engine_audit(engine) if not r.ok]
    assert [r.subject for r in findings] == ["statistics"]
    assert "lengths of documents [0, 1, 2, 3, 4]" in findings[0].violations[0]
    with pytest.raises(TamperDetectedError) as raised:
        engine.verify_statistics()
    assert raised.value.invariant == "statistics"
    handle.close()


def test_the_audit_compares_the_statistics_after_a_disposal(tmp_path, monkeypatch):
    """A sweep counts its documents out of the session's statistics, so
    the audit recounts them after it and finds an honest archive ok; a
    sweep that left them counted in, as before, is a finding."""
    path = str(tmp_path / "rec.worm")
    build(path, SHAPES["tail-uniform"], 1)
    engine, handle = open_archive(path)
    engine.index_batch(corpus()[:8])
    assert engine.dispose_expired(now=DISPOSE_AT + 30)
    alive = len(engine.documents.alive_ids())
    assert 0 < alive < len(engine.documents)
    assert engine.verify_statistics() == alive
    assert all(r.ok for r in full_engine_audit(engine))
    monkeypatch.setattr(CollectionStats, "subtract", lambda self, lengths, terms: None)
    assert engine.dispose_expired(now=DISPOSE_AT + 60)
    findings = [r for r in full_engine_audit(engine) if not r.ok]
    assert [r.subject for r in findings] == ["statistics"]
    handle.close()


def test_a_sweep_that_fails_midway_counts_out_what_it_deleted(tmp_path):
    """A survivable write failure on the second document's deletion:
    the first document is gone and counted out, the second is still
    there and still counted, as a reopen counts them."""
    path = str(tmp_path / "rec.worm")
    config = EngineConfig(retention_period=5)
    plan = FaultPlan()
    device = FaultInjectingWormDevice(path, plan=plan)
    engine = TrustworthySearchEngine(config, store=CachedWormStore(None, device=device))
    engine.index_batch(corpus()[:12])
    assert not len(engine.retention)  # its log exists before the count
    # The first document's log record and deletion, the second's record.
    plan.fail("write", on_call=plan.count("write") + 4)
    with pytest.raises(InjectedFaultError):
        engine.dispose_expired(now=10)
    assert not engine.documents.exists(0) and engine.documents.exists(1)
    held = statistics(engine)
    assert all(r.ok for r in full_engine_audit(engine))
    device.close()
    device = JournaledWormDevice(path)
    reopened = TrustworthySearchEngine(config, store=CachedWormStore(None, device=device))
    assert statistics(reopened) == held
    device.close()


#: Legacy merged lists, a tail that holds every document, and sealed
#: segments: where a disposed document's terms are when it goes.
DISPOSAL_SHAPES = {
    "legacy": dict(num_lists=6, retention_period=40),
    "tail-resident": dict(num_lists=6, tail_max_docs=1000, retention_period=40),
    "sealed": dict(num_lists=6, tail_max_docs=16, merge_at_segments=4, retention_period=40),
}


@pytest.mark.parametrize("read_cache", [False, True], ids=["cache-off", "cache-on"])
@pytest.mark.parametrize("shards", [1, 2])
@pytest.mark.parametrize("shape", sorted(DISPOSAL_SHAPES))
def test_after_a_disposal_a_session_ranks_as_its_reopen(tmp_path, shape, shards, read_cache):
    """Sixty-four documents with horizons 40 after their commit, asked
    every query, then swept at 50: the session's statistics and ranked
    answers are those of a reopen, which counts only the documents that
    exist."""
    path = str(tmp_path / "rec.worm")
    config = EngineConfig(read_cache=read_cache, **DISPOSAL_SHAPES[shape])
    engine, handle = open_archive(path, create=config, shards=shards)
    texts = corpus()[:64]
    for at in range(0, len(texts), 8):
        engine.index_batch(texts[at : at + 8])
    ranked(engine)
    assert len(engine.dispose_expired(now=50)) == 11
    session, held = ranked(engine), statistics(engine)
    assert all(r.ok for r in full_engine_audit(engine))
    handle.close()
    engine, handle = open_archive(path, read_cache=read_cache)
    assert statistics(engine) == held
    assert ranked(engine) == session
    handle.close()


def segment_files(engine):
    """Per shard, every block of the manifest and of each segment file:
    its bytes and pointer slots."""
    return [
        {
            name: [(block.read(), block.slots()) for block in device.open_file(name).blocks()]
            for name in device.list_files()
            if name.startswith(SEGMENT_PREFIX) or name == MANIFEST_FILE
        }
        for device in (shard.store.device for shard in shards_of(engine))
    ]


@pytest.mark.parametrize("shards", [1, 2])
@pytest.mark.parametrize("disposed", [4, 12], ids=["some", "all"])
def test_a_seal_after_a_disposal_writes_what_it_writes_after_a_reopen(
    tmp_path, shards, disposed
):
    """Twelve documents in the tail, committed at times 0–11 and kept
    for 5, swept at ``disposed + 4``: a seal in the same session writes
    the segment a seal after a reopen writes — the tail's live documents
    only, their range starting at the first of them — byte for byte;
    with none alive, neither seals anything."""
    config = EngineConfig(num_lists=6, tail_max_docs=1000, retention_period=5)
    written = []
    for reopen in (False, True):
        path = str(tmp_path / f"reopen-{reopen}.worm")
        engine, handle = open_archive(path, create=config, shards=shards)
        engine.index_batch(corpus()[:12])
        assert len(engine.dispose_expired(now=disposed + 4)) == disposed
        if reopen:
            handle.close()
            engine, handle = open_archive(path)
        engine.seal_tail()
        written.append(segment_files(engine))
        live = [(shard, s.info) for shard in shards_of(engine) for s in shard.iter_segments()]
        assert sum(info.doc_count for _, info in live) == 12 - disposed
        assert all(shard.documents.exists(info.first_doc) for shard, info in live)
        handle.close()
    assert written[0] == written[1]


# ----------------------------------------------------------------------
# a posting appended to a sealed long list stays out of the merge
# ----------------------------------------------------------------------
TAIL = EngineConfig(tail_max_docs=128, merge_at_segments=8)


def ingest(engine, start, count, shards):
    texts = documents(1, start * shards, count * shards)
    for at in range(0, len(texts), 16):
        engine.index_batch(texts[at : at + 16])


def id_token_in_a_long_list(shard, segment):
    """``(list ID, term ID)``: a long list of ``segment``, and the ID
    token of one of its documents that the list holds — a term no other
    document has."""
    long_lists = set(segment.list_ids(own_files=True))
    for doc_id in range(segment.info.first_doc, segment.info.last_doc + 1):
        term_id = shard.term_id(shard.documents.get(doc_id).text.split()[-1])
        if segment.list_for(term_id) in long_lists:
            return segment.list_for(term_id), term_id
    raise AssertionError("no ID token in a long list")


@pytest.mark.parametrize("shards", [1, 2])
def test_a_posting_appended_to_a_sealed_long_list_is_not_merged(tmp_path, shards):
    path = str(tmp_path / "rec.worm")
    engine, handle = open_archive(path, create=TAIL, shards=shards)
    ingest(engine, 0, 1100, shards)
    shard = shards_of(engine)[0]
    (segment, *_) = shard.iter_segments()
    assert segment.info.inputs and segment.info.first_doc == 0
    list_id, term_id = id_token_in_a_long_list(shard, segment)
    token = shard.term_text(term_id)
    # A document of the next ingest, which lacks the token: 1500 on
    # one shard, where the merged segment holds 0-1023.
    target = segment.info.last_doc + 477
    name = segment.list_name(list_id)
    shard.store.device.open_file(name).append_record(
        encode_posting(target, pack_term_tf(term_id, 9))
    )
    findings = [r for r in full_engine_audit(engine) if not r.ok]
    assert len(findings) == 1 and f"segment {segment.info.seg_no}" in findings[0].subject
    (violation,) = findings[0].violations
    assert f"'{name}'" in violation and "8 bytes" in violation
    assert len(engine.search(token, top_k=20)) == 1

    ingest(engine, 1100, 1000, shards)
    assert token not in shard.documents.get(target).text.split()
    (merged, *_) = shard.iter_segments()
    assert merged.info.inputs and merged.info.last_doc > target
    doc_ids, codes = merged.read_columns()
    assert not ((doc_ids == target) & (codes & MAX_TERM_ID_WITH_TF == term_id)).any()
    hits = engine.search(token, top_k=20)
    assert len(hits) == 1
    assert engine.search(token, top_k=20, verify=True) == hits
    assert all(r.ok for r in full_engine_audit(engine))
    handle.close()


def test_a_merge_reads_a_long_lists_count_and_not_a_byte_more(tmp_path):
    """What is appended after the count — in order or not, whole or
    torn — is not read, so nothing of it is taken or refused."""
    engine = TrustworthySearchEngine(TAIL)
    ingest(engine, 0, 1100, 1)
    (segment, *_) = engine.iter_segments()
    list_id, term_id = id_token_in_a_long_list(engine, segment)
    before = [column.copy() for column in segment.read_columns()]
    worm_file = engine.store.device.open_file(segment.list_name(list_id))
    stuffed = encode_posting(1500, pack_term_tf(term_id, 9))
    for payload in (stuffed, encode_posting(3, 0), b"\0" * 4):
        worm_file.append_record(payload)
        after = segment.read_columns()
        assert all(np.array_equal(a, b) for a, b in zip(after, before))


#: 16 postings to a block: a list of more is a file of its own.
BLOCK_SIZE = 128


@given(
    gaps=st.lists(st.integers(min_value=1, max_value=4), min_size=17, max_size=60),
    planted=st.lists(
        st.tuples(st.integers(min_value=1, max_value=16), st.booleans()), max_size=4
    ),
    torn=st.booleans(),
)
@budget(60)
def test_a_sealed_long_list_gives_a_merge_and_a_reopen_its_count(gaps, planted, torn):
    """Whatever is appended to a sealed long list after the seal — in
    order, in its tail block or new ones, torn or not — a merge and a
    reopen take exactly the postings its directory entry counts, and
    the audit counts the rest, to the byte."""
    store = CachedWormStore(None, block_size=BLOCK_SIZE)
    doc_ids = np.cumsum(gaps).astype(np.uint32)
    codes = np.full(len(doc_ids), pack_term_tf(0, 2), dtype=np.uint32)
    _, shared = write_segment_lists(
        store, 0, (doc_ids, codes), num_lists=1, strategy=STRATEGY_UNIFORM,
        popular_terms=(), branching=None, lengths=np.ones(int(doc_ids[-1]) + 1),
    )
    info = SegmentInfo(0, 0, int(doc_ids[-1]), len(doc_ids), 1, STRATEGY_UNIFORM,
                       shared=shared, lengths=True)
    segment = MergedListFamily(store, info, branching=None)
    (name,) = segment.list_names(own_files=True)
    worm_file = store.device.open_file(name)
    last, appended = int(doc_ids[-1]), 0
    for count, new_block in [*planted, *[(0, False)] * torn]:
        payload = b"".join(encode_posting(last + 1 + i, 0) for i in range(count)) or b"\x00" * 4
        worm_file.append_record(payload, force_new_block=new_block)
        last, appended = last + count, appended + len(payload)
    sealed = (doc_ids.tolist(), codes.tolist())
    reader = MergedListFamily(store, info, branching=None)
    assert [column.tolist() for column in reader.read_columns()] == list(sealed)
    assert reader.doc_lengths().tolist() == [1] * (int(doc_ids[-1]) + 1)
    assert reader.unreachable_files() == ([(name, appended)] if appended else [])
