"""Bytes someone else appends to the lexicon log cannot re-bind a term.

A term's ID is its line's position in ``engine/lexicon``.  A line that
repeats a known term, a record glued on without its newline, or a new
term appended while the engine is open would each give committed
documents' terms the wrong IDs, and a verified search would then omit
them with nothing to verify.  The reader refuses the first two at open;
the writer refuses to append after bytes it did not write, and
``full_engine_audit`` reports each of the three on an open engine.  On
legacy and tail engines, and on two shards, each with a lexicon of its
own.  A property then appends arbitrary bytes between ingests and
restarts: a reopen refuses them, or every committed document still
answers for each of its terms.
"""

import os
import tempfile

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.adversary.detection import full_engine_audit
from repro.cli import open_archive
from repro.errors import TamperDetectedError
from repro.search.engine import EngineConfig
from repro.worm.persistent import JournaledWormDevice
from tests.helpers import budget

LEXICON_FILE = "engine/lexicon"

DOCUMENTS = [
    "imclone stewart trade",
    "memo about lunch",
    "imclone shares sold",
    "quarterly report",
    "imclone insider memo",
    "board minutes",
]

LAYOUTS = {
    "legacy": (EngineConfig(num_lists=8, block_size=512, branching=4), 1),
    "tail": (EngineConfig(num_lists=8, block_size=512, branching=4, tail_max_docs=4), 1),
    "two-shards": (EngineConfig(num_lists=8, block_size=512, branching=4, tail_max_docs=4), 2),
}


@pytest.fixture(params=sorted(LAYOUTS))
def archive(request, tmp_path):
    config, shards = LAYOUTS[request.param]
    path = str(tmp_path / "rec.worm")
    engine, handle = open_archive(path, create=config, shards=shards)
    engine.index_batch(DOCUMENTS)
    handle.close()
    return path, shards


def engines(engine, shards):
    return engine.shards if shards > 1 else [engine]


def append_to_lexicons(path, shards, payload):
    journals = [path] if shards == 1 else [f"{path}.shard{i:02d}" for i in range(shards)]
    for journal in journals:
        device = JournaledWormDevice(journal)
        device.open_file(LEXICON_FILE).append_record(payload)
        device.close()


def found(engine, term):
    return sorted(r.doc_id for r in engine.search(term, top_k=20, verify=True))


def refused_open(path):
    with pytest.raises(TamperDetectedError) as raised:
        open_archive(path)
    assert raised.value.invariant == "lexicon-record"
    assert LEXICON_FILE in raised.value.location
    return raised.value


def test_a_repeated_term_refuses_the_archive(archive):
    path, shards = archive
    append_to_lexicons(path, shards, b"imclone\n")
    assert "imclone" in str(refused_open(path))


def test_a_record_without_its_newline_refuses_the_archive(archive):
    path, shards = archive
    append_to_lexicons(path, shards, b"zz")
    refused_open(path)


def test_a_line_appended_while_open_stops_the_writer(archive):
    path, shards = archive
    engine, handle = open_archive(path)
    for shard in engines(engine, shards):
        shard.store.append_record(LEXICON_FILE, b"mala\n")
    with pytest.raises(TamperDetectedError) as raised:
        engine.index_batch(["gamma memo", "gamma again"])
    assert raised.value.invariant == "lexicon-record"
    handle.close()
    # Nothing was appended after the foreign line: every committed
    # document answers for its terms, and no other does.
    engine, handle = open_archive(path)
    assert found(engine, "imclone") == [0, 2, 4]
    assert found(engine, "memo") == [1, 4]
    assert found(engine, "gamma") == []
    handle.close()


@pytest.mark.parametrize("hostile", [b"\xff\xfe\n", b"\n", b"x" * 200 + b"\n"])
def test_a_line_no_writer_logs_refuses_the_archive(archive, hostile):
    """Not UTF-8, empty, or longer than the lexicon's cut."""
    path, shards = archive
    append_to_lexicons(path, shards, hostile)
    refused_open(path)


def lexicon_findings(engine, shards):
    reports = [r for r in full_engine_audit(engine) if r.subject.endswith("lexicon log")]
    assert len(reports) == shards  # one per shard
    return [r for r in reports if not r.ok]


def test_an_honest_lexicon_audits_clean(archive):
    path, shards = archive
    engine, handle = open_archive(path)
    assert lexicon_findings(engine, shards) == []
    engine.index_batch(["gamma memo", "gamma again"])
    assert lexicon_findings(engine, shards) == []
    handle.close()


@pytest.mark.parametrize("payload", [b"imclone\n", b"zz", b"mala\n"])
def test_the_audit_reports_each_foreign_lexicon_record(archive, payload):
    """The three appends above, made while the engine is open: the
    audit reads the log as a reopen would, and holds it to the terms
    the engine numbered, so each is a finding on every shard."""
    path, shards = archive
    engine, handle = open_archive(path)
    for shard in engines(engine, shards):
        shard.store.append_record(LEXICON_FILE, payload)
    findings = lexicon_findings(engine, shards)
    assert len(findings) == shards
    if shards > 1:
        assert sorted(r.subject for r in findings) == [
            f"shard {i}: lexicon log" for i in range(shards)
        ]
    handle.close()


#: What Mala appends: raw bytes, or lines that look like the writer's —
#: a known term, a new one, an empty one — with or without the newline.
appended = st.one_of(
    st.binary(min_size=1, max_size=12),
    st.builds(
        lambda term, newline: term.encode("utf-8") + newline,
        st.sampled_from(["imclone", "memo", "gamma", "mala", "", "x" * 140]),
        st.sampled_from([b"\n", b""]),
    ).filter(bool),
)


@given(
    tail_max_docs=st.sampled_from([None, 2]),
    appends=st.lists(st.tuples(st.integers(0, 3), appended), min_size=1, max_size=3),
)
@budget(25)
def test_appended_lexicon_bytes_are_refused_or_hide_no_document(tail_max_docs, appends):
    """Bytes appended to the lexicon log before, between or after three
    honest ingests, each followed by a restart: the open raises
    :class:`TamperDetectedError`, or a search for each term of each
    committed document finds that document."""
    batches = [DOCUMENTS[:3], DOCUMENTS[3:], ["gamma memo", "gamma again"]]
    config = EngineConfig(num_lists=8, block_size=512, branching=4, tail_max_docs=tail_max_docs)
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "rec.worm")
        _, handle = open_archive(path, create=config)
        handle.close()
        for at in range(len(batches) + 1):
            for payload in (payload for where, payload in appends if where == at):
                append_to_lexicons(path, 1, payload)
            try:
                engine, handle = open_archive(path)
            except TamperDetectedError:
                return
            if at == len(batches):
                break
            engine.index_batch(batches[at])
            handle.close()
        for doc_id in engine.documents.alive_ids():
            for term in engine.analyzer.term_counts(engine.documents.get(doc_id).text):
                assert doc_id in [r.doc_id for r in engine.search(term, top_k=20)], term
        handle.close()
