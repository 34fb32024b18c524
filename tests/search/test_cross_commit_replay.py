"""Replay equivalence across the commits that changed what a sealed
segment is on WORM.

Until PR 15 a seal or merge journaled one WORM record per posting; PR 16
made it one per posting-list block — same bytes on the device, other
record boundaries.  PR 21 changed the bytes: a segment's short lists
share one file with a directory, and its manifest record says where
that file ends.  The proof that nothing else changed is replay
equivalence, in the directions a commit can test:

* an archive journal **written by PR 15** (``tests/data``, with the
  script that produced it and the answers that commit gave) opens under
  the current code, answers identically, and keeps sealing and merging —
  its per-list segments scanned beside, and merged with, shared-file
  ones;
* the **same script run by the current code** journals fewer, larger
  records that scan clean and replay to the same device state outside
  the segments — file names, block bytes, pointer slots — and inside
  them to the same postings, list by list, in stored order;
* an archive **written by PR 21** (the same script and queries) is
  pinned beside it, for the next change of segment bytes to start from;
* an archive whose segments end their shared file in a
  **document-length column** is pinned beside those two: the same
  answers, the same device as PR 21's but for the column's blocks, and
  a reopen of it, of PR 21's and of PR 15's — each then sealed and
  merged by this code — counts the statistics a full re-analysis does.

A legacy batch's journal changed order, not content, when its
commit-time records moved after its postings: the same records, pinned
as a sorted multiset, replaying to the same pinned device.
"""

import hashlib
import json
from dataclasses import replace
import os
import shutil
import struct

import numpy as np
import pytest

from repro.adversary.detection import full_engine_audit
from repro.core.segments import MergedListFamily
from repro.search.engine import EngineConfig, TrustworthySearchEngine
from repro.worm.persistent import JournaledWormDevice, _records, _sniff_format, scan_journal
from repro.worm.storage import CachedWormStore
from tests.data.make_tail_archive import answers, run
from tests.helpers import device_state, postings_of

DATA = os.path.join(os.path.dirname(__file__), os.pardir, "data")
FIXTURE = os.path.join(DATA, "tail_archive_pr15.worm")
FIXTURE_PR21 = os.path.join(DATA, "tail_archive_pr21.worm")
FIXTURE_LENGTHS = os.path.join(DATA, "tail_archive_lengths.worm")
with open(os.path.join(DATA, "tail_archive_pr15.json")) as _handle:
    RECORDED = json.load(_handle)
with open(os.path.join(DATA, "tail_archive_pr21.json")) as _handle:
    RECORDED_PR21 = json.load(_handle)
with open(os.path.join(DATA, "tail_archive_lengths.json")) as _handle:
    RECORDED_LENGTHS = json.load(_handle)
CONFIG = EngineConfig(**RECORDED["config"])
#: The script's documents through legacy ``index_batch``, four a batch:
#: the journal's record count, the sha256 of its records as a sorted
#: multiset, and of the device replay rebuilds — as written when each
#: document's commit-time record preceded the batch's postings.
LEGACY_BATCHES = (
    150,
    "25570b41e5914cfad372a0165eb86c4cd20a48f342919b0b3645a146026892ef",
    "878b7daf7db0425b9f2cf2eab736be4d865f4f74212bce28b502764c543bfd54",
)


def outside_segments(device):
    """The device's state but for the segments' files and manifest."""
    return {
        name: state
        for name, state in device_state(device).items()
        if not name.startswith("engine/seg")
    }


def live_postings(engine):
    """Per live segment, its doc range and every term's postings in
    stored order, whichever files hold them."""
    return [
        (
            segment.info.first_doc,
            segment.info.last_doc,
            postings_of(segment.read_columns()),
        )
        for segment in engine.iter_segments()
    ]


def open_engine(path):
    device = JournaledWormDevice(path, block_size=CONFIG.block_size)
    return TrustworthySearchEngine(
        CONFIG, store=CachedWormStore(None, device=device)
    )


@pytest.fixture()
def old_archive(tmp_path):
    path = str(tmp_path / "pr15.worm")
    shutil.copy(FIXTURE, path)
    return path


def test_fixture_is_a_per_posting_journal():
    report = scan_journal(FIXTURE)
    assert report.ok and report.records == RECORDED["journal_records"]
    postings = sum(
        len(set(step[1].split()))
        for step in RECORDED["script"]
        if step[0] == "index"
    )
    # Every sealed posting was journaled once, the merged ones twice.
    assert report.op_counts["append"] > postings


def test_old_journal_opens_and_answers_as_recorded(old_archive):
    engine = open_engine(old_archive)
    info = engine.segments_info()
    assert [s["seg_no"] for s in info["segments"]] == RECORDED["segments"]
    assert info["tail_docs"] == 2
    assert answers(engine) == RECORDED["answers"]
    assert all(r.ok for r in full_engine_audit(engine))
    engine.store.device.close()


def test_new_code_seals_and_merges_on_top_of_an_old_journal(old_archive):
    more = [["index", "audit trade filing record18"], ["seal"], ["merge"]]
    reference = TrustworthySearchEngine(CONFIG)
    run(reference, RECORDED["script"] + more)

    engine = open_engine(old_archive)
    before = engine.store.device.records
    run(engine, more)
    # Two lists' worth of blocks and pointers, not one record per posting.
    assert engine.store.device.records - before < 60
    assert answers(engine) == answers(reference)
    engine.store.device.close()
    assert scan_journal(old_archive).ok

    reopened = open_engine(old_archive)
    assert len(reopened.segments_info()["segments"]) == 1
    assert answers(reopened) == answers(reference)
    assert all(r.ok for r in full_engine_audit(reopened))
    assert outside_segments(reopened.store.device) == outside_segments(
        reference.store.device
    )
    assert live_postings(reopened) == live_postings(reference)
    reopened.store.device.close()


def test_per_list_and_shared_file_segments_answer_and_merge_together(
    old_archive, monkeypatch
):
    """Two more seals on the PR 15 archive: segments whose every list
    is a file and segments with a shared file, of one layout, scanned
    as peers in one view — then merged into one shared-file segment."""
    more = [
        ["index", "audit trade filing record18"],
        ["seal"],
        ["index", "memo ledger quarter record19"],
        ["index", "waksal audit imclone record20"],
        ["seal"],
    ]
    legacy = TrustworthySearchEngine(
        EngineConfig(**{**RECORDED["config"], "tail_max_docs": None})
    )
    run(legacy, [s for s in RECORDED["script"] + more if s[0] == "index"])

    engine = open_engine(old_archive)
    run(engine, more)
    segments = engine.iter_segments()
    assert [s.info.shared is None for s in segments] == [True, True, False, False]
    assert len({s.layout for s in segments}) == 1
    assert all(0 < s.info.shared.short_lists for s in segments[2:])
    assert answers(engine) == answers(legacy)
    assert all(r.ok for r in full_engine_audit(engine))

    device = engine.store.device
    listings = []
    list_files = device.list_files
    monkeypatch.setattr(
        device, "list_files", lambda: listings.append(1) or list_files()
    )
    before = device.records
    assert engine.merge_segments() is not None
    monkeypatch.undo()
    # A per-list input's files are found by listing the device, once
    # each; a shared-file input's directory names them.
    assert len(listings) == 2
    assert device.records - before < 60
    (merged,) = engine.iter_segments()
    assert merged.info.shared == (0, 3, 0)  # 21 documents: every list is long
    assert merged.info.inputs == tuple(s.info.seg_no for s in segments)
    assert answers(engine) == answers(legacy)
    device.close()

    reopened = open_engine(old_archive)
    assert answers(reopened) == answers(legacy)
    assert all(r.ok for r in full_engine_audit(reopened))
    reopened.store.device.close()


def test_pr21_archive_opens_and_answers_as_recorded(tmp_path):
    """The archive this layout's first commit wrote: same script, same
    queries, same answers as PR 15's — and every sealed segment of it
    has a shared file."""
    assert RECORDED_PR21["config"] == RECORDED["config"]
    assert RECORDED_PR21["script"] == RECORDED["script"]
    assert RECORDED_PR21["answers"] == RECORDED["answers"]
    report = scan_journal(FIXTURE_PR21)
    assert report.ok and report.records == RECORDED_PR21["journal_records"]
    assert report.records < RECORDED["journal_records"]
    path = str(tmp_path / "pr21.worm")
    shutil.copy(FIXTURE_PR21, path)
    engine = open_engine(path)
    info = engine.segments_info()
    assert [s["seg_no"] for s in info["segments"]] == RECORDED_PR21["segments"]
    assert info["segments"] == RECORDED_PR21["segment_table"]
    assert all(s["short_lists"] for s in info["segments"])
    assert answers(engine) == RECORDED_PR21["answers"]
    assert all(r.ok for r in full_engine_audit(engine))
    engine.store.device.close()


def statistics(engine):
    stats = engine.stats
    return (
        {term: n for term, n in stats.df.items() if n},
        stats.lengths_of(np.arange(engine.documents.next_doc_id)).tolist(),
        stats.num_docs,
        stats.total_length,
    )


def reanalysed_statistics(path, monkeypatch):
    """The statistics a reopen that ignores every length column — and
    so re-analyses every stored document — rebuilds."""
    with monkeypatch.context() as patch:
        patch.setattr(MergedListFamily, "doc_lengths", lambda self: None)
        engine = open_engine(path)
    engine.store.device.close()
    return statistics(engine)


def test_length_column_archive_opens_and_answers_as_recorded(tmp_path, monkeypatch):
    """The same script and queries as PR 21's archive, the same answers
    and segment table; the device differs from PR 21's only by the
    column blocks at the end of each shared file, and the manifest's
    opcodes."""
    assert RECORDED_LENGTHS["script"] == RECORDED_PR21["script"]
    assert RECORDED_LENGTHS["answers"] == RECORDED_PR21["answers"]
    assert RECORDED_LENGTHS["segment_table"] == RECORDED_PR21["segment_table"]
    path = str(tmp_path / "lengths.worm")
    shutil.copy(FIXTURE_LENGTHS, path)
    engine = open_engine(path)
    assert all(s.info.lengths for s in engine.iter_segments())
    assert answers(engine) == RECORDED_LENGTHS["answers"]
    assert all(r.ok for r in full_engine_audit(engine))
    engine.store.device.close()
    assert statistics(engine) == reanalysed_statistics(path, monkeypatch)

    pr21 = str(tmp_path / "pr21.worm")
    shutil.copy(FIXTURE_PR21, pr21)
    records = []
    for journal in (pr21, path):
        engine = open_engine(journal)
        records.append(engine._manifest._records)
        engine.store.device.close()
    assert [replace(info, lengths=True) for info in records[0]] == records[1]
    with JournaledWormDevice(pr21) as before, JournaledWormDevice(path) as after:
        old, new = device_state(before), device_state(after)
    assert set(old) == set(new)
    for name in old:
        if name.endswith("/short"):
            # Every segment of the script holds at most 12 documents: a
            # column of one block.
            assert new[name]["blocks"][:-1] == old[name]["blocks"], name
        elif name != "engine/segments":
            assert new[name] == old[name], name


def test_length_column_archive_replays_to_its_pinned_state(tmp_path):
    """As ``tests/worm/test_persistent.py::TestReplayedState`` pins the
    older archives: the digest of every file's name, retention, slot
    count, block bytes and slots, and the record count."""
    path = str(tmp_path / "lengths.worm")
    shutil.copy(FIXTURE_LENGTHS, path)
    with JournaledWormDevice(path) as device:
        digest = hashlib.sha256(repr(device_state(device)).encode()).hexdigest()
        assert (device.records, digest) == (
            RECORDED_LENGTHS["journal_records"],
            "4f788ce1f5490c22bc107c4674aad23042c9c0998a640cfd9f0bb672987f58a9",
        )


@pytest.mark.parametrize("fixture", [FIXTURE, FIXTURE_PR21], ids=["pr15", "pr21"])
def test_archives_without_a_column_reopen_to_a_full_reanalysis(tmp_path, monkeypatch, fixture):
    """No segment of either has a column, so a reopen re-analyses every
    document; after this code seals and merges on top, the merged
    segment has one, and a reopen counts from it what a full
    re-analysis counts."""
    path = str(tmp_path / "old.worm")
    shutil.copy(fixture, path)
    engine = open_engine(path)
    assert not any(s.info.lengths for s in engine.iter_segments())
    assert statistics(engine) == reanalysed_statistics(path, monkeypatch)
    run(engine, [["index", "audit trade filing record18"], ["seal"], ["merge"]])
    (merged,) = engine.iter_segments()
    assert merged.info.lengths
    held = statistics(engine)
    engine.store.device.close()
    reopened = open_engine(path)
    assert statistics(reopened) == held == reanalysed_statistics(path, monkeypatch)
    assert all(r.ok for r in full_engine_audit(reopened))
    reopened.store.device.close()


def test_same_ingest_by_block_replays_to_the_same_device(tmp_path, old_archive):
    path = str(tmp_path / "by-block.worm")
    engine = open_engine(path)
    run(engine, RECORDED["script"])
    assert answers(engine) == RECORDED["answers"]
    engine.store.device.close()

    by_posting, by_block = open_engine(old_archive), open_engine(path)
    old_device, new_device = by_posting.store.device, by_block.store.device
    old_device.close()
    new_device.close()
    assert outside_segments(new_device) == outside_segments(old_device)
    assert live_postings(by_block) == live_postings(by_posting)

    # Outside the segments the same bytes, files and records.  Inside,
    # the same postings and — on the lists long enough to have any — the
    # same pointers; what differs is how they are filed: a short list is
    # no longer a file, so creates go, and a record carries a block of
    # lists, where PR 15's journal has a record per posting.
    old, new = scan_journal(old_archive), scan_journal(path)
    assert new.ok
    assert new.op_counts["set_slot"] == old.op_counts["set_slot"]

    def segment_files(device):
        return {
            name: device.open_file(name)
            for name in device.list_files()
            if name.startswith("engine/seg/")
        }

    old_files, new_files = segment_files(old_device), segment_files(new_device)
    shared = [f for name, f in new_files.items() if name.endswith("/short")]
    assert len(shared) == 5  # one per segment ever written, live or retired
    assert set(new_files) - set(old_files) == {f.name for f in shared}
    assert new.op_counts["create"] - old.op_counts["create"] == len(new_files) - len(
        old_files
    ) < 0
    # Every posting is stored once, as before; the shared files add a
    # 12-byte directory entry per list and a 4-byte length per document
    # of each segment, the manifest 12 bytes per record.
    postings = sum(f.total_bytes() for f in old_files.values())
    lists = len(old_files)
    columns = 4 * sum(r.last_doc - r.first_doc + 1 for r in by_block._manifest._records)
    assert columns == 4 * (4 + 4 + 4 + 12 + 4)  # three seals, their merge, a seal
    assert sum(f.total_bytes() for f in new_files.values()) == postings + 12 * lists + columns
    assert new.payload_bytes - old.payload_bytes == 12 * lists + 12 * len(shared) + columns
    blocks = sum(f.num_blocks for f in new_files.values())
    assert postings // 8 > 3 * blocks
    # Outside the segments one log is filed in other records, to the same
    # bytes: the lexicon's, a record per document where PR 15 has one per
    # term (every document of the script brings a term).
    documents = [step[1] for step in RECORDED["script"] if step[0] == "index"]
    terms = len({term for text in documents for term in text.split()})
    assert by_block.vocabulary_size == terms > len(documents)
    assert old.op_counts["append"] - new.op_counts["append"] == (
        postings // 8 - blocks + terms - len(documents)
    )
    assert new.committed_bytes < old.committed_bytes


def test_a_legacy_batch_commits_its_documents_after_their_postings(tmp_path):
    """Legacy ``index_batch`` appends a batch's postings, then its
    commit-time records, so a crash among the appends burns the batch's
    IDs.  No document's commit-time record precedes one of its postings
    in the journal; the records are those written before the reorder,
    and they replay to the same device."""
    config = EngineConfig(**{**RECORDED["config"], "tail_max_docs": None})
    texts = [step[1] for step in RECORDED["script"] if step[0] == "index"]
    path = str(tmp_path / "legacy.worm")
    device = JournaledWormDevice(path, block_size=config.block_size)
    engine = TrustworthySearchEngine(config, store=CachedWormStore(None, device=device))
    for at in range(0, len(texts), 4):
        engine.index_batch(texts[at : at + 4])
    device.close()

    with open(path, "rb") as handle:
        data = handle.read()
    fmt, start, _ = _sniff_format(data)
    records = [
        (opcode, name, tuple(fields), bytes(payload))
        for _, opcode, name, fields, payload in _records(data, start, fmt, path)
    ]
    committed = set()
    for _, name, _, payload in records:
        if name == engine.time_index.name:
            committed.update(doc_id for _, doc_id in struct.iter_unpack("<QI", payload))
        elif name.startswith("engine/pl/"):
            assert not committed & {doc_id for doc_id, _ in struct.iter_unpack("<II", payload)}
    assert committed == set(range(len(texts)))
    with JournaledWormDevice(path) as replayed:
        state = hashlib.sha256(repr(device_state(replayed)).encode()).hexdigest()
    multiset = hashlib.sha256(repr(sorted(records)).encode()).hexdigest()
    assert (len(records), multiset, state) == LEGACY_BATCHES
