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
  pinned beside it, for the next change of segment bytes to start from.
"""

import json
import os
import shutil

import pytest

from repro.adversary.detection import full_engine_audit
from repro.search.engine import EngineConfig, TrustworthySearchEngine
from repro.worm.persistent import JournaledWormDevice, scan_journal
from repro.worm.storage import CachedWormStore
from tests.data.make_tail_archive import answers, run
from tests.helpers import device_state, postings_of

DATA = os.path.join(os.path.dirname(__file__), os.pardir, "data")
FIXTURE = os.path.join(DATA, "tail_archive_pr15.worm")
FIXTURE_PR21 = os.path.join(DATA, "tail_archive_pr21.worm")
with open(os.path.join(DATA, "tail_archive_pr15.json")) as _handle:
    RECORDED = json.load(_handle)
with open(os.path.join(DATA, "tail_archive_pr21.json")) as _handle:
    RECORDED_PR21 = json.load(_handle)
CONFIG = EngineConfig(**RECORDED["config"])


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
    # 12-byte directory entry per list, the manifest 12 bytes per record.
    postings = sum(f.total_bytes() for f in old_files.values())
    lists = len(old_files)
    assert sum(f.total_bytes() for f in new_files.values()) == postings + 12 * lists
    assert new.payload_bytes - old.payload_bytes == 12 * lists + 12 * len(shared)
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
