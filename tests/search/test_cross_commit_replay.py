"""Replay equivalence across the commit that journals segments by the block.

Until PR 15 a seal or merge journaled one WORM record per posting; since
then, one per posting-list block.  The format did not change — an append
record always could carry up to a block — so the proof that nothing else
did is replay equivalence, in both directions this commit can test:

* an archive journal **written by PR 15** (``tests/data``, with the
  script that produced it and the answers that commit gave) opens under
  the current code, answers identically, and keeps sealing and merging;
* the **same script run by the current code** journals fewer, larger
  records that scan clean and replay to the same device state — file
  names, block bytes, pointer slots — as the per-posting journal.
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
from tests.helpers import device_state

DATA = os.path.join(os.path.dirname(__file__), os.pardir, "data")
FIXTURE = os.path.join(DATA, "tail_archive_pr15.worm")
with open(os.path.join(DATA, "tail_archive_pr15.json")) as _handle:
    RECORDED = json.load(_handle)
CONFIG = EngineConfig(**RECORDED["config"])


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
    assert device_state(reopened.store.device) == device_state(
        reference.store.device
    )
    reopened.store.device.close()


def test_same_ingest_by_block_replays_to_the_same_device(tmp_path, old_archive):
    path = str(tmp_path / "by-block.worm")
    engine = open_engine(path)
    run(engine, RECORDED["script"])
    assert answers(engine) == RECORDED["answers"]
    engine.store.device.close()

    by_posting = JournaledWormDevice(old_archive, block_size=CONFIG.block_size)
    by_block = JournaledWormDevice(path, block_size=CONFIG.block_size)
    by_posting.close()
    by_block.close()
    assert device_state(by_block) == device_state(by_posting)

    # Same bytes stored, same files, same pointers; the only records
    # that differ are the segments' appends: one per block, where the
    # old journal has one per posting.
    old, new = scan_journal(old_archive), scan_journal(path)
    assert new.ok
    assert new.payload_bytes == old.payload_bytes
    assert new.op_counts["create"] == old.op_counts["create"]
    assert new.op_counts["set_slot"] == old.op_counts["set_slot"]
    segment_files = [
        by_block.open_file(name)
        for name in by_block.list_files()
        if name.startswith("engine/seg/")
    ]
    postings = sum(f.total_bytes() for f in segment_files) // 8
    blocks = sum(f.num_blocks for f in segment_files)
    assert postings > 3 * blocks
    assert old.op_counts["append"] - new.op_counts["append"] == postings - blocks
    assert new.committed_bytes < old.committed_bytes
