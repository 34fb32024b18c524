"""Unit tests for the mutable tail and sealed WORM segments.

Covers the building blocks of the write–read decoupled index in
isolation: tail insertion/snapshot semantics, manifest pack/replay and
its tamper checks, orphan segment numbering after a crashed seal, the
popularity heuristic, and segment list round-trips.
"""

import numpy as np
import pytest

from repro.core.posting import pack_term_tf
from repro.core.segments import (
    MANIFEST_FILE,
    STRATEGY_POPULAR,
    STRATEGY_UNIFORM,
    SealedSegment,
    SegmentInfo,
    SegmentManifest,
    choose_popular_terms,
    next_seg_no,
    segment_list_name,
    validate_seal_strategy,
    write_segment_lists,
)
from repro.core.tail import MutableTailIndex
from repro.errors import TamperDetectedError, WorkloadError
from repro.search.engine import Candidates, _max_merge_repeats
from repro.worm.persistent import JournaledWormDevice, scan_journal
from repro.worm.storage import CachedWormStore


def make_store() -> CachedWormStore:
    return CachedWormStore(None, block_size=512)


def seal_info(seg_no, first, last, count, **kwargs) -> SegmentInfo:
    defaults = dict(num_lists=8, strategy=STRATEGY_UNIFORM)
    defaults.update(kwargs)
    return SegmentInfo(
        seg_no=seg_no,
        first_doc=first,
        last_doc=last,
        doc_count=count,
        **defaults,
    )


# ----------------------------------------------------------------------
# the mutable tail
# ----------------------------------------------------------------------
class TestMutableTailIndex:
    def test_add_and_snapshot(self):
        tail = MutableTailIndex()
        tail.add(0, {3: pack_term_tf(3, 2), 7: pack_term_tf(7, 1)})
        tail.add(2, {3: pack_term_tf(3, 1)})
        snap = tail.snapshot()
        assert tail.doc_count == 2
        assert tail.posting_count == 3
        assert (tail.first_doc, tail.last_doc) == (0, 2)
        assert [d for d, _ in snap.postings_for(3)] == [0, 2]
        assert snap.docs_with_all([3, 7]) == [0]
        assert snap.docs_with_all([3]) == [0, 2]
        assert snap.docs_with_all([]) == []

    def test_collect_candidates_max_merges_tf(self):
        tail = MutableTailIndex()
        tail.add(5, {1: pack_term_tf(1, 4)})
        snap = tail.snapshot()
        # Doc 5 as an earlier family scanned it, then the tail's column.
        earlier = (1, np.array([5], dtype=np.uint32), np.array([2], dtype=np.uint32))
        columns = snap.collect_candidates([1, 9])
        assert sum(len(doc_ids) for _, doc_ids, _ in columns) == 1  # scanned
        candidates = Candidates(_max_merge_repeats([earlier, *columns]))
        assert candidates[5][1] == 4  # max(2, 4)

    def test_doc_ids_must_increase(self):
        tail = MutableTailIndex()
        tail.add(4, {0: pack_term_tf(0, 1)})
        with pytest.raises(WorkloadError):
            tail.add(4, {0: pack_term_tf(0, 1)})
        with pytest.raises(WorkloadError):
            tail.add(3, {0: pack_term_tf(0, 1)})

    def test_clear_is_copy_on_seal(self):
        tail = MutableTailIndex()
        tail.add(0, {1: pack_term_tf(1, 1)})
        snap = tail.snapshot()
        tail.clear()
        # Pre-seal snapshot keeps its view; the tail itself is empty.
        assert snap.doc_count == 1
        assert list(snap.postings_for(1))
        assert tail.doc_count == 0
        assert tail.generation == snap.generation + 1

    def test_postings_by_term_is_defensive(self):
        tail = MutableTailIndex()
        tail.add(0, {1: pack_term_tf(1, 1)})
        copy = tail.postings_by_term()
        copy[1].clear()
        assert len(tail.snapshot().postings_for(1)) == 1


# ----------------------------------------------------------------------
# the manifest
# ----------------------------------------------------------------------
class TestSegmentManifest:
    def test_seal_records_accumulate(self):
        manifest = SegmentManifest(make_store())
        manifest.append(seal_info(0, 0, 4, 5))
        manifest.append(seal_info(1, 5, 9, 5))
        assert [r.seg_no for r in manifest.live()] == [0, 1]
        assert manifest.sealed_through == 9
        assert manifest.max_seg_no == 1
        assert manifest.record_count == 2

    def test_merge_replaces_contiguous_run(self):
        manifest = SegmentManifest(make_store())
        manifest.append(seal_info(0, 0, 4, 5))
        manifest.append(seal_info(1, 5, 9, 5))
        manifest.append(seal_info(2, 10, 10, 1))
        manifest.append(seal_info(3, 0, 9, 10, inputs=(0, 1)))
        assert [r.seg_no for r in manifest.live()] == [3, 2]
        assert manifest.sealed_through == 10

    def test_replay_rebuilds_live_set(self):
        store = make_store()
        manifest = SegmentManifest(store)
        manifest.append(
            seal_info(
                0, 0, 4, 5,
                strategy=STRATEGY_POPULAR,
                popular_terms=(7, 3),
            )
        )
        manifest.append(seal_info(1, 5, 9, 5))
        manifest.append(seal_info(2, 0, 9, 10, inputs=(0, 1)))
        replayed = SegmentManifest(store)
        assert replayed.live() == manifest.live()
        assert replayed.record_count == 3
        # The popular-term tuple survives byte-exactly: readers rebuild
        # the identical term→list assignment from it.
        assert replayed._records[0].popular_terms == (7, 3)

    @pytest.mark.parametrize(
        "bad",
        [
            seal_info(5, 3, 1, 2),                       # inverted range
            seal_info(5, 0, 4, 0),                       # empty
            seal_info(0, 10, 12, 3),                     # seg_no reused
            seal_info(5, 4, 12, 9),                      # overlaps sealed
            seal_info(5, 0, 9, 10, inputs=(1, 0)),       # not a live run
            seal_info(5, 0, 9, 9, inputs=(0, 1)),        # wrong doc_count
            seal_info(5, 0, 8, 10, inputs=(0, 1)),       # wrong range
        ],
    )
    def test_invalid_transitions_refused(self, bad):
        manifest = SegmentManifest(make_store())
        manifest.append(seal_info(0, 0, 4, 5))
        manifest.append(seal_info(1, 5, 9, 5))
        before = manifest.live()
        with pytest.raises(TamperDetectedError):
            manifest.append(bad)
        # Refused before the WORM append: replay sees no trace of it.
        assert manifest.live() == before
        assert SegmentManifest(manifest.store).live() == before

    def test_garbage_record_is_tampering(self):
        store = make_store()
        SegmentManifest(store).append(seal_info(0, 0, 4, 5))
        store.append_record(MANIFEST_FILE, b"\xff" * 40)
        with pytest.raises(TamperDetectedError) as exc:
            SegmentManifest(store)
        assert exc.value.invariant == "segment-manifest"

    def test_truncated_record_is_tampering(self):
        store = make_store()
        store.ensure_file(MANIFEST_FILE)
        store.append_record(MANIFEST_FILE, b"\x01\x00")
        with pytest.raises(TamperDetectedError):
            SegmentManifest(store)


# ----------------------------------------------------------------------
# segment numbering (orphans burn numbers)
# ----------------------------------------------------------------------
class TestNextSegNo:
    def test_starts_at_zero(self):
        store = make_store()
        assert next_seg_no(store.device, SegmentManifest(store)) == 0

    def test_advances_past_manifest(self):
        store = make_store()
        manifest = SegmentManifest(store)
        manifest.append(seal_info(0, 0, 4, 5))
        assert next_seg_no(store.device, manifest) == 1

    def test_orphan_files_burn_numbers(self):
        """A crashed seal leaves list files with no manifest record; the
        number must never be reissued (WORM files cannot be replaced)."""
        store = make_store()
        manifest = SegmentManifest(store)
        write_segment_lists(
            store,
            7,
            {1: [(0, pack_term_tf(1, 1))]},
            num_lists=8,
            strategy=STRATEGY_UNIFORM,
            popular_terms=(),
            branching=None,
        )
        assert next_seg_no(store.device, manifest) == 8
        # Orphans are invisible to the live set.
        assert manifest.live() == []


# ----------------------------------------------------------------------
# popularity + strategy plumbing
# ----------------------------------------------------------------------
class TestChoosePopularTerms:
    def test_top_k_by_count_then_term_id(self):
        counts = {10: 5, 2: 9, 7: 9, 4: 1}
        assert choose_popular_terms(counts, 3, num_lists=16) == (2, 7, 10)

    def test_clamped_below_num_lists(self):
        counts = {i: 10 - i for i in range(10)}
        # PopularUnmergedMerge needs at least one shared list.
        assert len(choose_popular_terms(counts, 8, num_lists=4)) == 3

    def test_empty_counts(self):
        assert choose_popular_terms({}, 4, num_lists=16) == ()

    def test_validate_seal_strategy(self):
        for name in ("uniform", "popular", "epoch"):
            assert validate_seal_strategy(name) == name
        with pytest.raises(WorkloadError):
            validate_seal_strategy("zipf")


# ----------------------------------------------------------------------
# what a seal costs the journal, in the paper's unit (the block)
# ----------------------------------------------------------------------
class TestSealRecordCount:
    @pytest.mark.parametrize("branching", [None, 4])
    def test_a_seal_journals_a_record_per_block_not_per_posting(
        self, tmp_path, branching
    ):
        path = str(tmp_path / "seal.worm")
        device = JournaledWormDevice(path, block_size=512)
        store = CachedWormStore(None, device=device)
        postings = {
            t: [(d, pack_term_tf(t, 1)) for d in range(0, 400, t)]
            for t in range(1, 10)
        }
        total = write_segment_lists(
            store,
            0,
            postings,
            num_lists=4,
            strategy=STRATEGY_UNIFORM,
            popular_terms=(),
            branching=branching,
        )
        segment = SealedSegment(
            store, seal_info(0, 0, 399, 400, num_lists=4), branching=branching
        )
        lists = [pl for pl, _jump in segment.attached_lists()]
        assert sum(len(pl) for pl in lists) == total > 1000
        blocks = sum(-(-len(pl) // pl.entries_per_block) for pl in lists)
        assert blocks == sum(pl.num_blocks for pl in lists) < total // 20
        pointers = sum(
            block.slots_set
            for pl in lists
            for block in device.open_file(pl.name).blocks()
        )
        assert bool(pointers) == (branching is not None)
        assert device.records == len(lists) + blocks + pointers
        device.close()
        counts = {"create": len(lists), "append": blocks}
        if pointers:
            counts["set_slot"] = pointers
        assert scan_journal(path).op_counts == counts


# ----------------------------------------------------------------------
# segment list round-trip
# ----------------------------------------------------------------------
class TestSealedSegmentReads:
    POSTINGS = {
        1: [(0, pack_term_tf(1, 2)), (2, pack_term_tf(1, 1))],
        5: [(0, pack_term_tf(5, 1)), (1, pack_term_tf(5, 3))],
        9: [(2, pack_term_tf(9, 1))],
    }

    @pytest.mark.parametrize("branching", [None, 4])
    def test_round_trip(self, branching):
        store = make_store()
        total = write_segment_lists(
            store,
            0,
            self.POSTINGS,
            num_lists=8,
            strategy=STRATEGY_UNIFORM,
            popular_terms=(),
            branching=branching,
        )
        assert total == 5
        segment = SealedSegment(
            store, seal_info(0, 0, 2, 3), branching=branching
        )
        doc_ids, _seeks, _blocks = segment.conjunctive_doc_ids([1, 5])
        assert doc_ids == [0]
        candidates = Candidates(segment.collect_candidates([1, 9]))
        assert {d: dict(tf) for d, tf in candidates.items()} == {
            0: {1: 2},
            2: {1: 1, 9: 1},
        }
        assert segment.postings_by_term() == self.POSTINGS
        assert segment.posting_count() == 5

    def test_absent_term_short_circuits_conjunction(self):
        store = make_store()
        write_segment_lists(
            store,
            0,
            self.POSTINGS,
            num_lists=8,
            strategy=STRATEGY_UNIFORM,
            popular_terms=(),
            branching=None,
        )
        segment = SealedSegment(store, seal_info(0, 0, 2, 3), branching=None)
        doc_ids, seeks, blocks = segment.conjunctive_doc_ids([1, 1234])
        assert doc_ids == [] and seeks == 0 and blocks == 0

    def test_popular_layout_isolates_hot_terms(self):
        store = make_store()
        write_segment_lists(
            store,
            0,
            self.POSTINGS,
            num_lists=8,
            strategy=STRATEGY_POPULAR,
            popular_terms=(1, 5),
            branching=None,
        )
        segment = SealedSegment(
            store,
            seal_info(
                0, 0, 2, 3,
                strategy=STRATEGY_POPULAR,
                popular_terms=(1, 5),
            ),
            branching=None,
        )
        # Popular terms own lists 0..k-1 in manifest order.
        assert segment.list_for(1) == 0
        assert segment.list_for(5) == 1
        assert segment.list_for(9) >= 2
        assert store.device.exists(segment_list_name(0, 0))
        candidates = Candidates(segment.collect_candidates([1, 5, 9]))
        assert len(candidates) == 3
