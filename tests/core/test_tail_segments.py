"""Unit tests for the mutable tail and sealed WORM segments.

Covers the building blocks of the write–read decoupled index in
isolation: tail insertion/snapshot semantics, manifest pack/replay and
its tamper checks, orphan segment numbering after a crashed seal, the
popularity heuristic, and segment list round-trips.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.block_jump_index import BlockJumpIndex
from repro.core.posting import MAX_TERM_ID_WITH_TF, pack_term_tf
from repro.core.posting_list import PostingList
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
from tests.helpers import columns_of, device_state, postings_of


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
        doc_ids, term_codes = tail.columns()
        doc_ids[:] = 9
        term_codes[:] = 0
        assert tail.snapshot().postings_for(1) == [(0, pack_term_tf(1, 1))]
        assert postings_of(tail.columns()) == {1: [(0, pack_term_tf(1, 1))]}


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
            columns_of({1: [(0, pack_term_tf(1, 1))]}),
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
            columns_of(postings),
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
            columns_of(self.POSTINGS),
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
        assert (
            postings_of(segment.read_columns(segment.list_file_names()))
            == self.POSTINGS
        )
        assert segment.posting_count() == 5

    def test_absent_term_short_circuits_conjunction(self):
        store = make_store()
        write_segment_lists(
            store,
            0,
            columns_of(self.POSTINGS),
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
            columns_of(self.POSTINGS),
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


# ----------------------------------------------------------------------
# a segment written from columns == the same postings appended one by one
# ----------------------------------------------------------------------
@st.composite
def _segment_inputs(draw):
    """Postings in arrival order, with a few stuffed repeats of a
    ``(doc, term)`` pair at another frequency, and a layout."""
    gaps = draw(st.lists(st.integers(1, 40), min_size=1, max_size=60))
    # Term IDs past 1024 make a family re-derive its assignment over a
    # doubled universe while the reference loop is still asking.
    terms = st.one_of(st.integers(0, 40), st.integers(1024, 5000))
    tfs = st.integers(1, 255)
    entries = []
    doc_id = draw(st.integers(0, 5)) - 1
    for gap in gaps:
        doc_id += gap
        for term_id in draw(st.lists(terms, min_size=1, max_size=12, unique=True)):
            entries.append((doc_id, pack_term_tf(term_id, draw(tfs))))
    entries.append((doc_id, pack_term_tf(draw(st.integers(5001, 9000)), draw(tfs))))
    for at in draw(st.lists(st.integers(0, len(entries) - 1), max_size=3)):
        doc_id, code = entries[at]
        entries.append((doc_id, pack_term_tf(code & MAX_TERM_ID_WITH_TF, draw(tfs))))
    used = sorted({code & MAX_TERM_ID_WITH_TF for _, code in entries})
    popular = draw(st.lists(st.sampled_from(used), max_size=3, unique=True))
    return entries, tuple(sorted(popular))


def _tie_key(entry):
    return entry[0], entry[1] & MAX_TERM_ID_WITH_TF


class TestColumnarSegmentWrite:
    """``write_segment_lists`` sorts two columns once and hands each list
    a slice; what lands on the device is what a per-posting writer
    leaves after appending in (list, doc, term id, arrival) order."""

    NUM_LISTS = 4
    #: branching -> block size holding 8 postings beside the pointer
    #: slots of a 32-bit ID space, so lists span blocks and set pointers.
    BLOCK_SIZES = {None: 64, 2: 64 + 4 * 32, 32: 64 + 4 * 31 * 7}

    def _info(self, popular):
        return seal_info(
            0, 0, 0, 1,
            num_lists=self.NUM_LISTS,
            strategy=STRATEGY_POPULAR if popular else STRATEGY_UNIFORM,
            popular_terms=popular,
        )

    def _write_columns(self, entries, popular, branching):
        store = CachedWormStore(None, block_size=self.BLOCK_SIZES[branching])
        info = self._info(popular)
        array = np.array(entries, dtype=np.uint32)
        total = write_segment_lists(
            store,
            0,
            (array[:, 0], array[:, 1]),
            num_lists=info.num_lists,
            strategy=info.strategy,
            popular_terms=info.popular_terms,
            branching=branching,
        )
        assert total == len(entries)
        return store

    def _write_per_posting(self, entries, popular, branching):
        """The reference: one ``append`` / ``insert`` per posting."""
        store = CachedWormStore(None, block_size=self.BLOCK_SIZES[branching])
        layout = SealedSegment(store, self._info(popular), branching=branching)
        by_list = {}
        for arrival, (doc_id, code) in enumerate(entries):
            term_id = code & MAX_TERM_ID_WITH_TF
            by_list.setdefault(layout.list_for(term_id), []).append(
                (doc_id, term_id, arrival, code)
            )
        pointers_set = 0
        for list_id in sorted(by_list):
            name = segment_list_name(0, list_id)
            if branching is None:
                add = PostingList(store, name).append
            else:
                jump = BlockJumpIndex.create(store, name, branching=branching)
                add = jump.insert
            for doc_id, _term_id, _arrival, code in sorted(by_list[list_id]):
                add(doc_id, code)
            if branching is not None:
                pointers_set += jump.pointers_set
        return store, pointers_set

    def _observe(self, store, popular, branching, terms):
        segment = SealedSegment(store, self._info(popular), branching=branching)
        lists = [pl for pl, _jump in segment.attached_lists()]
        return {
            "device": device_state(store.device),
            "lists": [(pl.name, pl.count, pl.last_doc_id) for pl in lists],
            "pointers": sum(
                block.slots_set
                for pl in lists
                for block in store.device.open_file(pl.name).blocks()
            ),
            "candidates": [
                (term_id, doc_ids.tolist(), tfs.tolist())
                for term_id, doc_ids, tfs in segment.collect_candidates(terms)
            ],
            "joins": [
                segment.conjunctive_doc_ids(terms[at : at + 2])[0]
                for at in range(len(terms) - 1)
            ],
        }

    @settings(max_examples=60, deadline=None)
    @given(
        inputs=_segment_inputs(),
        branching=st.sampled_from([None, 2, 32]),
        shuffle=st.randoms(use_true_random=False),
    )
    def test_columns_equal_per_posting(self, inputs, branching, shuffle):
        entries, popular = inputs
        terms = sorted({code & MAX_TERM_ID_WITH_TF for _, code in entries})
        reference, pointers_set = self._write_per_posting(entries, popular, branching)
        expected = self._observe(reference, popular, branching, terms)
        assert expected["pointers"] == pointers_set
        assert sum(count for _, count, _ in expected["lists"]) == len(entries)
        written = self._write_columns(entries, popular, branching)
        assert self._observe(written, popular, branching, terms) == expected

        # Any arrival order gives the same segment, as long as the
        # postings that tie on (doc, term) stay in theirs...
        order = list(range(len(entries)))
        shuffle.shuffle(order)
        tied_at = {}
        for position, at in enumerate(order):
            tied_at.setdefault(_tie_key(entries[at]), []).append(position)
        for positions in tied_at.values():
            for position, at in zip(positions, sorted(order[p] for p in positions)):
                order[position] = at
        shuffled = [entries[at] for at in order]
        written = self._write_columns(shuffled, popular, branching)
        assert self._observe(written, popular, branching, terms)["device"] == (
            expected["device"]
        )

        # ... and not otherwise: ties are not sorted, they keep the
        # order they came in.
        ties = {}
        for entry in entries:
            ties.setdefault(_tie_key(entry), []).append(entry)
        if any(len(set(tied)) > 1 for tied in ties.values()):
            backwards = [ties[_tie_key(entry)].pop() for entry in entries]
            written = self._write_columns(backwards, popular, branching)
            assert device_state(written.device) != expected["device"]

    def test_tie_order_is_arrival_order(self):
        first, second = (3, pack_term_tf(7, 2)), (3, pack_term_tf(7, 9))
        stores = [
            self._write_columns(entries, (), None)
            for entries in ([first, second], [second, first])
        ]
        name = segment_list_name(0, SealedSegment(
            stores[0], self._info(()), branching=None
        ).list_for(7))
        assert [
            [(p.doc_id, p.term_code) for p in PostingList(store, name).scan()]
            for store in stores
        ] == [[first, second], [second, first]]

    def test_empty_columns_write_nothing(self):
        store = make_store()
        empty = np.array([], dtype=np.uint32)
        assert (
            write_segment_lists(
                store, 0, (empty, empty), num_lists=4, strategy=STRATEGY_UNIFORM,
                popular_terms=(), branching=4,
            )
            == 0
        )
        assert store.device.list_files() == []
