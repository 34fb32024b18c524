"""Unit tests for the mutable tail and sealed WORM segments.

Covers the building blocks of the write–read decoupled index in
isolation: tail insertion/snapshot semantics, manifest pack/replay and
its tamper checks, orphan segment numbering after a crashed seal, the
popularity heuristic, and segment list round-trips.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.block_jump_index import BlockJumpIndex
from repro.core.posting import MAX_TERM_ID_WITH_TF, pack_term_tf
from repro.core.posting_list import PostingList
from repro.core.segments import (
    MANIFEST_FILE,
    SEGMENT_PREFIX,
    STRATEGY_POPULAR,
    STRATEGY_UNIFORM,
    ReadCosts,
    SealedSegment,
    SegmentInfo,
    SharedFile,
    SegmentManifest,
    choose_popular_terms,
    next_seg_no,
    _pack_record,
    segment_list_name,
    validate_seal_strategy,
    write_segment_lists,
)
from repro.core.tail import MutableTailIndex
from repro.errors import (
    BlockBoundsError,
    DocumentIdOrderError,
    IndexError_,
    TamperDetectedError,
    WorkloadError,
    WormViolationError,
)
from repro.search.engine import Candidates, _concatenated
from repro.worm.persistent import JournaledWormDevice, scan_journal
from repro.worm.storage import CachedWormStore
from tests.helpers import columns_of, device_state, postings_of, rows_of


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
        tail.add([0], [0, 0], [3, 7], [2, 1])
        tail.add([2], [2], [3], [1])
        snap = tail.snapshot()
        assert tail.doc_count == 2
        assert tail.posting_count == 3
        assert (tail.first_doc, tail.last_doc) == (0, 2)
        assert [d.tolist() for _, d, _ in snap.collect_candidates([3])] == [[0, 2]]
        assert snap.docs_with_all([3, 7]) == [0]
        assert snap.docs_with_all([3]) == [0, 2]
        assert snap.docs_with_all([]) == []

    def test_collect_candidates_max_merges_tf(self):
        tail = MutableTailIndex()
        tail.add([5], [5], [1], [4])
        snap = tail.snapshot()
        # Doc 5 as an earlier family scanned it, then the tail's column.
        earlier = (1, np.array([5], dtype=np.uint32), np.array([2], dtype=np.uint32))
        columns = snap.collect_candidates([1, 9])
        assert sum(len(doc_ids) for _, doc_ids, _ in columns) == 1  # scanned
        candidates = Candidates(_concatenated([[earlier], columns]))
        assert candidates.rows()[5][1] == 4  # max(2, 4)
        assert len(candidates.columns) == 1  # one column per term

    def test_doc_ids_must_increase(self):
        tail = MutableTailIndex()
        tail.add([4], [4], [0], [1])
        with pytest.raises(WorkloadError):
            tail.add([4], [4], [0], [1])
        with pytest.raises(WorkloadError):
            tail.add([3], [3], [0], [1])

    def test_clear_is_copy_on_seal(self):
        tail = MutableTailIndex()
        tail.add([0], [0], [1], [1])
        snap = tail.snapshot()
        tail.clear()
        # Pre-seal snapshot keeps its view; the tail itself is empty.
        assert snap.docs_with_all([1]) == [0]
        assert tail.doc_count == 0
        assert tail.snapshot().docs_with_all([1]) == []

    def test_postings_by_term_is_defensive(self):
        tail = MutableTailIndex()
        tail.add([0], [0], [1], [1])
        doc_ids, term_codes = tail.columns()
        doc_ids[:] = 9
        term_codes[:] = 0
        assert tail.snapshot().docs_with_all([1]) == [0]
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
        postings[12] = [(d, pack_term_tf(12, 1)) for d in range(0, 400, 80)]
        total, shared = write_segment_lists(
            store,
            0,
            columns_of(postings),
            num_lists=8,
            strategy=STRATEGY_UNIFORM,
            popular_terms=(),
            branching=branching,
        )
        segment = SealedSegment(
            store,
            seal_info(0, 0, 399, 400, shared=shared),
            branching=branching,
        )
        lists = [pl for pl, _jump in segment.attached_lists()]
        assert sum(len(pl) for pl in lists) == total > 1000
        # Long lists are files of their own; the short ones share one.
        long = [pl for pl in lists if device.exists(pl.name)]
        assert shared.lists == len(lists) > len(long) > 0
        assert shared.short_lists == len(lists) - len(long)
        assert all(
            (len(pl) > segment.short_limit) == (pl in long) for pl in lists
        )
        blocks = sum(-(-len(pl) // pl.entries_per_block) for pl in long)
        assert blocks == sum(pl.num_blocks for pl in long) < total // 20
        pointers = sum(
            block.slots_set
            for pl in long
            for block in device.open_file(pl.name).blocks()
        )
        assert bool(pointers) == (branching is not None)
        shared_blocks = device.open_file(segment.shared_name).num_blocks
        assert shared_blocks == shared.blocks + -(-shared.lists * 12 // 512)
        assert 0 < shared.blocks <= shared.short_lists
        assert device.records == 1 + shared_blocks + len(long) + blocks + pointers
        device.close()
        counts = {"create": 1 + len(long), "append": shared_blocks + blocks}
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
        total, shared = write_segment_lists(
            store,
            0,
            columns_of(self.POSTINGS),
            num_lists=8,
            strategy=STRATEGY_UNIFORM,
            popular_terms=(),
            branching=branching,
        )
        assert total == 5
        assert shared.lists == shared.short_lists == 3 and shared.blocks == 1
        segment = SealedSegment(
            store, seal_info(0, 0, 2, 3, shared=shared), branching=branching
        )
        assert segment.conjunctive_doc_ids([1, 5]) == [0]
        candidates = Candidates(segment.collect_candidates([1, 9]))
        assert candidates.rows() == {
            0: {1: 2},
            2: {1: 1, 9: 1},
        }
        assert postings_of(segment.read_columns()) == self.POSTINGS
        assert sum(len(pl) for pl, _ in segment.attached_lists()) == 5
        assert store.device.list_files() == [segment.shared_name]

    def test_absent_term_short_circuits_conjunction(self):
        store = make_store()
        _, shared = write_segment_lists(
            store,
            0,
            columns_of(self.POSTINGS),
            num_lists=8,
            strategy=STRATEGY_UNIFORM,
            popular_terms=(),
            branching=None,
        )
        segment = SealedSegment(
            store, seal_info(0, 0, 2, 3, shared=shared), branching=None
        )
        costs = ReadCosts()
        assert segment.conjunctive_doc_ids([1, 1234], costs) == []
        assert costs.seeks == 0 and costs.blocks == 0

    def test_popular_layout_isolates_hot_terms(self):
        store = make_store()
        _, shared = write_segment_lists(
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
                shared=shared,
            ),
            branching=None,
        )
        # Popular terms own lists 0..k-1 in manifest order.
        assert segment.list_for(1) == 0
        assert segment.list_for(5) == 1
        assert segment.list_for(9) >= 2
        hot, _jump = segment.posting_list_for(1)
        assert hot.name == segment_list_name(0, 0)
        assert rows_of(hot) == self.POSTINGS[1]
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
    popular = draw(st.lists(st.sampled_from(used), max_size=2, unique=True))
    # Both kinds of list, every time: a term in more documents than a
    # block holds postings makes its list long, and a term with one
    # posting and a list to itself makes that list short.
    for doc_id in range(doc_id + 1, doc_id + 10):
        entries.append((doc_id, pack_term_tf(_HEAVY_TERM, draw(tfs))))
    entries.append((doc_id, pack_term_tf(_RARE_TERM, draw(tfs))))
    return entries, tuple(sorted([*popular, _RARE_TERM]))


_HEAVY_TERM, _RARE_TERM = 9001, 9002


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
        """The store written to, and the manifest record to read it by."""
        store = CachedWormStore(None, block_size=self.BLOCK_SIZES[branching])
        info = self._info(popular)
        array = np.array(entries, dtype=np.uint32)
        total, shared = write_segment_lists(
            store,
            0,
            (array[:, 0], array[:, 1]),
            num_lists=info.num_lists,
            strategy=info.strategy,
            popular_terms=info.popular_terms,
            branching=branching,
        )
        assert total == len(entries)
        assert 0 < shared.short_lists < shared.lists
        return store, replace(info, shared=shared)

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

    def _observe(self, store, info, branching, terms):
        """What a segment is, whichever way it was written: long lists
        to the byte (they are files of their own either way), short
        ones posting by posting in stored order."""
        segment = SealedSegment(store, info, branching=branching)
        lists = [pl for pl, _jump in segment.attached_lists()]
        long = [pl.name for pl in lists if len(pl) > segment.short_limit]
        state = device_state(store.device)
        assert all(len(state[name]["blocks"]) > 1 for name in long)
        return {
            "device": {name: state[name] for name in long},
            "lists": [(pl.name, pl.count, pl.last_doc_id) for pl in lists],
            "postings": [rows_of(pl) for pl in lists],
            "pointers": sum(
                block.slots_set
                for name in long
                for block in store.device.open_file(name).blocks()
            ),
            "candidates": [
                (term_id, doc_ids.tolist(), tfs.tolist())
                for term_id, doc_ids, tfs in segment.collect_candidates(terms)
            ],
            "joins": [
                segment.conjunctive_doc_ids(terms[at : at + 2])
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
        expected = self._observe(reference, self._info(popular), branching, terms)
        assert expected["pointers"] == pointers_set
        assert sum(count for _, count, _ in expected["lists"]) == len(entries)
        written, info = self._write_columns(entries, popular, branching)
        assert self._observe(written, info, branching, terms) == expected
        # Nothing but the long lists' files and the shared one.
        assert sorted([*expected["device"], f"{SEGMENT_PREFIX}000000/short"]) == (
            written.device.list_files()
        )

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
        written, info = self._write_columns(shuffled, popular, branching)
        assert self._observe(written, info, branching, terms) == expected
        assert device_state(written.device) == device_state(
            self._write_columns(entries, popular, branching)[0].device
        )

        # ... and not otherwise: ties are not sorted, they keep the
        # order they came in.  A tie that reads the same backwards
        # (a stuffed repeat at an earlier frequency, say) has no other
        # order to keep.
        ties = {}
        for entry in entries:
            ties.setdefault(_tie_key(entry), []).append(entry)
        if any(tied != tied[::-1] for tied in ties.values()):
            backwards = [ties[_tie_key(entry)].pop() for entry in entries]
            written, info = self._write_columns(backwards, popular, branching)
            observed = self._observe(written, info, branching, terms)
            assert observed["postings"] != expected["postings"]

    def test_tie_order_is_arrival_order(self):
        first, second = (3, pack_term_tf(7, 2)), (3, pack_term_tf(7, 9))
        heavy = [(doc_id, pack_term_tf(_HEAVY_TERM, 1)) for doc_id in range(9)]
        written = [
            self._write_columns([*entries, *heavy], (), None)
            for entries in ([first, second], [second, first])
        ]
        assert [
            [
                (doc_id, code)
                for doc_id, code in rows_of(
                    SealedSegment(store, info, branching=None).posting_list_for(7)[0]
                )
                if code & MAX_TERM_ID_WITH_TF == 7
            ]
            for store, info in written
        ] == [[first, second], [second, first]]

    def test_empty_columns_write_nothing(self):
        store = make_store()
        empty = np.array([], dtype=np.uint32)
        assert write_segment_lists(
            store, 0, (empty, empty), num_lists=4, strategy=STRATEGY_UNIFORM,
            popular_terms=(), branching=4,
        ) == (0, SharedFile(0, 0, 0))
        assert store.device.list_files() == []


# ----------------------------------------------------------------------
# the shared file: held to its manifest record, on both sides
# ----------------------------------------------------------------------
def _code(term_id, tf=1):
    return pack_term_tf(term_id, tf)


#: Bytes of a manifest record's fixed header, and of its shared-file counts.
HEADER, COUNTS = 38, 12


class TestSharedFileManifestRecords:
    def test_counts_survive_replay_under_their_own_opcodes(self):
        store = make_store()
        manifest = SegmentManifest(store)
        manifest.append(seal_info(0, 0, 4, 5))  # opcode 1, as ever
        manifest.append(
            seal_info(
                1, 5, 9, 5,
                strategy=STRATEGY_POPULAR,
                popular_terms=(7, 3),
                shared=SharedFile(2, 6, 5),
            )
        )
        manifest.append(
            seal_info(2, 0, 9, 10, inputs=(0, 1), shared=SharedFile(0, 1, 0))
        )
        manifest.append(seal_info(3, 10, 10, 1, shared=SharedFile(0, 0, 0)))
        payload = store.peek_block(MANIFEST_FILE, 0)
        starts = (0, HEADER, 2 * HEADER + COUNTS + 8, 3 * HEADER + 2 * COUNTS + 16)
        assert [payload[at] for at in starts] == [1, 3, 4, 3]
        assert len(payload) == starts[-1] + HEADER + COUNTS
        replayed = SegmentManifest(store)
        assert replayed._records == manifest._records
        assert [r.shared for r in replayed._records] == [
            None, (2, 6, 5), (0, 1, 0), (0, 0, 0),
        ]
        assert replayed.live()[0].as_dict() == {
            "seg_no": 2,
            "first_doc": 0,
            "last_doc": 9,
            "doc_count": 10,
            "num_lists": 8,
            "strategy": "uniform",
            "popular_terms": 0,
            "merged_from": [0, 1],
            "lists": 1,
            "short_lists": 0,
            "shared_blocks": 0,
        }

    @pytest.mark.parametrize(
        "shared",
        [
            SharedFile(0, 3, 2),   # short lists and no block to hold them
            SharedFile(1, 3, 0),   # a block of no list
            SharedFile(3, 3, 2),   # more blocks than lists to put in them
            SharedFile(1, 2, 3),   # more short lists than lists
            SharedFile(1, 9, 2),   # more lists than the segment has
        ],
    )
    def test_inconsistent_counts_are_refused_on_append_and_on_replay(self, shared):
        bad = seal_info(1, 5, 9, 5, shared=shared)
        store = make_store()
        manifest = SegmentManifest(store)
        manifest.append(seal_info(0, 0, 4, 5))
        with pytest.raises(TamperDetectedError) as exc:
            manifest.append(bad)
        assert exc.value.invariant == "segment-manifest"
        assert SegmentManifest(store).record_count == 1
        store.append_record(MANIFEST_FILE, _pack_record(bad))
        with pytest.raises(TamperDetectedError) as exc:
            SegmentManifest(store)
        assert exc.value.invariant == "segment-manifest"

    @pytest.mark.parametrize("cut", [1, 4, 8, 9, 13, 20, 21])
    def test_a_truncated_or_mis_sized_record_is_tampering(self, cut):
        """Cut inside its popular terms, inside its counts, to the header
        alone, inside the header: refused wherever it ends."""
        record = _pack_record(
            seal_info(0, 0, 4, 5, popular_terms=(7, 3), shared=SharedFile(1, 3, 2))
        )
        assert len(record) == HEADER + COUNTS + 8 and record[0] == 3
        store = make_store()
        store.ensure_file(MANIFEST_FILE)
        store.append_record(MANIFEST_FILE, record[:-cut])
        with pytest.raises(TamperDetectedError) as exc:
            SegmentManifest(store)
        assert exc.value.invariant == "segment-manifest"
        assert "manifest record at byte 0" in str(exc.value)

    def test_an_opcode_that_disagrees_with_its_inputs_is_tampering(self):
        record = bytearray(
            _pack_record(seal_info(0, 0, 4, 5, shared=SharedFile(1, 3, 2)))
        )
        record[0] = 4  # a merge, of nothing
        store = make_store()
        store.ensure_file(MANIFEST_FILE)
        store.append_record(MANIFEST_FILE, bytes(record))
        with pytest.raises(TamperDetectedError, match="disagrees"):
            SegmentManifest(store)


class TestSharedFileDirectory:
    """A reader takes exactly the committed data blocks and exactly the
    committed directory entries, and refuses a file that is not what
    its manifest record says."""

    #: Terms 1, 2 and 3: lists 1, 6 and 5 of eight under uniform hashing.
    ONE = [(0, _code(1, 2)), (2, _code(1))]
    TWO = [(1, _code(2))]
    THREE = [(0, _code(3)), (1, _code(3, 3)), (2, _code(3))]
    POSTINGS = {1: ONE, 2: TWO, 3: THREE}
    NAME = f"{SEGMENT_PREFIX}000000/short"

    def segment(self, store, shared):
        return SealedSegment(
            store, seal_info(0, 0, 2, 3, shared=shared), branching=None
        )

    def written(self):
        store = make_store()
        _, shared = write_segment_lists(
            store, 0, columns_of(self.POSTINGS), num_lists=8,
            strategy=STRATEGY_UNIFORM, popular_terms=(), branching=None,
        )
        assert shared == (1, 3, 3)
        return store, shared

    def hand_built(self, blocks, entries):
        """A shared file of these data ``blocks`` (lists of postings)
        and these directory ``entries``, each ``(list, block, count)``."""
        store = make_store()
        store.ensure_file(self.NAME)
        for rows in (*blocks, entries):
            store.append_record(
                self.NAME, np.array(rows, dtype="<u4").tobytes(), force_new_block=True
            )
        return store

    def refused(self, segment):
        """No read of the segment gets past its directory."""
        for read in (
            lambda: segment.posting_list_for(1),
            lambda: segment.collect_candidates([1, 3]),
            lambda: segment.conjunctive_doc_ids([1, 3]),
            lambda: segment.read_columns(),
            lambda: list(segment.attached_lists()),
            lambda: segment.unreachable_files(),
        ):
            with pytest.raises(TamperDetectedError) as exc:
                read()
            assert exc.value.invariant == "segment-manifest"
            assert f"'{self.NAME}'" in exc.value.location

    def test_what_was_written_reads_back(self):
        store, shared = self.written()
        segment = self.segment(store, shared)
        assert postings_of(segment.read_columns()) == self.POSTINGS
        assert segment.unreachable_files() == []
        by_hand = self.hand_built(
            [self.ONE + self.THREE + self.TWO], [(1, 0, 2), (5, 0, 3), (6, 0, 1)]
        )
        assert device_state(by_hand.device) == device_state(store.device)

    @pytest.mark.parametrize(
        "change",
        [
            dict(blocks=2),        # the directory would start a block later
            dict(blocks=0),        # ... or where the postings are
            dict(lists=4),         # an entry more than the block holds
            dict(lists=2),         # the last list left out: a block overfull
            dict(short_lists=2),   # not what the directory marks
        ],
    )
    def test_a_manifest_record_that_says_otherwise_is_refused(self, change):
        store, shared = self.written()
        self.refused(self.segment(store, shared._replace(**change)))

    def test_a_missing_file_is_shorter_than_any_record_says(self):
        self.refused(self.segment(make_store(), SharedFile(1, 3, 3)))

    @pytest.mark.parametrize(
        "blocks, entries",
        [
            # an entry pointing outside the committed blocks
            ([ONE], [(1, 1, 2)]),
            ([ONE, THREE], [(1, 0, 2), (5, 2, 3)]),
            # blocks holding more postings than the directory lists
            ([ONE + TWO], [(1, 0, 2)]),
            ([ONE, THREE], [(1, 0, 2), (5, 1, 2)]),
            # ... or fewer
            ([ONE], [(1, 0, 3)]),
            # a block no list is in, a block come back to
            ([ONE, THREE], [(1, 1, 3)]),
            ([ONE, THREE], [(1, 0, 1), (5, 1, 3), (6, 0, 1)]),
            # list IDs out of order, repeated, past the segment's lists
            ([ONE + THREE], [(5, 0, 2), (1, 0, 3)]),
            ([ONE + THREE], [(1, 0, 2), (1, 0, 3)]),
            ([ONE], [(8, 0, 2)]),
        ],
    )
    def test_a_directory_that_does_not_fill_the_committed_blocks_is_refused(
        self, blocks, entries
    ):
        store = self.hand_built(blocks, entries)
        self.refused(
            self.segment(store, SharedFile(len(blocks), len(entries), len(entries)))
        )

    def test_a_short_list_out_of_order_is_refused_by_attach_and_by_merge(self):
        descending = [(2, _code(1)), (0, _code(1))]
        store = self.hand_built([descending + self.THREE], [(1, 0, 2), (5, 0, 3)])
        segment = self.segment(store, SharedFile(1, 2, 2))
        assert segment.posting_list_for(3)[0].doc_ids() == [0, 1, 2]
        for read in (lambda: segment.posting_list_for(1), segment.read_columns):
            with pytest.raises(TamperDetectedError) as exc:
                read()
            assert exc.value.invariant == "posting-monotonicity"
            assert f"'{segment_list_name(0, 1)}'" in exc.value.location

    def test_a_short_list_is_one_read_only_block(self):
        store, shared = self.written()
        posting_list, jump = self.segment(store, shared).posting_list_for(3)
        assert jump is None and posting_list.name == segment_list_name(0, 5)
        assert (posting_list.num_blocks, len(posting_list)) == (1, 3)
        assert posting_list.last_doc_id == 2
        reads = store.io.block_reads
        block = posting_list.read_block_postings(0)
        assert list(zip(block.doc_ids, block.term_codes)) == self.THREE
        assert store.io.block_reads == reads + 1  # counted: the shared block
        with pytest.raises(BlockBoundsError):  # no bytes past the extent
            posting_list.read_block_postings(1, counted=False)
        before = device_state(store.device)
        for write in (
            lambda: posting_list.append(5, _code(3)),
            lambda: posting_list.append_many([(5, _code(3))]),
        ):
            with pytest.raises(WormViolationError, match="sealed extent"):
                write()
        assert device_state(store.device) == before


class TestSharedFileWriter:
    def family(self, store):
        return SealedSegment(store, seal_info(0, 0, 0, 1), branching=None)

    def test_lists_never_straddle_a_block(self):
        """Next fit, 64 postings to a block: lists 1, 2, 5 and 6 of 30,
        10, 30 and 30 fill two blocks with 40 and 60, not 64 and 36."""
        store = make_store()
        postings = {
            t: [(d, _code(t)) for d in range(count)]
            for t, count in ((1, 30), (2, 30), (3, 30), (4, 10))
        }
        _, shared = write_segment_lists(
            store, 0, columns_of(postings), num_lists=8,
            strategy=STRATEGY_UNIFORM, popular_terms=(), branching=None,
        )
        assert shared == (2, 4, 4)
        segment = SealedSegment(
            store, seal_info(0, 0, 29, 30, shared=shared), branching=None
        )
        shared_file = store.device.open_file(segment.shared_name)
        assert [b.fill for b in shared_file.blocks()] == [40 * 8, 60 * 8, 4 * 12]
        assert [pl._extent for pl, _ in segment.attached_lists()] == [
            (segment.shared_name, 0, 0, 240),
            (segment.shared_name, 0, 240, 80),
            (segment.shared_name, 1, 0, 240),
            (segment.shared_name, 1, 240, 240),
        ]
        assert postings_of(segment.read_columns()) == postings

    def test_a_descending_doc_id_in_a_short_list_writes_nothing(self):
        store = make_store()
        rows = [(0, _code(1)), (4, _code(1)), (1, _code(2)), (3, _code(2))]
        lists = (np.array([1, 6]), np.array([2, 3]), np.array([True, True]))
        with pytest.raises(DocumentIdOrderError) as exc:
            self.family(store).write_shared_file(
                *lists, np.array([*rows, (2, _code(2))], dtype=np.uint32)
            )
        assert f"'{segment_list_name(0, 6)}'" in str(exc.value)
        assert "doc_id 2 < last appended 3" in str(exc.value)
        assert store.device.list_files() == []
        # A list may start below the end of the one before it.
        assert self.family(store).write_shared_file(
            *lists, np.array([*rows, (3, _code(2, 7))], dtype=np.uint32)
        ) == (1, 2, 2)

    def test_a_field_outside_32_bits_writes_nothing(self):
        store = make_store()
        with pytest.raises(IndexError_):
            write_segment_lists(
                store, 0, (np.array([1, 2**32]), np.array([_code(1), _code(1)])),
                num_lists=8, strategy=STRATEGY_UNIFORM, popular_terms=(),
                branching=None,
            )
        assert store.device.list_files() == []
