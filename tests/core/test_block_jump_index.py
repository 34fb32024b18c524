"""Unit + property tests for the block jump index (Section 4.4)."""

import bisect
import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.block_jump_index import BlockJumpIndex
from repro.core.posting_list import PostingList
from repro.errors import DocumentIdOrderError, IndexError_, TamperDetectedError
from repro.worm.persistent import JournaledWormDevice, scan_journal
from repro.worm.storage import CachedWormStore
from tests.helpers import device_state

#: ``(branching, block_size)`` pairs that give multi-block lists under
#: ``max_doc_bits=16``: the paper's B = 2 and 32, and the suite's B = 4.
GEOMETRIES = [(2, 256), (4, 256), (32, 1024)]


def path_of(bji):
    """The writer-memory path as comparable tuples."""
    return [(n.block_no, n.last_slot, n.last_target) for n in bji._path]


def make_index(branching=4, block_size=256, max_doc_bits=16, cache_blocks=None, **kwargs):
    store = CachedWormStore(cache_blocks, block_size=block_size)
    return BlockJumpIndex.create(
        store, "pl/jump", branching=branching, max_doc_bits=max_doc_bits, **kwargs
    )


class TestGeometry:
    def test_create_sizes_block_budget(self):
        bji = make_index(branching=4, block_size=256, max_doc_bits=16)
        # levels = ceil(log4(2^16)) = 8; pointers = 3*8 = 24 -> 96 bytes;
        # postings = (256 - 96) / 8 = 20.
        assert bji.levels == 8
        assert bji.num_slots == 24
        assert bji.posting_list.entries_per_block == 20

    def test_range_for_partition(self):
        bji = make_index(branching=3)
        nb = 7
        covered = []
        for k in range(nb + 1, nb + 3**4):
            i, j = bji.range_for(nb, k)
            lo = nb + j * 3**i
            hi = lo + 3**i
            assert lo <= k < hi
            assert 1 <= j < 3
            covered.append((i, j))
        # Figure 7(b)'s worked examples: 7 + 1*3^0 <= 8 < 7 + 2*3^0 and
        # 7 + 2*3^2 <= 25 < 7 + 3*3^2.
        assert bji.range_for(7, 8) == (0, 1)
        assert bji.range_for(7, 25) == (2, 2)

    def test_slot_order_matches_range_order(self):
        bji = make_index(branching=3)
        starts = [bji.slot_range(0, s)[0] for s in range(bji.num_slots)]
        assert starts == sorted(starts)

    def test_range_for_requires_larger_k(self):
        bji = make_index()
        with pytest.raises(IndexError_):
            bji.range_for(5, 5)

    def test_attach_requires_enough_slots(self):
        from repro.core.posting_list import PostingList

        store = CachedWormStore(None, block_size=256)
        pl = PostingList(store, "pl/few-slots", slot_count=1)
        with pytest.raises(IndexError_):
            BlockJumpIndex(pl, branching=4, max_doc_bits=16)

    def test_branching_below_two_rejected(self):
        from repro.core.posting_list import PostingList

        store = CachedWormStore(None, block_size=256)
        pl = PostingList(store, "pl/b1", slot_count=64)
        with pytest.raises(IndexError_):
            BlockJumpIndex(pl, branching=1)


class TestInsertLookup:
    def test_sequence_reference(self):
        bji = make_index()
        values = list(range(0, 3000, 3))
        for v in values:
            bji.insert(v)
        present = set(values)
        for k in range(0, 3010, 7):
            assert bji.lookup(k) == (k in present)

    def test_find_geq_reference(self):
        bji = make_index()
        values = sorted({(i * 37) % 5000 for i in range(900)})
        for v in values:
            bji.insert(v)
        for k in range(0, 5100, 11):
            idx = bisect.bisect_left(values, k)
            expect = values[idx] if idx < len(values) else None
            cursor = bji.posting_list.cursor()
            got = bji.find_geq(cursor, k)
            assert (got.doc_id if got else None) == expect

    def test_duplicates_across_blocks(self):
        """Merged lists repeat doc IDs; straddled runs must stay reachable."""
        bji = make_index(branching=2, block_size=128)
        p = bji.posting_list.entries_per_block
        docs = []
        d = 0
        for i in range(p * 6):
            if i % 3 != 0:
                d += 1
            docs.append(d)
            bji.insert(d, term_code=i % 4)
        uniq = sorted(set(docs))
        for k in range(0, max(docs) + 2):
            idx = bisect.bisect_left(uniq, k)
            expect = uniq[idx] if idx < len(uniq) else None
            cursor = bji.posting_list.cursor()
            got = bji.find_geq(cursor, k)
            assert (got.doc_id if got else None) == expect

    def test_find_geq_with_term_filter(self):
        bji = make_index()
        for d in range(200):
            bji.insert(d, term_code=d % 5)
        cursor = bji.posting_list.cursor(term_code=3)
        got = bji.find_geq(cursor, 100)
        assert got.doc_id == 103
        assert got.term_code == 3

    def test_repeated_seeks_move_forward(self):
        bji = make_index()
        for d in range(0, 1000, 2):
            bji.insert(d)
        cursor = bji.posting_list.cursor()
        last = -1
        for k in (5, 123, 457, 900, 999):
            got = bji.find_geq(cursor, k)
            if got is not None:
                assert got.doc_id >= k > last
                last = got.doc_id
        assert bji.find_geq(cursor, 1001) is None
        assert cursor.exhausted

    @given(
        deltas=st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=200),
        branching=st.sampled_from([2, 3, 4, 8]),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_reference_equivalence(self, deltas, branching):
        bji = make_index(branching=branching, block_size=192)
        docs = []
        d = 0
        for i, delta in enumerate(deltas):
            d += delta
            docs.append(d)
            bji.insert(d, term_code=i % 3)
        uniq = sorted(set(docs))
        for k in range(0, (uniq[-1] if uniq else 0) + 3):
            idx = bisect.bisect_left(uniq, k)
            expect = uniq[idx] if idx < len(uniq) else None
            cursor = bji.posting_list.cursor()
            got = bji.find_geq(cursor, k)
            assert (got.doc_id if got else None) == expect
            assert bji.lookup(k) == (k in set(uniq))


class TestWritePathEquivalence:
    def _pointers(self, bji):
        store = bji.posting_list.store
        name = bji.posting_list.name
        return [
            tuple(
                store.peek_slot(name, b, s) for s in range(bji.num_slots)
            )
            for b in range(bji.posting_list.num_blocks)
        ]

    def test_counted_walk_sets_identical_pointers(self):
        values = sorted({(i * 13) % 4000 for i in range(600)})
        tracked = make_index(track_tail_path=True)
        naive = make_index(track_tail_path=False)
        for v in values:
            tracked.insert(v)
            naive.insert(v)
        assert self._pointers(tracked) == self._pointers(naive)

    def test_tail_path_optimization_reduces_reads(self):
        """Section 4.5: walking in writer memory avoids block fetches.

        Under a cache too small to hold the whole head->tail path, the
        naive walk re-reads path blocks constantly while the tracked
        walk touches storage only to set new pointers.
        """
        values = list(range(2000))
        tracked = make_index(track_tail_path=True, cache_blocks=4)
        naive = make_index(track_tail_path=False, cache_blocks=4)
        for v in values:
            tracked.insert(v)
        for v in values:
            naive.insert(v)
        assert (
            tracked.posting_list.store.io.block_reads
            < naive.posting_list.store.io.block_reads / 2
        )

    def test_rebuild_path_matches_incremental(self):
        for branching, block_size in GEOMETRIES:
            bji = make_index(branching=branching, block_size=block_size)
            for v in range(0, 900, 2):
                bji.insert(v)
            assert bji.posting_list.num_blocks > 3
            incremental = path_of(bji)
            bji.rebuild_path()
            assert incremental == path_of(bji)
            # And the index keeps working after a rebuild.
            bji.insert(902)
            assert bji.lookup(902)


class _SlotCountingStore(CachedWormStore):
    """Counts every pointer-slot read the index layer performs."""

    slot_reads = 0

    def peek_slot(self, name, block_no, slot_no):
        self.slot_reads += 1
        return super().peek_slot(name, block_no, slot_no)

    def get_slot(self, name, block_no, slot_no):
        self.slot_reads += 1
        return super().get_slot(name, block_no, slot_no)


class TestAttach:
    """The path is writer memory (Section 4.5): attaching to committed
    blocks builds none, reads never need one, and the first insert
    rebuilds exactly the path an uninterrupted writer would hold."""

    VALUES = list(range(0, 1800, 3))

    def _read_everything(self, bji):
        found = []
        cursor = bji.posting_list.cursor()
        for k in range(0, 1900, 37):
            hit = bji.find_geq(cursor, k)
            found.append(None if hit is None else hit.doc_id)
        found.extend(bji.lookup(k) for k in range(0, 1900, 41))
        found.append(bji.posting_list.doc_ids())
        return found

    @pytest.mark.parametrize("branching, block_size", GEOMETRIES)
    def test_attach_and_reads_probe_no_slots_for_a_path(self, branching, block_size):
        store = _SlotCountingStore(None, block_size=block_size)
        geometry = dict(branching=branching, max_doc_bits=16)
        writer = BlockJumpIndex.create(store, "pl/jump", **geometry)
        writer.insert_many((v, 0) for v in self.VALUES)
        assert writer.posting_list.num_blocks > 3

        store.slot_reads = 0
        expected = self._read_everything(writer)
        navigation_reads = store.slot_reads

        store.slot_reads = 0
        attached = BlockJumpIndex.create(store, "pl/jump", **geometry)
        assert store.slot_reads == 0
        assert self._read_everything(attached) == expected
        # Exactly the pointer reads of the same navigation on the writer.
        assert store.slot_reads == navigation_reads
        assert attached._path is None

    @pytest.mark.parametrize("branching, block_size", GEOMETRIES)
    def test_insert_after_reopen_matches_uninterrupted_writer(
        self, tmp_path, branching, block_size
    ):
        geometry = dict(branching=branching, max_doc_bits=16)
        split = len(self.VALUES) // 2

        def session(path, values, bulk):
            device = JournaledWormDevice(str(path), block_size=block_size)
            store = CachedWormStore(None, device=device)
            bji = BlockJumpIndex.create(store, "pl/jump", **geometry)
            if bulk:
                bji.insert_many((v, 0) for v in values)
            else:
                for v in values:
                    bji.insert(v)
            device.close()
            return bji

        straight = session(tmp_path / "straight.worm", self.VALUES, False)
        session(tmp_path / "reopened.worm", self.VALUES[:split], False)
        resumed = session(tmp_path / "reopened.worm", self.VALUES[split:], False)
        assert path_of(resumed) == path_of(straight)
        assert (
            hashlib.sha256((tmp_path / "reopened.worm").read_bytes()).digest()
            == hashlib.sha256((tmp_path / "straight.worm").read_bytes()).digest()
        )
        # Bulk loads journal a record per block, so a restart inside a
        # block moves a record boundary — and nothing on the device.
        session(tmp_path / "bulk.worm", self.VALUES[:split], True)
        bulk = session(tmp_path / "bulk.worm", self.VALUES[split:], True)
        assert path_of(bulk) == path_of(straight)
        assert device_state(bulk.posting_list.store.device) == device_state(
            straight.posting_list.store.device
        )


class TestBulkLoad:
    """``insert_many`` / ``append_many`` write a record per block and
    leave exactly what a loop of ``insert`` / ``append`` leaves."""

    #: branching -> block size giving 8-10 postings per block at 16 bits.
    BLOCK_SIZES = {None: 64, 2: 128, 32: 576}

    def _writer(self, branching, journal=None):
        block_size = self.BLOCK_SIZES[branching]
        if journal is None:
            store = CachedWormStore(None, block_size=block_size)
        else:
            device = JournaledWormDevice(journal, block_size=block_size)
            store = CachedWormStore(None, device=device)
        if branching is None:
            return PostingList(store, "pl/bulk")
        return BlockJumpIndex.create(
            store, "pl/bulk", branching=branching, max_doc_bits=16
        )

    def _observe(self, writer, probes):
        jump = writer if isinstance(writer, BlockJumpIndex) else None
        pl = writer.posting_list if jump else writer
        seen = {
            "device": device_state(pl.store.device),
            "count": pl.count,
            "last_doc_id": pl.last_doc_id,
            "block_max": list(pl._block_max),
            "tail_entries": pl._tail_entries,
        }
        if jump:
            seen["pointers_set"] = jump.pointers_set
            seen["path"] = path_of(jump) if jump._path is not None else None
            seen["find_geq"] = []
            for k in probes:
                hit = jump.find_geq(pl.cursor(), k)
                seen["find_geq"].append(hit and (hit.doc_id, hit.term_code))
        return seen

    @settings(max_examples=60, deadline=None)
    @given(
        branching=st.sampled_from([None, 2, 32]),
        # Mostly small gaps, zero included: runs of one document's
        # postings (different term codes) straddle block boundaries.
        gaps=st.lists(
            st.one_of(st.sampled_from([0, 0, 1, 2]), st.integers(0, 700)),
            min_size=1,
            max_size=90,
        ),
        data=st.data(),
    )
    def test_bulk_equals_per_posting(self, branching, gaps, data):
        doc_ids = [sum(gaps[: i + 1]) for i in range(len(gaps))]
        entries = [(d, i % 5) for i, d in enumerate(doc_ids)]
        # A per-posting prefix sets the starting tail fill; every cut
        # after it starts another bulk load on whatever fill is there.
        prefix = data.draw(st.integers(0, len(entries)), label="prefix")
        cuts = sorted(
            data.draw(
                st.lists(st.integers(prefix, len(entries)), max_size=4),
                label="cuts",
            )
        )
        bulk, loop = self._writer(branching), self._writer(branching)
        add_bulk = bulk.append if branching is None else bulk.insert
        add_loop = loop.append if branching is None else loop.insert
        load = bulk.append_many if branching is None else bulk.insert_many
        for doc_id, code in entries[:prefix]:
            add_bulk(doc_id, code)
        last = (-1, -1)
        for lo, hi in zip([prefix, *cuts], [*cuts, len(entries)]):
            got = load(entries[lo:hi])
            last = got if hi > lo else last
            assert (got == (-1, -1)) == (hi == lo)
        positions = [add_loop(doc_id, code) for doc_id, code in entries]
        if prefix < len(entries):
            assert last == positions[-1]
        probes = [0, doc_ids[len(doc_ids) // 2], doc_ids[-1], doc_ids[-1] + 1]
        assert self._observe(bulk, probes) == self._observe(loop, probes)

    # 100 postings, then 10 more.  At 8 per block: 13 block records, and
    # the second load tops the tail up (4) and starts one block (6).  At
    # 10 per block: 10 records, and the second load is one new block.
    @pytest.mark.parametrize(
        "branching, appends", [(None, 13 + 2), (2, 13 + 2), (32, 10 + 1)]
    )
    def test_one_record_per_block(self, tmp_path, branching, appends):
        path = str(tmp_path / "j.worm")
        writer = self._writer(branching, journal=path)
        load = writer.append_many if branching is None else writer.insert_many
        load((v, 0) for v in range(0, 300, 3))
        load((v, 0) for v in range(300, 330, 3))
        (writer if branching is None else writer.posting_list).store.close()
        counts = {"create": 1, "append": appends}
        if branching is not None:
            assert writer.pointers_set > 0
            counts["set_slot"] = writer.pointers_set
        assert scan_journal(path).op_counts == counts

    @pytest.mark.parametrize("branching", [None, 2])
    def test_descending_id_commits_nothing_of_its_block(self, branching):
        bulk, loop = self._writer(branching), self._writer(branching)
        good = [(v, 0) for v in range(20)]  # 8 per block: 2 full + 4
        load = bulk.append_many if branching is None else bulk.insert_many
        with pytest.raises(DocumentIdOrderError):
            load([*good, (5, 0), (30, 0)])
        add = loop.append if branching is None else loop.insert
        for doc_id, code in good[:16]:
            add(doc_id, code)
        # The two whole blocks before the offending one stay (WORM);
        # the third block, bad posting and good neighbours, never lands.
        assert self._observe(bulk, [0, 15]) == self._observe(loop, [0, 15])
        load(good[16:])
        assert (bulk.posting_list if branching else bulk).count == 20

    def test_out_of_range_posting_commits_nothing_of_its_block(self):
        pl = self._writer(None)
        with pytest.raises(IndexError_):
            pl.append_many([(1, 0), (2, 2**32)])
        assert pl.count == 0 and pl.num_blocks == 0

    def test_foreign_bytes_in_the_tail_raise_instead_of_misplacing(self):
        """The device rolls to a new block silently when a record does
        not fit; a bulk load checks where its block landed."""
        pl = self._writer(None)
        pl.append_many([(1, 0), (2, 0)])
        pl.store.device.open_file(pl.name).append_record(b"\0" * 8 * 5)
        with pytest.raises(TamperDetectedError) as excinfo:
            pl.append_many((v, 0) for v in range(3, 9))
        assert excinfo.value.invariant == "posting-block-position"


class TestTampering:
    def test_backward_pointer_detected(self):
        bji = make_index()
        for v in range(500):
            bji.insert(v)
        store = bji.posting_list.store
        name = bji.posting_list.name
        # Find an unset slot on block 2 and point it backwards.
        for slot in range(bji.num_slots):
            if store.peek_slot(name, 2, slot) is None:
                store.set_slot(name, 2, slot, 0)
                break
        cursor = bji.posting_list.cursor()
        with pytest.raises(TamperDetectedError) as excinfo:
            # Navigating from block 2's ranges crosses the slot.
            nb = bji.posting_list.block_max_hint(2)
            lo, _ = bji.slot_range(nb, slot)
            bji._check_jump(cursor, 2, nb, slot, 0)
        assert excinfo.value.invariant == "jump-forward-only"

    def test_wrong_range_pointer_detected(self):
        bji = make_index(branching=2, block_size=128)
        max_doc = 3996
        for v in range(0, max_doc + 1, 4):
            bji.insert(v)
        store = bji.posting_list.store
        name = bji.posting_list.name
        nb = bji.posting_list.block_max_hint(0)
        # Plant the lowest unset head pointer whose range lies inside the
        # populated ID space (with stride-4 IDs, fine-grained ranges that
        # contain no multiple of 4 stay NULL), targeting the far tail
        # block whose IDs lie outside that range.
        planted = None
        for slot in range(bji.num_slots):
            lo, hi = bji.slot_range(nb, slot)
            if hi > max_doc:
                break
            if store.peek_slot(name, 0, slot) is None:
                store.set_slot(name, 0, slot, bji.posting_list.num_blocks - 1)
                planted = slot
                break
        assert planted is not None
        lo, _ = bji.slot_range(nb, planted)
        cursor = bji.posting_list.cursor()
        with pytest.raises(TamperDetectedError) as excinfo:
            bji.find_geq(cursor, lo)
        assert excinfo.value.invariant == "jump-target-range"

    def test_committed_entries_stay_visible_after_attack(self):
        from repro.adversary.attacks import block_jump_pointer_attack

        bji = make_index()
        values = list(range(0, 600, 3))
        for v in values:
            bji.insert(v)
        block_jump_pointer_attack(bji)
        # lookup() routes may or may not cross the bad slot; entries are
        # never silently lost — either found or the alarm is raised.
        for v in values[:50]:
            try:
                assert bji.lookup(v)
            except TamperDetectedError:
                pass
