"""A sealed short list is read straight from its block.

The first scan of a segment opens its shared file through the store,
keeps the file's data blocks and checks them once; from then on a short
list is ``blocks[block].read(offset, length)`` at the extent the
directory gives, and the store is not asked again.  The answers, the costs
(lists, entries, blocks per list — charged once per list for a peer
group) and the decode counts stay those of the scan the block-at-a-time
reference in ``test_segment_scan.py`` describes, and what that scan
refused is refused still.
"""

from contextlib import contextmanager
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.posting import pack_term_tf
from repro.core.segments import (
    SEGMENT_PREFIX,
    STRATEGY_UNIFORM,
    ReadCosts,
    SealedSegment,
    SegmentInfo,
    SharedFile,
)
from repro.errors import TamperDetectedError
from repro.worm.storage import CachedWormStore
from tests.core.test_segment_scan import (
    BLOCK_SIZE,
    counted,
    peer_groups,
    plain,
    scan_one_block_at_a_time,
    write_group,
)
from tests.helpers import budget


@contextmanager
def shared_reads():
    """What the store is asked of the shared files, in order:
    ``(method, file name)`` for every ``open_file`` and ``peek_block``."""
    asked = []

    def counted_call(method):
        original = getattr(CachedWormStore, method)

        def counting(store, name, *args, **kwargs):
            if name.endswith("/short"):
                asked.append((method, name))
            return original(store, name, *args, **kwargs)

        return patch.object(CachedWormStore, method, counting)

    with counted_call("open_file"), counted_call("peek_block"):
        yield asked


@given(
    group=peer_groups(),
    branching=st.sampled_from([None, 4]),
    wanted=st.sets(st.integers(0, 9), min_size=1, max_size=6),
)
@budget(40)
def test_after_the_first_scan_the_store_is_not_asked_again(group, branching, wanted):
    store = CachedWormStore(None, block_size=BLOCK_SIZE)
    segments = write_group(store, group, branching)
    (first, *peers), _ = counted(segments)
    first.collect_candidates(range(8), ReadCosts(), peers)  # checks every shared file
    with shared_reads() as asked:
        costs = ReadCosts()
        got = first.collect_candidates(wanted, costs, peers)
    assert asked == []
    (ref_first, *ref_peers), _ = counted(segments)
    expected, expected_costs = scan_one_block_at_a_time(ref_first, ref_peers, wanted)
    assert plain(got) == plain(expected)
    assert costs == expected_costs


def test_a_segment_of_short_lists_is_read_once_then_by_address():
    store = CachedWormStore(None, block_size=BLOCK_SIZE)
    postings = {t: [(d, pack_term_tf(t, 1)) for d in range(3)] for t in range(8)}
    (segment_args,) = write_group(store, [(0, 2, postings, False)], None)
    segment = SealedSegment(*segment_args[:2], branching=None)
    with shared_reads() as asked:
        expected = plain(segment.collect_candidates(range(8)))
        # The directory, then the data blocks for the one order check;
        # no block is peeked at.
        assert asked == [("open_file", segment.shared_name)] * 2
        for _ in range(3):
            assert plain(segment.collect_candidates(range(8))) == expected
        assert len(asked) == 2
    assert segment.attached_names() == []


class TestWhatWasRefusedIsRefused:
    SHARED = f"{SEGMENT_PREFIX}000000/short"

    def segment(self, rows, directory, shared):
        store = CachedWormStore(None, block_size=BLOCK_SIZE)
        store.ensure_file(self.SHARED)
        for block in (rows, directory):
            store.append_record(
                self.SHARED, np.array(block, dtype="<u4").tobytes(), force_new_block=True
            )
        info = SegmentInfo(
            seg_no=0, first_doc=0, last_doc=2, doc_count=3, num_lists=8,
            strategy=STRATEGY_UNIFORM, shared=shared,
        )
        return SealedSegment(store, info, branching=None)

    def test_a_descending_list_raises_after_its_block_is_held(self):
        """List 1 (term 1) is honest; list 5 (term 3), after it in the
        block, descends.  Reading list 1 holds the block; list 5 still
        raises by name, and the store is not asked again."""
        code1, code3 = pack_term_tf(1, 1), pack_term_tf(3, 1)
        rows = [(0, code1), (2, code1), (1, code3), (0, code3), (2, code3)]
        segment = self.segment(rows, [(1, 0, 2), (5, 0, 3)], SharedFile(1, 2, 2))
        assert plain(segment.collect_candidates([1])) == [(1, [0, 2], [1, 1])]
        with shared_reads() as asked:
            for _ in range(2):
                with pytest.raises(TamperDetectedError) as exc:
                    segment.collect_candidates([3])
                assert exc.value.invariant == "posting-monotonicity"
                assert "doc ID 0 after 1" in str(exc.value)
        assert asked == []

    def test_a_stuffed_data_block_fails_the_directory_check(self):
        """Six postings in the data block, a directory that accounts
        for five: the segment is refused before any list is read."""
        code1 = pack_term_tf(1, 1)
        rows = [(d, code1) for d in range(6)]
        segment = self.segment(rows, [(1, 0, 5)], SharedFile(1, 1, 1))
        with pytest.raises(TamperDetectedError) as exc:
            segment.collect_candidates([1])
        assert exc.value.invariant == "segment-manifest"
        assert "does not match it" in str(exc.value)

    def test_a_short_list_longer_than_a_jump_indexed_block_fails_the_directory_check(self):
        """A list of more postings than a block of a file of its own
        holds is long, and a directory that names one short is refused:
        its extent would run over more than one block's worth."""
        per_block = BLOCK_SIZE // 8
        code1 = pack_term_tf(1, 1)
        rows = [(d, code1) for d in range(per_block)]
        store = CachedWormStore(None, block_size=BLOCK_SIZE)
        store.ensure_file(self.SHARED)
        for block in (rows, [(1, 0, per_block)]):
            store.append_record(
                self.SHARED, np.array(block, dtype="<u4").tobytes(), force_new_block=True
            )
        info = SegmentInfo(
            seg_no=0, first_doc=0, last_doc=per_block - 1, doc_count=per_block, num_lists=8,
            strategy=STRATEGY_UNIFORM, shared=SharedFile(1, 1, 1),
        )
        assert len(SealedSegment(store, info, branching=None).posting_list_for(1)[0]) == per_block
        segment = SealedSegment(store, info, branching=4)  # a jump-indexed block holds fewer
        with pytest.raises(TamperDetectedError) as exc:
            segment.collect_candidates([1])
        assert exc.value.invariant == "segment-manifest"
        assert "does not match it" in str(exc.value)
