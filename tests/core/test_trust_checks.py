"""One check per stored-posting invariant, and every reader runs it.

Mala plants postings and pointers below the honest writer, straight on
the device.  Whatever she plants where a reader takes it — here a long
list of a segment sealed before short lists shared a file, which no
record counts and every reader reads whole — the offline audit reports
exactly what a brute-force pass over the stored bytes finds, and each
reader that crosses a planted violation raises on it:

* **posting order** — attaching the list names the block of the first
  descent, a merge's ``read_columns`` names the posting, and
  ``audit_posting_list`` lists every one, as the brute force does;
* **jump pointers** — a pointer the audit flags makes the reader raise,
  naming that pointer, whenever it follows it; one it passes never does.

Planted on a long list of a segment with a shared file, the same bytes
lie past the extent its manifest record fixes: no reader takes them,
and the audit counts them.
"""

import struct
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.block_jump_index import BlockJumpIndex
from repro.core.posting import encode_posting
from repro.core.segments import (
    STRATEGY_UNIFORM,
    MergedListFamily,
    SegmentInfo,
    write_segment_lists,
)
from repro.core.verification import audit_posting_list
from repro.errors import TamperDetectedError
from repro.worm.storage import CachedWormStore

#: 16 postings to a block: a short list holds at most that many.
BLOCK_SIZE = 128
PER_BLOCK = BLOCK_SIZE // 8

honest_gaps = st.lists(st.integers(min_value=0, max_value=4), min_size=PER_BLOCK + 1, max_size=60)
#: Records Mala appends: ``(doc IDs, start a new block)``.
plants = st.lists(
    st.tuples(
        st.lists(st.integers(min_value=0, max_value=250), min_size=1, max_size=PER_BLOCK),
        st.booleans(),
    ),
    min_size=1,
    max_size=4,
)


def sealed_long_list(gaps, shared):
    """A segment of one list, longer than a block: a file of its own —
    counted by the segment's shared file, or, as code before the shared
    file sealed, by nothing."""
    store = CachedWormStore(None, block_size=BLOCK_SIZE)
    doc_ids = np.cumsum(gaps).astype(np.uint32)
    columns = (doc_ids, np.zeros(len(doc_ids), dtype=np.uint32))
    info = SegmentInfo(
        seg_no=0,
        first_doc=0,
        last_doc=int(doc_ids[-1]),
        doc_count=len(doc_ids),
        num_lists=1,
        strategy=STRATEGY_UNIFORM,
    )
    if not shared:
        MergedListFamily(store, info, branching=None).append_many([(0, np.stack(columns, axis=1))])
        return store, info
    _, layout = write_segment_lists(
        store, 0, columns, num_lists=1, strategy=STRATEGY_UNIFORM, popular_terms=(), branching=None
    )
    return store, replace(info, shared=layout)


def plant(store, name, planted):
    """Mala's records, appended to file ``name`` on the device."""
    worm_file = store.device.open_file(name)
    for doc_ids, new_block in planted:
        payload = b"".join(encode_posting(doc_id, 0) for doc_id in doc_ids)
        worm_file.append_record(payload, force_new_block=new_block)
    return worm_file


def brute_force_descents(worm_file):
    """``(block, index in the list, doc ID, largest before)`` of every
    posting below the largest ID before it, from the stored bytes."""
    found, last, index = [], -1, 0
    for block_no in range(worm_file.num_blocks):
        for doc_id, _ in struct.iter_unpack("<II", worm_file.read(block_no)):
            if doc_id < last:
                found.append((block_no, index, doc_id, last))
            last = max(last, doc_id)
            index += 1
    return found, index


@given(gaps=honest_gaps, planted=plants)
@settings(max_examples=80, deadline=None)
def test_every_reader_names_the_descent_the_brute_force_finds(gaps, planted):
    store, info = sealed_long_list(gaps, shared=False)
    family = MergedListFamily(store, info, branching=None)
    posting_list, _ = family._attach(0)  # before Mala: an honest attach
    name = posting_list.name
    worm_file = plant(store, name, planted)
    expected, total = brute_force_descents(worm_file)

    report = audit_posting_list(posting_list)
    assert report.violations == [
        f"block {block_no}: doc ID {doc_id} after {last} (append-order violation)"
        for block_no, _, doc_id, last in expected
    ]
    assert report.entries_checked == total

    reader = MergedListFamily(store, info, branching=None)
    if not expected:
        assert reader._attach(0)[0].count == total
        assert len(reader.read_columns()[0]) == total  # no record counts it
        return
    first_block, first_index, _, _ = expected[0]
    with pytest.raises(TamperDetectedError) as attach:
        reader._attach(0)
    assert attach.value.invariant == "posting-monotonicity"
    assert attach.value.location == f"posting list '{name}', block {first_block}"
    with pytest.raises(TamperDetectedError) as merge:
        reader.read_columns()
    assert merge.value.invariant == "posting-monotonicity"
    assert merge.value.location == f"posting list '{name}', posting {first_index}"


@given(gaps=honest_gaps, planted=plants)
@settings(max_examples=80, deadline=None)
def test_no_reader_of_a_sealed_extent_takes_a_plant(gaps, planted):
    """The same plants on a long list its segment's directory counts:
    every reader takes the sealed postings, and only the audit sees
    Mala's bytes — counted to the byte, not read as postings."""
    store, info = sealed_long_list(gaps, shared=True)
    sealed = np.cumsum(gaps).tolist()
    family = MergedListFamily(store, info, branching=None)
    posting_list, _ = family._attach(0)
    worm_file = plant(store, posting_list.name, planted)
    for reader in (family, MergedListFamily(store, info, branching=None)):
        attached, _ = reader._attach(0)
        assert attached.doc_ids() == sealed and attached.count == len(sealed)
        report = audit_posting_list(attached)
        assert report.ok and report.entries_checked == len(sealed)
        assert reader.read_columns()[0].tolist() == sealed
        (column,) = reader.collect_candidates([0])
        assert column[1].tolist() == sorted(set(sealed))
    appended = worm_file.total_bytes() - 8 * len(sealed)
    assert family.unreachable_files() == [(posting_list.name, appended)]


@given(
    gaps=st.lists(st.integers(min_value=1, max_value=8), min_size=60, max_size=200),
    planted=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=99),
            st.integers(min_value=0, max_value=99),
            st.integers(min_value=0, max_value=30),
        ),
        min_size=1,
        max_size=6,
    ),
)
@settings(max_examples=80, deadline=None)
def test_a_pointer_the_audit_flags_trips_the_reader_that_follows_it(gaps, planted):
    store = CachedWormStore(None, block_size=256)
    jump = BlockJumpIndex.create(store, "pl", branching=4, max_doc_bits=16)
    posting_list = jump.posting_list
    jump.insert_many((int(doc_id), 0) for doc_id in np.cumsum(gaps))
    blocks = posting_list.num_blocks
    pointers = set()
    for block_pick, slot_pick, target in planted:
        block_no, slot = block_pick % blocks, slot_pick % jump.num_slots
        if jump.slots(block_no)[slot] is None:
            store.set_slot(posting_list.name, block_no, slot, target % (blocks + 3))
            pointers.add((block_no, slot))

    report = audit_posting_list(posting_list, jump)
    flagged = {
        tuple(int(word) for word in violation.split(":")[0].split()[1::2])
        for violation in report.violations
    }
    assert flagged <= pointers  # honest pointers are never flagged
    for block_no, slot in sorted(pointers):
        nb = posting_list.read_block_postings(block_no, counted=False).doc_ids[-1]
        lo, _ = jump.slot_range(nb, slot)
        here = f"posting list 'pl', block {block_no}, slot {slot}"
        # FindGeq's step at this block follows this slot first.
        try:
            jump._navigate(posting_list.cursor(), lo, start_block=block_no)
        except TamperDetectedError as error:
            assert (error.location == here) == ((block_no, slot) in flagged)
        else:
            assert (block_no, slot) not in flagged
