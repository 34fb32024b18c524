"""The disjunctive scan without the read cache, against the one it
replaced.

``MergedListFamily.collect_candidates`` reads a list across a peer
group as bytes: a sealed short list is a slice of its segment's shared
file, order-checked once per segment and never attached; any other list
is attached and read a block at a time.  It must answer, cost and count
decodes exactly as attaching every list and decoding its blocks one at a
time did (``scan_one_block_at_a_time`` below), and refuse what that
refused.
"""

import json
import os
import shutil
from array import array
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.posting import POSTING_SIZE, encode_posting, pack_term_tf
from repro.core.segments import (
    SEGMENT_PREFIX,
    STRATEGY_UNIFORM,
    ReadCosts,
    SealedSegment,
    SegmentInfo,
    SegmentManifest,
    SharedFile,
    segment_list_name,
    write_segment_lists,
)
from repro.core.vecdecode import COLUMN_TYPECODE, term_columns
from repro.errors import IndexError_, TamperDetectedError
from repro.search.engine import EngineConfig, TrustworthySearchEngine
from repro.worm.persistent import JournaledWormDevice
from repro.worm.storage import CachedWormStore
from tests.helpers import budget, columns_of

NUM_LISTS = 4
#: 32 postings a block, or 8 beside a jump index's slots (B = 4): most
#: lists of a large segment are long, most of a small one's short.
BLOCK_SIZE = 256


class Counter:
    def __init__(self):
        self.value = 0

    def inc(self, amount=1):
        self.value += amount


def counted(segments):
    """Fresh readers of ``segments`` (``(store, info, branching)``), with
    decode counters of their own."""
    metrics = (Counter(), Counter())
    return [
        SealedSegment(store, info, branching=branching, decode_metrics=metrics)
        for store, info, branching in segments
    ], metrics


def scan_one_block_at_a_time(first, peers, wanted):
    """The scan before sealed short lists were read as extents: every
    list of every family attached, each block decoded on its own."""
    costs = ReadCosts()
    terms_of = {}
    for term_id in sorted(set(wanted)):
        terms_of.setdefault(first.list_for(term_id), []).append(term_id)
    columns = []
    for list_id in sorted(terms_of):
        doc_ids, term_codes = array(COLUMN_TYPECODE), array(COLUMN_TYPECODE)
        for family in (first, *peers):
            attached = family._attach(list_id)
            if attached is None:
                continue
            posting_list, _ = attached
            costs.lists += 1
            costs.charge(list_id, posting_list.num_blocks)
            for docs, codes in posting_list.scan_columns(counted=False):
                doc_ids.extend(docs)
                term_codes.extend(codes)
        costs.entries += len(doc_ids)
        columns.extend(term_columns(doc_ids, term_codes, terms_of[list_id]))
    return columns, costs


def plain(columns):
    return [(term_id, docs.tolist(), tfs.tolist()) for term_id, docs, tfs in columns]


def assert_scans_alike(segments, wanted):
    """The peer scan and the block-at-a-time scan, each on readers of
    its own, agree on columns, costs and decode counts."""
    (first, *peers), metrics = counted(segments)
    costs = ReadCosts()
    got = first.collect_candidates(wanted, costs, peers)
    (ref_first, *ref_peers), ref_metrics = counted(segments)
    expected, expected_costs = scan_one_block_at_a_time(ref_first, ref_peers, wanted)
    assert plain(got) == plain(expected)
    assert costs == expected_costs
    assert [m.value for m in metrics] == [m.value for m in ref_metrics]
    return first, got


# ----------------------------------------------------------------------
# random peer groups
# ----------------------------------------------------------------------
@st.composite
def peer_groups(draw):
    """Segments of one layout over consecutive doc ranges, of mixed
    sizes and layouts, terms 0–7 over four lists so that some lists are
    short and some long."""
    segments, doc = [], 0
    for _ in range(draw(st.integers(1, 4))):
        docs = draw(
            st.lists(st.sets(st.integers(0, 7), min_size=1, max_size=5), min_size=1, max_size=60)
        )
        postings = {}
        for offset, terms in enumerate(docs):
            for term_id in sorted(terms):
                tf = draw(st.integers(1, 3))
                postings.setdefault(term_id, []).append((doc + offset, pack_term_tf(term_id, tf)))
        segments.append((doc, doc + len(docs) - 1, postings, draw(st.booleans())))
        doc += len(docs)
    return segments


def write_group(store, group, branching):
    """Write each segment of ``group`` — through its shared file, or,
    where its flag says so, every list a file of its own (segments
    sealed before short lists shared one)."""
    segments = []
    for seg_no, (first_doc, last_doc, postings, own_files) in enumerate(group):
        info = SegmentInfo(
            seg_no=seg_no,
            first_doc=first_doc,
            last_doc=last_doc,
            doc_count=last_doc - first_doc + 1,
            num_lists=NUM_LISTS,
            strategy=STRATEGY_UNIFORM,
        )
        if own_files:
            writer = SealedSegment(store, info, branching=branching)
            lists = {}
            for term_id, entries in postings.items():
                lists.setdefault(writer.list_for(term_id), []).extend(entries)
            writer.append_many((list_id, sorted(lists[list_id])) for list_id in sorted(lists))
        else:
            _, shared = write_segment_lists(
                store, seg_no, columns_of(postings), num_lists=NUM_LISTS,
                strategy=STRATEGY_UNIFORM, popular_terms=(), branching=branching,
            )
            info = replace(info, shared=shared)
        segments.append((store, info, branching))
    return segments


class TestPeerScan:
    @given(
        group=peer_groups(),
        branching=st.sampled_from([None, 4]),
        wanted=st.sets(st.integers(0, 9), min_size=1, max_size=6),
        stuffing=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 7)), max_size=6),
        data=st.data(),
    )
    @budget(60)
    def test_property_same_columns_costs_and_decodes(
        self, group, branching, wanted, stuffing, data
    ):
        store = CachedWormStore(None, block_size=BLOCK_SIZE)
        segments = write_group(store, group, branching)
        _, honest = assert_scans_alike(segments, wanted)
        # Mala stuffs one list that is a file of its own through the
        # device, after its seal: repeats of its last posting and IDs
        # past the segment's range.  A list of a segment sealed before
        # the shared file is read with them; one its directory counts is
        # not.
        mala = [SealedSegment(store, info, branching=branching) for _, info, _ in segments]
        victims = [(family, list_id) for family in mala for list_id in family.list_ids(True)]
        if victims and stuffing:
            family, list_id = data.draw(st.sampled_from(victims))
            worm_file = store.device.open_file(family.list_name(list_id))
            doc = family._attach(list_id)[0].last_doc_id
            for step, term_id in stuffing:
                doc += step
                worm_file.append_record(encode_posting(doc, pack_term_tf(term_id, 1)))
            _, stuffed = assert_scans_alike(segments, wanted)
            if family.shared is not None:
                assert plain(stuffed) == plain(honest)

    def test_short_lists_are_read_without_attaching(self):
        store = CachedWormStore(None, block_size=BLOCK_SIZE)
        postings = {t: [(d, pack_term_tf(t, 1)) for d in range(3)] for t in range(8)}
        segments = write_group(store, [(0, 2, postings, False)], None)
        segment, _ = assert_scans_alike(segments, range(8))
        assert segment.attached_names() == []


# ----------------------------------------------------------------------
# tampering
# ----------------------------------------------------------------------
def _code(term_id):
    return pack_term_tf(term_id, 1)


class TestTamper:
    SHARED = f"{SEGMENT_PREFIX}000000/short"

    def descending_segment(self):
        """A shared file of one block: list 1 (term 1) is honest, and
        list 5 (term 3), after it in the block, descends."""
        store = CachedWormStore(None, block_size=BLOCK_SIZE)
        store.ensure_file(self.SHARED)
        rows = [(0, _code(1)), (2, _code(1)), (1, _code(3)), (0, _code(3)), (2, _code(3))]
        for block in (rows, [(1, 0, 2), (5, 0, 3)]):
            store.append_record(
                self.SHARED, np.array(block, dtype="<u4").tobytes(), force_new_block=True
            )
        info = SegmentInfo(
            seg_no=0, first_doc=0, last_doc=2, doc_count=3, num_lists=8,
            strategy=STRATEGY_UNIFORM, shared=SharedFile(1, 2, 2),
        )
        return store, info

    def test_a_descending_short_list_is_refused_by_name_and_its_neighbours_answer(self):
        store, info = self.descending_segment()
        segment = SealedSegment(store, info, branching=None)
        for _ in range(2):  # the verdict is kept, not forgotten
            with pytest.raises(TamperDetectedError) as exc:
                segment.collect_candidates([3])
            assert exc.value.invariant == "posting-monotonicity"
            assert exc.value.location == f"posting list '{segment_list_name(0, 5)}', block 0"
            assert "doc ID 0 after 1" in str(exc.value)
            assert plain(segment.collect_candidates([1])) == [(1, [0, 2], [1, 1])]
        # Attaching the list raises the same alarm.
        with pytest.raises(TamperDetectedError) as attached:
            segment.posting_list_for(3)
        assert (attached.value.location, str(attached.value)) == (
            exc.value.location,
            str(exc.value),
        )
        # The same list as a peer's is refused too.
        reader = SealedSegment(store, info, branching=None)
        with pytest.raises(TamperDetectedError, match="doc ID 0 after 1"):
            SealedSegment(store, info, branching=None).collect_candidates(
                [3], ReadCosts(), [reader]
            )

    @pytest.mark.parametrize("read_cache", [False, True], ids=["cache-off", "cache-on"])
    def test_an_engine_scan_refuses_it_alike_with_the_cache_on_or_off(self, read_cache):
        """Mala commits segment 0 of three honestly ingested documents
        herself, its "gamma" list descending.  A search names that list
        at block 0, whether or not the read cache is on; the cache
        holds no verdict and reads as the cache-off scan does: a short
        list by its extent, attaching nothing."""
        config = EngineConfig(
            num_lists=8, branching=None, block_size=BLOCK_SIZE, tail_max_docs=100,
            merge_at_segments=None, read_cache=read_cache,
        )
        store = CachedWormStore(None, block_size=BLOCK_SIZE)
        writer = TrustworthySearchEngine(config, store=store)
        for _ in range(3):
            writer.index_document("alpha gamma")
        alpha, gamma = writer.term_id("alpha"), writer.term_id("gamma")
        info = SegmentInfo(
            seg_no=0, first_doc=0, last_doc=2, doc_count=3, num_lists=8,
            strategy=STRATEGY_UNIFORM, shared=SharedFile(1, 2, 2),
        )
        lists = SealedSegment(store, info, branching=None)
        postings = {
            lists.list_for(alpha): [(doc, _code(alpha)) for doc in (0, 1, 2)],
            lists.list_for(gamma): [(doc, _code(gamma)) for doc in (1, 0, 2)],
        }
        first, second = sorted(postings)
        rows = postings[first] + postings[second]
        store.ensure_file(self.SHARED)
        for block in (rows, [(first, 0, 3), (second, 0, 3)]):
            store.append_record(
                self.SHARED, np.array(block, dtype="<u4").tobytes(), force_new_block=True
            )
        SegmentManifest(store).append(info)

        engine = TrustworthySearchEngine(config, store=store)
        (segment,) = engine.iter_segments()
        assert [r.doc_id for r in engine.search("alpha")] == [0, 1, 2]
        with pytest.raises(TamperDetectedError) as exc:
            engine.search("gamma")
        assert exc.value.invariant == "posting-monotonicity"
        name = segment_list_name(0, lists.list_for(gamma))
        assert exc.value.location == f"posting list '{name}', block 0"
        assert "doc ID 0 after 1" in str(exc.value)
        assert segment.attached_names() == []

    def test_a_merge_refuses_the_descending_short_list_at_its_posting(self):
        store, info = self.descending_segment()
        with pytest.raises(TamperDetectedError) as exc:
            SealedSegment(store, info, branching=None).read_columns()
        assert exc.value.invariant == "posting-monotonicity"
        assert exc.value.location == f"posting list '{segment_list_name(0, 5)}', posting 1"
        assert "doc ID 0 after 1" in str(exc.value)

    def test_a_torn_long_list_block_is_refused_even_when_the_join_is_whole(self):
        """On a list every reader reads whole: a long list of a segment
        sealed before the shared file."""
        store = CachedWormStore(None, block_size=BLOCK_SIZE)
        postings = {0: [(d, _code(0)) for d in range(38)]}  # 32 + 6: a long list
        (segment_args,) = write_group(store, [(0, 37, postings, True)], None)
        segment = SealedSegment(*segment_args[:2], branching=None)
        assert len(segment.collect_candidates([0])[0][1]) == 38  # attached
        name = segment.list_name(segment.list_for(0))
        assert store.open_file(name).num_blocks == 2
        # Half a posting on the tail block, the other half on a new one:
        # 52 + 4 bytes join to seven whole postings.
        store.append_record(name, encode_posting(38, _code(0))[:4])
        store.append_record(name, encode_posting(38, _code(0))[4:], force_new_block=True)
        assert store.open_file(name).total_bytes() % POSTING_SIZE == 0
        with pytest.raises(IndexError_, match="not a multiple"):
            segment.collect_candidates([0])


def test_a_segment_sealed_before_short_lists_shared_a_file_scans_as_before(tmp_path):
    """The fixture archive's segments were sealed before short lists
    shared a file: every list is a file of its own."""
    data = os.path.join(os.path.dirname(__file__), os.pardir, "data")
    path = str(tmp_path / "old.worm")
    shutil.copy(os.path.join(data, "tail_archive_pr15.worm"), path)
    with open(os.path.join(data, "tail_archive_pr15.json")) as handle:
        config = EngineConfig(**json.load(handle)["config"])
    device = JournaledWormDevice(path, block_size=config.block_size)
    engine = TrustworthySearchEngine(config, store=CachedWormStore(None, device=device))
    try:
        infos = [segment.info for segment in engine.iter_segments()]
        assert len(infos) > 1 and all(info.shared is None for info in infos)
        segments = [(engine.store, info, config.branching) for info in infos]
        assert_scans_alike(segments, range(len(engine._terms)))
    finally:
        device.close()
