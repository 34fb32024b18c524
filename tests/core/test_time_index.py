"""Unit tests for the trustworthy commit-time index (Section 5)."""

import struct
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.time_index import CommitTimeIndex
from repro.errors import DocumentIdOrderError, TamperDetectedError
from repro.worm.storage import CachedWormStore


@pytest.fixture()
def cti(store):
    return CommitTimeIndex(store, "times")


class TestRecording:
    def test_basic_range_query(self, cti):
        commits = [(0, 100), (1, 100), (2, 105), (3, 200), (4, 201)]
        for doc_id, t in commits:
            cti.record_commit(doc_id, t)
        assert cti.docs_in_range(100, 105) == [0, 1, 2]
        assert cti.docs_in_range(101, 199) == [2]
        assert cti.docs_in_range(200, 300) == [3, 4]
        assert cti.docs_in_range(0, 99) == []
        assert cti.docs_in_range(202, 300) == []
        assert len(cti) == 5

    def test_inverted_range_empty(self, cti):
        cti.record_commit(0, 10)
        assert cti.docs_in_range(20, 10) == []

    def test_first_commit_geq(self, cti):
        cti.record_commit(0, 50)
        cti.record_commit(1, 90)
        assert cti.first_commit_geq(0) == 50
        assert cti.first_commit_geq(51) == 90
        assert cti.first_commit_geq(91) is None

    def test_retro_dated_commit_rejected_at_ingest(self, cti):
        cti.record_commit(0, 100)
        with pytest.raises(DocumentIdOrderError):
            cti.record_commit(1, 99)

    def test_non_increasing_doc_id_rejected(self, cti):
        cti.record_commit(5, 100)
        with pytest.raises(DocumentIdOrderError):
            cti.record_commit(5, 101)

    def test_many_commits_spanning_blocks(self, cti):
        for doc_id in range(200):  # 12-byte records, 256-byte blocks
            cti.record_commit(doc_id, 1000 + doc_id // 3)
        docs = cti.docs_in_range(1010, 1019)
        assert docs == list(range(30, 60))
        cti.verify()


class TestTamperDetection:
    def _raw_append(self, store, name, commit_time, doc_id):
        """Mala appends a log record directly through the device."""
        store.device.open_file(name).append_record(
            struct.pack("<QI", commit_time, doc_id)
        )

    def test_retro_dated_raw_append_detected_by_range_query(self, store):
        cti = CommitTimeIndex(store, "t")
        for doc_id in range(10):
            cti.record_commit(doc_id, 100 + doc_id)
        # Mala back-dates a fabricated record to Nov. 2001.
        self._raw_append(store, "t", 50, 999)
        with pytest.raises(TamperDetectedError) as excinfo:
            cti.docs_in_range(100, 2000)
        assert excinfo.value.invariant == "commit-time-monotonicity"

    def test_retro_dated_raw_append_detected_by_audit(self, store):
        cti = CommitTimeIndex(store, "t")
        cti.record_commit(0, 100)
        self._raw_append(store, "t", 99, 1)
        with pytest.raises(TamperDetectedError):
            cti.verify()

    def test_duplicate_doc_id_raw_append_detected(self, store):
        cti = CommitTimeIndex(store, "t")
        cti.record_commit(0, 100)
        cti.record_commit(1, 101)
        self._raw_append(store, "t", 102, 1)  # reuses doc id 1
        with pytest.raises(TamperDetectedError):
            cti.verify()

    def test_clean_log_passes_audit(self, cti):
        for doc_id in range(50):
            cti.record_commit(doc_id, doc_id * 2)
        cti.verify()


RECORD = struct.Struct("<QI")


def _raw_record(store, name, commit_time, doc_id):
    """Mala appends a whole log record directly through the device."""
    store.device.open_file(name).append_record(RECORD.pack(commit_time, doc_id))


def _alarm(call):
    """The identifying fields of the tamper alarm ``call`` raises."""
    with pytest.raises(TamperDetectedError) as excinfo:
        call()
    alarm = excinfo.value
    return alarm.invariant, alarm.location, str(alarm)


def reference_docs_in_range(cti, t_start, t_end):
    """The record-at-a-time scan that ``docs_in_range`` replaced, kept
    here as the oracle: one block read and one ``unpack_from`` per
    record, extent from the device's committed bytes.  Returns the
    documents and the ``(first, last)`` record offsets it read, or
    raises exactly what the scan must raise."""
    if t_end < t_start:
        return [], None
    node_id = cti._jump.find_geq_node(t_start)
    if node_id is None:
        return [], None
    start_offset = cti._jump.node_payload(node_id)
    start_time = cti._jump.node_value(node_id)
    if start_time > t_end:
        return [], None
    worm_file = cti.store.device.open_file(cti.name)
    per_block = cti.store.block_size // RECORD.size
    docs = []
    prev_time, prev_doc = -1, -1
    offset = start_offset
    for offset in range(start_offset, worm_file.total_bytes() // RECORD.size):
        block_no, idx = divmod(offset, per_block)
        commit_time, doc_id = RECORD.unpack_from(
            worm_file.read(block_no), idx * RECORD.size
        )
        if commit_time < prev_time or doc_id <= prev_doc:
            raise TamperDetectedError(
                f"commit log record {offset} ({commit_time}, {doc_id}) "
                f"violates monotonicity after ({prev_time}, {prev_doc})",
                location=f"commit log '{cti.name}', record {offset}",
                invariant="commit-time-monotonicity",
            )
        if offset == start_offset and commit_time != start_time:
            raise TamperDetectedError(
                f"jump node for time {start_time} points at record "
                f"{offset} holding time {commit_time}",
                location=f"commit log '{cti.name}', record {offset}",
                invariant="commit-time-jump-payload",
            )
        if commit_time > t_end:
            break
        docs.append(doc_id)
        prev_time, prev_doc = commit_time, doc_id
    return docs, (start_offset, offset)


class TestBlockwiseScan:
    """``docs_in_range`` reads the log by the block; every answer, alarm
    and counted read must equal the record-at-a-time reference above."""

    BLOCK_SIZE = 64
    PER_BLOCK = BLOCK_SIZE // RECORD.size  # 5 records

    def _index(self, times):
        store = CachedWormStore(None, block_size=self.BLOCK_SIZE)
        cti = CommitTimeIndex(store, "t")
        for doc_id, commit_time in enumerate(times):
            cti.record_commit(doc_id, commit_time)
        return store, cti

    def _assert_matches_reference(self, store, cti, t_start, t_end):
        def counted_reads():
            return store.cache.stats.hits + store.cache.stats.misses

        try:
            docs, span = reference_docs_in_range(cti, t_start, t_end)
        except TamperDetectedError as expected:
            # Same invariant, same record offset, same message.
            assert _alarm(lambda: cti.docs_in_range(t_start, t_end)) == (
                expected.invariant,
                expected.location,
                str(expected),
            )
            return
        reads_before, scanned_before = counted_reads(), cti.blocks_scanned
        assert cti.docs_in_range(t_start, t_end) == docs
        # One counted read per log block the scan touched, no more.
        blocks = (
            0
            if span is None
            else span[1] // self.PER_BLOCK - span[0] // self.PER_BLOCK + 1
        )
        assert counted_reads() - reads_before == blocks
        assert cti.blocks_scanned - scanned_before == blocks

    @given(
        gaps=st.lists(st.integers(0, 2), min_size=11, max_size=40),
        tampered=st.lists(
            st.tuples(st.integers(0, 90), st.integers(0, 60)), max_size=3
        ),
        resumed=st.integers(0, 4),
        ranges=st.lists(
            st.tuples(st.integers(0, 95), st.integers(0, 95)),
            min_size=1,
            max_size=8,
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_property_blockwise_equals_recordwise(
        self, gaps, tampered, resumed, ranges
    ):
        """Honest logs of >= 3 blocks with repeated commit times, whole
        records Mala appends around the writer (retro-dated, duplicate
        or plausible), and the honest writer resuming after them."""
        times, now = [], 0
        for gap in gaps:
            now += gap
            times.append(now)
        store, cti = self._index(times)
        assert store.device.open_file("t").num_blocks >= 3
        for commit_time, doc_id in tampered:
            _raw_record(store, "t", commit_time, doc_id)
        for step in range(resumed):
            cti.record_commit(len(times) + step, now + step)
        edges = times[:: self.PER_BLOCK]
        for t_start, t_end in ranges + [
            (edges[1], edges[2]),  # from a block's first record to another's
            (edges[1] + 1, now + 50),  # mid-block to past the end
            (now + 9, now + 19),  # wholly past the end
            (5, 3),  # inverted: empty
        ]:
            self._assert_matches_reference(store, cti, t_start, t_end)

    def test_retro_dated_record_inside_and_at_end_of_range(self):
        store, cti = self._index(range(100, 112))
        _raw_record(store, "t", 50, 999)  # record 12, back-dated
        located = "commit log 't', record 12"
        # Inside the scanned range, and as the record that would end it.
        for t_end in (2000, 111):
            invariant, location, _ = _alarm(partial(cti.docs_in_range, 103, t_end))
            assert (invariant, location) == ("commit-time-monotonicity", located)
            self._assert_matches_reference(store, cti, 103, t_end)
        # A scan that ends before it never reads it (same as record-wise).
        assert cti.docs_in_range(103, 108) == [3, 4, 5, 6, 7, 8]
        self._assert_matches_reference(store, cti, 103, 108)

    def test_jump_node_pointing_at_another_time(self):
        store, cti = self._index(range(100, 112))
        cti._jump.insert(500, payload=7)  # record 7 holds time 107
        invariant, location, _ = _alarm(lambda: cti.docs_in_range(200, 600))
        assert invariant == "commit-time-jump-payload"
        assert location == "commit log 't', record 7"
        self._assert_matches_reference(store, cti, 200, 600)

    def test_record_appended_around_the_writer_is_scanned(self):
        """The extent is WORM state: ``count`` is writer memory."""
        store, cti = self._index(range(100, 112))
        _raw_record(store, "t", 111, 12)  # plausible: only the device saw it
        assert cti.count == 12
        assert cti.docs_in_range(110, 200) == [10, 11, 12]
        _raw_record(store, "t", 111, 12)  # a duplicate doc id is not
        invariant, location, _ = _alarm(lambda: cti.docs_in_range(110, 200))
        assert (invariant, location) == (
            "commit-time-monotonicity",
            "commit log 't', record 13",
        )
        self._assert_matches_reference(store, cti, 110, 200)


class TestRaggedLog:
    """Bytes that are not whole records are a typed alarm in every
    reader — the range scan, the audit and reopen — never a
    ``struct.error`` and never silently skipped."""

    def _assert_all_readers_alarm(self, store, cti, block_no):
        for read in (
            cti.verify,
            lambda: cti.docs_in_range(0, 10**6),
            lambda: CommitTimeIndex(store, cti.name),
            lambda: list(cti.iter_records()),
        ):
            invariant, location, _ = _alarm(read)
            assert invariant == "commit-log-record-size"
            assert location == f"commit log '{cti.name}', block {block_no}"

    def test_stray_bytes_in_the_tail_block(self, store):
        cti = CommitTimeIndex(store, "t")
        for doc_id in range(30):  # 21 records per 256-byte block
            cti.record_commit(doc_id, 100 + doc_id)
        store.device.open_file("t").append_record(b"\x00" * 5)
        self._assert_all_readers_alarm(store, cti, 1)

    def test_stray_bytes_in_a_full_blocks_slack(self, store):
        cti = CommitTimeIndex(store, "t")
        for doc_id in range(21):
            cti.record_commit(doc_id, 100 + doc_id)
        store.device.open_file("t").append_record(b"\x00" * 4)
        cti.record_commit(21, 200)  # the honest writer rolls to block 1
        self._assert_all_readers_alarm(store, cti, 0)

    def test_forced_block_roll_breaks_record_addressing(self, store):
        """A short non-tail block shifts every later record's offset, so
        jump payloads would address the wrong records."""
        cti = CommitTimeIndex(store, "t")
        for doc_id in range(10):
            cti.record_commit(doc_id, 100 + doc_id)
        store.device.open_file("t").append_record(
            RECORD.pack(110, 10), force_new_block=True
        )
        self._assert_all_readers_alarm(store, cti, 0)
