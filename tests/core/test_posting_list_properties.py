"""Property tests for posting lists and cursors against list references."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.posting_list import PostingList
from repro.worm.storage import CachedWormStore

# Non-decreasing doc ids with repeats (merged-list shape), small codes.
posting_streams = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=4),  # doc id gap (0 = duplicate)
        st.integers(min_value=0, max_value=3),  # term code
    ),
    min_size=1,
    max_size=150,
)


def build(stream, entries_per_block=None):
    store = CachedWormStore(None, block_size=128)  # 16 postings/block
    posting_list = PostingList(
        store, "pl", entries_per_block=entries_per_block
    )
    postings = []
    doc = 0
    for gap, code in stream:
        doc += gap
        posting_list.append(doc, code)
        postings.append((doc, code))
    return posting_list, postings


class TestPostingListProperties:
    @given(stream=posting_streams)
    @settings(max_examples=60, deadline=None)
    def test_property_scan_reproduces_appends(self, stream):
        posting_list, postings = build(stream)
        scanned = [
            row
            for docs, codes in posting_list.scan_columns(counted=False)
            for row in zip(docs, codes)
        ]
        assert scanned == postings
        assert len(posting_list) == len(postings)
        # Reattaching runs the order check over what was appended.
        assert len(PostingList(posting_list.store, "pl")) == len(postings)

    @given(stream=posting_streams, data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_property_filtered_cursor_matches_reference(self, stream, data):
        posting_list, postings = build(stream)
        code = data.draw(st.integers(min_value=0, max_value=3))
        cursor = posting_list.cursor(term_code=code)
        seen = []
        while not cursor.exhausted:
            seen.append(cursor.current.doc_id)
            cursor.advance()
        assert seen == [d for d, c in postings if c == code]

    @given(stream=posting_streams, data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_property_sequential_seek_matches_reference(self, stream, data):
        posting_list, postings = build(stream)
        target = data.draw(
            st.integers(min_value=0, max_value=postings[-1][0] + 2)
        )
        cursor = posting_list.cursor()
        cursor.seek_geq_sequential(target)
        remaining = [d for d, _ in postings if d >= target]
        if remaining:
            assert cursor.current.doc_id == remaining[0]
        else:
            assert cursor.exhausted

    @given(stream=posting_streams)
    @settings(max_examples=40, deadline=None)
    def test_property_restore_equals_original(self, stream):
        """Reattaching to the WORM file reproduces all derived state."""
        posting_list, postings = build(stream)
        reopened = PostingList(posting_list.store, "pl")
        assert len(reopened) == len(posting_list)
        assert reopened.last_doc_id == posting_list.last_doc_id
        assert reopened.doc_ids() == posting_list.doc_ids()
        for block_no in range(posting_list.num_blocks):
            assert reopened.block_max_hint(block_no) == posting_list.block_max_hint(
                block_no
            )
        # And appends continue correctly after the restore.
        reopened.append(posting_list.last_doc_id + 1, 0)
        assert len(reopened) == len(postings) + 1

    @given(stream=posting_streams, cap=st.integers(min_value=1, max_value=16))
    @settings(max_examples=40, deadline=None)
    def test_property_entries_per_block_cap_respected(self, stream, cap):
        posting_list, postings = build(stream, entries_per_block=cap)
        for block_no in range(posting_list.num_blocks):
            entries = posting_list.read_block_postings(block_no, counted=False)
            assert len(entries) <= cap
        total = sum(
            len(posting_list.read_block_postings(b, counted=False))
            for b in range(posting_list.num_blocks)
        )
        assert total == len(postings)
