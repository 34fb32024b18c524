"""Unit tests for WORM posting lists and their cursors."""

import pytest

from repro.core.posting_list import PostingList
from repro.errors import DocumentIdOrderError, IndexError_, TamperDetectedError


@pytest.fixture()
def pl(store):
    return PostingList(store, "pl/test")  # 256-byte blocks -> 32 postings


class TestAppend:
    def test_positions_roll_at_block_boundary(self, pl):
        positions = [pl.append(i) for i in range(33)]
        assert positions[0] == (0, 0)
        assert positions[31] == (0, 31)
        assert positions[32] == (1, 0)
        assert pl.num_blocks == 2
        assert len(pl) == 33

    def test_entries_per_block_cap(self, store):
        pl = PostingList(store, "pl/capped", entries_per_block=4)
        for i in range(9):
            pl.append(i)
        assert pl.num_blocks == 3
        assert len(pl.read_block_postings(0)) == 4

    def test_cap_larger_than_block_rejected(self, store):
        with pytest.raises(IndexError_):
            PostingList(store, "pl/bad", entries_per_block=1000)

    def test_non_decreasing_enforced(self, pl):
        pl.append(10)
        with pytest.raises(DocumentIdOrderError):
            pl.append(9)

    def test_equal_ids_allowed_for_merged_lists(self, pl):
        pl.append(10, term_code=1)
        pl.append(10, term_code=2)
        assert pl.last_doc_id == 10
        assert len(pl) == 2

    def test_block_max_hint_tracks_largest(self, pl):
        for i in range(40):
            pl.append(i)
        assert pl.block_max_hint(0) == 31
        assert pl.block_max_hint(1) == 39


class TestRead:
    def test_scan_order(self, pl):
        for i in range(50):
            pl.append(i, term_code=i % 3)
        rows = [
            row
            for docs, codes in pl.scan_columns(counted=False)
            for row in zip(docs, codes)
        ]
        assert rows == [(i, i % 3) for i in range(50)]

    def test_doc_ids(self, pl):
        for i in (1, 4, 9):
            pl.append(i)
        assert pl.doc_ids() == [1, 4, 9]

    def test_counted_read_touches_cache(self, store):
        pl = PostingList(store, "pl/counted")
        pl.append(1)
        before = store.cache.stats.accesses
        pl.read_block_postings(0, counted=True)
        assert store.cache.stats.accesses == before + 1

    def test_uncounted_read_skips_cache(self, store):
        pl = PostingList(store, "pl/uncounted")
        pl.append(1)
        before = store.cache.stats.accesses
        pl.read_block_postings(0, counted=False)
        assert store.cache.stats.accesses == before


class TestVerifyOrder:
    """Attaching a list runs the order check over every stored block."""

    def test_clean_list_passes(self, pl):
        for i in range(100):
            pl.append(i)
        assert len(PostingList(pl.store, pl.name)) == 100

    def test_raw_out_of_order_append_detected(self, store):
        """Mala appends through the device, bypassing the honest writer."""
        from repro.core.posting import encode_posting

        pl = PostingList(store, "pl/tampered")
        pl.append(5)
        pl.append(9)
        store.device.open_file("pl/tampered").append_record(encode_posting(3, 0))
        with pytest.raises(TamperDetectedError) as excinfo:
            PostingList(store, "pl/tampered")
        assert excinfo.value.invariant == "posting-monotonicity"
        assert excinfo.value.location == "posting list 'pl/tampered', block 0"


class TestCursor:
    def test_iteration(self, pl):
        for i in range(70):
            pl.append(i)
        cur = pl.cursor()
        seen = []
        while not cur.exhausted:
            seen.append(cur.current.doc_id)
            cur.advance()
        assert seen == list(range(70))

    def test_empty_list_cursor_exhausted(self, pl):
        assert pl.cursor().exhausted

    def test_current_on_exhausted_rejected(self, pl):
        with pytest.raises(IndexError_):
            pl.cursor().current

    def test_term_filtering(self, pl):
        for i in range(30):
            pl.append(i, term_code=i % 2)
        cur = pl.cursor(term_code=1)
        seen = []
        while not cur.exhausted:
            seen.append(cur.current.doc_id)
            cur.advance()
        assert seen == list(range(1, 30, 2))

    def test_filter_with_no_matches_is_exhausted(self, pl):
        for i in range(10):
            pl.append(i, term_code=0)
        assert pl.cursor(term_code=99).exhausted

    def test_seek_geq_sequential(self, pl):
        for i in range(0, 100, 3):
            pl.append(i)
        cur = pl.cursor()
        cur.seek_geq_sequential(50)
        assert cur.current.doc_id == 51
        cur.seek_geq_sequential(97)
        assert cur.current.doc_id == 99
        cur.seek_geq_sequential(100)
        assert cur.exhausted

    def test_blocks_read_dedup(self, pl):
        for i in range(64):  # 2 blocks of 32
            pl.append(i)
        cur = pl.cursor()
        while not cur.exhausted:
            cur.advance()
        assert cur.blocks_read == {0, 1}

    def test_peek_block_counts_once(self, pl):
        for i in range(64):
            pl.append(i)
        cur = pl.cursor()
        cur.peek_block(1)
        cur.peek_block(1)
        assert cur.blocks_read == {0, 1}

    def test_jump_to_forward(self, pl):
        for i in range(96):
            pl.append(i)
        cur = pl.cursor()
        cur.jump_to(2, 5)
        assert cur.current.doc_id == 69

    def test_jump_backwards_rejected(self, pl):
        for i in range(96):
            pl.append(i)
        cur = pl.cursor()
        cur.jump_to(2)
        with pytest.raises(IndexError_):
            cur.jump_to(1)

    def test_jump_past_end_of_block_settles_forward(self, pl):
        for i in range(64):
            pl.append(i)
        cur = pl.cursor()
        cur.jump_to(0, 32)  # one past block 0's entries
        assert cur.current.doc_id == 32

    def test_exhaust(self, pl):
        pl.append(1)
        cur = pl.cursor()
        cur.exhaust()
        assert cur.exhausted
