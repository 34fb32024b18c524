"""Unit + property tests for the zigzag join machinery."""

import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.baselines.bplus_tree import BPlusTree, TreeCursor
from repro.core.block_jump_index import BlockJumpIndex
from repro.errors import QueryError
from repro.search.join import (
    MemoryCursor,
    MergedListCursor,
    conjunctive_join,
    zigzag,
)
from repro.worm.storage import CachedWormStore
from tests.helpers import budget


class TestMemoryCursor:
    def test_basic_stepping(self):
        cur = MemoryCursor([1, 5, 9])
        assert cur.doc() == 1
        assert cur.seek_geq(5) == 5
        assert cur.seek_geq(6) == 9
        assert cur.seek_geq(10) is None
        assert cur.blocks_read() == 0
        assert cur.estimated_length() == 3

    def test_empty(self):
        assert MemoryCursor([]).doc() is None


class TestZigzag:
    def test_intersection(self):
        a = MemoryCursor([1, 3, 5, 7, 9])
        b = MemoryCursor([2, 3, 7, 8])
        assert zigzag(a, b) == [3, 7]

    def test_disjoint(self):
        assert zigzag(MemoryCursor([1, 2]), MemoryCursor([3, 4])) == []

    def test_identical(self):
        assert zigzag(MemoryCursor([1, 2]), MemoryCursor([1, 2])) == [1, 2]

    @given(
        a=st.sets(st.integers(min_value=0, max_value=200), max_size=80),
        b=st.sets(st.integers(min_value=0, max_value=200), max_size=80),
    )
    @budget(60)
    def test_property_matches_set_intersection(self, a, b):
        got = zigzag(MemoryCursor(sorted(a)), MemoryCursor(sorted(b)))
        assert got == sorted(a & b)


class TestTreeCursor:
    def test_stepping(self):
        tree = BPlusTree(fanout=4)
        for k in [2, 5, 9, 14]:
            tree.insert(k)
        cur = TreeCursor(tree)
        assert cur.doc() == 2
        assert cur.seek_geq(6) == 9
        assert cur.seek_geq(3) == 9  # never moves backwards
        assert cur.seek_geq(15) is None
        assert cur.blocks_read() > 0


def build_bundle(docs_terms, branching=4):
    """Small merged index: one physical list, optional jump index."""
    store = CachedWormStore(None, block_size=256)
    bji = BlockJumpIndex.create(store, "pl", branching=branching, max_doc_bits=16)
    for doc_id, terms in docs_terms:
        for t in sorted(terms):
            bji.insert(doc_id, term_code=t)
    return bji


class TestMergedListCursor:
    def test_filtered_join_against_brute_force(self):
        random.seed(4)
        docs = []
        docsets = {}
        for doc_id in range(400):
            terms = random.sample(range(6), random.randint(1, 4))
            docs.append((doc_id, terms))
            for t in terms:
                docsets.setdefault(t, set()).add(doc_id)
        bji = build_bundle(docs)
        for t1, t2 in [(0, 1), (2, 3), (4, 5), (0, 5)]:
            cursors = [
                MergedListCursor(bji.posting_list, term_code=t, jump_index=bji)
                for t in (t1, t2)
            ]
            got, blocks = conjunctive_join(cursors)
            assert got == sorted(docsets[t1] & docsets[t2])
            assert blocks > 0

    def test_sequential_fallback_without_jump_index(self):
        docs = [(i, [i % 3]) for i in range(100)]
        bji = build_bundle(docs)
        cur = MergedListCursor(bji.posting_list, term_code=0)
        assert cur.seek_geq(50) == 51
        assert cur.doc() == 51

    def test_single_cursor_join_lists_all(self):
        docs = [(i, [0]) for i in range(10)]
        bji = build_bundle(docs)
        cur = MergedListCursor(bji.posting_list, term_code=0, jump_index=bji)
        got, _ = conjunctive_join([cur])
        assert got == list(range(10))

    def test_empty_join_rejected(self):
        with pytest.raises(QueryError):
            conjunctive_join([])

    @given(
        doc_terms=st.lists(
            st.sets(st.integers(min_value=0, max_value=7), min_size=1, max_size=4),
            min_size=1,
            max_size=120,
        ),
        query=st.sets(
            st.integers(min_value=0, max_value=7), min_size=2, max_size=4
        ),
        branching=st.sampled_from([2, 4]),
    )
    @budget(40)
    def test_property_matches_brute_force(self, doc_terms, query, branching):
        """Term-filtered cursors over one merged list join to the set
        intersection, always."""
        docs = [(doc_id, sorted(terms)) for doc_id, terms in enumerate(doc_terms)]
        docsets = {}
        for doc_id, terms in docs:
            for t in terms:
                docsets.setdefault(t, set()).add(doc_id)
        bji = build_bundle(docs, branching=branching)
        terms = sorted(query)
        expected = sorted(
            set.intersection(*[docsets.get(t, set()) for t in terms])
        )
        cursors = [
            MergedListCursor(bji.posting_list, term_code=t, jump_index=bji)
            for t in terms
        ]
        got, _ = conjunctive_join(cursors)
        assert got == expected


class TestWindowedJoin:
    """A join bounded to a doc-ID window ``(first, last)`` answers the
    unbounded join cut to the window.  Its entry FindGeq(``first``) may
    cost one seek the unbounded join never makes (when a cursor runs
    out before the unbounded join gets that far), and may read one
    non-tail block the unbounded join's seeks never touch; nothing else
    reads more.  A cursor's entry FindGeq may also peek its list's tail
    block (to rule out a target past the list's end), which the
    unbounded join reads only if it runs that far."""

    @staticmethod
    def _join(bji, terms, window, jumps):
        cursors = [
            MergedListCursor(
                bji.posting_list, term_code=t, jump_index=bji if jumps else None
            )
            for t in terms
        ]
        got, blocks = conjunctive_join(cursors, window)
        reads = [set(c._cursor.blocks_read) for c in cursors]
        return got, blocks, sum(c.seeks for c in cursors), reads

    @given(
        doc_terms=st.lists(
            st.sets(st.integers(min_value=0, max_value=5), min_size=1, max_size=4),
            min_size=1,
            max_size=200,
        ),
        query=st.sets(st.integers(min_value=0, max_value=5), min_size=1, max_size=3),
        branching=st.sampled_from([None, 2, 4]),
        first=st.integers(0, 200),
        last=st.integers(0, 202),
    )
    # Window (2, 2): term 0's cursor enters at 2 with a seek; unbounded,
    # term 2's cursor runs out on its first seek and the join ends there,
    # one seek in.
    @example(
        doc_terms=[{2}, {0}, {0}], query={0, 2}, branching=None, first=2, last=0
    )
    @budget(80)
    def test_property_window_cuts_the_unbounded_join(
        self, doc_terms, query, branching, first, last
    ):
        docs = [(doc_id, sorted(terms)) for doc_id, terms in enumerate(doc_terms)]
        bji = build_bundle(docs, branching=branching or 4)
        # Map the drawn integers onto first in [0, len(docs)] and last in
        # [first, len(docs) + 2], so most windows cut into the lists.
        first %= len(docs) + 1
        last = first + last % (len(docs) + 3 - first)
        terms = sorted(query)
        jumps = branching is not None
        full, full_blocks, full_seeks, full_reads = self._join(bji, terms, None, jumps)
        got, blocks, seeks, reads = self._join(bji, terms, (first, last), jumps)
        assert got == [d for d in full if first <= d <= last]
        assert seeks <= full_seeks + 1
        tail = {bji.posting_list.num_blocks - 1}
        if not jumps:  # sequential seeks read no tail ahead of time
            tail = set()
        assert blocks - sum(len(r & tail) for r in reads) <= 1 + full_blocks - sum(
            len(r & tail) for r in full_reads
        )

    def test_window_past_the_lists_reads_no_more(self):
        docs = [(i, [i % 2, 2]) for i in range(60)]
        bji = build_bundle(docs)
        full, full_blocks, full_seeks, _ = self._join(bji, [0, 2], None, True)
        got, blocks, seeks, _ = self._join(bji, [0, 2], (100, 200), True)
        assert got == [] and seeks <= full_seeks and blocks <= full_blocks

    def test_single_cursor_window(self):
        bji = build_bundle([(i, [0]) for i in range(30)])
        cursor = MergedListCursor(bji.posting_list, term_code=0, jump_index=bji)
        assert conjunctive_join([cursor], (7, 11))[0] == [7, 8, 9, 10, 11]

    def test_zigzag_window(self):
        a = MemoryCursor([1, 3, 5, 7, 9, 11])
        b = MemoryCursor([3, 5, 6, 9, 11])
        assert zigzag(a, b, 4, 9) == [5, 9]
