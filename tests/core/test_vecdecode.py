"""Property tests: the batch column decoder equals the scalar decoder.

The vectorized read path (:mod:`repro.core.vecdecode`) reinterprets a
posting region as parallel doc-ID / term-code columns in one pass; the
scalar path (:func:`repro.core.posting.decode_postings`) unpacks one
8-byte posting at a time.  Everything downstream — cursors, joins,
audits — assumes they agree byte for byte, on every storage path a
block can arrive from (legacy merged lists, tail-mode sealed segments).
"""

from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.posting import (
    MAX_DOC_ID,
    MAX_TERM_CODE,
    Posting,
    decode_postings,
    encode_posting,
    pack_term_tf,
    unpack_term_tf,
)
from repro.core.posting_list import PostingList
from repro.core.vecdecode import (
    COLUMN_TYPECODE,
    DecodedBlock,
    decode_columns,
    term_columns,
)
from repro.errors import IndexError_
from repro.search.engine import EngineConfig, TrustworthySearchEngine
from repro.worm.storage import CachedWormStore

postings_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=MAX_DOC_ID),
        st.integers(min_value=0, max_value=MAX_TERM_CODE),
    ),
    max_size=120,
)


def payload_of(pairs):
    return b"".join(encode_posting(doc, code) for doc, code in pairs)


class TestDecodeColumns:
    @given(pairs=postings_strategy)
    @settings(max_examples=80, deadline=None)
    def test_property_columns_equal_scalar_decode(self, pairs):
        payload = payload_of(pairs)
        doc_ids, term_codes = decode_columns(payload)
        scalar = list(decode_postings(payload))
        assert list(doc_ids) == [p.doc_id for p in scalar]
        assert list(term_codes) == [p.term_code for p in scalar]

    @given(pairs=postings_strategy)
    @settings(max_examples=80, deadline=None)
    def test_property_decoded_block_is_sequence_compatible(self, pairs):
        block = DecodedBlock.from_payload(payload_of(pairs))
        reference = [Posting(doc, code) for doc, code in pairs]
        assert len(block) == len(reference)
        assert list(block) == reference
        assert block == reference
        assert block.to_postings() == reference
        if reference:
            assert block[0] == reference[0]
            assert block[-1] == reference[-1]
            assert block[1:] == reference[1:]

    def test_empty_payload(self):
        doc_ids, term_codes = decode_columns(b"")
        assert list(doc_ids) == [] and list(term_codes) == []
        block = DecodedBlock.from_payload(b"")
        assert len(block) == 0 and list(block) == []

    def test_single_posting(self):
        block = DecodedBlock.from_payload(encode_posting(7, 3))
        assert list(block) == [Posting(7, 3)]

    def test_extreme_values_round_trip(self):
        pairs = [(0, 0), (MAX_DOC_ID, MAX_TERM_CODE), (MAX_DOC_ID, 0)]
        block = DecodedBlock.from_payload(payload_of(sorted(pairs)))
        assert list(block) == [Posting(d, c) for d, c in sorted(pairs)]

    @pytest.mark.parametrize("extra", [1, 3, 7])
    def test_ragged_payload_matches_scalar_error(self, extra):
        payload = encode_posting(1, 2) + b"\x00" * extra
        with pytest.raises(IndexError_) as batch_err:
            decode_columns(payload)
        with pytest.raises(IndexError_) as scalar_err:
            list(decode_postings(payload))
        assert str(batch_err.value) == str(scalar_err.value)


# Non-decreasing doc ids with repeats (merged-list shape), small codes.
streams = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=4),
        st.integers(min_value=0, max_value=3),
    ),
    min_size=1,
    max_size=150,
)


class TestPostingListPaths:
    @given(stream=streams)
    @settings(max_examples=50, deadline=None)
    def test_property_block_reads_equal_scalar_decode(self, stream):
        store = CachedWormStore(None, block_size=128)  # 16 postings/block
        posting_list = PostingList(store, "pl")
        doc = 0
        for gap, code in stream:
            doc += gap
            posting_list.append(doc, code)
        for block_no in range(posting_list.num_blocks):
            raw = store.peek_block("pl", block_no)
            batch = posting_list.read_block_postings(block_no, counted=False)
            assert list(batch) == list(decode_postings(raw))
            assert list(batch.doc_ids) == [p.doc_id for p in decode_postings(raw)]


class TestTermColumns:
    """The disjunctive scan's mask over a whole merged list's columns is
    the per-posting loop it replaced: ``unpack_term_tf`` on every entry,
    the wanted terms kept, a repeated ``(doc, term)`` max-merged."""

    @staticmethod
    def loop(pairs, wanted):
        kept = {}
        for doc_id, code in pairs:
            term_id, tf = unpack_term_tf(code)
            if term_id in wanted:
                by_doc = kept.setdefault(term_id, {})
                by_doc[doc_id] = max(by_doc.get(doc_id, 0), tf)
        return {t: sorted(by_doc.items()) for t, by_doc in kept.items()}

    @staticmethod
    def columns(pairs, wanted, typecode=COLUMN_TYPECODE):
        doc_ids = array(typecode, [doc for doc, _ in pairs])
        codes = array(typecode, [code for _, code in pairs])
        return {
            term_id: list(zip(docs.tolist(), tfs.tolist()))
            for term_id, docs, tfs in term_columns(doc_ids, codes, wanted)
        }

    @given(
        pairs=st.lists(
            st.tuples(
                st.integers(0, 40),
                st.builds(
                    lambda term, tf: term | (tf << 24),
                    st.integers(0, 4),
                    # 0: a code written without a packed frequency.
                    st.one_of(st.sampled_from([0, 1, 255]), st.integers(0, 255)),
                ),
            ),
            max_size=80,
        ),
        wanted=st.lists(st.integers(0, 5), unique=True, max_size=4),
        in_order=st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_property_equals_the_per_posting_loop(self, pairs, wanted, in_order):
        # In doc order, as an honest list is; or as drawn, as the
        # concatenated blocks of segments stuffed with each other's IDs.
        if in_order:
            pairs.sort(key=lambda pair: pair[0])
        assert self.columns(pairs, wanted) == self.loop(pairs, wanted)

    def test_column_order_is_the_order_asked_for(self):
        pairs = [(1, 2), (1, 7), (3, 2)]
        columns = term_columns(array("I", [1, 1, 3]), array("I", [2, 7, 2]), [7, 2, 5])
        assert [term_id for term_id, _, _ in columns] == [7, 2]  # 5: no posting
        assert self.columns(pairs, [2]) == {2: [(1, 1), (3, 1)]}  # tf 0 reads as 1

    def test_eight_byte_columns_of_the_portable_decoder(self):
        """Where ``array('I')`` is not four bytes ``decode_columns``
        falls back to eight-byte columns; the mask reads the width from
        the array it is given."""
        pairs = [(0, pack_term_tf(3, 2)), (MAX_DOC_ID, pack_term_tf(3, 255))]
        wide = "Q"
        assert array(wide).itemsize == 8
        assert self.columns(pairs, [3], typecode=wide) == {
            3: [(0, 2), (MAX_DOC_ID, 255)]
        }

    def test_empty_list(self):
        assert term_columns(array("I"), array("I"), [1]) == []


DOCS = [
    "alpha beta gamma",
    "beta gamma delta",
    "gamma delta epsilon",
    "alpha epsilon",
    "delta alpha beta",
    "epsilon beta",
]


def assert_columns_match_scan(posting_list):
    """scan() (Posting view) and scan_columns() (column view) agree."""
    flat = [(p.doc_id, p.term_code) for p in posting_list.scan(counted=False)]
    columns = []
    for doc_ids, term_codes in posting_list.scan_columns(counted=False):
        columns.extend(zip(doc_ids, term_codes))
    assert columns == flat


class TestEnginePaths:
    def test_legacy_engine_lists(self):
        engine = TrustworthySearchEngine(EngineConfig(num_lists=4, block_size=256, branching=None))
        for text in DOCS:
            engine.index_document(text)
        lists = [pl for pl, _ in engine.iter_posting_lists()]
        assert lists, "expected physical posting lists"
        for posting_list in lists:
            assert_columns_match_scan(posting_list)

    def test_sealed_segment_lists(self):
        engine = TrustworthySearchEngine(
            EngineConfig(num_lists=4, block_size=256, branching=None, tail_max_docs=64)
        )
        for text in DOCS:
            engine.index_document(text)
        engine.seal_tail()
        assert engine._segments, "expected a sealed segment"
        for segment in engine._segments:
            lists = list(segment.attached_lists())
            assert lists, "sealed segment should expose posting lists"
            for posting_list, _ in lists:
                assert_columns_match_scan(posting_list)

    def test_tail_and_segment_search_agree_with_legacy(self):
        legacy = TrustworthySearchEngine(EngineConfig(num_lists=4, block_size=256, branching=None))
        tailed = TrustworthySearchEngine(
            EngineConfig(num_lists=4, block_size=256, branching=None, tail_max_docs=3)
        )
        for text in DOCS:
            legacy.index_document(text)
            tailed.index_document(text)
        for query in ("beta", "gamma delta", "alpha epsilon"):
            assert legacy.search(query, top_k=10) == tailed.search(query, top_k=10)
