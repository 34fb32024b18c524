"""Unit tests for the WORM-resident document store."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import UnknownFileError
from repro.search.documents import DocumentStore
from repro.worm.storage import CachedWormStore


@pytest.fixture()
def docs(store):
    return DocumentStore(store)


class TestCommit:
    def test_ids_assigned_monotonically(self, docs):
        assert docs.commit("a", commit_time=1) == 0
        assert docs.commit("b", commit_time=2) == 1
        assert docs.next_doc_id == 2
        assert len(docs) == 2

    def test_roundtrip(self, docs):
        doc_id = docs.commit("quarterly revenue memo", commit_time=7)
        doc = docs.get(doc_id)
        assert doc.text == "quarterly revenue memo"
        assert doc.commit_time == 7
        assert doc.doc_id == doc_id

    def test_large_document_spans_blocks(self, docs):
        text = "word " * 200  # > 256-byte blocks
        doc_id = docs.commit(text, commit_time=1)
        assert docs.get(doc_id).text == text

    def test_empty_document(self, docs):
        doc_id = docs.commit("", commit_time=1)
        assert docs.get(doc_id).text == ""

    def test_unicode(self, docs):
        doc_id = docs.commit("café ≠ cafe", commit_time=1)
        assert docs.get(doc_id).text == "café ≠ cafe"


class TestRead:
    def test_exists(self, docs):
        doc_id = docs.commit("x", commit_time=1)
        assert docs.exists(doc_id)
        assert not docs.exists(doc_id + 1)

    def test_get_missing_rejected(self, docs):
        with pytest.raises(UnknownFileError):
            docs.get(0)

    def test_iteration_in_id_order(self, docs):
        for i in range(5):
            docs.commit(f"doc {i}", commit_time=i)
        texts = [d.text for d in docs.documents()]
        assert texts == [f"doc {i}" for i in range(5)]

    def test_committed_text_immutable_via_device(self, docs, store):
        """The device refuses any overwrite of committed document bytes."""
        from repro.errors import FileExistsOnWormError

        doc_id = docs.commit("original", commit_time=1)
        name = f"doc/{doc_id:010d}"
        worm_file = store.open_file(name)
        block = worm_file.block(0)
        with pytest.raises(FileExistsOnWormError):
            # Even recreating the file under the same name is refused.
            store.create_file(name)
        # Appending *more* bytes is legal but does not alter the original.
        before = block.read()
        assert before == b"original"


class TestRank:
    """A committed ID's rank counts the committed IDs below it, and
    ``committed_id`` inverts it, across IDs a crash burned."""

    @given(st.lists(st.booleans(), max_size=40), st.data())
    @settings(max_examples=60, deadline=None)
    def test_rank_inverts_committed_id(self, burns, data):
        store = CachedWormStore(None, block_size=256)
        docs = DocumentStore(store)
        committed = []
        for burn in burns:
            if burn:  # a crash left this ID's file with no commit record
                store.device.create_file(docs.file_name(docs.next_doc_id))
            committed.append(docs.commit("text", commit_time=len(committed)))
        if data.draw(st.booleans()):  # the same IDs, restored from the log
            restored = DocumentStore(store)
            restored.restore(committed, [0] * len(committed))
            docs = restored
        assert docs.has_burned == any(burns)
        for rank, doc_id in enumerate(committed):
            assert docs.rank(doc_id) == rank
            assert docs.committed_id(rank) == doc_id
        for doc_id in range(docs.next_doc_id):
            assert (docs.rank(doc_id) == -1) == docs.is_burned(doc_id)


class TestBurnedColumn:
    """The query filter's column of burned IDs names exactly the IDs
    :meth:`DocumentStore.is_burned` does, after every commit and after a
    restore."""

    @given(st.lists(st.booleans(), max_size=40), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_column_matches_is_burned(self, burns, restore):
        store = CachedWormStore(None, block_size=256)
        docs = DocumentStore(store)
        committed = []
        for burn in burns:
            if burn:
                store.device.create_file(docs.file_name(docs.next_doc_id))
            committed.append(docs.commit("text", commit_time=len(committed)))
            column = docs.burned_ids().tolist()
            assert column == sorted(column)
            ids = range(docs.next_doc_id + 2)
            assert [i in column for i in ids] == [docs.is_burned(i) for i in ids]
        if restore:
            restored = DocumentStore(store)
            restored.restore(committed, [0] * len(committed))
            assert restored.burned_ids().tolist() == docs.burned_ids().tolist()
