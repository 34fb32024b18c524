"""Property tests for the commit-time index against an interval reference."""

from hypothesis import given
from hypothesis import strategies as st

from repro.core.time_index import CommitTimeIndex
from repro.worm.storage import CachedWormStore
from tests.helpers import budget


commit_histories = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=3),   # time gap to previous
        st.integers(min_value=1, max_value=1),   # doc id step (always 1)
    ),
    min_size=1,
    max_size=120,
)


def build(history):
    store = CachedWormStore(None, block_size=256)
    index = CommitTimeIndex(store, "t")
    records = []
    time, doc = 0, -1
    for gap, step in history:
        time += gap
        doc += step
        index.record_commit(doc, time)
        records.append((time, doc))
    return index, records


class TestCommitTimeProperties:
    @given(history=commit_histories, data=st.data())
    @budget(60)
    def test_property_range_queries_match_reference(self, history, data):
        index, records = build(history)
        max_time = records[-1][0]
        t1 = data.draw(st.integers(min_value=0, max_value=max_time + 3))
        t2 = data.draw(st.integers(min_value=0, max_value=max_time + 3))
        expected = [d for t, d in records if t1 <= t <= t2]
        assert index.docs_in_range(t1, t2) == (
            (expected[0], expected[-1]) if expected else None
        )

    @given(history=commit_histories)
    @budget(30)
    def test_property_restore_preserves_answers(self, history):
        """Reattaching to the WORM log reproduces identical query answers."""
        index, records = build(history)
        reopened = CommitTimeIndex(index.store, "t")
        max_time = records[-1][0]
        for t1 in range(0, max_time + 2, max(1, max_time // 5)):
            assert reopened.docs_in_range(t1, max_time + 1) == index.docs_in_range(
                t1, max_time + 1
            )
        assert len(reopened) == len(records)
        assert reopened.last_commit_time == records[-1][0]
