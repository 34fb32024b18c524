"""The sharded top-k is one cut over every shard's scores.

Each shard scores every candidate it matched under the shards' summed
statistics; the executor takes the ``top_k``-th best score of them all
as its threshold and sorts only what reaches it.  That must answer
exactly as one unsharded engine over the same documents scoring every
candidate, sorting all of them by ``(-score, ID)`` and cutting — the
reference below — for every ``top_k``, with equal scores at the cut on
different shards.
"""

from hypothesis import given
from hypothesis import strategies as st

from repro.search.engine import TrustworthySearchEngine
from repro.search.ranking import SCORERS, score
from repro.sharding.engine import ShardedSearchEngine
from tests.helpers import SHARD_CONFIG, budget

VOCAB = ["memo", "audit", "ledger", "quarter", "trade"]

#: Texts drawn again and again, so equal documents — equal scores —
#: land on every shard.
REPEATED = ["memo", "memo audit", "audit ledger memo", "trade"]

documents = st.lists(
    st.one_of(
        st.sampled_from(REPEATED),
        st.lists(st.sampled_from(VOCAB), min_size=1, max_size=6).map(" ".join),
    ),
    min_size=1,
    max_size=40,
)

queries = st.one_of(
    st.lists(st.sampled_from(VOCAB), min_size=1, max_size=3).map(" ".join),
    st.lists(st.sampled_from(VOCAB), min_size=1, max_size=2).map(
        lambda terms: " ".join(f"+{term}" for term in terms)
    ),
)


def everything_sorted_then_cut(docs, text, top_k):
    """An unsharded engine's every candidate for ``text``, scored,
    sorted whole by ``(-score, ID)``, then cut at ``top_k``."""
    engine = TrustworthySearchEngine(SHARD_CONFIG)
    engine.index_batch(docs)
    candidates = engine.match(text)
    stats = engine.stats.query_stats(candidates.terms)
    doc_ids, scores = score(SCORERS[SHARD_CONFIG.ranking](stats, engine.stats), candidates)
    ranked = sorted(zip((-float(s) for s in scores), map(int, doc_ids)))
    return [(doc_id, (-negated).hex()) for negated, doc_id in ranked[:top_k]]


def answer(sharded, text, top_k):
    return [(r.doc_id, r.score.hex()) for r in sharded.search(text, top_k=top_k)]


@given(
    docs=documents,
    text=queries,
    num_shards=st.sampled_from([1, 2, 3]),
    top_k=st.integers(0, 45),
)
@budget(80)
def test_the_cut_is_everything_sorted_then_cut(docs, text, num_shards, top_k):
    with ShardedSearchEngine(SHARD_CONFIG, num_shards=num_shards) as sharded:
        assert sharded.index_batch(docs) == list(range(len(docs)))
        assert answer(sharded, text, top_k) == everything_sorted_then_cut(docs, text, top_k)


def test_equal_scores_on_two_shards_are_cut_by_global_id():
    """Six copies of one document score alike; both shards hold some.
    Whatever the cut, the lowest global IDs make it, across shards."""
    with ShardedSearchEngine(SHARD_CONFIG, num_shards=2) as sharded:
        assert sharded.index_batch(["memo audit"] * 6) == list(range(6))
        assert {sharded.router.to_local(doc_id)[0] for doc_id in range(3)} == {0, 1}
        full = sharded.search("memo", top_k=6)
        assert [r.doc_id for r in full] == list(range(6))
        assert len({r.score for r in full}) == 1
        for top_k in range(7):
            got = sharded.search("memo", top_k=top_k)
            assert [r.doc_id for r in got] == list(range(min(top_k, 6)))
            assert answer(sharded, "memo", top_k) == everything_sorted_then_cut(
                ["memo audit"] * 6, "memo", top_k
            )
