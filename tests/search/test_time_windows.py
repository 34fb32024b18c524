"""Time-ranged answers against a brute-force reference, on every layout.

A time range resolves to a document-ID interval whose IDs are each
committed inside the range or burned by a crash; the filter drops burned
and disposed IDs.  Here every layout of
``test_engine_workload_integration.py``, on 1 and 2 shards, with the read
cache on and off, answers time-ranged ALL and ANY queries exactly as the
documents committed in the range say — score for score, to the last bit.
Each archive holds a crash-burned ID and disposed documents inside the
windows, and windows whose ends fall on repeated commit times.
"""

import random
from dataclasses import replace

import pytest

from repro.search.engine import TrustworthySearchEngine
from repro.sharding.engine import ShardedSearchEngine
from repro.worm.storage import CachedWormStore
from tests.search.test_engine_workload_integration import LAYOUTS, LEGACY

WORDS = ["imclone", "stewart", "waksal", "filing", "trade", "memo", "fax", "sec"]
NUM_DOCS = 150
#: The document whose commit crashes between its create and its
#: commit-time record: the reopened archive burns its ID.
CRASHED = 50
#: Every document is retained this long; the disposal sweep then takes
#: the ones committed at or before ``times[DISPOSED_THROUGH]``.
RETENTION = 10_000
DISPOSED_THROUGH = 12


def _corpus():
    """Texts and commit times: about one in four times repeats the one
    before, the rest step by 1 to 3."""
    rng = random.Random(20)
    texts, times, now = [], [], 0
    for i in range(NUM_DOCS):
        if i and rng.random() >= 0.25:
            now += rng.randint(1, 3)
        words = rng.choices(WORDS, weights=range(len(WORDS), 0, -1), k=rng.randint(2, 6))
        texts.append(" ".join(words))
        times.append(now)
    return texts, times


def _open(config, shards, stores):
    if shards == 1:
        return TrustworthySearchEngine(config, store=stores[0])
    return ShardedSearchEngine(
        config,
        num_shards=shards,
        store_factory=stores.__getitem__,
        coordinator_store=stores[shards],
    )


def _shards(engine):
    return getattr(engine, "shards", [engine])


def _commit(engine, text, commit_time):
    # The engine's clock refuses a repeated commit time, which the
    # commit-time log holds without complaint; wind it back to write one.
    for each in {engine, *_shards(engine)}:
        each._clock = min(each._clock, commit_time)
    return engine.index_batch([text], commit_times=[commit_time])[0]


def _build(layout, shards, cache):
    """The archive, and each document's ``(text, commit time)`` by ID."""
    config, merge = LAYOUTS[layout] if layout in LAYOUTS else (LEGACY, False)
    config = replace(config, read_cache=cache, retention_period=RETENTION)
    stores = [CachedWormStore(block_size=config.block_size) for _ in range(shards + 1)]
    engine = _open(config, shards, stores)
    texts, times = _corpus()
    docs = {}
    for i, (text, commit_time) in enumerate(zip(texts, times)):
        if i == CRASHED:
            for shard in _shards(engine):
                shard.time_index.record_commit = _crash
            with pytest.raises(RuntimeError):
                _commit(engine, text, commit_time)
            engine = _open(config, shards, stores)
            continue
        docs[_commit(engine, text, commit_time)] = (text, commit_time)
    if merge:
        engine.merge_segments()
    for doc_id in engine.dispose_expired(now=RETENTION + times[DISPOSED_THROUGH]):
        del docs[doc_id]
    return engine, docs, times


def _crash(doc_id, commit_time):
    raise RuntimeError("crash before the commit-time record")


def _windows(times):
    repeated = sorted({t for t in times if times.count(t) > 1})
    crashed, disposed = times[CRASHED], times[DISPOSED_THROUGH]
    return [
        (times[0], times[-1]),
        (disposed - 2, crashed + 3),  # a disposed doc and the burned ID
        (crashed, crashed),
        (repeated[1], repeated[-2]),  # both ends on repeated times
        (repeated[2], repeated[2]),
        (repeated[3] + 1, repeated[-1]),
        (times[-1] + 1, times[-1] + 9),  # nothing committed
    ]


def _answers(results):
    return [(r.doc_id, r.score.hex()) for r in results]


@pytest.mark.parametrize("cache", [False, True], ids=["cache-off", "cache-on"])
@pytest.mark.parametrize("shards", [1, 2])
@pytest.mark.parametrize("layout", ["legacy", *LAYOUTS])
def test_time_ranged_answers_match_brute_force(layout, shards, cache):
    engine, docs, times = _build(layout, shards, cache)
    everything = len(docs) + 10
    assert any(shard.documents.has_burned for shard in _shards(engine))
    for lo, hi in _windows(times):
        for words, mode in [
            (["imclone", "waksal"], all),  # the crashed document's terms
            (["waksal", "fax", "stewart"], all),
            (["waksal", "sec"], any),
            (["memo", "trade"], any),
        ]:
            query = " ".join(("+" if mode is all else "") + w for w in words)
            expected = {
                doc_id
                for doc_id, (text, commit_time) in docs.items()
                if lo <= commit_time <= hi and mode(w in text.split() for w in words)
            }
            # Window-free ranking of the same documents is the reference:
            # statistics do not depend on the window.
            reference = [
                answer
                for answer in _answers(engine.search(query, top_k=everything))
                if answer[0] in expected
            ]
            assert {doc_id for doc_id, _ in reference} == expected
            before = [shard.time_index.blocks_scanned for shard in _shards(engine)]
            got = _answers(engine.search(f"{query} @{lo}..{hi}", top_k=everything))
            assert got == reference, (query, lo, hi)
            # Nothing was appended around the writer, so the checked
            # columns answer the window without a read.
            for shard, scanned in zip(_shards(engine), before):
                assert shard.time_index.blocks_scanned - scanned == 0
