"""Executor lifecycle: close is idempotent, reuse-after-close errors,
and a search starts no thread.

The executor visits the shards in the caller's thread.  Closing it only
marks it released: its owner's queries then raise instead of running
against journals the owner may already have closed.
"""

import sys
import threading

import pytest

from repro.errors import WorkloadError
from repro.search.engine import EngineConfig
from repro.sharding.engine import ShardedSearchEngine

CONFIG = EngineConfig(num_lists=16, block_size=4096, branching=None)


@pytest.fixture
def sharded():
    engine = ShardedSearchEngine(CONFIG, num_shards=2)
    engine.index_batch(["alpha beta", "beta gamma", "gamma alpha"])
    yield engine
    engine.close()


class TestThreadExecutorLifecycle:
    def test_close_is_idempotent(self, sharded):
        sharded.executor.close()
        sharded.executor.close()
        assert sharded.executor.closed

    def test_search_after_close_raises(self, sharded):
        assert sharded.search("beta", top_k=5)
        sharded.close()
        with pytest.raises(WorkloadError, match="closed"):
            sharded.search("beta", top_k=5)

    def test_engine_context_manager_closes_executor(self):
        with ShardedSearchEngine(CONFIG, num_shards=2) as engine:
            engine.index_batch(["alpha beta"])
        assert engine.executor.closed

    def test_search_starts_no_thread(self):
        with ShardedSearchEngine(CONFIG, num_shards=3) as engine:
            engine.index_batch([f"alpha memo number{i}" for i in range(12)])
            before = set(threading.enumerate())
            assert len(engine.search("alpha", top_k=20)) == 12
            after = set(threading.enumerate())
        assert after == before
        assert not [t.name for t in after if t.name.startswith("shard-query")]


def _mixed_queries(count: int):
    """ANY, ALL and time-ranged queries over the corpus of
    :func:`test_concurrent_callers_get_the_single_threaded_answers`."""
    queries = []
    for i in range(count):
        a, b = f"topic{i % 7}", f"group{i % 5}"
        kind = i % 4
        if kind == 0:
            queries.append(f"{a} {b} shared")
        elif kind == 1:
            queries.append(f"+{a} +{b}")
        elif kind == 2:
            queries.append(f"{a} shared @{i % 50}..{i % 50 + 120}")
        else:
            queries.append(f"+shared +{b} @{i % 90}..{i % 90 + 60}")
    return queries


def test_concurrent_callers_get_the_single_threaded_answers():
    """Callers share no pool: they meet only in the shard engines, and
    each gets the bits a lone caller gets."""
    queries = _mixed_queries(200)

    def answers(engine):
        return [
            [(hit.doc_id, hit.score.hex()) for hit in engine.search(query, top_k=10)]
            for query in queries
        ]

    with ShardedSearchEngine(CONFIG, num_shards=3) as engine:
        engine.index_batch(
            [f"shared topic{i % 7} group{i % 5} serial{i}" for i in range(210)]
        )
        expected = answers(engine)
        assert sum(1 for hits in expected if hits) > 150
        got = [None] * 8

        def caller(slot):
            got[slot] = answers(engine)

        threads = [threading.Thread(target=caller, args=(slot,)) for slot in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
    assert all(result == expected for result in got)
