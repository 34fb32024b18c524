"""Process-level shard fan-out: equivalence with the thread executor.

The process executor must be a drop-in replacement for the thread
executor over the same committed state: same results, same scores, same
aggregated-statistics arithmetic.  Workers reopen the shard journals in
their own interpreters, so these tests build small file-backed archives
through :func:`repro.cli.open_archive`.
"""

import pytest

from repro.cli import open_archive
from repro.errors import ReproError
from repro.search.engine import EngineConfig

DOCS = [
    "regulatory compliant record retention policy",
    "keyword search over worm storage devices",
    "trustworthy record keeping for compliance audits",
    "fast posting decode and bulk scoring",
    "the quick brown fox jumped over the records",
    "retention horizon disposal of expired records",
    "compliance officers search retention records",
    "storage device firmware enforces write once",
]

QUERIES = [
    "record retention",
    "compliance",
    "storage device",
    "+retention +records",
    "search keyword storage",
]


@pytest.fixture
def archive(tmp_path):
    """A 3-shard file-backed archive with committed documents."""
    path = str(tmp_path / "archive.worm")
    engine, handle = open_archive(
        path,
        create=EngineConfig(num_lists=32, block_size=4096, branching=None),
        shards=3,
    )
    engine.index_batch(DOCS * 3)
    handle.close()
    return path


class TestEquivalence:
    def test_process_results_equal_thread_results(self, archive):
        thread_engine, thread_handle = open_archive(archive)
        process_engine, process_handle = open_archive(archive, executor="process")
        try:
            assert process_engine.executor_kind == "process"
            for query in QUERIES:
                expected = thread_engine.search(query, top_k=10)
                actual = process_engine.search(query, top_k=10)
                assert actual == expected, query
        finally:
            thread_handle.close()
            process_handle.close()

    def test_aggregate_stats_match(self, archive):
        thread_engine, thread_handle = open_archive(archive)
        process_engine, process_handle = open_archive(archive, executor="process")
        try:
            terms = ("retention", "records", "unseen-term")
            expected = thread_engine.executor.aggregate_term_stats(terms)
            actual = process_engine.executor.aggregate_term_stats(terms)
            assert actual == expected
        finally:
            thread_handle.close()
            process_handle.close()

    def test_verification_runs_on_process_results(self, archive):
        engine, handle = open_archive(archive, executor="process")
        try:
            results = engine.search("retention records", top_k=5, verify=True)
            assert results
        finally:
            handle.close()


class TestSnapshotSemantics:
    """Workers replay their journals at spawn; the engine marks them
    stale on every mutation, so no committed document is omitted."""

    def test_refresh_picks_up_new_commits(self, archive):
        engine, handle = open_archive(archive, executor="process")
        try:
            assert engine.search("zanzibar", top_k=5) == []  # spawns workers
            (doc_id,) = engine.index_batch(["zanzibar retention zanzibar"])
            assert [r.doc_id for r in engine.search("zanzibar", top_k=5)] == [
                doc_id
            ]
            # ... and the answers are the thread executor's, to the score.
            thread_engine, thread_handle = open_archive(archive)
            try:
                for query in QUERIES + ["zanzibar"]:
                    assert engine.search(query) == thread_engine.search(query)
            finally:
                thread_handle.close()
        finally:
            handle.close()

    def test_dispositions_reach_the_workers(self, tmp_path):
        path = str(tmp_path / "retained.worm")
        engine, handle = open_archive(
            path,
            create=EngineConfig(
                num_lists=32, block_size=4096, branching=None, retention_period=5
            ),
            shards=2,
            executor="process",
        )
        try:
            engine.index_batch(DOCS)
            assert engine.search("retention")  # spawns workers
            disposed = engine.dispose_expired(now=1000)
            assert len(disposed) == len(DOCS)
            assert engine.search("retention") == []
        finally:
            handle.close()


class TestGuards:
    def test_single_shard_archive_rejected(self, tmp_path):
        path = str(tmp_path / "single.worm")
        _engine, handle = open_archive(
            path,
            create=EngineConfig(num_lists=16, block_size=4096, branching=None),
            shards=1,
        )
        handle.close()
        with pytest.raises(ReproError, match="sharded archive"):
            open_archive(path, executor="process")
