"""Concurrent verified searches on a stuffed archive.

``/search`` with ``verify`` runs under the service's *reader* lock, yet
the incident handling it triggers appends to the archive's incident log:
the one WORM append on the read path.  The log takes its sequence number
and appends under a lock of its own, and each engine creates the log
once however many searches ask for it together, so the journal stays
replayable after any number of racing verified searches.
"""

import threading
import time

import pytest

from repro.adversary.attacks import posting_stuffing_attack
from repro.cli import _shard_path, open_archive
from repro.search.engine import EngineConfig
from repro.service.server import ArchiveService
from repro.sharding.engine import ShardedSearchEngine
from repro.worm.persistent import scan_journal
from repro.worm.storage import CachedWormStore

THREADS, ROUNDS = 4, 10


def stuff(engine):
    """Append fabricated IDs 1000–1039 to "imclone"'s list (on the first
    shard that has it)."""
    index = engine
    if isinstance(engine, ShardedSearchEngine):
        index = next(s for s in engine.shards if s.term_id("imclone") is not None)
    posting_list, _ = index.posting_list_for("imclone")
    posting_stuffing_attack(
        posting_list, index.term_id("imclone"), count=40, first_fake_doc_id=1000
    )


def widen_the_incident_log_windows(monkeypatch):
    """Yield the interpreter inside the incident log's creation and its
    appends, so that an unlocked read-then-write there interleaves."""
    for name in ("ensure_file", "append_record"):
        original = getattr(CachedWormStore, name)

        def slowed(self, file_name, *args, _original=original, **kwargs):
            if file_name.endswith("incidents"):
                time.sleep(0.001)
            return _original(self, file_name, *args, **kwargs)

        monkeypatch.setattr(CachedWormStore, name, slowed)


@pytest.mark.parametrize("shards", [1, 2])
def test_racing_verified_searches_keep_the_journal_whole(tmp_path, monkeypatch, shards):
    path = str(tmp_path / "records.worm")
    engine, handle = open_archive(path, create=EngineConfig(num_lists=16), shards=shards)
    engine.index_batch([f"imclone memo {i}" for i in range(20)])
    stuff(engine)
    handle.close()

    engine, handle = open_archive(path)
    service = ArchiveService(engine)
    widen_the_incident_log_windows(monkeypatch)
    barrier = threading.Barrier(THREADS, timeout=30)
    errors = []

    def client():
        try:
            barrier.wait()
            for _ in range(ROUNDS):
                service.handle_search({"query": "imclone", "top_k": 5, "verify": True})
        except Exception as exc:  # noqa: BLE001 - the test reports any
            errors.append(exc)

    threads = [threading.Thread(target=client) for _ in range(THREADS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in threads)
    recorded = len(engine.incidents)
    handle.close()

    assert errors == []
    assert recorded > 0
    # One shard is one journal; K shards are a coordinator and K more.
    shard_journals = [_shard_path(path, i) for i in range(shards)] if shards > 1 else []
    for journal in [path, *shard_journals]:
        report = scan_journal(journal)
        assert report.ok and not report.torn_bytes, report.summary()
    engine, handle = open_archive(path)
    try:
        assert len(engine.incidents) == recorded
    finally:
        handle.close()
