#!/usr/bin/env python3
"""A durable compliance archive: one journal file, many sessions.

Everything the engine needs lives in a single append-only journal on the
host filesystem (:class:`repro.worm.persistent.JournaledWormDevice`).  This demo
runs three "sessions" against the same archive file —

1. ingest a first batch of records and close;
2. reopen, search (all state rebuilt from WORM), ingest more, and
   dispose of an expired record with an auditable disposition;
3. corrupt one journal byte on disk and show that reopening detects it.

The same archive is scriptable from the shell::

    repro-search init   --archive records.worm --retention 1000
    repro-search index  --archive records.worm --text "imclone memo"
    repro-search search --archive records.worm "+imclone +stewart"
    repro-search audit  --archive records.worm

Run:  python examples/persistent_archive.py
"""

import os
import tempfile

from repro import EngineConfig, TrustworthySearchEngine
from repro.errors import TamperDetectedError
from repro.worm.persistent import JournaledWormDevice
from repro.worm.storage import CachedWormStore

CONFIG = EngineConfig(
    num_lists=64, branching=8, block_size=1024, retention_period=100
)


def open_engine(path):
    device = JournaledWormDevice(path, block_size=CONFIG.block_size)
    return TrustworthySearchEngine(
        CONFIG, store=CachedWormStore(None, device=device)
    ), device


def session_one(path) -> None:
    print("== session 1: ingest ==")
    engine, device = open_engine(path)
    for commit_time, text in [
        (10, "imclone trading memo for stewart and waksal"),
        (20, "quarterly finance audit for the records committee"),
        (30, "meeting notes about storage retention policy"),
    ]:
        doc_id = engine.index_document(text, commit_time=commit_time)
        print(f"  committed doc {doc_id} at t={commit_time}")
    device.close()
    print(f"  journal size: {os.path.getsize(path)} bytes")


def session_two(path) -> None:
    print("\n== session 2: reopen, search, extend, dispose ==")
    engine, device = open_engine(path)
    hits = engine.search("+imclone +stewart")
    print(f"  '+imclone +stewart' -> docs {[r.doc_id for r in hits]}")
    doc_id = engine.index_document(
        "fresh imclone disclosure filing", commit_time=50
    )
    print(f"  committed doc {doc_id} in the new session")
    disposed = engine.dispose_expired(now=125)  # doc 0 committed at t=10
    print(f"  disposed (past retention horizon): {disposed}")
    print(
        "  disposition record:",
        engine.retention.disposition_for(disposed[0]) if disposed else None,
    )
    hits = engine.search("imclone")
    print(f"  'imclone' now -> docs {[r.doc_id for r in hits]} (doc 0 disposed)")
    device.close()


def session_three(path) -> None:
    print("\n== session 3: Mala edits the journal file on disk ==")
    with open(path, "r+b") as handle:
        handle.seek(os.path.getsize(path) // 2)
        byte = handle.read(1)
        handle.seek(-1, os.SEEK_CUR)
        handle.write(bytes([byte[0] ^ 0xFF]))
    try:
        open_engine(path)
        print("  corruption NOT detected (bad)")
    except TamperDetectedError as exc:
        print(f"  reopen refused: {exc.invariant} — offline tampering exposed")


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "records.worm")
        session_one(path)
        session_two(path)
        session_three(path)


if __name__ == "__main__":
    main()
