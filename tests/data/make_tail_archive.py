"""Writes ``tail_archive_<stem>.worm`` and ``tail_archive_<stem>.json``.

A pair is a fixture of ``tests/search/test_cross_commit_replay.py``: a
small tail-mode archive journal as one commit wrote it, the script of
operations that produced it, and the answers that commit gave.  Each
was run once, against a checkout of its commit, under its stem:

    PYTHONPATH=<checkout>/src python tests/data/make_tail_archive.py pr15

* ``pr15`` — commit 8ff0b9e (PR 15), the last one to journal a sealed
  segment posting by posting.  Every list of every segment is a file.
* ``pr21`` — PR 21, the first whose segments file their short lists in
  one shared file with a directory, under manifest opcodes 3 and 4.
  Code before it refuses this archive (``segment-manifest``).

Run against a later commit the script writes the same answers and,
where that commit changed it, another journal, which is what the tests
prove — do not regenerate a committed pair; add a stem.
"""

import json
import os
import sys

from repro.search.engine import EngineConfig, TrustworthySearchEngine
from repro.worm.persistent import JournaledWormDevice
from repro.worm.storage import CachedWormStore

HERE = os.path.dirname(os.path.abspath(__file__))
CONFIG = dict(
    num_lists=3,
    branching=4,
    block_size=256,
    tail_max_docs=100,
    merge_at_segments=None,
)
WORDS = "audit memo ledger trade waksal imclone filing quarter".split()
QUERIES = [
    "audit ledger",
    "memo trade waksal",
    "+memo +trade",
    "+imclone +waksal +filing",
    "quarter @3..14",
    "record9",
    "nonexistentterm",
]


def script():
    """Three seals, a merge of them, a fourth seal, two tail documents."""
    steps = []
    for i in range(18):
        words = [WORDS[(i * step) % len(WORDS)] for step in (1, 3, 5)]
        steps.append(["index", " ".join(words) + f" record{i}"])
        if i in (3, 7, 11, 15):
            steps.append(["seal"])
        if i == 11:
            steps.append(["merge"])
    return steps


def run(engine, steps):
    for step in steps:
        if step[0] == "index":
            engine.index_document(step[1])
        elif step[0] == "seal":
            engine.seal_tail()
        else:
            engine.merge_segments()


def answers(engine):
    return {
        query: [[r.doc_id, r.score] for r in engine.search(query, top_k=20)]
        for query in QUERIES
    }


def main(stem):
    path = os.path.join(HERE, f"tail_archive_{stem}.worm")
    if os.path.exists(path):
        os.remove(path)
    device = JournaledWormDevice(path, block_size=CONFIG["block_size"])
    engine = TrustworthySearchEngine(
        EngineConfig(**CONFIG), store=CachedWormStore(None, device=device)
    )
    steps = script()
    run(engine, steps)
    recorded = {
        "config": CONFIG,
        "script": steps,
        "answers": answers(engine),
        "segments": [s["seg_no"] for s in engine.segments_info()["segments"]],
        "segment_table": engine.segments_info()["segments"],
        "journal_records": device.records,
    }
    device.close()
    with open(os.path.join(HERE, f"tail_archive_{stem}.json"), "w") as handle:
        json.dump(recorded, handle, indent=1)
        handle.write("\n")


if __name__ == "__main__":
    main(*sys.argv[1:])
