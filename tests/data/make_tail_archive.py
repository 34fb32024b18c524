"""Writes ``tail_archive_pr15.worm`` and ``tail_archive_pr15.json``.

The pair is a fixture of ``tests/search/test_cross_commit_replay.py``: a
small tail-mode archive journal as commit 8ff0b9e (PR 15, the last one
to journal a sealed segment posting by posting) wrote it, the script of
operations that produced it, and the answers that commit gave.  It was
run once, against a checkout of that commit:

    PYTHONPATH=<checkout of 8ff0b9e>/src python tests/data/make_tail_archive.py

Run against any later commit it writes the same device state under
different record boundaries, which is what the test proves — do not
regenerate the committed files.
"""

import json
import os

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


def main():
    path = os.path.join(HERE, "tail_archive_pr15.worm")
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
        "journal_records": device.records,
    }
    device.close()
    with open(os.path.join(HERE, "tail_archive_pr15.json"), "w") as handle:
        json.dump(recorded, handle, indent=1)
        handle.write("\n")


if __name__ == "__main__":
    main()
