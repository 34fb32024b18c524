"""Writes ``sharded_archive_<stem>.worm`` and ``sharded_archive_<stem>.json``.

A fixture of ``tests/sharding/test_sharded_engine.py``: a small 2-shard
legacy archive as one commit wrote it — the coordinator journal
``sharded_archive_<stem>.worm`` and the shard journals beside it,
``….worm.shard00`` and ``….worm.shard01`` — with each global ID's
``(shard, local)`` placement and the answers that commit gave, scores
as ``float.hex()``.  It was run once, against a checkout of its commit,
under its stem:

    PYTHONPATH=<checkout>/src python tests/data/make_sharded_archive.py docmap

* ``docmap`` — commit c5c5966, the last one whose coordinator stores a
  document map (``shard/doc-map``, one record per document).  Later
  code derives the mapping from the shards and does not read the map.

Run against a later commit the script writes the same placement and
answers, which is what the test proves — do not regenerate a committed
set; add a stem.
"""

import json
import os
import sys

from repro.cli import open_archive
from repro.search.engine import EngineConfig

HERE = os.path.dirname(os.path.abspath(__file__))
CONFIG = dict(num_lists=4, branching=4)
WORDS = "audit memo ledger trade waksal imclone filing quarter".split()
QUERIES = [
    "audit ledger",
    "memo trade waksal",
    "+memo +trade",
    "+imclone +filing",
    "quarter @5..20",
    "record17",
]


def texts():
    """Thirty documents, ingested as batches of seven."""
    return [
        " ".join(WORDS[(i * step) % len(WORDS)] for step in (1, 3, 5)) + f" record{i}"
        for i in range(30)
    ]


def answers(engine):
    return {
        query: [[r.doc_id, r.score.hex()] for r in engine.search(query, top_k=40)]
        for query in QUERIES
    }


def placement(engine):
    return [list(engine.router.to_local(g)) for g in range(len(engine.documents))]


def main(stem):
    path = os.path.join(HERE, f"sharded_archive_{stem}.worm")
    for name in (path, f"{path}.shard00", f"{path}.shard01"):
        if os.path.exists(name):
            os.remove(name)
    engine, handle = open_archive(path, create=EngineConfig(**CONFIG), shards=2)
    batch = texts()
    for start in range(0, len(batch), 7):
        engine.index_batch(batch[start : start + 7])
    recorded = {
        "config": CONFIG,
        "texts": batch,
        "placement": placement(engine),
        "answers": answers(engine),
    }
    handle.close()
    with open(os.path.join(HERE, f"sharded_archive_{stem}.json"), "w") as out:
        json.dump(recorded, out, indent=1)
        out.write("\n")


if __name__ == "__main__":
    main(*sys.argv[1:])
