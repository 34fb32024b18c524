"""Writes ``ranked_answers_term_order.json``.

The file is the fixture of ``tests/search/test_ranked_answers.py``: a
seeded corpus, the variants it is indexed under (legacy merged lists and
tail mode under each seal strategy, one and two shards, BM25 and
cosine), and the ranked answers — document IDs and ``float.hex()``
scores — given to a fixed query list once every path summed a score's
terms in ascending term-ID order:

    PYTHONPATH=src python tests/data/make_ranked_answers.py

Every variant is answered three ways — through the sharded engine with
the read cache off, with it on (every query twice, so the second answer
is a result-cache hit), and, with one shard, through the plain engine —
and the script refuses to write unless all agree, so one recorded
answer per variant and query is the whole truth.  A float's last bit
depends on the order its terms were added in, which is what the test
holds later commits to — do not regenerate the committed file.

``ranked_answers_pr16.json`` is the same script's output at commit
d18acd0, the last to carry candidates as a dict of dicts, when each
layout summed in the order its scan met the terms.
"""

import json
import os
import random

from repro.search.engine import EngineConfig, TrustworthySearchEngine
from repro.sharding import ShardedSearchEngine

HERE = os.path.dirname(os.path.abspath(__file__))
TOP_K = 12
BATCH_DOCS = 8
RETENTION = 1000
BASE = dict(num_lists=6, branching=4, block_size=512, retention_period=RETENTION)
TAIL = dict(tail_max_docs=16, merge_at_segments=4, seal_popular_terms=3)
VARIANTS = {
    f"{layout}/{shards}-shard/{ranking}": dict(
        config=dict(BASE, ranking=ranking, **extra), shards=shards
    )
    for layout, extra in (
        ("legacy", {}),
        ("tail-uniform", dict(TAIL, seal_strategy="uniform")),
        ("tail-popular", dict(TAIL, seal_strategy="popular")),
        ("tail-epoch", dict(TAIL, seal_strategy="epoch")),
    )
    for shards in (1, 2)
    for ranking in ("bm25", "cosine")
    if ranking == "bm25" or (layout, shards) in (("legacy", 1), ("tail-popular", 2))
}
WORDS = (
    "audit memo ledger trade waksal imclone filing quarter revenue finance "
    "stewart archive retention storage meeting notes status project drug "
    "november"
).split()
QUERIES = [
    "audit",
    "memo trade",
    "audit memo ledger",
    "trade waksal imclone filing",
    "audit memo ledger trade waksal",
    "quarter revenue finance stewart november",
    "+audit +memo",
    "+trade +ledger +audit",
    "+quarter +nonexistentterm",
    "ledger filing @20..70",
    "+audit +memo @10..95",
    "memo @500..600",
    "record17",
    "nonexistentterm audit",
]
#: Run between ingest batches: the "epoch" strategy lays the next segment
#: out from the queries the last epoch saw.
WARM_QUERIES = ["audit memo", "+trade +ledger", "waksal"]
#: Asked again once the first documents are past retention and disposed.
AFTER_DISPOSAL = ["audit memo ledger", "+audit +memo", "ledger filing @0..40"]
DISPOSE_AT = RETENTION + 9


def corpus():
    """110 short documents, Zipf-ish over WORDS, with repeated words."""
    rng = random.Random(16)
    weights = [1.0 / (rank + 1) for rank in range(len(WORDS))]
    documents = []
    for i in range(110):
        words = rng.choices(WORDS, weights, k=rng.randint(3, 14))
        documents.append(" ".join(words) + f" record{i}")
    return documents


def build(engine, documents):
    for at in range(0, len(documents), BATCH_DOCS):
        engine.index_batch(documents[at : at + BATCH_DOCS])
        for query in WARM_QUERIES:
            engine.search(query)
    return engine


def ranked(engine, query):
    return [[r.doc_id, r.score.hex()] for r in engine.search(query, top_k=TOP_K)]


def answers(engine, *, repeat=False):
    """Every query's ranked answer; with ``repeat``, asked twice and
    required to agree (the second may be served by the result cache)."""

    def ask(query):
        answer = ranked(engine, query)
        if repeat and ranked(engine, query) != answer:
            raise AssertionError(f"{query!r} changed when asked again")
        return answer

    recorded = {query: ask(query) for query in QUERIES}
    engine.dispose_expired(now=DISPOSE_AT)
    recorded.update({f"{query} (after disposal)": ask(query) for query in AFTER_DISPOSAL})
    return recorded


def all_ways(variant, documents):
    """``(label, answers)`` for every way the variant can be asked."""
    config, shards = variant["config"], variant["shards"]
    for read_cache in (False, True):
        engine = ShardedSearchEngine(
            EngineConfig(read_cache=read_cache, **config), num_shards=shards
        )
        with engine:
            build(engine, documents)
            yield f"sharded, read_cache={read_cache}", answers(engine, repeat=read_cache)
    if shards == 1:
        engine = TrustworthySearchEngine(EngineConfig(**config))
        yield "plain engine", answers(build(engine, documents))


def main():
    documents = corpus()
    recorded = {}
    for name, variant in VARIANTS.items():
        ways = list(all_ways(variant, documents))
        for label, answer in ways[1:]:
            if answer != ways[0][1]:
                raise SystemExit(f"{name}: {label} disagrees with {ways[0][0]}")
        recorded[name] = ways[0][1]
    with open(os.path.join(HERE, "ranked_answers_term_order.json"), "w") as handle:
        json.dump(
            {"documents": documents, "variants": VARIANTS, "answers": recorded},
            handle,
            indent=None,
            separators=(",", ":"),
        )
        handle.write("\n")


if __name__ == "__main__":
    main()
