"""SHARD-SCALING — query fan-out and batched-ingest work across shards.

Not a paper figure: this benchmark characterizes the sharding layer the
way the paper characterizes everything else — in device I/O counts and
posting entries scanned, which are deterministic.  A query visits its
shards one after another in the caller's thread, so the entries it
scans in total are what it waits for.

Reported series:

* **query scaling** — for K in {1, 2, 4}: total posting entries scanned
  over the query sample.
* **ingest batching** — for a bounded block cache: device writes+reads
  of one-document-at-a-time ingest vs batched ingest on the same K=4
  archive.  Batching groups tail-block appends per merged list, so it
  can only reduce churn.

Also cross-checks, per query, that every K returns exactly the K=1
result set (the equivalence property, asserted here on the benchmark
workload itself).
"""

from conftest import once

from repro.search.engine import EngineConfig
from repro.search.profiling import profile_sharded_query
from repro.sharding.engine import ShardedSearchEngine
from repro.simulate.report import format_table
from repro.worm.storage import CachedWormStore

SHARD_COUNTS = (1, 2, 4)
MAX_DOCS = 2_000
NUM_QUERIES = 24
TOP_K = 10
CONFIG = EngineConfig(num_lists=64, block_size=4096, branching=None)
#: Storage-cache capacity of each shard in the batched-ingest comparison.
BOUNDED_CACHE = 8


def _bounded_store(_shard_id: int) -> CachedWormStore:
    return CachedWormStore(BOUNDED_CACHE, block_size=CONFIG.block_size)


def _texts(workload):
    docs = workload.documents[:MAX_DOCS]
    return [
        " ".join(
            f"t{tid}"
            for tid, count in zip(doc.term_ids, doc.term_counts)
            for _ in range(count)
        )
        for doc in docs
    ]


def _queries(workload):
    picked = [q for q in workload.queries if 1 <= q.num_terms <= 3]
    return [
        " ".join(f"t{tid}" for tid in q.term_ids)
        for q in picked[:NUM_QUERIES]
    ]


def test_sharded_query_scaling(benchmark, workload, emit):
    texts = _texts(workload)
    queries = _queries(workload)

    def run():
        rows = []
        baseline = None
        for num_shards in SHARD_COUNTS:
            engine = ShardedSearchEngine(CONFIG, num_shards=num_shards)
            with engine:
                engine.index_batch(texts)
                total = 0
                results = []
                for query in queries:
                    total += profile_sharded_query(engine, query).total_entries_scanned
                    results.append(
                        frozenset(
                            r.doc_id
                            for r in engine.search(query, top_k=TOP_K)
                        )
                    )
                if baseline is None:
                    baseline = results
                rows.append(
                    {
                        "shards": num_shards,
                        "total_entries": total,
                        "matches_single_shard": results == baseline,
                    }
                )
        return rows

    rows = once(benchmark, run)
    emit(
        "SHARD-SCALING",
        format_table(
            ["shards", "entries total"],
            [(r["shards"], r["total_entries"]) for r in rows],
            title=(
                f"Sharded query scaling ({len(texts)} docs, "
                f"{len(queries)} queries, {CONFIG.num_lists} merged lists)"
            ),
        ),
    )
    by_shards = {r["shards"]: r for r in rows}
    # Every K answers exactly like the single engine.
    assert all(r["matches_single_shard"] for r in rows)
    # Fan-out work stays in the same ballpark: each shard hashes its own
    # term IDs into merged lists, so list composition (and hence entries
    # scanned) shifts a little with K, but sharding must not inflate the
    # aggregate scan materially.
    assert (
        by_shards[4]["total_entries"]
        <= 1.5 * by_shards[1]["total_entries"]
    )


def test_batched_ingest_io(benchmark, workload, emit):
    texts = _texts(workload)

    def run():
        unbatched = ShardedSearchEngine(CONFIG, num_shards=4, store_factory=_bounded_store)
        with unbatched:
            for text in texts:
                unbatched.index_document(text)
            one_by_one = {
                "writes": sum(
                    s.store.io.block_writes for s in unbatched.shards
                ),
                "reads": sum(
                    s.store.io.block_reads for s in unbatched.shards
                ),
            }
        batched = ShardedSearchEngine(CONFIG, num_shards=4, store_factory=_bounded_store)
        with batched:
            for start in range(0, len(texts), 128):
                batched.index_batch(texts[start:start + 128])
            grouped = {
                "writes": sum(
                    s.store.io.block_writes for s in batched.shards
                ),
                "reads": sum(
                    s.store.io.block_reads for s in batched.shards
                ),
            }
        return one_by_one, grouped

    one_by_one, grouped = once(benchmark, run)
    emit(
        "SHARD-INGEST",
        format_table(
            ["ingest mode", "block writes", "block reads"],
            [
                ("one document at a time", one_by_one["writes"],
                 one_by_one["reads"]),
                ("batched (128/batch)", grouped["writes"],
                 grouped["reads"]),
            ],
            title=(
                f"Batched vs unbatched ingest I/O ({len(texts)} docs, "
                f"4 shards, {BOUNDED_CACHE}-block cache)"
            ),
        ),
    )
    # Batching groups consecutive appends per merged list's tail block,
    # so under a bounded cache it never costs more I/O — and the same
    # counting rules apply (Figure 2 / 8(b) semantics preserved).
    assert grouped["writes"] <= one_by_one["writes"]
    assert grouped["reads"] <= one_by_one["reads"]
