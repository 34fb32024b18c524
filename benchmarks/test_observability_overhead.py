"""OBS-OVERHEAD — instrumentation cost on the sharded query path.

Not a paper figure: this benchmark bounds the price of the observability
layer.  The same archive is queried twice — once with the default
:class:`~repro.observability.metrics.MetricsRegistry` (every stage
histogram, seek/block counter, and shard latency series live) and once
with a :class:`~repro.observability.metrics.NullMetricsRegistry`
(instrumentation compiled out via the ``_metrics_on`` guards).  Both
configurations run the identical query list, interleaved round by round
so ambient machine noise hits them symmetrically, and each is scored by
its best (minimum) round — the standard estimator for "the code's cost
without the scheduler's".

The report is wall-clock and therefore compared for presence only by
``check_expectations.py``; the enforced claim is the assertion at the
bottom: metered must stay within ``MAX_OVERHEAD`` of unmetered.
"""

from time import perf_counter

from conftest import once

from repro.observability.metrics import NullMetricsRegistry
from repro.search.engine import EngineConfig
from repro.sharding.engine import ShardedSearchEngine
from repro.simulate.report import format_table

MAX_DOCS = 600
NUM_QUERIES = 16
NUM_SHARDS = 2
ROUNDS = 7
REPEATS = 3  # query-list repetitions inside one timed round
TOP_K = 10
MAX_OVERHEAD = 0.05
CONFIG = EngineConfig(num_lists=64, block_size=4096)


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


def _build(texts, metrics=None):
    engine = ShardedSearchEngine(CONFIG, num_shards=NUM_SHARDS, metrics=metrics)
    engine.index_batch(texts)
    return engine


def _round_seconds(engine, queries):
    start = perf_counter()
    for _ in range(REPEATS):
        for query in queries:
            engine.search(query, top_k=TOP_K)
    return perf_counter() - start


def test_observability_overhead(benchmark, workload, emit):
    texts = _texts(workload)
    queries = _queries(workload)

    def run():
        metered = _build(texts)
        unmetered = _build(texts, metrics=NullMetricsRegistry())
        # results must agree — the null registry changes cost, not answers
        for query in queries:
            assert [r.doc_id for r in metered.search(query, top_k=TOP_K)] == [
                r.doc_id for r in unmetered.search(query, top_k=TOP_K)
            ]
        metered_rounds = []
        unmetered_rounds = []
        for _ in range(ROUNDS):
            metered_rounds.append(_round_seconds(metered, queries))
            unmetered_rounds.append(_round_seconds(unmetered, queries))
        metered.close()
        unmetered.close()
        best_metered = min(metered_rounds)
        best_unmetered = min(unmetered_rounds)
        overhead = best_metered / best_unmetered - 1.0
        families = len(metered.metrics.families())
        return best_metered, best_unmetered, overhead, families

    best_metered, best_unmetered, overhead, families = once(benchmark, run)

    queries_per_round = NUM_QUERIES * REPEATS
    rows = [
        (
            "metered",
            families,
            f"{best_metered * 1e3:.2f}",
            f"{best_metered / queries_per_round * 1e6:.1f}",
        ),
        (
            "unmetered",
            0,
            f"{best_unmetered * 1e3:.2f}",
            f"{best_unmetered / queries_per_round * 1e6:.1f}",
        ),
    ]
    table = format_table(
        ("registry", "families", "best round (ms)", "per query (us)"), rows
    )
    emit(
        "OBS-OVERHEAD",
        table
        + f"\nmeasured overhead: {overhead * 100:+.2f}%"
        + f" (bound: <{MAX_OVERHEAD * 100:.0f}%)",
    )

    assert overhead < MAX_OVERHEAD, (
        f"observability overhead {overhead * 100:.2f}% exceeds the "
        f"{MAX_OVERHEAD * 100:.0f}% budget "
        f"(metered {best_metered * 1e3:.2f} ms vs "
        f"unmetered {best_unmetered * 1e3:.2f} ms per round)"
    )
