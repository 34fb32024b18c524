"""READ-CACHE — hot-query speedup from the read-path cache.

Not a paper figure: this benchmark prices the session read cache on the
workload it is built for — a Zipf-skewed query stream where a few hot
queries dominate.  The same archive is queried with the cache off and
with it on; both run the identical request stream, interleaved round by
round so machine noise hits them symmetrically, and each is scored by
its best (minimum) round.

The report is wall-clock and therefore compared for presence only by
``check_expectations.py``; the enforced claim is the assertion at the
bottom: the cached engine must answer the hot stream at least
``MIN_SPEEDUP`` times faster than the uncached one while returning
identical results.
"""

from dataclasses import replace
from time import perf_counter

from conftest import once

from repro.search.engine import EngineConfig, TrustworthySearchEngine
from repro.simulate.report import format_table

MAX_DOCS = 600
NUM_QUERIES = 12
ROUNDS = 7
HOT_WEIGHT = 24  # stream length contributed by the hottest query
TOP_K = 10
MIN_SPEEDUP = 2.0
BASE_CONFIG = EngineConfig(num_lists=64, block_size=4096, branching=None)


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


def _hot_stream(workload):
    """A Zipf-skewed request stream: query at rank r repeats ~1/r.

    The stream is multi-term conjunctive queries — the expensive
    retrieval shape (full join over every term's list, small result set)
    that a hot-query cache pays for.  Ranking always re-runs on cache
    hits, so highly selective queries show the retrieval saving cleanly.
    """
    picked = [q for q in workload.queries if 2 <= q.num_terms <= 3]
    queries = [
        " ".join(f"+t{tid}" for tid in q.term_ids)
        for q in picked[:NUM_QUERIES]
    ]
    stream = []
    for rank, query in enumerate(queries):
        stream.extend([query] * max(1, HOT_WEIGHT // (rank + 1)))
    return queries, stream


def _build(texts, read_cache):
    engine = TrustworthySearchEngine(replace(BASE_CONFIG, read_cache=read_cache))
    engine.index_batch(texts)
    return engine


def _round_seconds(engine, stream):
    start = perf_counter()
    for query in stream:
        engine.search(query, top_k=TOP_K)
    return perf_counter() - start


def test_read_cache_speedup(benchmark, workload, emit):
    texts = _texts(workload)
    queries, stream = _hot_stream(workload)

    def run():
        uncached = _build(texts, False)
        cached = _build(texts, True)
        # results must agree — the cache changes cost, never answers
        for query in queries:
            expected = [
                (r.doc_id, r.score)
                for r in uncached.search(query, top_k=TOP_K)
            ]
            got = [
                (r.doc_id, r.score) for r in cached.search(query, top_k=TOP_K)
            ]
            assert got == expected, f"the cache changed the answer to {query!r}"
        rounds = {"off": [], "on": []}
        for _ in range(ROUNDS):
            rounds["off"].append(_round_seconds(uncached, stream))
            rounds["on"].append(_round_seconds(cached, stream))
        best = {name: min(times) for name, times in rounds.items()}
        return best, cached.read_cache_stats()["results"]["hit_rate"]

    best, hit_rate = once(benchmark, run)

    speedup = best["off"] / best["on"]
    table = format_table(
        ("cache", "best round (ms)", "speedup", "result hit rate"),
        [
            ("off", f"{best['off'] * 1e3:.2f}", "1.00x", "-"),
            (
                "on",
                f"{best['on'] * 1e3:.2f}",
                f"{speedup:.2f}x",
                f"{hit_rate * 100:.1f}%",
            ),
        ],
    )
    emit(
        "READ-CACHE",
        table
        + f"\nstream: {len(stream)} requests over {NUM_QUERIES} distinct "
        f"queries (Zipf), {MAX_DOCS}-doc archive"
        + f"\nrequired speedup: >={MIN_SPEEDUP:.0f}x",
    )

    assert speedup >= MIN_SPEEDUP, (
        f"{speedup:.2f}x speedup is below the {MIN_SPEEDUP:.0f}x floor "
        f"(cached {best['on'] * 1e3:.2f} ms vs "
        f"uncached {best['off'] * 1e3:.2f} ms per round)"
    )
