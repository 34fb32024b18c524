"""VEC-* — the vectorized read path priced against its scalar ancestors.

Not a paper figure: these benchmarks gate the PR-8 hot-path rework the
way READ-CACHE gates the cache hierarchy — wall-clock reports are
compared for presence only, and the enforced claims are the in-test
floors at the bottom of each benchmark.

* **VEC-DECODE** — columnar posting-block decode
  (:func:`repro.core.vecdecode.decode_columns`) vs the scalar
  per-posting ``struct`` loop, on block-sized payloads.  The column
  path reinterprets the whole region in one C-level pass instead of
  allocating one ``Posting`` per entry.
* **VEC-SCORE** — column BM25 scoring
  (:meth:`~repro.search.ranking.BM25Scorer.score_columns`, one array
  operation per query term over the whole candidate set) vs the
  per-document ``score()`` loop on the same candidates, asserting
  identical floats first.
* **VEC-SHARD-SCALING** — single-query latency of the thread executor
  vs the process executor on a 4-shard file-backed archive with
  CPU-heavy queries.  Threads serialize matching and scoring behind
  the GIL; processes pay pickling instead.  The floor only applies on
  machines with >= 4 CPUs, and is deliberately lenient — the claim is
  "process fan-out is competitive and scales", not a fixed ratio.

All three are wall-clock and land in ``NONDETERMINISTIC`` in
``check_expectations.py``.
"""

import os
import tempfile
from time import perf_counter

import numpy as np
from conftest import once

from repro.core.posting import decode_postings, encode_posting
from repro.core.vecdecode import decode_columns
from repro.search.engine import Candidates
from repro.search.ranking import BM25Scorer, CollectionStats
from repro.simulate.report import format_table

DECODE_BLOCK_POSTINGS = 512  # a 4 KiB block of 8-byte postings
DECODE_BLOCKS = 200
DECODE_ROUNDS = 9
MIN_DECODE_SPEEDUP = 2.0

SCORE_DOCS = 4_000
SCORE_TERMS = 3
SCORE_ROUNDS = 9
MIN_SCORE_SPEEDUP = 10.0

SHARDS = 4
SHARD_DOCS = 1_200
SHARD_ROUNDS = 5
SHARD_QUERIES_PER_ROUND = 6
# Process fan-out must stay within this factor of the thread executor
# on >=4 CPUs (it should usually win; the lenient bound absorbs CI
# machine noise without letting a real regression through).
MAX_PROCESS_OVER_THREAD = 1.25


# ----------------------------------------------------------------------
# VEC-DECODE
# ----------------------------------------------------------------------
def _payloads():
    payloads = []
    doc = 0
    for block in range(DECODE_BLOCKS):
        chunk = []
        for i in range(DECODE_BLOCK_POSTINGS):
            doc += (i * 7 + block) % 3
            chunk.append(encode_posting(doc, (i * 13 + block) % 4096))
        payloads.append(b"".join(chunk))
    return payloads


def _scalar_decode_round(payloads):
    start = perf_counter()
    total = 0
    for payload in payloads:
        for posting in decode_postings(payload):
            total += posting.doc_id
    return perf_counter() - start, total


def _column_decode_round(payloads):
    start = perf_counter()
    total = 0
    for payload in payloads:
        doc_ids, _term_codes = decode_columns(payload)
        total += sum(doc_ids)
    return perf_counter() - start, total


def test_vectorized_decode(benchmark, emit):
    payloads = _payloads()

    def run():
        scalar_best = float("inf")
        column_best = float("inf")
        for _ in range(DECODE_ROUNDS):
            scalar_seconds, scalar_sum = _scalar_decode_round(payloads)
            column_seconds, column_sum = _column_decode_round(payloads)
            assert scalar_sum == column_sum  # identical decode
            scalar_best = min(scalar_best, scalar_seconds)
            column_best = min(column_best, column_seconds)
        return scalar_best, column_best

    scalar_best, column_best = once(benchmark, run)
    speedup = scalar_best / column_best
    postings = DECODE_BLOCKS * DECODE_BLOCK_POSTINGS
    table = format_table(
        ("decoder", "best round (ms)", "postings/s", "speedup"),
        [
            (
                "scalar struct loop",
                f"{scalar_best * 1e3:.2f}",
                f"{postings / scalar_best:,.0f}",
                "1.00x",
            ),
            (
                "column reinterpret",
                f"{column_best * 1e3:.2f}",
                f"{postings / column_best:,.0f}",
                f"{speedup:.2f}x",
            ),
        ],
    )
    emit(
        "VEC-DECODE",
        table
        + f"\n{DECODE_BLOCKS} blocks x {DECODE_BLOCK_POSTINGS} postings "
        f"per round\nrequired speedup: >={MIN_DECODE_SPEEDUP:.0f}x",
    )
    assert speedup >= MIN_DECODE_SPEEDUP, (
        f"columnar decode {speedup:.2f}x is below the "
        f"{MIN_DECODE_SPEEDUP:.0f}x floor "
        f"({column_best * 1e3:.2f} ms vs {scalar_best * 1e3:.2f} ms)"
    )


# ----------------------------------------------------------------------
# VEC-SCORE
# ----------------------------------------------------------------------
def _scoring_fixture():
    """A scorer and one candidate set in both forms: the columns a scan
    hands to ranking, and ``doc -> {term: tf}`` for the ``score()`` loop."""
    stats = CollectionStats()
    rows = {}
    for doc_id in range(SCORE_DOCS):
        rows[doc_id] = {
            term: 1 + (doc_id + term) % 4 for term in range(SCORE_TERMS)
        }
        stats.add_document(doc_id, rows[doc_id])
    doc_ids = np.arange(SCORE_DOCS, dtype=np.uint32)
    candidates = Candidates(
        (
            term,
            doc_ids,
            np.array([rows[d][term] for d in range(SCORE_DOCS)], dtype=np.uint32),
        )
        for term in range(SCORE_TERMS)
    )
    return BM25Scorer(stats), candidates, rows


def test_vectorized_scoring(benchmark, emit):
    scorer, candidates, rows = _scoring_fixture()
    assert {d: dict(f) for d, f in candidates.items()} == rows

    def by_columns():
        return scorer.score_columns(
            candidates.doc_ids, candidates.scoring_columns()
        ).tolist()

    expected = [scorer.score(doc_id, freqs) for doc_id, freqs in rows.items()]
    assert by_columns() == expected  # bit-for-bit

    def run():
        scalar_best = float("inf")
        column_best = float("inf")
        for _ in range(SCORE_ROUNDS):
            start = perf_counter()
            for doc_id, freqs in rows.items():
                scorer.score(doc_id, freqs)
            scalar_best = min(scalar_best, perf_counter() - start)
            start = perf_counter()
            by_columns()
            column_best = min(column_best, perf_counter() - start)
        return scalar_best, column_best

    scalar_best, column_best = once(benchmark, run)
    speedup = scalar_best / column_best
    table = format_table(
        ("scorer", "best round (ms)", "docs/s", "speedup"),
        [
            (
                "per-doc score()",
                f"{scalar_best * 1e3:.2f}",
                f"{SCORE_DOCS / scalar_best:,.0f}",
                "1.00x",
            ),
            (
                "column score_columns()",
                f"{column_best * 1e3:.2f}",
                f"{SCORE_DOCS / column_best:,.0f}",
                f"{speedup:.2f}x",
            ),
        ],
    )
    emit(
        "VEC-SCORE",
        table
        + f"\n{SCORE_DOCS} candidates x {SCORE_TERMS} query terms per "
        f"round\nrequired speedup: >={MIN_SCORE_SPEEDUP:.0f}x",
    )
    assert speedup >= MIN_SCORE_SPEEDUP, (
        f"column scoring {speedup:.2f}x is below the "
        f"{MIN_SCORE_SPEEDUP:.0f}x floor "
        f"({column_best * 1e3:.2f} ms vs {scalar_best * 1e3:.2f} ms)"
    )


# ----------------------------------------------------------------------
# VEC-SHARD-SCALING
# ----------------------------------------------------------------------
def _shard_texts(workload):
    docs = workload.documents[:SHARD_DOCS]
    return [
        " ".join(
            f"t{tid}"
            for tid, count in zip(doc.term_ids, doc.term_counts)
            for _ in range(count)
        )
        for doc in docs
    ]


def _shard_queries(workload):
    # Prefer broad (1-2 term) queries over popular terms: large candidate
    # sets make matching/scoring CPU-heavy, which is what distinguishes
    # GIL-shared threads from independent processes.
    picked = [q for q in workload.queries if 1 <= q.num_terms <= 2]
    return [
        " ".join(f"t{tid}" for tid in q.term_ids)
        for q in picked[:SHARD_QUERIES_PER_ROUND]
    ]


def test_thread_vs_process_shard_scaling(benchmark, workload, emit):
    from repro.cli import open_archive
    from repro.search.engine import EngineConfig

    texts = _shard_texts(workload)
    queries = _shard_queries(workload)

    def run():
        with tempfile.TemporaryDirectory(prefix="repro-vecbench-") as tmp:
            path = os.path.join(tmp, "archive.worm")
            engine, handle = open_archive(
                path,
                create=EngineConfig(
                    num_lists=64, block_size=4096, branching=None
                ),
                shards=SHARDS,
            )
            engine.index_batch(texts)
            handle.close()

            thread_engine, thread_handle = open_archive(path)
            process_engine, process_handle = open_archive(
                path, executor="process"
            )
            try:
                for query in queries:  # identical answers first
                    assert process_engine.search(query, top_k=10) == (
                        thread_engine.search(query, top_k=10)
                    ), query
                thread_best = float("inf")
                process_best = float("inf")
                for _ in range(SHARD_ROUNDS):
                    start = perf_counter()
                    for query in queries:
                        thread_engine.search(query, top_k=10)
                    thread_best = min(thread_best, perf_counter() - start)
                    start = perf_counter()
                    for query in queries:
                        process_engine.search(query, top_k=10)
                    process_best = min(process_best, perf_counter() - start)
            finally:
                thread_handle.close()
                process_handle.close()
        return thread_best, process_best

    thread_best, process_best = once(benchmark, run)
    ratio = process_best / thread_best
    per_query = len(queries)
    table = format_table(
        ("executor", "best round (ms)", "per query (ms)", "vs thread"),
        [
            (
                "thread",
                f"{thread_best * 1e3:.2f}",
                f"{thread_best * 1e3 / per_query:.2f}",
                "1.00x",
            ),
            (
                "process",
                f"{process_best * 1e3:.2f}",
                f"{process_best * 1e3 / per_query:.2f}",
                f"{ratio:.2f}x",
            ),
        ],
    )
    cpus = os.cpu_count() or 1
    gated = cpus >= SHARDS
    emit(
        "VEC-SHARD-SCALING",
        table
        + f"\n{SHARDS} shards, {len(texts)} docs, "
        f"{per_query} queries per round, {cpus} CPUs"
        + (
            f"\nrequired: process <= {MAX_PROCESS_OVER_THREAD:.2f}x thread"
            if gated
            else "\nfloor skipped: fewer CPUs than shards"
        ),
    )
    if gated:
        assert ratio <= MAX_PROCESS_OVER_THREAD, (
            f"process executor at {ratio:.2f}x thread latency exceeds the "
            f"{MAX_PROCESS_OVER_THREAD:.2f}x bound "
            f"({process_best * 1e3:.2f} ms vs {thread_best * 1e3:.2f} ms)"
        )
