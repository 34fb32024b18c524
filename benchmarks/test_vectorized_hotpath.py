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

Both are wall-clock and land in ``NONDETERMINISTIC`` in
``check_expectations.py``.
"""

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
