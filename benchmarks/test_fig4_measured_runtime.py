"""FIG4 — Measured workload run-time ratios (experimental validation).

Paper: Figure 4 (Section 3.5).  Uniform merging implemented in a real
engine (IBM Trevi), timed on a 1% sample of the query log: the measured
merged/unmerged run-time ratio is "quantitatively similar" to the
simulated Figure 3(e) '0 term' curve.

Here the real engine is this repository's.  For every cache size the
workload's documents go into a legacy ``TrustworthySearchEngine`` whose
``M = cache / block`` lists are uniformly hashed, and once into one
where every term has a list of its own (``PopularUnmergedMerge`` with
the whole vocabulary popular); neither has a jump index, since Fig. 4's
queries are disjunctive scans.  The sample runs through ``search()``:
the merged engine and the unmerged one interleaved round by round, so
machine noise hits both alike, each scored by its best round.  Entries
scanned are read from ``profile()``.

Three ratios per cache size, merged over unmerged: wall-clock, entries
scanned, and the simulated Q of Section 3.1.  Wall-clock is compared by
``check_expectations.py`` for presence only; the asserted claim is on
entries, which are counted, not timed: they reproduce Q within 10% at
every cache size, and the penalty shrinks as the cache grows.
"""

from time import perf_counter

from conftest import once

from repro.core.cost_model import cost_ratio
from repro.core.merge import PopularUnmergedMerge, UniformHashMerge, lists_for_cache
from repro.search.engine import EngineConfig, TrustworthySearchEngine
from repro.simulate.report import format_table

CACHE_SIZES = [1 << 22, 1 << 23, 1 << 24, 1 << 25, 1 << 26]
BLOCK_SIZE = 8192
SAMPLE_FRACTION = 0.01
ROUNDS = 7
BATCH_DOCS = 256


def _text(term_ids, counts=None):
    counts = [1] * len(term_ids) if counts is None else counts
    return " ".join(
        f"t{term}" for term, count in zip(term_ids, counts) for _ in range(count)
    )


def _build(texts, strategy):
    engine = TrustworthySearchEngine(
        EngineConfig(
            num_lists=strategy.num_lists, block_size=BLOCK_SIZE, branching=None
        ),
        merge_strategy=strategy,
    )
    for start in range(0, len(texts), BATCH_DOCS):
        engine.index_batch(texts[start : start + BATCH_DOCS])
    return engine


def _round_seconds(engine, queries):
    start = perf_counter()
    for query in queries:
        engine.search(query)
    return perf_counter() - start


def _entries(engine, queries):
    return sum(engine.profile(query).entries_scanned for query in queries)


def test_fig4_measured_runtime(benchmark, workload, emit):
    sample = workload.query_log.sample_queries(SAMPLE_FRACTION, seed=4)
    if len(sample) < 30:
        sample = workload.queries[:200]
    queries = [_text(list(query.term_ids)) for query in sample]
    texts = [
        _text(doc.term_ids.tolist(), doc.term_counts.tolist())
        for doc in workload.documents
    ]
    vocabulary = workload.vocabulary_size

    def run():
        unmerged = _build(texts, PopularUnmergedMerge(vocabulary + 1, range(vocabulary)))
        base_entries = _entries(unmerged, queries)
        rows = []
        for cache_bytes in CACHE_SIZES:
            num_lists = lists_for_cache(cache_bytes, BLOCK_SIZE)
            merged = _build(texts, UniformHashMerge(num_lists))
            best = {"merged": float("inf"), "unmerged": float("inf")}
            for _ in range(ROUNDS):
                for name, engine in (("merged", merged), ("unmerged", unmerged)):
                    best[name] = min(best[name], _round_seconds(engine, queries))
            assignment = UniformHashMerge(num_lists).assign(vocabulary)
            rows.append(
                (
                    cache_bytes >> 20,
                    best["merged"] / best["unmerged"],
                    _entries(merged, queries) / base_entries,
                    cost_ratio(assignment, workload.stats),
                )
            )
        return rows

    rows = once(benchmark, run)
    emit(
        "FIG4",
        format_table(
            ["cache_MB", "wall ratio", "entries ratio", "simulated Q ratio"],
            [(mb, round(w, 3), round(e, 3), round(q, 3)) for mb, w, e, q in rows],
            title=(
                "Figure 4: measured merged/unmerged ratios vs simulation "
                f"({len(queries)} sampled queries, best of {ROUNDS} "
                "interleaved rounds)"
            ),
        ),
    )
    entries = [e for _, _, e, _ in rows]
    for _, _, e, q in rows:
        assert abs(e - q) <= 0.10 * q
    assert entries[0] > entries[-1]
