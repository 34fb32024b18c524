"""TAB-CONCL — The Section 6 headline comparison, regenerated.

Paper (Section 6), versus the baseline that uses a multi-GB cache,
unmerged lists, and a B+ tree per list:

* document insertion: the merged scheme is **20x faster** with a modest
  cache (their 128 MB vs multi-GB);
* disjunctive workload: merged lists alone are **14% slower** than the
  baseline; with a B=32 jump index **26% slower** (the 11% space
  overhead compounds);
* conjunctive workload: merged + jump index is **47% faster** than
  merged without, and **30% slower** than the baseline.

This benchmark composes the other experiments' machinery into that one
table at our scale, checking signs and orders of magnitude: Figure 2's
cache simulation for insertion, the cost model Q and the analytic
pointer overhead (the paper's N = 2**32) for the disjunctive rows, and
the Figure 8(c) sweep, on legacy engines, for the conjunctive rows.
"""

from conftest import once

from repro.core.cost_model import cost_ratio
from repro.core.merge import UniformHashMerge
from repro.core.space import disjunctive_slowdown
from repro.simulate.cache_sim import ios_per_doc_merged, ios_per_doc_unmerged
from repro.simulate.jump_sim import query_speedup_sweep
from repro.simulate.report import format_table

BLOCK_SIZE = 4096
#: Lists for the conjunctive experiment: few, deep merged lists so the
#: zigzag/scan geometry matches Figure 8(c)'s.
CONJ_LISTS = 16
TERM_COUNTS = (2, 4, 7)


def test_conclusion_summary(benchmark, workload, emit):
    docs = workload.documents

    # The paper keeps ~1 merged list per 30 vocabulary terms (32,768
    # lists over a 1M+-term vocabulary); reproduce that ratio so the
    # disjunctive penalty is comparable.  The baseline's "multi-GB" cache
    # maps to a quarter of tail saturation: big, but unable to hold the
    # Zipf tail (the paper's "even for very large caches" regime).
    num_lists = max(CONJ_LISTS, workload.vocabulary_size // 30)
    modest_cache = num_lists * BLOCK_SIZE
    baseline_cache = workload.vocabulary_size * BLOCK_SIZE // 4

    def run():
        assignment = UniformHashMerge(num_lists).assign(workload.vocabulary_size)
        insert_merged = ios_per_doc_merged(
            docs, assignment, cache_size_bytes=modest_cache, block_size=BLOCK_SIZE
        )
        insert_baseline = ios_per_doc_unmerged(
            docs, cache_size_bytes=baseline_cache, block_size=BLOCK_SIZE
        )
        disjunctive_vs_baseline = cost_ratio(assignment, workload.stats)
        jump_overhead = disjunctive_slowdown(BLOCK_SIZE, 32)
        queries = {n: workload.queries_with_terms(n, limit=10) for n in TERM_COUNTS}
        speedups = query_speedup_sweep(
            docs,
            queries,
            num_lists=CONJ_LISTS,
            branchings=(32,),
            block_size=BLOCK_SIZE,
        )
        return (
            insert_merged,
            insert_baseline,
            disjunctive_vs_baseline,
            jump_overhead,
            speedups,
        )

    (
        insert_merged,
        insert_baseline,
        disjunctive_ratio,
        jump_overhead,
        speedups,
    ) = once(benchmark, run)

    insert_speedup = insert_baseline / max(insert_merged, 1e-9)
    with_jump = dict(speedups.series["B=32"])
    ideal = dict(speedups.series["unmerged"])
    n = TERM_COUNTS[-1]
    conj_jump_vs_scan = with_jump[n]            # merged+JI over merged-only
    conj_jump_vs_ideal = with_jump[n] / ideal[n]  # <1: slower than baseline

    rows = [
        ("insert: merged vs baseline (modest cache)", f"{insert_speedup:.1f}x faster", "20x faster"),
        ("disjunctive: merged vs baseline", f"{100 * (disjunctive_ratio - 1):.0f}% slower", "14% slower"),
        ("disjunctive: merged+JI(B=32) vs baseline",
         f"{100 * (disjunctive_ratio * (1 + jump_overhead) - 1):.0f}% slower", "26% slower"),
        (f"conjunctive ({n} terms): merged+JI vs merged",
         f"{100 * (conj_jump_vs_scan - 1):.0f}% faster", "47% faster"),
        (f"conjunctive ({n} terms): merged+JI vs baseline",
         f"{100 * (1 - conj_jump_vs_ideal):.0f}% slower", "30% slower"),
    ]
    emit(
        "TAB-CONCL",
        format_table(
            ["comparison", "measured", "paper"],
            rows,
            title="Section 6 conclusion numbers, regenerated at benchmark scale",
        ),
    )
    # Signs and magnitudes: insertion wins by an order of magnitude; the
    # disjunctive penalty is small; jump indexes win conjunctive queries
    # but stay behind the untrusted ideal.
    assert insert_speedup > 5
    assert 1.0 <= disjunctive_ratio < 1.8
    assert conj_jump_vs_scan > 1.2
    assert conj_jump_vs_ideal < 1.0
