"""Integration tests for the Figure 8(b)/8(c) sweeps over engines."""

import pytest

from repro.search.engine import EngineConfig
from repro.simulate.jump_sim import (
    document_text,
    ingest,
    insert_ios_sweep,
    query_speedup_sweep,
)


@pytest.fixture(scope="module")
def docs(tiny_workload):
    return tiny_workload.documents[:800]


class TestIngest:
    def test_every_posting_lands_in_a_list(self, docs):
        engine = ingest(
            docs, EngineConfig(num_lists=16, block_size=2048, branching=4)
        )
        stats = engine.archive_stats()
        assert stats["documents"] == len(docs)
        assert stats["postings"] == sum(d.num_distinct_terms for d in docs)
        assert stats["jump_pointers"] > 0

    def test_no_jump_pointers_without_branching(self, docs):
        engine = ingest(
            docs, EngineConfig(num_lists=16, block_size=2048, branching=None)
        )
        assert engine.archive_stats()["jump_pointers"] == 0

    def test_scan_reads_a_shared_list_once(self, docs):
        """The scan-merge baseline of Figure 8(c) reads each list once,
        however many query terms it holds."""
        engine = ingest(
            docs[:50], EngineConfig(num_lists=1, block_size=1024, branching=None)
        )
        first, second = document_text(docs[0]).split()[:2]
        one = engine.profile(first).blocks_read
        two = engine.profile(f"{first} {second}").blocks_read
        assert one == two == engine.archive_stats()["posting_blocks"]


class TestInsertIoSweep:
    def test_fig8b_shape(self, docs):
        """I/Os per doc fall with cache size; jump indexes cost more than
        plain appends at small caches and converge as the cache grows."""
        sweep = insert_ios_sweep(
            docs[:400],
            num_lists=32,
            branchings=[None, 2, 32],
            cache_block_counts=[32, 64, 128, 512],
            block_size=2048,
        )
        for branching, series in sweep.items():
            ios = [v for _, v in series]
            assert ios == sorted(ios, reverse=True), branching
        plain_final = sweep[None][-1][1]
        b2_final = sweep[2][-1][1]
        b32_final = sweep[32][-1][1]
        # Converged jump-index cost approaches the plain append cost.
        assert b2_final < 3 * plain_final
        # Higher B sets more pointers: at the SMALL cache it costs more.
        assert sweep[32][0][1] > sweep[2][0][1]
        assert b32_final >= b2_final * 0.8


class TestQuerySpeedupSweep:
    @pytest.fixture(scope="class")
    def result(self, tiny_workload):
        wl = tiny_workload
        queries = {n: wl.queries_with_terms(n, limit=8) for n in (2, 4, 7)}
        return query_speedup_sweep(
            wl.documents[:800],
            queries,
            num_lists=16,
            branchings=(2, 32),
            block_size=4096,
        )

    def test_speedup_grows_with_terms(self, result):
        for label in ("B=2", "B=32"):
            speedups = dict(result.series[label])
            assert speedups[7] > speedups[2]

    def test_two_keyword_near_or_below_parity(self, result):
        """Paper: 2-keyword queries are ~10% slower with a jump index.
        The engine's join filters each merged list by term, so it can
        come out ahead at 2 keywords, but by little."""
        assert dict(result.series["B=32"])[2] < 1.3

    def test_ideal_unmerged_fastest(self, result):
        for n in (2, 4, 7):
            ideal = dict(result.series["unmerged"])[n]
            for label in ("B=2", "B=32"):
                assert ideal >= dict(result.series[label])[n]

    def test_blocks_bookkeeping(self, result):
        assert set(result.blocks) >= {"scan", "B=2", "B=32", "unmerged"}
        for label, by_terms in result.blocks.items():
            assert all(v >= 0 for v in by_terms.values())
