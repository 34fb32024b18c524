"""ABL-BLOCKSIZE — Ablation: the jump-index block size L.

DESIGN.md decision 3.  The paper presents L = 8 KB in detail and notes
two opposing effects of larger blocks (Section 4.5): "Increasing the
block size L beyond 8 Kbytes ... reduces the I/Os per document, by
reducing the storage overhead for jump pointers", while Figure 8(a)
shows pointer space overhead shrinking with L (so disjunctive scans get
cheaper too) — at the cost of coarser seek granularity for conjunctive
queries.

This ablation sweeps L at fixed B, reporting (analytically, at the
paper's N = 2**32) the space overhead and (from legacy engines, one
document per ``index_batch``) insert I/Os per document.
"""

from conftest import once

from repro.core.space import postings_per_block, space_overhead
from repro.search.engine import EngineConfig
from repro.simulate.jump_sim import ingest, ios_per_doc
from repro.simulate.report import format_table

NUM_LISTS = 32
BRANCHING = 8
BLOCK_SIZES = [512, 1024, 2048, 4096]


def test_ablation_block_size(benchmark, workload, emit):
    docs = workload.documents[: min(4000, len(workload.documents))]

    def run():
        rows = []
        for block_size in BLOCK_SIZES:
            engine = ingest(
                docs,
                EngineConfig(num_lists=NUM_LISTS, block_size=block_size, branching=BRANCHING),
                cache_blocks=max(64, NUM_LISTS * 2),
            )
            rows.append(
                (
                    block_size,
                    postings_per_block(block_size, BRANCHING),
                    round(100 * space_overhead(block_size, BRANCHING), 1),
                    round(ios_per_doc(engine), 2),
                )
            )
        return rows

    rows = once(benchmark, run)
    emit(
        "ABL-BLOCKSIZE",
        format_table(
            ["block L", "postings/block", "space overhead %", "insert ios/doc"],
            rows,
            title=f"Ablation: jump-index block size (B={BRANCHING})",
        ),
    )
    overheads = [r[2] for r in rows]
    ios = [r[3] for r in rows]
    # Larger blocks: lower pointer overhead AND fewer insert I/Os.
    assert overheads == sorted(overheads, reverse=True)
    assert ios[-1] <= ios[0]
