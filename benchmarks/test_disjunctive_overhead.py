"""SEC45-DISJ — Measured disjunctive slowdown of carrying a jump index.

Section 4.5: "jump indexes slow down disjunctive query workloads by the
same factor as the space overhead of the jump index.  For example, the
slowdown is 1.5% and 11% for B = 2 and B = 32, respectively, for 8 KB
blocks."

The analytic side is Figure 8(a)'s model (`core.space`) at the paper's
N = 2**32; this benchmark *measures* it on legacy engines: identical
documents ingested with and without jump indexes, comparing the posting
blocks a full disjunctive scan reads (``archive_stats()``).  The
measured block ratio must match the analytic ``postings_per_block``
ratio, because that is all the slowdown is.
"""

from conftest import once

from repro.core.posting import POSTING_SIZE
from repro.core.space import postings_per_block
from repro.search.engine import EngineConfig
from repro.simulate.jump_sim import ingest
from repro.simulate.report import format_table

NUM_LISTS = 16
BLOCK_SIZE = 4096
BRANCHINGS = (2, 8, 32, 64)


def test_disjunctive_overhead(benchmark, workload, emit):
    docs = workload.documents[: min(3000, len(workload.documents))]

    def scan_blocks(branching):
        config = EngineConfig(
            num_lists=NUM_LISTS, block_size=BLOCK_SIZE, branching=branching
        )
        return ingest(docs, config).archive_stats()["posting_blocks"]

    def run():
        base_blocks = scan_blocks(None)
        rows = []
        for branching in BRANCHINGS:
            blocks = scan_blocks(branching)
            measured = blocks / base_blocks - 1
            analytic = (
                (BLOCK_SIZE // POSTING_SIZE)
                / postings_per_block(BLOCK_SIZE, branching)
                - 1
            )
            rows.append(
                (
                    branching,
                    blocks,
                    round(100 * measured, 1),
                    round(100 * analytic, 1),
                )
            )
        return base_blocks, rows

    base_blocks, rows = once(benchmark, run)
    emit(
        "SEC45-DISJ",
        format_table(
            ["B", "scan blocks", "measured slowdown %", "analytic %"],
            rows,
            title=(
                "Section 4.5: disjunctive scan slowdown of a jump index "
                f"(baseline {base_blocks} blocks, L={BLOCK_SIZE})"
            ),
        ),
    )
    for _, _, measured, analytic in rows:
        # Measured block inflation matches the space model within the
        # partial-tail-block quantization noise.
        assert abs(measured - analytic) <= max(2.0, 0.25 * analytic)
    slowdowns = [measured for _, _, measured, _ in rows]
    assert slowdowns == sorted(slowdowns)  # grows with B
