"""Jump-index space-overhead model (Section 4.5, Figure 8(a)).

A jump-indexed posting-list block of size ``L`` holds ``p`` 8-byte
postings and ``(B-1) * ceil(log_B(N))`` 4-byte jump pointers, subject to

    8*p + 4*(B-1)*log_B(N) <= L

The paper sets ``N = 2**32`` ("roughly 4 billion, which should be adequate
for typical business usage") and reports, e.g., 11% overhead for
``B = 32`` and ``L = 8 KB``.  These functions are the analytic source for
the Figure 8(a) benchmark and for sizing real posting lists in
:class:`~repro.core.block_jump_index.BlockJumpIndex`.
"""

from __future__ import annotations

from functools import lru_cache

from repro.errors import IndexError_

#: Bytes per jump pointer (block addresses; Section 4.5 assumes 4 bytes).
POINTER_SIZE = 4

#: Bytes per posting entry (Section 4.5 assumes 8 bytes).
POSTING_BYTES = 8

#: The paper's document-ID space: N = 2**32.
DEFAULT_N = 2**32


@lru_cache(maxsize=None)
def levels(branching: int, n: int = DEFAULT_N) -> int:
    """``ceil(log_B(N))`` — number of pointer levels per block.

    Memoized: every list attach sizes its blocks from it, and an archive
    uses a handful of ``(B, N)`` pairs.
    """
    if branching < 2:
        raise IndexError_(f"branching must be >= 2, got {branching}")
    if n < 2:
        raise IndexError_(f"N must be >= 2, got {n}")
    count = 0
    reach = 1
    while reach < n:
        reach *= branching
        count += 1
    return count


def jump_pointers_per_block(branching: int, n: int = DEFAULT_N) -> int:
    """``(B-1) * ceil(log_B(N))`` pointers stored in every block."""
    return (branching - 1) * levels(branching, n)


def pointer_bytes_per_block(branching: int, n: int = DEFAULT_N) -> int:
    """Bytes of pointer space reserved per block."""
    return POINTER_SIZE * jump_pointers_per_block(branching, n)


def postings_per_block(
    block_size: int, branching: int, n: int = DEFAULT_N
) -> int:
    """Largest ``p`` satisfying the block budget ``8p + 4(B-1)log_B(N) <= L``.

    Raises
    ------
    IndexError_
        If the pointers alone exceed the block — the configuration is
        unusable (e.g. huge ``B`` with a tiny block).
    """
    if block_size <= 0:
        raise IndexError_(f"block_size must be positive, got {block_size}")
    budget = block_size - pointer_bytes_per_block(branching, n)
    p = budget // POSTING_BYTES
    if p < 1:
        raise IndexError_(
            f"block of {block_size} bytes cannot fit any posting beside "
            f"{jump_pointers_per_block(branching, n)} pointers (B={branching})"
        )
    return p


def space_overhead(block_size: int, branching: int, n: int = DEFAULT_N) -> float:
    """Pointer space as a fraction of posting space (Figure 8(a)'s y-axis).

    ``overhead = pointer_bytes / (p * 8)`` for the largest feasible ``p``.
    """
    p = postings_per_block(block_size, branching, n)
    return pointer_bytes_per_block(branching, n) / (p * POSTING_BYTES)


def disjunctive_slowdown(block_size: int, branching: int, n: int = DEFAULT_N) -> float:
    """Scan slowdown a jump index imposes on disjunctive workloads.

    Section 4.5: "jump indexes slow down disjunctive query workloads by
    the same factor as the space overhead" — a sequential scan reads the
    pointer bytes along with the postings.  E.g. 1.5% for B=2 and 11% for
    B=32 at 8 KB blocks.
    """
    return space_overhead(block_size, branching, n)
