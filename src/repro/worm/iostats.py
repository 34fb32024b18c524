"""Random-I/O accounting shared by every storage-level experiment.

The paper's update-performance results (Figure 2, Figure 8(b)) are counts
of *random I/Os per inserted document* produced by a cache simulator, not
wall-clock times.  :class:`IoStats` is the single counter object those
simulations mutate, so that a figure harness can snapshot/diff it around
each document insertion.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class IoSnapshot:
    """Immutable point-in-time copy of an :class:`IoStats` counter."""

    block_reads: int
    block_writes: int

    @property
    def total(self) -> int:
        """Total random I/Os (reads + writes)."""
        return self.block_reads + self.block_writes


class IoStats:
    """Mutable counters of random block reads and writes.

    All I/Os in the paper's cache model are random (posting-list tails are
    scattered across the device), so ``total`` is the quantity plotted on
    the y-axes of Figures 2 and 8(b).
    """

    __slots__ = ("block_reads", "block_writes")

    def __init__(self) -> None:
        self.block_reads = 0
        self.block_writes = 0

    @property
    def total(self) -> int:
        """Total random I/Os so far."""
        return self.block_reads + self.block_writes

    def reset(self) -> None:
        """Zero all counters."""
        self.block_reads = 0
        self.block_writes = 0

    def snapshot(self) -> IoSnapshot:
        """Return an immutable copy of the current counters."""
        return IoSnapshot(self.block_reads, self.block_writes)

    def since(self, snap: IoSnapshot) -> IoSnapshot:
        """Counters accumulated since ``snap`` was taken."""
        return IoSnapshot(
            self.block_reads - snap.block_reads,
            self.block_writes - snap.block_writes,
        )

    def as_dict(self) -> dict:
        """Counters as a plain dict (metrics-adapter convenience)."""
        return {
            "block_reads": self.block_reads,
            "block_writes": self.block_writes,
            "total": self.total,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"IoStats(reads={self.block_reads}, writes={self.block_writes})"
