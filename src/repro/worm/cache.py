"""LRU simulator for the storage server's non-volatile block cache.

This is the model behind Section 3 of the paper:

    "If there is a cache hit when writing an index entry, then no I/O
    occurs (unless the block becomes full, in which case it is written
    out).  If there is a cache miss, then the least recently used cache
    block is written out, and the needed block is read."

Data sitting in the non-volatile cache counts as *committed to WORM* from
the application's point of view, which is what makes cache-resident tail
blocks compatible with the trustworthiness requirement of real-time index
update.

The cache is deliberately agnostic about what a "block" is: keys are
arbitrary hashables (posting-list IDs, ``(file, block_no)`` pairs, ...),
because the Figure-2 and Figure-8(b) experiments only need occupancy and
eviction behaviour, not block contents.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Hashable, Optional

from repro.worm.iostats import IoStats


@dataclass
class CacheStats:
    """Hit/miss/eviction counters for an :class:`LRUBlockCache`."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    #: Writes caused by a resident block filling up and being flushed.
    full_flushes: int = 0

    @property
    def accesses(self) -> int:
        """Total accesses (hits + misses)."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of accesses that hit; 0.0 when no accesses occurred."""
        return self.hits / self.accesses if self.accesses else 0.0

    def as_dict(self) -> dict:
        """Counters (and derived rates) as a plain dict."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "full_flushes": self.full_flushes,
            "accesses": self.accesses,
            "hit_rate": self.hit_rate,
        }


class LRUBlockCache:
    """Least-recently-used cache of block slots with I/O accounting.

    Parameters
    ----------
    capacity_blocks:
        Number of block slots.  ``None`` simulates an unbounded cache (every
        access after the first is a hit) — useful as the "no caching
        pressure" end of a sweep.
    io:
        Counter mutated on every simulated disk access.  A fresh one is
        created when omitted.
    writeback_on_evict:
        Whether evicting a block costs a write.  The paper's cache starts
        (and effectively stays) dirty — posting-list tail blocks are always
        modified while resident — so this defaults to ``True``.
    """

    def __init__(
        self,
        capacity_blocks: Optional[int],
        *,
        io: Optional[IoStats] = None,
        writeback_on_evict: bool = True,
    ):
        if capacity_blocks is not None and capacity_blocks <= 0:
            raise ValueError(
                f"capacity_blocks must be positive or None, got {capacity_blocks}"
            )
        self.capacity_blocks = capacity_blocks
        self.io = io if io is not None else IoStats()
        self.writeback_on_evict = writeback_on_evict
        self.stats = CacheStats()
        self._resident: "OrderedDict[Hashable, None]" = OrderedDict()

    # ------------------------------------------------------------------
    # core access paths
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._resident)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._resident

    def access(self, key: Hashable, *, fetch_on_miss: bool = True) -> bool:
        """Touch ``key`` for reading or writing; return ``True`` on a hit.

        On a miss the least-recently-used resident block is written out
        (one random write, if ``writeback_on_evict``) and, when
        ``fetch_on_miss``, the needed block is read in (one random read).
        Pass ``fetch_on_miss=False`` for brand-new blocks that have no
        on-disk contents yet (e.g. the first block of a new posting list).
        """
        resident = self._resident
        if key in resident:
            resident.move_to_end(key)
            self.stats.hits += 1
            return True
        self.stats.misses += 1
        if self.capacity_blocks is not None and len(resident) >= self.capacity_blocks:
            resident.popitem(last=False)
            self.stats.evictions += 1
            if self.writeback_on_evict:
                self.io.block_writes += 1
        if fetch_on_miss:
            self.io.block_reads += 1
        resident[key] = None
        return False

    def note_block_full(self, key: Hashable) -> None:
        """Record that the resident block under ``key`` filled and was flushed.

        Costs one random write.  The cache slot is retained: it now holds
        the fresh (empty) successor tail block of the same list, which does
        not need to be read from disk.
        """
        self.io.block_writes += 1
        self.stats.full_flushes += 1
        if key in self._resident:
            self._resident.move_to_end(key)

    def invalidate(self, key: Hashable) -> None:
        """Drop ``key`` without any I/O (e.g. block retired read-only)."""
        self._resident.pop(key, None)

    def flush_all(self) -> int:
        """Write out every resident block; return the number written."""
        count = len(self._resident)
        if self.writeback_on_evict:
            self.io.block_writes += count
        self._resident.clear()
        return count

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        cap = "inf" if self.capacity_blocks is None else self.capacity_blocks
        return f"LRUBlockCache(resident={len(self._resident)}/{cap})"


def cache_blocks_for_size(cache_size_bytes: int, block_size: int) -> int:
    """Number of block slots in a cache of ``cache_size_bytes``.

    This is the paper's ``M = cache size / block size`` relation that links
    cache capacity to the number of merged posting lists (Section 3.4).
    """
    if cache_size_bytes <= 0 or block_size <= 0:
        raise ValueError("cache size and block size must be positive")
    return max(1, cache_size_bytes // block_size)
