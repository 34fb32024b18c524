"""Two-tier read-path cache for the search engine.

The paper's storage cache (Section 3) only absorbs *writes*: every query
still walks posting lists and jump pointers straight off WORM and pays
full decode cost each time.  Committed WORM data is immutable and posting
lists grow append-only, which makes read caching unusually safe here —
an entry is validated by cheap structural checks instead of timestamps or
TTLs, and only against what can still grow:

* **Decoded posting blocks** (``ReadCache.blocks``), keyed by
  ``(list_name, block_no)``.  Every block but a list's last is frozen
  forever, so the only invalidation needed is that block, when the list
  receives an append.

* **Per-family retrievals** (``ReadCache.results``), keyed by
  ``(segment number, mode, term IDs)`` — ``None`` for the
  directly-appended family.  A scan's entry holds the family's
  ``(term_id, doc_ids, tfs)`` columns of the query terms, a join's the
  family's joined document IDs.  The entry carries the lengths of the
  lists it read that can still grow
  (:meth:`~repro.core.segments.MergedListFamily.growth_marks`): a sealed
  segment's short lists are fixed by its manifest record, so it carries
  only its long lists' lengths, usually none; the directly-appended
  family carries every list's.  Lists only grow, so equal lengths prove
  the same retrieval would be recomputed.  The tail is never cached, so
  an ingest touches no sealed segment's entry; a merge retires exactly
  the merged-away segments' entries (:meth:`ReadCache.retire`).  The
  time window, dispositions and burned IDs are filtered per query after
  the union, so no entry depends on them.

Both kinds share one byte budget and one recency order: an entry weighs
its arrays' bytes plus a fixed overhead, and the least recently used
entry of either kind goes first.

Trust posture: the caches hold decoded blocks and candidate columns,
never a verdict.  A list's order is checked when it attaches, from the
device, and every jump pointer a seek follows is checked each time it is
followed, whether the blocks come from the device or from the cache.
Audits, restart recovery and result verification always re-read the
device (``counted=False`` peeks, never cache-served).  The cache is
in-process, per-engine memory: it never outlives a restart and holds no
authority over WORM state.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import asdict, dataclass
from typing import Any, Dict, Hashable, Iterable, Optional, Set, Tuple

import numpy as np

#: Fixed per-entry overhead (key tuple, dict slots, object header).
ENTRY_OVERHEAD = 128


@dataclass
class TierStats:
    """Hit/miss/eviction/invalidation counters for one cache tier."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidations: int = 0

    @property
    def hit_rate(self) -> float:
        accesses = self.hits + self.misses
        return self.hits / accesses if accesses else 0.0

    def as_dict(self) -> Dict[str, Any]:
        return {**asdict(self), "hit_rate": self.hit_rate}


def _weigh(value) -> int:
    """Bytes of ``value`` — an array, a list of ``(term_id, doc_ids,
    tfs)`` columns, or a decoded block — its numpy arrays made read-only
    on the way: every hit is handed the same ones."""
    if isinstance(value, list):
        arrays = [array for column in value for array in column[1:]]
    elif isinstance(value, np.ndarray):
        arrays = [value]
    else:
        return value.nbytes
    for array in arrays:
        array.setflags(write=False)
    return sum(array.nbytes for array in arrays)


class CacheTier:
    """One kind of entry in a :class:`ReadCache`, and its counters.

    ``marks`` is what an entry was computed from: a lookup under other
    marks finds it stale, drops it and counts an invalidation.  Values
    are shared by every hit and must be treated as read-only.
    """

    def __init__(self, cache: "ReadCache"):
        self._cache = cache
        self.stats = TierStats()
        self.resident = 0
        self.resident_bytes = 0

    def __len__(self) -> int:
        return self.resident

    def get(self, key: Hashable, marks: Hashable = None) -> Optional[Any]:
        """The cached value if present under ``marks``, else ``None``."""
        cache, slot = self._cache, (self, key)
        with cache.lock:
            entry = cache.entries.get(slot)
            if entry is not None and entry[1] != marks:
                cache.invalidate([slot])
                entry = None
            if entry is None:
                self.stats.misses += 1
                return None
            cache.entries.move_to_end(slot)
            self.stats.hits += 1
            return entry[0]

    def put(self, key: Hashable, value: Any, marks: Hashable = None) -> None:
        """Cache ``value`` (replacing any entry under ``key``), evicting
        the least recently used entries of either tier to fit; a value
        larger than the whole budget is not cached."""
        weight = ENTRY_OVERHEAD + _weigh(value)
        cache, slot = self._cache, (self, key)
        with cache.lock:
            if slot in cache.entries:
                cache.drop(slot)
            if weight > cache.capacity_bytes:
                return
            while cache.resident_bytes + weight > cache.capacity_bytes:
                oldest = next(iter(cache.entries))
                cache.drop(oldest)
                oldest[0].stats.evictions += 1
            cache.entries[slot] = (value, marks, weight)
            cache.resident_bytes += weight
            self.resident += 1
            self.resident_bytes += weight

    def invalidate(self, key: Hashable) -> None:
        """Drop one entry (a list's last block, which an append changed)."""
        with self._cache.lock:
            self._cache.invalidate([(self, key)])


class ReadCache:
    """The engine's read cache: both tiers under one byte budget.

    One instance per engine (per shard, in a sharded archive).
    """

    def __init__(self, *, capacity_mb: float = 8.0):
        if capacity_mb <= 0:
            raise ValueError(f"capacity_mb must be positive, got {capacity_mb}")
        self.capacity_mb = capacity_mb
        self.capacity_bytes = int(capacity_mb * (1 << 20))
        self.resident_bytes = 0
        #: ``(tier, key) -> (value, marks, weight)``, least recently used first.
        self.entries: "OrderedDict[Tuple[CacheTier, Hashable], tuple]" = OrderedDict()
        self.lock = threading.Lock()
        self.blocks = CacheTier(self)
        self.results = CacheTier(self)

    def drop(self, slot: Tuple[CacheTier, Hashable]) -> None:
        """Remove one entry (the caller holds :attr:`lock`)."""
        _, _, weight = self.entries.pop(slot)
        self.resident_bytes -= weight
        slot[0].resident -= 1
        slot[0].resident_bytes -= weight

    def invalidate(self, slots: Iterable[Tuple[CacheTier, Hashable]]) -> None:
        """Drop those of ``slots`` held, each counted as an invalidation
        (the caller holds :attr:`lock`)."""
        for slot in slots:
            if slot in self.entries:
                self.drop(slot)
                slot[0].stats.invalidations += 1

    def retire(self, names: Set[str], seg_nos: Set[int]) -> None:
        """Forget what merged-away segments leave behind, in one pass:
        the decoded blocks of their lists ``names`` and the retrievals of
        segments ``seg_nos``.  Neither can be read again."""
        with self.lock:
            self.invalidate(
                [
                    (tier, key)
                    for tier, key in self.entries
                    if key[0] in (names if tier is self.blocks else seg_nos)
                ]
            )

    def as_dict(self) -> Dict[str, Any]:
        """Per-tier counters plus residency, for stats/metrics export."""
        return {
            name: {
                **tier.stats.as_dict(),
                "resident": tier.resident,
                "resident_bytes": tier.resident_bytes,
            }
            for name, tier in (("blocks", self.blocks), ("results", self.results))
        }
