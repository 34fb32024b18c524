"""Read-path cache for the search engine: per-family retrievals.

The paper's storage cache (Section 3) only absorbs *writes*: every query
still walks posting lists and jump pointers straight off WORM and pays
full decode cost each time.  Committed WORM data is immutable and posting
lists grow append-only, which makes read caching unusually safe here —
an entry is validated by cheap structural checks instead of timestamps or
TTLs, and only against what can still grow.

An entry is one list family's retrieval of a query's terms, keyed by
``(segment number, mode, term IDs)`` — ``None`` for the
directly-appended family.  A scan's entry holds the family's
``(term_id, doc_ids, tfs)`` columns of the query terms, a join's the
family's joined document IDs.  The entry carries the lengths of the
lists it read that can still grow
(:meth:`~repro.core.segments.MergedListFamily.growth_marks`): every list
of a segment with a shared file is an extent its manifest record fixes,
and no reader takes what is appended after it, so such a segment's entry
carries none; the directly-appended family, and a segment sealed before
the shared file, carry every list's.  Lists only grow, so equal lengths
prove the same retrieval would be recomputed.  The tail is never cached, so an ingest
touches no sealed segment's entry; a merge retires exactly the
merged-away segments' entries (:meth:`ReadCache.retire`).  The time
window, dispositions and burned IDs are filtered per query after the
union, so no entry depends on them.

Entries share one byte budget and one recency order: an entry weighs its
arrays' bytes plus a fixed overhead, and the least recently used goes
first.

Trust posture: the cache holds candidate columns, never a verdict.  A
miss reads the device as a cache-off query does: every list's order is
checked before it is read, and every jump pointer a seek follows is
checked each time it is followed.  Audits, restart recovery and result
verification always re-read the device.  The cache is in-process,
per-engine memory: it never outlives a restart and holds no authority
over WORM state.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import asdict, dataclass
from typing import Any, Dict, Hashable, Iterable, Optional, Set

import numpy as np

#: Fixed per-entry overhead (key tuple, dict slots, object header).
ENTRY_OVERHEAD = 128


@dataclass
class TierStats:
    """Hit/miss/eviction/invalidation counters of a read cache."""

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
    """Bytes of ``value`` — an array, or a list of ``(term_id, doc_ids,
    tfs)`` columns — its numpy arrays made read-only on the way: every
    hit is handed the same ones."""
    if isinstance(value, np.ndarray):
        arrays = [value]
    else:
        arrays = [array for column in value for array in column[1:]]
    for array in arrays:
        array.setflags(write=False)
    return sum(array.nbytes for array in arrays)


class ReadCache:
    """The engine's read cache, under one byte budget.

    One instance per engine (per shard, in a sharded archive).  ``marks``
    is what an entry was computed from: a lookup under other marks finds
    it stale, drops it and counts an invalidation.  Values are shared by
    every hit and must be treated as read-only.
    """

    def __init__(self, *, capacity_mb: float = 8.0):
        if capacity_mb <= 0:
            raise ValueError(f"capacity_mb must be positive, got {capacity_mb}")
        self.capacity_bytes = int(capacity_mb * (1 << 20))
        self.resident_bytes = 0
        self.stats = TierStats()
        #: ``key -> (value, marks, weight)``, least recently used first.
        self.entries: "OrderedDict[Hashable, tuple]" = OrderedDict()
        self.lock = threading.Lock()

    def __len__(self) -> int:
        return len(self.entries)

    def get(self, key: Hashable, marks: Hashable = None) -> Optional[Any]:
        """The cached value if present under ``marks``, else ``None``."""
        with self.lock:
            entry = self.entries.get(key)
            if entry is not None and entry[1] != marks:
                self._invalidate([key])
                entry = None
            if entry is None:
                self.stats.misses += 1
                return None
            self.entries.move_to_end(key)
            self.stats.hits += 1
            return entry[0]

    def put(self, key: Hashable, value: Any, marks: Hashable = None) -> None:
        """Cache ``value`` (replacing any entry under ``key``), evicting
        the least recently used entries to fit; a value larger than the
        whole budget is not cached."""
        weight = ENTRY_OVERHEAD + _weigh(value)
        with self.lock:
            if key in self.entries:
                self._drop(key)
            if weight > self.capacity_bytes:
                return
            while self.resident_bytes + weight > self.capacity_bytes:
                self._drop(next(iter(self.entries)))
                self.stats.evictions += 1
            self.entries[key] = (value, marks, weight)
            self.resident_bytes += weight

    def _drop(self, key: Hashable) -> None:
        """Remove one entry (the caller holds :attr:`lock`)."""
        self.resident_bytes -= self.entries.pop(key)[2]

    def _invalidate(self, keys: Iterable[Hashable]) -> None:
        """Drop ``keys``, each counted as an invalidation (the caller
        holds :attr:`lock`)."""
        for key in keys:
            self._drop(key)
            self.stats.invalidations += 1

    def retire(self, seg_nos: Set[int]) -> None:
        """Forget the retrievals of merged-away segments ``seg_nos``,
        which can never be read again."""
        with self.lock:
            self._invalidate([key for key in self.entries if key[0] in seg_nos])

    def as_dict(self) -> Dict[str, Any]:
        """Counters plus residency, for stats/metrics export."""
        return {
            **self.stats.as_dict(),
            "resident": len(self.entries),
            "resident_bytes": self.resident_bytes,
        }
