"""Two-tier read-path cache for the search engine.

The paper's storage cache (Section 3) only absorbs *writes*: every query
still walks posting lists and jump pointers straight off WORM and pays
full decode cost each time.  Committed WORM data is immutable and posting
lists grow append-only, which makes read caching unusually safe here —
cached state can be validated by cheap structural checks instead of
timestamps or TTLs:

* **Tier 1 — decoded posting blocks** (:class:`DecodedBlockCache`).
  Keyed by ``(list_name, block_no)``.  Every block except the current
  tail is frozen forever, so the only invalidation needed is the tail
  block of a list receiving an append.  Eviction is least recently
  used, as in the storage-cache model of :mod:`repro.worm.cache`.

* **Tier 2 — query results** (:class:`QueryResultCache`).  Keyed by the
  normalized query; each entry carries a *fingerprint* of the per-term
  posting-list lengths (plus the disposition count) it was computed
  from.  Because lists only grow, a length match proves the exact same
  candidate set would be recomputed; a mismatch invalidates exactly the
  stale entry — an append to one list never touches cached results for
  queries over other lists.

Trust posture: the caches hold decoded blocks and candidate sets, never
a verdict.  A list's order is checked when it attaches, from the device,
and every jump pointer a seek follows is checked each time it is
followed, whether the blocks come from the device or from tier 1.
Audits, restart recovery and result verification always re-read the
device (``counted=False`` peeks, never cache-served).  Both tiers are
in-process, per-engine memory: they never outlive a restart and hold no
authority over WORM state.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, Hashable, Iterable, Optional, Set, Tuple

from repro.core.vecdecode import DecodedBlock

#: Fixed per-cached-block overhead (key tuple, dict slots, object header).
BLOCK_MEMORY_OVERHEAD = 128


@dataclass
class TierStats:
    """Hit/miss/eviction/invalidation counters for one cache tier."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidations: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "hit_rate": self.hit_rate,
        }


class DecodedBlockCache:
    """Tier 1: decoded posting blocks keyed by ``(list_name, block_no)``.

    Holds the *decoded* column pairs (the expensive part of a block
    read), bounded by a byte budget — each block weighs its columns'
    ``nbytes`` plus a fixed overhead — least recently used evicted
    first.  Consumers must treat returned blocks as read-only — they
    are shared across cursors and queries.
    """

    def __init__(self, *, capacity_bytes: int = 8 << 20):
        if capacity_bytes <= 0:
            raise ValueError(
                f"capacity_bytes must be positive, got {capacity_bytes}"
            )
        self.capacity_bytes = capacity_bytes
        self._entries: OrderedDict[Tuple[str, int], DecodedBlock] = OrderedDict()
        self._weights: Dict[Tuple[str, int], int] = {}
        self.resident_bytes = 0
        self.stats = TierStats()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, name: str, block_no: int) -> Optional[DecodedBlock]:
        """The cached decoded block, or ``None`` on a miss."""
        key = (name, block_no)
        entries = self._entries.get(key)
        if entries is None:
            self.stats.misses += 1
            return None
        self._entries.move_to_end(key)
        self.stats.hits += 1
        return entries

    def put(self, name: str, block_no: int, entries: DecodedBlock) -> None:
        """Cache a freshly decoded block (evicting under the byte budget)."""
        key = (name, block_no)
        if key in self._entries:
            # Re-decoded concurrently with an earlier put; keep the newer
            # copy (identical content for frozen blocks, fresher for tails).
            self._drop(key)
        weight = BLOCK_MEMORY_OVERHEAD + entries.nbytes
        if weight > self.capacity_bytes:
            return  # would evict the whole cache for one oversized block
        while self._entries and self.resident_bytes + weight > self.capacity_bytes:
            self._drop(next(iter(self._entries)))
            self.stats.evictions += 1
        self._entries[key] = entries
        self._weights[key] = weight
        self.resident_bytes += weight

    def invalidate(self, name: str, block_no: int) -> None:
        """Drop one block (the tail of a list that just received an append)."""
        key = (name, block_no)
        if key in self._entries:
            self._drop(key)
            self.stats.invalidations += 1

    def forget_lists(self, names: Set[str]) -> None:
        """Drop every cached block of the lists ``names`` (they were retired).

        Used when a segment merge supersedes whole posting lists: the
        retired files can never be read again, so keeping their decoded
        blocks resident only squeezes live entries out of the budget.
        One pass over the cache, however many lists retire.  Counted as
        invalidations.
        """
        for key in [k for k in self._entries if k[0] in names]:
            self._drop(key)
            self.stats.invalidations += 1

    def _drop(self, key: Tuple[str, int]) -> None:
        del self._entries[key]
        self.resident_bytes -= self._weights.pop(key)


class QueryResultCache:
    """Tier 2: match results keyed by normalized query + list-length fingerprint.

    The fingerprint pins down everything the candidate set depends on:
    for each query term its resolved posting list and that list's length,
    plus the disposition-log length.  Append-only growth means a length
    match is proof of byte-identical recomputation; a mismatch evicts
    exactly the stale entry (counted as an invalidation).  A full cache
    evicts its least recently used entry.
    """

    def __init__(self, *, max_entries: int = 256):
        if max_entries <= 0:
            raise ValueError(f"max_entries must be positive, got {max_entries}")
        self.max_entries = max_entries
        self._entries: OrderedDict[Hashable, Tuple[Hashable, Any]] = OrderedDict()
        self.stats = TierStats()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: Hashable, fingerprint: Hashable) -> Optional[Any]:
        """The cached payload if present *and* still valid, else ``None``."""
        slot = self._entries.get(key)
        if slot is None:
            self.stats.misses += 1
            return None
        cached_fp, payload = slot
        if cached_fp != fingerprint:
            # An append touched a list this entry depends on.
            del self._entries[key]
            self.stats.invalidations += 1
            self.stats.misses += 1
            return None
        self._entries.move_to_end(key)
        self.stats.hits += 1
        return payload

    def put(self, key: Hashable, fingerprint: Hashable, payload: Any) -> None:
        if key in self._entries:
            self._entries[key] = (fingerprint, payload)
            self._entries.move_to_end(key)
            return
        while len(self._entries) >= self.max_entries:
            self._entries.popitem(last=False)
            self.stats.evictions += 1
        self._entries[key] = (fingerprint, payload)


class ReadCache:
    """The engine-level container wiring the two tiers together.

    One instance per engine (per shard, in a sharded archive).  The block
    cache takes the whole ``capacity_mb`` byte budget; the result cache
    is entry-bounded, so it needs no byte share.
    """

    def __init__(self, *, capacity_mb: float = 8.0, result_entries: int = 256):
        if capacity_mb <= 0:
            raise ValueError(f"capacity_mb must be positive, got {capacity_mb}")
        self.capacity_mb = capacity_mb
        self.blocks = DecodedBlockCache(capacity_bytes=int(capacity_mb * (1 << 20)))
        self.results = QueryResultCache(max_entries=result_entries)

    def forget_lists(self, names: Iterable[str]) -> None:
        """Retire posting lists wholesale (e.g. after a segment merge).

        Drops their tier-1 decoded blocks.  Tier-2 results need no
        action: a merge never changes *which* documents match, and the
        engine's fingerprint carries the tail generation / per-term
        counts that govern result validity.
        """
        self.blocks.forget_lists(set(names))

    def as_dict(self) -> Dict[str, Any]:
        """Per-tier counters plus residency, for stats/metrics export."""
        return {
            "blocks": {
                **self.blocks.stats.as_dict(),
                "resident": len(self.blocks),
                "resident_bytes": self.blocks.resident_bytes,
            },
            "results": {
                **self.results.stats.as_dict(),
                "resident": len(self.results),
            },
        }
