"""Three-tier read-path cache hierarchy for the search engine.

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

* **Tier 3 — jump-pointer memo** (:class:`JumpMemo`).  Remembers, per
  posting list, the largest doc ID of frozen (non-tail) blocks and jump
  pointer edges that already passed the certified-reader checks, so hot
  ``FindGeq`` descents skip re-decoding head-path blocks.  Pointer slots
  are write-once and frozen blocks never change, so a memoized fact can
  never go stale within a process.

Trust posture: the caches accelerate the *query* path only.  Audits,
restart recovery, and result verification always re-read the device
(``counted=False`` peeks, never cache-served), and cached blocks were
decoded by the same certified read path that enforces the monotonicity
invariants — so tamper detection (Section 4) is not weakened.  All tiers
are in-process, per-engine memory: they never outlive a restart and hold
no authority over WORM state.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, Hashable, Iterable, List, Optional, Set, Tuple

from repro.core.posting import Posting

#: Nominal in-memory cost of one decoded posting (object + refs), used to
#: map the ``--cache-mb`` byte budget onto decoded-entry lists.
POSTING_MEMORY_COST = 64
#: Fixed per-cached-block overhead (key tuple, dict slots, list header).
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

    Holds the *decoded* entry lists (the expensive part of a block read),
    bounded by an approximate byte budget, least recently used evicted
    first.  Consumers must treat returned lists as read-only — they are
    shared across cursors and queries.
    """

    def __init__(self, *, capacity_bytes: int = 8 << 20):
        if capacity_bytes <= 0:
            raise ValueError(
                f"capacity_bytes must be positive, got {capacity_bytes}"
            )
        self.capacity_bytes = capacity_bytes
        self._entries: OrderedDict[Tuple[str, int], List[Posting]] = OrderedDict()
        self._weights: Dict[Tuple[str, int], int] = {}
        self.resident_bytes = 0
        self.stats = TierStats()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, name: str, block_no: int) -> Optional[List[Posting]]:
        """The cached decoded block, or ``None`` on a miss."""
        key = (name, block_no)
        entries = self._entries.get(key)
        if entries is None:
            self.stats.misses += 1
            return None
        self._entries.move_to_end(key)
        self.stats.hits += 1
        return entries

    def put(self, name: str, block_no: int, entries: List[Posting]) -> None:
        """Cache a freshly decoded block (evicting under the byte budget).

        Column-valued entries (:class:`~repro.core.vecdecode.DecodedBlock`)
        report their resident size exactly via ``nbytes``; legacy
        ``List[Posting]`` entries keep the per-object cost model.
        """
        key = (name, block_no)
        if key in self._entries:
            # Re-decoded concurrently with an earlier put; keep the newer
            # copy (identical content for frozen blocks, fresher for tails).
            self._drop(key)
        nbytes = getattr(entries, "nbytes", None)
        if nbytes is not None:
            weight = BLOCK_MEMORY_OVERHEAD + nbytes
        else:
            weight = BLOCK_MEMORY_OVERHEAD + POSTING_MEMORY_COST * len(entries)
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


class JumpMemo:
    """Tier 3: per-list memo of frozen-block maxima and verified jump edges.

    ``FindGeq`` descents repeatedly decode head-path blocks just to learn
    each block's largest doc ID, then re-run the certified-reader checks
    on the same write-once pointer slots.  Both facts are immutable once
    observed (non-tail blocks are frozen; slots are write-once and the
    in-process device enforces WORM), so memoizing them preserves
    verification semantics: every edge was checked by the full
    :meth:`BlockJumpIndex._check_jump` tripwire at least once per process
    lifetime, and tail blocks are never memoized.

    Memory is bounded by the structure itself — at most one integer per
    frozen block plus one entry per *distinct followed* pointer edge.
    """

    def __init__(self, stats: Optional[TierStats] = None):
        self.stats = stats if stats is not None else TierStats()
        self._nb: Dict[int, int] = {}
        self._edges: Set[Tuple[int, int, int]] = set()

    def nb(self, block_no: int) -> Optional[int]:
        """Memoized largest doc ID of ``block_no`` (``None`` if unknown)."""
        value = self._nb.get(block_no)
        if value is None:
            self.stats.misses += 1
        else:
            self.stats.hits += 1
        return value

    def put_nb(self, block_no: int, nb: int) -> None:
        """Record a frozen block's largest ID (caller excludes the tail)."""
        self._nb[block_no] = nb

    def edge_verified(self, block_no: int, slot: int, target: int) -> bool:
        """Whether this exact pointer edge already passed certification."""
        if (block_no, slot, target) in self._edges:
            self.stats.hits += 1
            return True
        self.stats.misses += 1
        return False

    def record_edge(self, block_no: int, slot: int, target: int) -> None:
        """Mark an edge as certified (after the full checks succeeded)."""
        self._edges.add((block_no, slot, target))


class ReadCache:
    """The engine-level container wiring the three tiers together.

    One instance per engine (per shard, in a sharded archive).  The block
    cache takes the whole ``capacity_mb`` byte budget; the result cache
    is entry-bounded and the jump memos are structurally bounded, so
    neither needs a byte share.
    """

    def __init__(self, *, capacity_mb: float = 8.0, result_entries: int = 256):
        if capacity_mb <= 0:
            raise ValueError(f"capacity_mb must be positive, got {capacity_mb}")
        self.capacity_mb = capacity_mb
        self.blocks = DecodedBlockCache(capacity_bytes=int(capacity_mb * (1 << 20)))
        self.results = QueryResultCache(max_entries=result_entries)
        self.memo_stats = TierStats()
        self._memos: Dict[str, JumpMemo] = {}

    def memo_for(self, name: str) -> JumpMemo:
        """The jump memo of posting list ``name`` (created on first use)."""
        memo = self._memos.get(name)
        if memo is None:
            memo = JumpMemo(self.memo_stats)
            self._memos[name] = memo
        return memo

    def forget_lists(self, names: Iterable[str]) -> None:
        """Retire posting lists wholesale (e.g. after a segment merge).

        Drops their tier-1 decoded blocks and tier-3 jump memos.  Tier-2
        results need no action: a merge never changes *which* documents
        match, and the engine's fingerprint carries the tail generation /
        per-term counts that govern result validity.
        """
        names = set(names)
        self.blocks.forget_lists(names)
        for name in names:
            self._memos.pop(name, None)

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
            "jump_memo": self.memo_stats.as_dict(),
        }
