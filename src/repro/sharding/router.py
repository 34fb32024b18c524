"""Stable document routing across independent engine shards.

Sharding partitions the archive into ``K`` fully independent
:class:`~repro.search.engine.TrustworthySearchEngine` instances.  Each
shard assigns its *own* monotonically increasing local document IDs, so
every per-shard trust invariant of the paper — posting-list
monotonicity, write-once jump-pointer placement, commit-log ordering —
holds shard-locally exactly as it does in the unsharded engine.

The global↔local mapping is derived from the shards, not stored.  A
global ID ``g`` belongs to shard ``stable_shard(g, K)``; if ``g`` is the
``k``-th global ID routed there, it is committed exactly when that
shard's commit-time log holds more than ``k`` documents, and its local
ID is the shard's ``k``-th committed ID.  Each shard's commit-time
record is therefore the one commit point of a document: there is no
second record of the mapping to fall out of step with it, to parse, or
to audit.  An auditor recomputes every field from the shards' logs.

A crash mid-batch can commit some shards' groups and not others.  The
global IDs left uncommitted were never acknowledged (the batch raised);
:meth:`ShardRouter.assign_many` hands them out again, to the next
documents routed to those shards.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.errors import WorkloadError
from repro.search.documents import DocumentStore

_MASK = 0xFFFFFFFFFFFFFFFF


def stable_shard(global_id: int, num_shards: int) -> int:
    """Deterministic shard for a global document ID (splitmix64 finalizer).

    Python's hash of a small int is the identity, which would stripe
    consecutive IDs round-robin and make shard membership trivially
    predictable runs of the ingest order; an avalanche mix decorrelates
    placement from arrival order while staying stable across processes,
    platforms, and sessions (no ``PYTHONHASHSEED`` dependence).
    """
    z = (global_id + 0x9E3779B97F4A7C15) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    z ^= z >> 31
    return z % num_shards


@dataclass(frozen=True)
class ShardAssignment:
    """One routed document: its global ID and its shard."""

    global_id: int
    shard_id: int


class ShardRouter:
    """Maps global document IDs to shard-local ones, and back.

    Parameters
    ----------
    documents:
        The shards' document stores, in shard order; their commit-time
        logs are the mapping.
    """

    def __init__(self, documents: Sequence[DocumentStore]):
        if not documents:
            raise WorkloadError("num_shards must be positive, got 0")
        self._documents = list(documents)
        self.num_shards = len(self._documents)
        #: The routing table: global_id -> shard_id, and global_id -> its
        #: rank among the global IDs of that shard ...
        self._shard_of: List[int] = []
        self._rank_of: List[int] = []
        #: ... and shard_id -> its global IDs, ascending.
        self._globals: List[List[int]] = [[] for _ in documents]
        # Route every committed document now.  From here on only
        # assign_many (which ingest serialises) grows the table, and
        # lookups just index it, so concurrent readers never write.
        uncovered = len(self)
        while uncovered:
            uncovered -= self._route_next()

    def _route_next(self) -> bool:
        """Add the first global ID past the table; whether a shard has
        committed it."""
        global_id = len(self._shard_of)
        shard_id = stable_shard(global_id, self.num_shards)
        shard_globals = self._globals[shard_id]
        rank = len(shard_globals)
        self._rank_of.append(rank)
        shard_globals.append(global_id)
        # Last, because lookups bound a global ID by this list's length.
        self._shard_of.append(shard_id)
        return rank < len(self._documents[shard_id])

    # ------------------------------------------------------------------
    # assignment
    # ------------------------------------------------------------------
    def assign_many(self, count: int) -> List[ShardAssignment]:
        """The ``count`` smallest uncommitted global IDs, ascending, with
        their shards.  Nothing is written: a document's global ID is
        fixed when its shard commits it."""
        committed = [len(d) for d in self._documents]
        # The table routes every committed ID, so the smallest
        # uncommitted one is a shard's first uncommitted slot in it, or
        # the first ID past it.
        global_id = min(
            [len(self._shard_of)] + [g[n] for g, n in zip(self._globals, committed) if n < len(g)]
        )
        assignments: List[ShardAssignment] = []
        while len(assignments) < count:
            if global_id == len(self._shard_of):
                self._route_next()
            shard_id = self._shard_of[global_id]
            if self._rank_of[global_id] >= committed[shard_id]:
                assignments.append(ShardAssignment(global_id, shard_id))
            global_id += 1
        return assignments

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return sum(len(d) for d in self._documents)

    def has(self, global_id: int) -> bool:
        """Whether a shard has committed ``global_id``."""
        return (
            0 <= global_id < len(self._shard_of)
            and self._rank_of[global_id] < len(self._documents[self._shard_of[global_id]])
        )

    def to_local(self, global_id: int) -> Tuple[int, int]:
        """``(shard_id, local_id)`` of a committed document."""
        if not self.has(global_id):
            raise WorkloadError(f"global doc ID {global_id} names no committed document")
        shard_id = self._shard_of[global_id]
        return shard_id, self._documents[shard_id].committed_id(self._rank_of[global_id])

    def to_global(self, shard_id: int, local_id: int) -> int:
        """Global ID behind a shard-local document ID.

        A local ID no routed commit-time record names — a posting
        stuffed directly into a shard's lists, an ID a crash burned, or
        a document committed on a shard behind the router's back —
        translates to a unique *negative* synthetic ID, so it flows
        through ranking and into result verification (where its lack of
        a WORM document exposes it) instead of crashing the query path.
        """
        if not 0 <= shard_id < self.num_shards:
            raise WorkloadError(f"shard {shard_id} outside [0, {self.num_shards})")
        rank = self._documents[shard_id].rank(local_id)
        shard_globals = self._globals[shard_id]
        if 0 <= rank < len(shard_globals):
            return shard_globals[rank]
        return -(1 + shard_id + local_id * self.num_shards)

    def shard_size(self, shard_id: int) -> int:
        """Documents committed on ``shard_id``."""
        return len(self._documents[shard_id])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        sizes = [len(d) for d in self._documents]
        return f"ShardRouter(shards={self.num_shards}, docs={len(self)}, sizes={sizes})"
