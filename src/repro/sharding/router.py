"""Stable document routing across independent engine shards.

Sharding partitions the archive into ``K`` fully independent
:class:`~repro.search.engine.TrustworthySearchEngine` instances.  Each
shard assigns its *own* monotonically increasing local document IDs, so
every per-shard trust invariant of the paper — posting-list
monotonicity, write-once jump-pointer placement, commit-log ordering —
holds shard-locally exactly as it does in the unsharded engine.

What makes the partitioned archive *globally* trustworthy is the
document map maintained here: an append-only WORM file recording one
``global_id shard_id local_id`` line per committed document.  The map is
self-verifying, because every field is recomputable by an auditor:

* global IDs are dense (record ``n`` carries global ID ``n``);
* the shard is a pure function of the global ID (:func:`stable_shard`),
  so a record claiming a different placement is tampering, not drift;
* local IDs count up per shard (record ``n`` for shard ``s`` carries the
  number of earlier records routed to ``s``).

A regulator can therefore rebuild — or dispute — the entire global
mapping from the WORM map alone; Mala gains nothing by editing it, and
she cannot edit it anyway (it is append-only on WORM).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.errors import TamperDetectedError, WorkloadError
from repro.worm.storage import CachedWormStore

#: Default WORM file holding the global document map.
MAP_FILE = "shard/doc-map"

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
    """One routed document: its global ID and shard-local placement."""

    global_id: int
    shard_id: int
    local_id: int


class ShardRouter:
    """Allocates global document IDs and maps them to shard-local IDs.

    Parameters
    ----------
    store:
        Coordinator WORM store holding the document map (typically the
        archive's main journal, separate from the shard journals).
    num_shards:
        Number of shards ``K``; must match across sessions (the map's
        placement invariant is checked against it on restore).
    map_file:
        WORM file name of the document map.
    """

    def __init__(
        self,
        store: CachedWormStore,
        num_shards: int,
        *,
        map_file: str = MAP_FILE,
    ):
        if num_shards <= 0:
            raise WorkloadError(f"num_shards must be positive, got {num_shards}")
        self.store = store
        self.num_shards = num_shards
        self.map_file = map_file
        self._file = store.ensure_file(map_file)
        #: global_id -> shard_id (dense, index == global_id).
        self._shard_of: List[int] = []
        #: global_id -> local_id (parallel to ``_shard_of``).
        self._local_of: List[int] = []
        #: shard_id -> [global ids in local-id order].
        self._globals: List[List[int]] = [[] for _ in range(num_shards)]
        if self._file.num_blocks:
            self._restore()

    # ------------------------------------------------------------------
    # WORM map
    # ------------------------------------------------------------------
    def _restore(self) -> None:
        """Rebuild the in-memory mapping from the WORM map (reopen path).

        Every record is re-checked against the map invariants, so a
        tampered map is detected at attach time rather than silently
        misrouting queries.
        """
        payload = b"".join(
            self.store.peek_block(self.map_file, b)
            for b in range(self._file.num_blocks)
        )
        for raw in payload.split(b"\n"):
            if not raw:
                continue
            try:
                fields = [int(x) for x in raw.split()]
                global_id, shard_id, local_id = fields
            except ValueError:
                raise TamperDetectedError(
                    f"unparseable document-map record {raw!r}",
                    location=f"doc map '{self.map_file}'",
                    invariant="doc-map-format",
                ) from None
            self._check_record(global_id, shard_id, local_id)
            self._admit(shard_id, local_id)

    def _check_record(
        self, global_id: int, shard_id: int, local_id: int
    ) -> None:
        where = f"doc map '{self.map_file}', record {len(self._shard_of)}"
        if global_id != len(self._shard_of):
            raise TamperDetectedError(
                f"global ID {global_id} where {len(self._shard_of)} was "
                f"expected (IDs are dense and ordered)",
                location=where,
                invariant="doc-map-density",
            )
        if not 0 <= shard_id < self.num_shards:
            raise TamperDetectedError(
                f"shard {shard_id} outside [0, {self.num_shards})",
                location=where,
                invariant="doc-map-placement",
            )
        if shard_id != stable_shard(global_id, self.num_shards):
            raise TamperDetectedError(
                f"document {global_id} recorded on shard {shard_id} but "
                f"hashes to shard "
                f"{stable_shard(global_id, self.num_shards)}",
                location=where,
                invariant="doc-map-placement",
            )
        if local_id != len(self._globals[shard_id]):
            raise TamperDetectedError(
                f"local ID {local_id} where shard {shard_id} expected "
                f"{len(self._globals[shard_id])} (local IDs are "
                f"per-shard monotonic)",
                location=where,
                invariant="doc-map-local-monotonicity",
            )

    def _admit(self, shard_id: int, local_id: int) -> None:
        global_id = len(self._shard_of)
        self._shard_of.append(shard_id)
        self._local_of.append(local_id)
        self._globals[shard_id].append(global_id)

    def verify(self) -> int:
        """Re-audit the committed WORM map; returns records checked.

        Raises
        ------
        TamperDetectedError
            If any stored record violates the map invariants.
        """
        fresh = ShardRouter(self.store, self.num_shards, map_file=self.map_file)
        if fresh._shard_of != self._shard_of:
            raise TamperDetectedError(
                "committed document map diverges from the session's "
                "in-memory mapping",
                location=f"doc map '{self.map_file}'",
                invariant="doc-map-consistency",
            )
        return len(fresh._shard_of)

    # ------------------------------------------------------------------
    # assignment
    # ------------------------------------------------------------------
    def assign(self) -> ShardAssignment:
        """Route the next document: commit one map record to WORM."""
        global_id = len(self._shard_of)
        shard_id = stable_shard(global_id, self.num_shards)
        local_id = len(self._globals[shard_id])
        self._file.append_record(f"{global_id} {shard_id} {local_id}\n".encode("ascii"))
        self._admit(shard_id, local_id)
        return ShardAssignment(global_id, shard_id, local_id)

    def assign_many(self, count: int) -> List[ShardAssignment]:
        """Route ``count`` documents in global-ID order."""
        return [self.assign() for _ in range(count)]

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._shard_of)

    def has(self, global_id: int) -> bool:
        """Whether ``global_id`` has a committed map record."""
        return 0 <= global_id < len(self._shard_of)

    def to_local(self, global_id: int) -> Tuple[int, int]:
        """``(shard_id, local_id)`` of a routed document."""
        if not self.has(global_id):
            raise WorkloadError(f"global doc ID {global_id} has no document-map record")
        return self._shard_of[global_id], self._local_of[global_id]

    def to_global(self, shard_id: int, local_id: int) -> int:
        """Global ID behind a shard-local document ID.

        Shard-local IDs with no map record — e.g. postings stuffed
        directly into a shard's lists — translate to a unique *negative*
        synthetic ID, so they flow through ranking and into result
        verification (where their lack of a WORM document exposes them)
        instead of crashing the query path.
        """
        if not 0 <= shard_id < self.num_shards:
            raise WorkloadError(f"shard {shard_id} outside [0, {self.num_shards})")
        shard_globals = self._globals[shard_id]
        if 0 <= local_id < len(shard_globals):
            return shard_globals[local_id]
        return -(1 + shard_id + local_id * self.num_shards)

    def shard_size(self, shard_id: int) -> int:
        """Documents routed to ``shard_id`` so far."""
        return len(self._globals[shard_id])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        sizes = [len(g) for g in self._globals]
        return (
            f"ShardRouter(shards={self.num_shards}, docs={len(self)}, "
            f"sizes={sizes})"
        )
