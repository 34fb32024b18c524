"""Device + cache + accounting combined behind one storage interface.

:class:`CachedWormStore` is what the index layer actually talks to.  Every
data access is routed through the :class:`~repro.worm.cache.LRUBlockCache`
so that random I/Os are counted with the same rules the paper's simulator
uses, while the bytes themselves live on the :class:`~repro.worm.device.WormDevice`,
which enforces write-once semantics.

The store tracks cache residency per ``(file, block)`` pair.  Tail blocks
of append-only files follow the paper's lifecycle: a fresh tail block is
installed without a disk read, appends to a resident tail are free, and a
block is written out (one random write) when it fills or is evicted.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.worm.cache import LRUBlockCache
from repro.worm.device import DEFAULT_BLOCK_SIZE, WormDevice, WormFile
from repro.worm.iostats import IoStats


class CachedWormStore:
    """A WORM device fronted by a simulated non-volatile block cache.

    Parameters
    ----------
    cache_blocks:
        Capacity of the storage server cache, in blocks (``None`` =
        unbounded).
    block_size:
        Device block size in bytes; defaults to the paper's 8 KB.
    """

    def __init__(
        self,
        cache_blocks: Optional[int] = None,
        *,
        block_size: int = DEFAULT_BLOCK_SIZE,
        device: Optional[WormDevice] = None,
    ):
        self.device = device if device is not None else WormDevice(block_size=block_size)
        self.io = IoStats()
        self.cache = LRUBlockCache(cache_blocks, io=self.io)

    @property
    def block_size(self) -> int:
        """Device block size in bytes."""
        return self.device.block_size

    # ------------------------------------------------------------------
    # file lifecycle
    # ------------------------------------------------------------------
    def create_file(self, name: str, *, slot_count: int = 0) -> WormFile:
        """Create a new append-only file on the underlying device."""
        return self.device.create_file(name, slot_count=slot_count)

    def open_file(self, name: str) -> WormFile:
        """Open an existing file on the underlying device."""
        return self.device.open_file(name)

    def ensure_file(self, name: str, *, slot_count: int = 0) -> WormFile:
        """Open ``name``, creating it first if it does not exist."""
        if self.device.exists(name):
            return self.device.open_file(name)
        return self.device.create_file(name, slot_count=slot_count)

    def sync(self) -> None:
        """Durability barrier: fsync the device's journal, if it has one.

        A no-op for purely in-memory devices; for a
        :class:`~repro.worm.persistent.JournaledWormDevice` in
        group-commit mode this forces the buffered tail of records to
        stable storage.
        """
        sync = getattr(self.device, "sync", None)
        if sync is not None:
            sync()

    def close(self) -> None:
        """Close the device's journal handle, if it has one (idempotent)."""
        close = getattr(self.device, "close", None)
        if close is not None:
            close()

    # ------------------------------------------------------------------
    # counted data paths
    # ------------------------------------------------------------------
    def append_record(
        self, name: str, payload: bytes, *, force_new_block: bool = False
    ) -> Tuple[int, int]:
        """Append a record to ``name``'s tail block, counting I/O.

        Returns ``(block_no, offset)``.  Cost model (Section 3):

        * append hits the resident tail block — no I/O;
        * tail block not resident — one write (evicted LRU block) plus one
          read (the needed tail block);
        * append fills the block — one write (flush), and the successor
          tail block is installed without a read.

        ``force_new_block`` rolls to a fresh block first (see
        :meth:`repro.worm.device.WormFile.append_record`).
        """
        worm_file = self.device.open_file(name)
        prev_tail = worm_file.tail_block_no
        block_no, offset = worm_file.append_record(
            payload, force_new_block=force_new_block
        )
        key = (name, block_no)
        if block_no != prev_tail:
            if prev_tail >= 0 and (name, prev_tail) in self.cache:
                # Rolled off a partially-filled tail (record did not fit):
                # the partial block is written out, as in Figure 2's model.
                self.cache.note_block_full((name, prev_tail))
                self.cache.invalidate((name, prev_tail))
            self.cache.access(key, fetch_on_miss=False)
        else:
            self.cache.access(key)
        if worm_file.block(block_no).is_full():
            self.cache.note_block_full(key)
            self.cache.invalidate(key)
        return block_no, offset

    def read_block(
        self, name: str, block_no: int, offset: int = 0, length: Optional[int] = None
    ) -> bytes:
        """Read the committed bytes of a block — all of them, or the
        ``length`` at ``offset`` — counting a miss as one read."""
        worm_file = self.device.open_file(name)
        self.cache.access((name, block_no))
        return worm_file.read(block_no, offset, length)

    def set_slot(self, name: str, block_no: int, slot_no: int, value: int) -> None:
        """Assign a write-once pointer slot, counting a miss as one read.

        The block becomes dirty in cache; the corresponding write is
        counted when the block is evicted (or flushed), matching the
        paper's jump-index insert accounting (Section 4.5).
        """
        worm_file = self.device.open_file(name)
        self.cache.access((name, block_no))
        worm_file.set_slot(block_no, slot_no, value)

    def get_slot(self, name: str, block_no: int, slot_no: int) -> Optional[int]:
        """Read a pointer slot, counting a miss as one read."""
        worm_file = self.device.open_file(name)
        self.cache.access((name, block_no))
        return worm_file.get_slot(block_no, slot_no)

    # ------------------------------------------------------------------
    # uncounted paths (application-memory metadata, verification passes)
    # ------------------------------------------------------------------
    def peek_block(
        self, name: str, block_no: int, offset: int = 0, length: Optional[int] = None
    ) -> bytes:
        """Read block bytes *without* touching the cache or counters.

        Used by code that models application-side memory (the tail-path
        optimization of Section 4.5) and by offline auditors whose I/O is
        not part of any reported figure.
        """
        return self.device.open_file(name).read(block_no, offset, length)

    def peek_slot(self, name: str, block_no: int, slot_no: int) -> Optional[int]:
        """Read a pointer slot without touching the cache or counters."""
        return self.device.open_file(name).get_slot(block_no, slot_no)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CachedWormStore(files={len(self.device)}, cache={self.cache!r})"
