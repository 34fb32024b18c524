"""The simulated append-capable WORM device and its block files.

:class:`WormDevice` exposes the interface the paper argues storage vendors
can provide "relatively easily" (Section 2.2): a namespace of files whose
contents can be *appended to* but never rewritten or deleted before their
retention period expires.

Trust boundary
--------------
Everything above this module — index code, search engine, and the adversary
alike — manipulates storage exclusively through this interface.  The device
enforces:

* no overwrite of committed data bytes (``Block.append`` only grows),
* no reassignment of pointer slots (``Block.set_slot`` is write-once),
* no file deletion before ``retention_until``.

What the device deliberately does **not** enforce is *semantic* validity:
Mala can append garbage records, out-of-order document IDs, or spurious
pointer targets, exactly as in the paper.  Detecting those is the job of
the certified readers in :mod:`repro.core` and :mod:`repro.adversary.detection`.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import (
    FileExistsOnWormError,
    UnknownFileError,
    WormViolationError,
)
from repro.worm.block import Block

#: Default block size used throughout the library; matches the 8 KB blocks
#: of the paper's Section 3.4 simulations.
DEFAULT_BLOCK_SIZE = 8192


class WormFile:
    """An append-only sequence of blocks on a :class:`WormDevice`.

    Files are created through :meth:`WormDevice.create_file`; they remember
    their device-assigned name and grow by whole blocks.  The *tail* block
    is the only block accepting data appends; earlier blocks remain open for
    write-once slot assignments only (the jump-index pointer pattern).
    """

    __slots__ = ("name", "block_size", "slot_count", "_blocks", "retention_until")

    def __init__(
        self,
        name: str,
        *,
        block_size: int = DEFAULT_BLOCK_SIZE,
        slot_count: int = 0,
        retention_until: Optional[float] = None,
    ):
        self.name = name
        self.block_size = block_size
        #: Pointer slots reserved in every block of this file.
        self.slot_count = slot_count
        self._blocks: List[Block] = []
        #: Epoch-seconds until which the file may not be deleted
        #: (``None`` = infinite retention).
        self.retention_until = retention_until

    # ------------------------------------------------------------------
    # geometry
    # ------------------------------------------------------------------
    @property
    def num_blocks(self) -> int:
        """Number of allocated blocks."""
        return len(self._blocks)

    @property
    def tail_block_no(self) -> int:
        """Index of the tail (append-target) block; ``-1`` when empty."""
        return len(self._blocks) - 1

    def block(self, block_no: int) -> Block:
        """Return block ``block_no``.

        The returned object enforces WORM semantics itself, so handing it
        out does not widen the trust boundary.
        """
        try:
            return self._blocks[block_no]
        except IndexError:
            raise UnknownFileError(
                f"block {block_no} does not exist in file '{self.name}' "
                f"({len(self._blocks)} blocks)"
            ) from None

    def blocks(self) -> Iterator[Block]:
        """Iterate over all allocated blocks in order."""
        return iter(self._blocks)

    # ------------------------------------------------------------------
    # mutation (append-only)
    # ------------------------------------------------------------------
    def allocate_block(self) -> Block:
        """Allocate and return a fresh tail block."""
        block = Block(
            self.block_size, slot_count=self.slot_count, block_no=len(self._blocks)
        )
        self._blocks.append(block)
        return block

    def validate_append(self, payload: bytes) -> None:
        """Check that :meth:`append_record` would accept ``payload``.

        Raises without mutating anything — the journaled device calls
        this *before* logging the append, so an operation that the
        device would refuse is never written to the journal.
        """
        if len(payload) > self.block_size:
            raise WormViolationError(
                f"record of {len(payload)} bytes exceeds block size "
                f"{self.block_size} of file '{self.name}'"
            )

    def validate_set_slot(self, block_no: int, slot_no: int) -> None:
        """Check that :meth:`set_slot` would accept the assignment.

        Raises without mutating anything (see :meth:`validate_append`).
        """
        block = self.block(block_no)
        # get_slot bounds-checks slot_no; a committed value means the
        # write-once slot is already taken.
        if block.get_slot(slot_no) is not None:
            raise WormViolationError(
                f"slot {slot_no} of block {block_no} is already set to "
                f"{block.get_slot(slot_no)}; WORM slots are write-once"
            )

    def append_record(
        self, payload: bytes, *, force_new_block: bool = False
    ) -> Tuple[int, int]:
        """Append ``payload`` to the tail block, rolling blocks as needed.

        Returns ``(block_no, offset)`` of the committed record.  A record
        never spans blocks; payloads larger than the block size are
        rejected.  ``force_new_block`` starts a fresh block even if the
        tail has room — used by posting lists that cap entries per block
        below raw capacity to reserve space for jump pointers.

        A journal replay calls this once per record, so the checks are
        written out here: a payload that passes the block-size check and
        lands in a block with room for it cannot fail ``Block.append``'s.
        """
        size = len(payload)
        if size > self.block_size:
            self.validate_append(payload)  # raises
        blocks = self._blocks
        tail = blocks[-1] if blocks else None
        if tail is None or force_new_block or tail.capacity - len(tail._data) < size:
            tail = self.allocate_block()
        data = tail._data
        offset = len(data)
        data.extend(payload)
        return tail.block_no, offset

    def set_slot(self, block_no: int, slot_no: int, value: int) -> None:
        """Assign write-once pointer slot ``slot_no`` in block ``block_no``."""
        self.block(block_no).set_slot(slot_no, value)

    def get_slot(self, block_no: int, slot_no: int) -> Optional[int]:
        """Read pointer slot ``slot_no`` of block ``block_no`` (``None`` if unset)."""
        return self.block(block_no).get_slot(slot_no)

    def read(self, block_no: int, offset: int = 0, length: Optional[int] = None) -> bytes:
        """Read committed bytes from block ``block_no``."""
        return self.block(block_no).read(offset, length)

    def total_bytes(self) -> int:
        """Total committed data bytes across all blocks."""
        return sum(b.fill for b in self._blocks)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"WormFile('{self.name}', blocks={len(self._blocks)})"


class WormDevice:
    """A namespace of :class:`WormFile` objects with WORM semantics.

    Parameters
    ----------
    block_size:
        Default block size for files created without an explicit override.
    """

    def __init__(self, *, block_size: int = DEFAULT_BLOCK_SIZE):
        if block_size <= 0:
            raise ValueError(f"block_size must be positive, got {block_size}")
        self.block_size = block_size
        self._files: Dict[str, WormFile] = {}

    # ------------------------------------------------------------------
    # namespace operations
    # ------------------------------------------------------------------
    def create_file(
        self,
        name: str,
        *,
        block_size: Optional[int] = None,
        slot_count: int = 0,
        retention_until: Optional[float] = None,
    ) -> WormFile:
        """Create a new append-only file.

        Raises
        ------
        FileExistsOnWormError
            If ``name`` is already taken.  Honest writers never reuse names;
            Mala cannot replace a file by re-creating it.
        """
        self.validate_create(name)
        worm_file = self._new_file(
            name,
            block_size=block_size or self.block_size,
            slot_count=slot_count,
            retention_until=retention_until,
        )
        self._files[name] = worm_file
        return worm_file

    def validate_create(self, name: str) -> None:
        """Check that :meth:`create_file` would accept ``name``.

        Raises without mutating anything — the journaled device calls
        this *before* logging the create, so a refused operation never
        reaches the journal.
        """
        if name in self._files:
            raise FileExistsOnWormError(
                f"WORM file '{name}' already exists and cannot be replaced"
            )

    def validate_delete(self, name: str, *, now: Optional[float] = None) -> None:
        """Check that :meth:`delete_file` would accept the deletion.

        Raises without mutating anything (see :meth:`validate_create`).
        """
        worm_file = self.open_file(name)
        expired = (
            worm_file.retention_until is not None
            and now is not None
            and now >= worm_file.retention_until
        )
        if not expired:
            raise WormViolationError(
                f"WORM file '{name}' is within its retention period and "
                "cannot be deleted"
            )

    def _new_file(self, name: str, **kwargs) -> WormFile:
        """File factory; subclasses (e.g. the journaled device) override."""
        return WormFile(name, **kwargs)

    def open_file(self, name: str) -> WormFile:
        """Return the existing file ``name``."""
        try:
            return self._files[name]
        except KeyError:
            raise UnknownFileError(f"no WORM file named '{name}'") from None

    def exists(self, name: str) -> bool:
        """Whether a file named ``name`` exists."""
        return name in self._files

    def delete_file(self, name: str, *, now: Optional[float] = None) -> None:
        """Delete ``name`` if (and only if) its retention period has expired.

        The paper's records are "term-immutable": immutable for a mandated
        retention period.  Deleting before expiry raises
        :class:`WormViolationError`; files with infinite retention
        (``retention_until is None``) can never be deleted.
        """
        self.validate_delete(name, now=now)
        del self._files[name]

    def list_files(self) -> List[str]:
        """Sorted names of all files on the device."""
        return sorted(self._files)

    def total_bytes(self) -> int:
        """Total committed data bytes across the whole device."""
        return sum(f.total_bytes() for f in self._files.values())

    def __len__(self) -> int:
        return len(self._files)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"WormDevice(files={len(self._files)}, block_size={self.block_size})"
