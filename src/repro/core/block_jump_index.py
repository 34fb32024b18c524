"""The block-structured jump index of Section 4.4 (Figure 7, right column).

Instead of per-entry pointers, ``p`` postings share a block and pointers
are associated with blocks, in powers of ``B``: block ``b`` (largest
stored ID ``nb``) keeps one pointer per pair ``(i, j)`` with
``0 <= i < log_B(N)`` and ``1 <= j < B``, pointing to the block that
contains the smallest document ID ``s`` with

    nb + j*B**i  <=  s  <  nb + (j+1)*B**i.

Those ranges partition ``(nb, nb + B**log_B(N))``, pointers are set in
increasing range order as document IDs grow (so assignment is an append /
write-once-slot operation, Section 4.3), and a lookup follows at most
``log_B(N)`` pointers.

Two write paths are provided:

* ``track_tail_path=True`` (default) — the Section 4.5 optimization: the
  index code keeps, in its own application memory, the largest ID and
  last-set pointer of every block on the path from the head block to the
  tail, so the insert walk touches storage only when it actually sets a
  new pointer.  This is what converges to ~1.1 I/Os per document in
  Figure 8(b).
* ``track_tail_path=False`` — the naive walk that reads every block it
  traverses through the storage cache; the ablation baseline.

Both paths produce bit-identical pointer placement (tested), because the
memory copy is only ever a cache of committed WORM state.

Cost of attaching: O(1).  The path is *writer* memory, so an index
attached to committed blocks (a restart, a sealed segment, a merge's
input) reads no pointer slot until its first insert, which first
rebuilds the path from WORM — one uncounted slot-array read per path
block (at most ``log_B(N)`` of them).  Sealed lists never see an insert
and so never build one; lookups and ``FindGeq`` need only the committed
pointers.

Merged-list subtlety: a merged posting list legitimately stores one entry
per (document, term) pair, so equal consecutive document IDs occur and
may straddle a block boundary.  Inserts whose ID equals the largest ID of
an earlier block set no pointer — the first occurrence is already
reachable, and cursors continue into physically-consecutive blocks, so no
entry is ever lost (the Proposition 2/3 analogues are property-tested).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

from repro.core.posting import Posting
from repro.core.posting_list import PostingCursor, PostingList
from repro.core import space as space_model
from repro.errors import IndexError_, TamperDetectedError
from repro.worm.storage import CachedWormStore


@dataclass
class _PathNode:
    """Writer-memory record of one block on the head→tail pointer path."""

    block_no: int
    #: Highest pointer slot set from this block so far (None = none).
    last_slot: Optional[int] = None
    #: Target block of that highest slot.
    last_target: Optional[int] = None


class BlockJumpIndex:
    """Base-``B`` jump index attached to a block-structured posting list.

    Use :meth:`create` to size the posting list and index together from a
    block-size budget; the constructor itself attaches to an existing
    (compatibly sized) posting list.

    Parameters
    ----------
    posting_list:
        The list to index; must have been created with at least
        ``jump_pointers_per_block(branching, 2**max_doc_bits)`` slots per
        block.
    branching:
        The fan-out base ``B`` (the paper sweeps 2, 32, 64).
    max_doc_bits:
        Sizing of the ID space ``N = 2**max_doc_bits``.
    track_tail_path:
        Enable the Section 4.5 writer-memory optimization.
    """

    def __init__(
        self,
        posting_list: PostingList,
        *,
        branching: int = 32,
        max_doc_bits: int = 32,
        track_tail_path: bool = True,
    ):
        if branching < 2:
            raise IndexError_(f"branching must be >= 2, got {branching}")
        self.posting_list = posting_list
        self.branching = branching
        self.n = 2**max_doc_bits
        self.levels = space_model.levels(branching, self.n)
        self.num_slots = (branching - 1) * self.levels
        file_slots = posting_list.store.open_file(posting_list.name).slot_count
        if file_slots < self.num_slots:
            raise IndexError_(
                f"posting list '{posting_list.name}' reserves {file_slots} "
                f"slots per block; B={branching} over N={self.n} needs "
                f"{self.num_slots}"
            )
        self.track_tail_path = track_tail_path
        # Writer memory (Section 4.5): only inserts use the path, so it
        # stays unbuilt (None) until the first one; readers of committed
        # blocks never pay for it.
        self._path: Optional[List[_PathNode]] = None
        #: Pointer-slot assignments performed (diagnostics).
        self.pointers_set = 0
        #: Jump pointers followed (and certified) on the read path.
        self.pointers_followed = 0

    # ------------------------------------------------------------------
    # construction helper
    # ------------------------------------------------------------------
    @classmethod
    def create(
        cls,
        store: CachedWormStore,
        name: str,
        *,
        branching: int = 32,
        max_doc_bits: int = 32,
        track_tail_path: bool = True,
    ) -> "BlockJumpIndex":
        """Create a new posting list + jump index sized to the block budget.

        Applies the Section 4.5 space constraint: postings per block is
        the largest ``p`` with ``8p + 4(B-1)log_B(N) <= L`` where ``L`` is
        the store's block size.
        """
        n = 2**max_doc_bits
        p = space_model.postings_per_block(store.block_size, branching, n)
        slots = space_model.jump_pointers_per_block(branching, n)
        posting_list = PostingList(
            store, name, entries_per_block=p, slot_count=slots
        )
        return cls(
            posting_list,
            branching=branching,
            max_doc_bits=max_doc_bits,
            track_tail_path=track_tail_path,
        )

    # ------------------------------------------------------------------
    # geometry helpers
    # ------------------------------------------------------------------
    def range_for(self, nb: int, k: int) -> Tuple[int, int]:
        """The ``(i, j)`` pair with ``nb + j*B**i <= k < nb + (j+1)*B**i``.

        Requires ``k > nb``; the ranges partition ``(nb, nb + B**levels)``.
        """
        d = k - nb
        if d <= 0:
            raise IndexError_(f"range_for requires k > nb, got k={k}, nb={nb}")
        i = 0
        step = self.branching
        while step <= d:
            step *= self.branching
            i += 1
        if i >= self.levels:
            raise IndexError_(
                f"gap {d} exceeds the addressable range B**levels = "
                f"{self.branching**self.levels}"
            )
        j = d // (self.branching**i)
        return i, j

    def slot_for(self, nb: int, k: int) -> int:
        """Linear write-once slot number for the ``(i, j)`` range of ``k``.

        Slots are ordered by range start, so honest pointer assignments
        happen in increasing slot order — an append pattern.
        """
        i, j = self.range_for(nb, k)
        return i * (self.branching - 1) + (j - 1)

    def slot_range(self, nb: int, slot: int) -> Tuple[int, int]:
        """``[lo, hi)`` document-ID range covered by linear ``slot``."""
        i, j = divmod(slot, self.branching - 1)
        j += 1
        lo = nb + j * self.branching**i
        return lo, lo + self.branching**i

    # ------------------------------------------------------------------
    # write path — Insert_block(k) of Figure 7
    # ------------------------------------------------------------------
    def insert(self, doc_id: int, term_code: int = 0) -> Tuple[int, int]:
        """Append a posting and maintain jump pointers; returns its position.

        I/O cost: the posting append (storage-cache accounted by the
        posting list) plus, when a new pointer must be set, one counted
        access to the block receiving the pointer.
        """
        if self._path is None:
            self.rebuild_path()
        block_no, index = self.posting_list.append(doc_id, term_code)
        self._point_at(doc_id, block_no)
        return block_no, index

    def insert_many(
        self, entries: Iterable[Tuple[int, int]]
    ) -> Tuple[int, int]:
        """Bulk-load ``(doc_id, term_code)`` postings, a block per record.

        Each block goes down as one record
        (:meth:`PostingList.append_blocks`), followed by the Figure-7
        pointer walk of :meth:`insert` for every document ID in it — a
        walk reads only blocks *before* the tail, so the pointers set
        are exactly those of posting-by-posting inserts, and block 0,
        with nothing before it to point from, gets none.  I/O accounting
        is per block, not per posting (see ``append_blocks``).  Returns
        the position of the last inserted posting.
        """
        if self._path is None:
            self.rebuild_path()
        position = (-1, -1)
        for block_no, index, doc_ids in self.posting_list.append_blocks(entries):
            # In block 0 one call is enough: it only seeds the path.
            for doc_id in (doc_ids if block_no else doc_ids[:1]).tolist():
                self._point_at(doc_id, block_no)
            position = (block_no, index + len(doc_ids) - 1)
        return position

    def _point_at(self, doc_id: int, last_block: int) -> None:
        """Insert_block's pointer step for ``doc_id``, just appended to
        the tail block ``last_block``."""
        if not self._path:
            self._path.append(_PathNode(0))
        if last_block == 0:
            return
        if self.track_tail_path:
            self._walk_in_memory(doc_id, last_block)
        else:
            self._walk_counted(doc_id, last_block)

    def _walk_in_memory(self, k: int, last_block: int) -> None:
        """Insert walk using writer-memory path metadata (Section 4.5)."""
        pl = self.posting_list
        pos = 0
        while True:
            node = self._path[pos]
            if node.block_no == last_block:
                return
            nb = pl.block_max_hint(node.block_no)
            if k <= nb:
                # Duplicate ID straddling blocks: already reachable.
                return
            slot = self.slot_for(nb, k)
            if node.last_slot == slot:
                pos += 1
                continue
            # Honest IDs only grow, so the needed slot can only be beyond
            # the last one set from this block.
            self._set_pointer(node, slot, last_block, pos)
            return

    def _walk_counted(self, k: int, last_block: int) -> None:
        """Naive insert walk reading every traversed block (ablation)."""
        store = self.posting_list.store
        name = self.posting_list.name
        pos = 0
        block_no = 0
        while block_no != last_block:
            entries = self.posting_list.read_block_postings(block_no)
            nb = entries.doc_ids[-1]
            if k <= nb:
                return
            slot = self.slot_for(nb, k)
            target = store.get_slot(name, block_no, slot)
            if target is None:
                node = self._path[pos]
                self._set_pointer(node, slot, last_block, pos)
                return
            block_no = target
            pos += 1

    def _set_pointer(
        self, node: _PathNode, slot: int, last_block: int, pos: int
    ) -> None:
        """Commit one pointer to WORM and update the in-memory path."""
        self.posting_list.store.set_slot(
            self.posting_list.name, node.block_no, slot, last_block
        )
        self.pointers_set += 1
        node.last_slot = slot
        node.last_target = last_block
        del self._path[pos + 1 :]
        self._path.append(_PathNode(last_block))

    def rebuild_path(self) -> None:
        """Reconstruct the writer-memory path from committed WORM state.

        Runs before the first insert on an index attached to an existing
        list (e.g. after restart).  Walks the chain of highest-set
        pointers from the head block, reading each path block's slots
        once (uncounted); this is exactly the path future inserts extend.
        """
        self._path = []
        block_no = 0 if self.posting_list.num_blocks else None
        while block_no is not None:
            slots = self.slots(block_no)
            last_slot = max(
                (s for s, t in enumerate(slots) if t is not None), default=None
            )
            target = None if last_slot is None else slots[last_slot]
            self._path.append(_PathNode(block_no, last_slot, target))
            block_no = target

    def slots(self, block_no: int) -> Tuple[Optional[int], ...]:
        """Block ``block_no``'s pointer slots, read at once and
        uncounted (``None`` where unset)."""
        worm_file = self.posting_list.store.open_file(self.posting_list.name)
        return worm_file.block(block_no).slots()[: self.num_slots]

    # ------------------------------------------------------------------
    # read path — Lookup_block / FindGeq (certified readers)
    # ------------------------------------------------------------------
    def lookup(self, doc_id: int, *, cursor: Optional[PostingCursor] = None) -> bool:
        """Whether any posting carries ``doc_id`` (Lookup_block of Figure 7)."""
        if self.posting_list.num_blocks == 0:
            return False
        if cursor is None:
            cursor = self.posting_list.cursor()
        block_no = 0
        while True:
            entries = cursor.peek_block(block_no)
            nb = entries.doc_ids[-1]
            if doc_id <= nb:
                docs = entries.doc_ids
                idx = bisect_left(docs, doc_id)
                return idx < len(docs) and docs[idx] == doc_id
            slot = self.slot_for(nb, doc_id)
            target = self.posting_list.store.peek_slot(
                self.posting_list.name, block_no, slot
            )
            if target is None:
                return False
            self._check_jump(cursor, block_no, nb, slot, target)
            block_no = target

    def find_geq(self, cursor: PostingCursor, k: int) -> Optional[Posting]:
        """Position ``cursor`` at the first matching posting with ID >= ``k``.

        Returns that posting, or ``None`` when the cursor is exhausted
        (no remaining entry has ID >= ``k``).  Navigation starts from the
        head block via stored jump pointers; blocks already read by this
        cursor are free, so repeated calls during a zigzag join cost only
        the *new* blocks they touch — the paper's "blocks read" metric.
        """
        if cursor.exhausted:
            return None
        if cursor.current_doc >= k:
            return cursor.current
        # Cheap path: the target may be in the cursor's current block.
        cur_block, cur_idx = cursor.position
        entries = cursor.peek_block(cur_block)
        if entries.doc_ids[-1] >= k:
            idx = bisect_left(entries.doc_ids, k, lo=cur_idx)
            cursor.jump_to(cur_block, idx)
            return None if cursor.exhausted else cursor.current
        # If even the tail block tops out below k, nothing qualifies.
        tail_no = self.posting_list.num_blocks - 1
        if cursor.peek_block(tail_no).doc_ids[-1] < k:
            cursor.exhaust()
            return None
        target_block = self._navigate(cursor, k, start_block=0)
        if target_block is None:
            # No pointer leads to any ID >= k; entries may still exist in
            # trailing blocks past the pointer frontier (the open tail).
            cursor.seek_geq_sequential(k)
            return None if cursor.exhausted else cursor.current
        if target_block < cur_block:
            # The first occurrence of the target ID precedes this cursor's
            # position; everything from here forward already satisfies the
            # zigzag contract, so scan forward instead of rewinding.
            cursor.seek_geq_sequential(k)
            return None if cursor.exhausted else cursor.current
        entries = cursor.peek_block(target_block)
        docs = entries.doc_ids
        idx = bisect_left(docs, k)
        if idx >= len(docs):
            raise TamperDetectedError(
                f"find_geq({k}) navigated to block {target_block} holding "
                f"no ID >= {k}",
                location=f"posting list '{self.posting_list.name}', "
                f"block {target_block}",
                invariant="jump-target-range",
            )
        start_idx = idx if target_block > cur_block else max(idx, cur_idx)
        cursor.jump_to(target_block, start_idx)
        return None if cursor.exhausted else cursor.current

    def _navigate(
        self, cursor: PostingCursor, k: int, *, start_block: int
    ) -> Optional[int]:
        """Block-level FindGeq: block containing the first ID >= ``k``.

        Mirrors the recursive structure of Figure 7's ``FindGeqRec``: try
        the exact range pointer first; if its subtree holds nothing >= k,
        fall back to the first later non-NULL pointer at this block.
        """
        block_no = start_block
        nb = cursor.peek_block(block_no).doc_ids[-1]
        if k <= nb:
            return block_no
        slot = self.slot_for(nb, k)
        target = self.posting_list.store.peek_slot(
            self.posting_list.name, block_no, slot
        )
        if target is not None:
            self._check_jump(cursor, block_no, nb, slot, target)
            found = self._navigate(cursor, k, start_block=target)
            if found is not None:
                return found
        for later_slot in range(slot + 1, self.num_slots):
            target = self.posting_list.store.peek_slot(
                self.posting_list.name, block_no, later_slot
            )
            if target is not None:
                self._check_jump(cursor, block_no, nb, later_slot, target)
                # This block holds the smallest ID of the first occupied
                # range past k's, which is the first ID >= k overall.
                return target
        return None

    def _check_jump(
        self,
        cursor: PostingCursor,
        block_no: int,
        nb: int,
        slot: int,
        target: int,
    ) -> None:
        """Certified-reader check on a pointer about to be followed (the
        tamper tripwire): :meth:`pointer_fault`, raised."""
        self.pointers_followed += 1
        fault = self.pointer_fault(
            block_no, nb, slot, target, lambda b: cursor.peek_block(b).doc_ids
        )
        if fault is not None:
            invariant, finding = fault
            raise TamperDetectedError(
                f"block {block_no} slot {slot}: {finding}",
                location=f"posting list '{self.posting_list.name}', "
                f"block {block_no}, slot {slot}",
                invariant=invariant,
            )

    def pointer_fault(
        self,
        block_no: int,
        nb: int,
        slot: int,
        target: int,
        doc_ids_of: Callable[[int], Sequence[int]],
    ) -> Optional[Tuple[str, str]]:
        """The pointer check: what is wrong with ``slot`` of block
        ``block_no`` (largest ID ``nb``) pointing at ``target``, as
        ``(invariant, finding)``, or ``None`` when nothing is.

        An honest pointer goes forward, to a block that exists, holding
        an ID of the slot's range (Section 4.3's monotonicity).
        ``doc_ids_of(b)`` reads block ``b``'s sorted document IDs; the
        target is read only once it is known to exist.
        """
        if target <= block_no:
            return "jump-forward-only", f"pointer goes backwards to block {target}"
        if target >= self.posting_list.num_blocks:
            return "jump-target-range", f"pointer targets nonexistent block {target}"
        lo, hi = self.slot_range(nb, slot)
        target_docs = doc_ids_of(target)
        first = bisect_left(target_docs, lo)
        if first == len(target_docs) or target_docs[first] >= hi:
            return (
                "jump-target-range",
                f"target block {target} holds no ID in [{lo}, {hi})",
            )
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BlockJumpIndex('{self.posting_list.name}', B={self.branching}, "
            f"levels={self.levels}, pointers_set={self.pointers_set})"
        )
