"""Append-only block-structured posting lists on WORM storage.

A :class:`PostingList` is the durable unit of the trustworthy inverted
index: one WORM file of fixed-size blocks, each holding up to ``p``
encoded postings (plus optional write-once jump-pointer slots managed by
:class:`~repro.core.block_jump_index.BlockJumpIndex`).

Invariants enforced on the write path (honest writers):

* document IDs are appended in **non-decreasing** order — strictly
  increasing per term, but a merged list legitimately carries one entry
  per (document, term) pair, so equal consecutive IDs with different term
  codes occur;
* entries are never modified or removed (WORM semantics, enforced a layer
  below by the device).

Read-path bookkeeping: every block load is counted both in the storage
cache (insert-path experiments) and in a per-list / per-cursor counter
(query-path experiments, where the paper reports raw "blocks read").
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.errors import (
    DocumentIdOrderError,
    IndexError_,
    TamperDetectedError,
    WormViolationError,
)
from repro.core.posting import (
    MAX_TERM_ID_WITH_TF,
    POSTING_SIZE,
    Posting,
    encode_posting,
)
from repro.core.vecdecode import DecodedBlock, descents, posting_array
from repro.worm.storage import CachedWormStore


class PostingList:
    """One append-only posting list in a WORM file.

    Parameters
    ----------
    store:
        The cached WORM store holding the list.
    name:
        WORM file name (unique per list, e.g. ``"pl/00042"``).
    entries_per_block:
        Cap ``p`` on postings per block.  Defaults to the raw block
        capacity; jump-indexed lists pass a smaller value so the block
        also fits its pointer slots (Section 4.5's ``8p + 4(B-1)log_B(N)
        <= L`` budget).
    slot_count:
        Write-once pointer slots reserved per block (0 when no jump index
        is attached).
    extent:
        ``(file, first block, offset, length)``: the list is these bytes,
        whole postings, as a sealed segment's manifest record fixes them
        (:mod:`repro.core.segments`) — a short list's, in one block of
        the segment's shared file (``name`` is then the name it would
        have as a file), or a long list's counted postings at the head
        of its own file.  The list is read-only, and no read goes past
        the extent: bytes appended after it are never input.
    restore:
        ``False`` skips the writer state and the order check that builds
        it, which refuses a list whose document IDs descend: an audit's
        read of such a list, to report every descent.  Nothing else may
        read it, and nothing may append to it.
    """

    def __init__(
        self,
        store: CachedWormStore,
        name: str,
        *,
        entries_per_block: Optional[int] = None,
        slot_count: int = 0,
        extent: Optional[Tuple[str, int, int, int]] = None,
        restore: bool = True,
    ):
        max_entries = store.block_size // POSTING_SIZE
        if entries_per_block is None:
            entries_per_block = max_entries
        if not 0 < entries_per_block <= max_entries:
            raise IndexError_(
                f"entries_per_block must be in [1, {max_entries}], "
                f"got {entries_per_block}"
            )
        self.store = store
        self.name = name
        self.entries_per_block = entries_per_block
        #: Optional ``(blocks_counter, postings_counter)`` pair; when the
        #: engine attaches one, every block decode increments both (the
        #: ``repro_decode_*_total`` observability series).
        self.decode_metrics = None
        self._extent = extent
        self._file = (
            store.ensure_file(name, slot_count=slot_count) if extent is None else None
        )
        #: Total committed postings.
        self.count = 0
        #: Largest appended document ID (-1 when empty).
        self.last_doc_id = -1
        #: Number of postings in the (current) tail block.
        self._tail_entries = 0
        # Application-memory copy of each block's largest doc ID.  The
        # paper's Section 4.5 explicitly budgets this kind of metadata in
        # the *indexing code's* own memory; certified readers never trust
        # it and always re-derive largest IDs from block contents.
        self._block_max: List[int] = []
        if restore and self.num_blocks:
            self._restore_from_worm()

    def _restore_from_worm(self) -> None:
        """Rebuild writer-memory state from committed blocks (reopen path).

        One uncounted pass — restart recovery is not part of any reported
        I/O figure — held to :meth:`check_order`: a violation here means
        the stored list was tampered with between sessions.
        """
        columns, violations = self.check_order()
        if violations:
            block_no, doc_id, last = violations[0]
            raise TamperDetectedError(
                f"doc ID {doc_id} after {last}",
                location=f"posting list '{self.name}', block {block_no}",
                invariant="posting-monotonicity",
            )
        last = -1
        for column in columns:
            if column:
                last = column[-1]
            self._block_max.append(last)
            self.count += len(column)
        self._tail_entries = len(column)
        self.last_doc_id = last

    def check_order(
        self,
    ) -> Tuple[List[Sequence[int]], Sequence[Tuple[int, int, int]]]:
        """The order check (:func:`~repro.core.vecdecode.descents`) over
        the stored list, as every reader of it runs it.

        Returns every block's document IDs, read uncounted from the
        device, and ``(block, doc ID, largest ID before it)`` for each
        posting below the largest ID before it — none in a list only the
        honest writer appended to.
        """
        # A loop, not a comprehension: attaching a one-block list is a
        # hot path, and CPython before 3.12 builds a frame per comprehension.
        columns = []
        for block_no in range(self.num_blocks):
            columns.append(self.read_block_postings(block_no, counted=False).doc_ids)
        doc_ids = (
            columns[0]
            if len(columns) == 1
            else np.concatenate([np.empty(0, dtype=np.uint32), *columns])
        )
        at, top = descents(doc_ids)
        if not len(at):
            return columns, ()
        ends = np.cumsum([len(column) for column in columns])
        return columns, list(
            zip(
                np.searchsorted(ends, at, side="right").tolist(),
                np.asarray(doc_ids)[at].tolist(),
                top.tolist(),
            )
        )

    # ------------------------------------------------------------------
    # geometry
    # ------------------------------------------------------------------
    @property
    def num_blocks(self) -> int:
        """Number of allocated blocks — of an extent, those it covers."""
        if self._extent is None:
            return self._file.num_blocks
        return -(-self._extent[3] // (self.entries_per_block * POSTING_SIZE))

    def _refuse_sealed(self) -> None:
        if self._extent is not None:
            raise WormViolationError(
                f"posting list '{self.name}' is a sealed extent of "
                f"'{self._extent[0]}' and cannot be appended to"
            )

    def __len__(self) -> int:
        return self.count

    def block_max_hint(self, block_no: int) -> int:
        """Writer-memory hint of block ``block_no``'s largest doc ID.

        Not trusted at query time; used only by the insert path's
        tail-path optimization.
        """
        return self._block_max[block_no]

    # ------------------------------------------------------------------
    # write path
    # ------------------------------------------------------------------
    def append(self, doc_id: int, term_code: int = 0) -> Tuple[int, int]:
        """Append one posting; returns ``(block_no, index_within_block)``.

        Raises
        ------
        DocumentIdOrderError
            If ``doc_id`` is smaller than the last appended ID.  Honest
            writers assign IDs from an increasing counter, so this is a
            caller bug, not tampering.
        """
        self._refuse_sealed()
        if doc_id < self.last_doc_id:
            raise DocumentIdOrderError(
                f"doc_id {doc_id} < last appended {self.last_doc_id} in "
                f"posting list '{self.name}'"
            )
        force_new = self._tail_entries >= self.entries_per_block
        payload = encode_posting(doc_id, term_code)
        block_no, offset = self.store.append_record(
            self.name, payload, force_new_block=force_new
        )
        index = offset // POSTING_SIZE
        if index == 0:
            self._tail_entries = 0
            self._block_max.append(doc_id)
        self._tail_entries += 1
        self._block_max[block_no] = doc_id
        self.count += 1
        self.last_doc_id = doc_id
        return block_no, index

    def append_blocks(
        self, entries: Iterable[Tuple[int, int]]
    ) -> Iterator[Tuple[int, int, np.ndarray]]:
        """Bulk-load ``(doc_id, term_code)`` postings, a block per record.

        The write path of a list built once, in order, by one writer —
        a sealed segment's: each block's encoded postings go to the
        device as **one** record (the first tops the tail block up to
        ``entries_per_block``, every later one starts a new block), so
        the journal carries a frame per block instead of one per
        posting.  Committed bytes are exactly those a loop of
        :meth:`append` leaves; the storage cache sees one access per
        block, which puts a bulk load outside Section 3's per-append
        accounting (use :meth:`append` where that is what is measured).

        ``entries`` is any iterable of pairs, normalised on entry to the
        ``(n, 2)`` array of :func:`~repro.core.vecdecode.posting_array`
        — where a field outside 32 bits raises with nothing committed.
        Yields ``(block_no, first_index, doc_ids)`` after each record
        commits, so a jump index can set that block's pointers before
        the next block exists.  The order check
        (:func:`~repro.core.vecdecode.descents`, run once over the list's
        last ID and the load) finds where the load first descends; each
        block is held against that, in one comparison, *before* it is
        written: a descending ID raises with nothing of its block
        committed (earlier blocks stay — WORM).
        """
        self._refuse_sealed()
        entries = posting_array(entries)
        doc_ids = entries[:, 0]
        at, top = descents(np.concatenate(([self.last_doc_id], doc_ids)))
        # ``len(entries)`` when every posting is in order.
        descent = int(at[0]) - 1 if len(at) else len(entries)
        per_block = self.entries_per_block
        start = 0
        while start < len(entries):
            index = self._tail_entries
            force_new = index >= per_block
            if force_new:
                index = 0
            block_no = self.num_blocks - 1 if index else self.num_blocks
            end = min(start + per_block - index, len(entries))
            if descent < end:
                raise DocumentIdOrderError(
                    f"doc_id {doc_ids[descent]} < last appended {top[0]} in "
                    f"posting list '{self.name}'"
                )
            last = int(doc_ids[end - 1])
            expected = (block_no, index * POSTING_SIZE)
            position = self.store.append_record(
                self.name, entries[start:end].tobytes(), force_new_block=force_new
            )
            if position != expected:
                # The device rolls to a new block silently when a record
                # does not fit: the tail held bytes this writer never
                # appended, and the block's postings are now misplaced.
                raise TamperDetectedError(
                    f"block record landed at {position}, expected {expected}",
                    location=f"posting list '{self.name}', block {block_no}",
                    invariant="posting-block-position",
                )
            if index:
                self._block_max[block_no] = last
            else:
                self._block_max.append(last)
            self._tail_entries = index + end - start
            self.count += end - start
            self.last_doc_id = last
            yield block_no, index, doc_ids[start:end]
            start = end

    def append_many(
        self, entries: Iterable[Tuple[int, int]]
    ) -> Tuple[int, int]:
        """Bulk-load postings through :meth:`append_blocks`; returns the
        position of the last one (``(-1, -1)`` when there were none)."""
        position = (-1, -1)
        for block_no, index, doc_ids in self.append_blocks(entries):
            position = (block_no, index + len(doc_ids) - 1)
        return position

    # ------------------------------------------------------------------
    # read path
    # ------------------------------------------------------------------
    def block_bytes(self, block_no: int, *, counted: bool = False) -> bytes:
        """Block ``block_no``'s postings as stored — of an extent, only
        the bytes it covers there.  ``counted=True`` routes the access
        through the storage cache so it contributes to I/O statistics."""
        read = self.store.read_block if counted else self.store.peek_block
        if self._extent is None:
            return read(self.name, block_no)
        # Block b of an extent: its b-th block's worth of postings.
        file, first, offset, length = self._extent
        size = self.entries_per_block * POSTING_SIZE
        left = length - block_no * size
        return read(file, first + block_no, 0 if block_no else offset, min(size, left))

    def read_block_postings(self, block_no: int, *, counted: bool = True) -> DecodedBlock:
        """Decode all postings of block ``block_no``.

        Returns a :class:`~repro.core.vecdecode.DecodedBlock` — parallel
        doc-ID / term-code columns decoded in one pass.

        ``counted=True`` routes the access through the storage cache so it
        contributes to I/O statistics; auditors pass ``counted=False``.
        """
        entries = DecodedBlock.from_payload(self.block_bytes(block_no, counted=counted))
        metrics = self.decode_metrics
        if metrics is not None:
            metrics[0].inc()
            metrics[1].inc(len(entries))
        return entries

    def load_block_postings(self, block_no: int) -> DecodedBlock:
        """A cursor's block load: an uncounted :meth:`read_block_postings`."""
        return self.read_block_postings(block_no, counted=False)

    def cursor(self, *, term_code: Optional[int] = None) -> "PostingCursor":
        """A forward cursor over the list, optionally term-filtered."""
        return PostingCursor(self, term_code=term_code)

    def scan_columns(
        self, *, counted: bool = True
    ) -> Iterator[Tuple[Sequence[int], Sequence[int]]]:
        """Yield ``(doc_ids, term_codes)`` columns per block, in order
        (one counted read per block unless ``counted=False``)."""
        for block_no in range(self.num_blocks):
            entries = self.read_block_postings(block_no, counted=counted)
            yield entries.doc_ids, entries.term_codes

    def doc_ids(self, *, counted: bool = False) -> List[int]:
        """All document IDs in order (convenience for tests and audits)."""
        out: List[int] = []
        for docs, _codes in self.scan_columns(counted=counted):
            out.extend(docs)
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PostingList('{self.name}', count={self.count}, "
            f"blocks={self.num_blocks})"
        )


class PostingCursor:
    """Forward-only iterator over a posting list with block-read counting.

    The cursor is the abstraction the zigzag join drives: it exposes the
    current posting, sequential advance, and (via an attached jump index)
    ``find_geq``.  Distinct blocks loaded are tracked in
    :attr:`blocks_read` — re-visiting a block already read during this
    cursor's lifetime is free, modelling the query processor's in-memory
    block cache.

    Parameters
    ----------
    posting_list:
        The list to iterate.
    term_code:
        When given, the cursor skips postings of other terms — the
        "remove false positives" filter a merged list requires.  The
        comparison masks off the packed-frequency metadata byte, so both
        raw term codes and :func:`~repro.core.posting.pack_term_tf`-coded
        postings filter correctly.
    """

    def __init__(self, posting_list: PostingList, *, term_code: Optional[int] = None):
        self.posting_list = posting_list
        self.term_code = term_code
        # Precomputed filter target: the masked term ID the cursor keeps.
        self._want = (
            None if term_code is None else term_code & MAX_TERM_ID_WITH_TF
        )
        #: Distinct block numbers loaded by this cursor.
        self.blocks_read: Set[int] = set()
        # Decoded blocks already paid for during this cursor's lifetime —
        # the query processor's in-memory block cache.
        self._decoded: dict = {}
        self._block_no = -1
        self._docs: Sequence[int] = ()
        self._codes: Sequence[int] = ()
        self._index = 0
        self._exhausted = posting_list.num_blocks == 0
        if not self._exhausted:
            self._load_block(0)
            self._settle()

    # ------------------------------------------------------------------
    # state
    # ------------------------------------------------------------------
    @property
    def exhausted(self) -> bool:
        """Whether the cursor has moved past the last matching posting."""
        return self._exhausted

    @property
    def current(self) -> Posting:
        """The posting under the cursor.

        Raises
        ------
        IndexError_
            If the cursor is exhausted.
        """
        if self._exhausted:
            raise IndexError_(
                f"cursor over '{self.posting_list.name}' is exhausted"
            )
        return Posting(self._docs[self._index], self._codes[self._index])

    @property
    def current_doc(self) -> int:
        """Document ID under the cursor, without materializing a posting.

        Raises
        ------
        IndexError_
            If the cursor is exhausted.
        """
        if self._exhausted:
            raise IndexError_(
                f"cursor over '{self.posting_list.name}' is exhausted"
            )
        return self._docs[self._index]

    @property
    def position(self) -> Tuple[int, int]:
        """``(block_no, index_within_block)`` of the current posting."""
        return self._block_no, self._index

    # ------------------------------------------------------------------
    # movement
    # ------------------------------------------------------------------
    def advance(self) -> None:
        """Move to the next matching posting (sequentially)."""
        if self._exhausted:
            return
        self._index += 1
        self._settle()

    def seek_geq_sequential(self, doc_id: int) -> None:
        """Advance until ``current.doc_id >= doc_id`` (pure scan).

        This is the no-auxiliary-index FindGeq a scan-merge join uses;
        jump-indexed seeks live on
        :class:`~repro.core.block_jump_index.BlockJumpIndex`.

        Every block between the cursor and the target is still loaded
        (sequential semantics — identical block-read accounting to the
        element-wise scan), but within each block the position advances
        with one ``bisect`` over the sorted doc-ID column instead of
        per-posting steps.
        """
        while not self._exhausted:
            docs = self._docs
            if docs and docs[-1] >= doc_id:
                self._index = bisect_left(docs, doc_id, self._index)
                self._settle()
                return
            next_block = self._block_no + 1
            if next_block >= self.posting_list.num_blocks:
                self._exhausted = True
                return
            self._load_block(next_block)
            self._index = 0

    def exhaust(self) -> None:
        """Mark the cursor exhausted without scanning the remaining blocks.

        Used when an index proves no further matching entry exists (e.g.
        the tail block's largest ID is below a find_geq target).
        """
        self._exhausted = True

    def jump_to(self, block_no: int, index: int = 0) -> None:
        """Reposition at ``(block_no, index)`` (used by jump-index seeks)."""
        if block_no < self._block_no:
            raise IndexError_(
                f"cursor over '{self.posting_list.name}' cannot move "
                f"backwards (block {block_no} < {self._block_no})"
            )
        self._load_block(block_no)
        self._index = index
        self._exhausted = False
        self._settle()

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _load_block(self, block_no: int) -> None:
        self._block_no = block_no
        entries = self.peek_block(block_no)
        self._docs = entries.doc_ids
        self._codes = entries.term_codes

    def peek_block(self, block_no: int) -> DecodedBlock:
        """Load a block's entries *without* moving the cursor.

        Counts toward :attr:`blocks_read` the first time; afterwards the
        decoded block is served from the cursor's in-memory cache.  Jump
        indexes use this to navigate head-path blocks so that index
        traversal I/O and data I/O are accounted together, as in the
        paper's "number of blocks read" metric (Section 4.5).
        """
        entries = self._decoded.get(block_no)
        if entries is None:
            entries = self.posting_list.load_block_postings(block_no)
            self._decoded[block_no] = entries
            self.blocks_read.add(block_no)
        return entries

    def _settle(self) -> None:
        """Advance over block boundaries and filtered-out term codes."""
        want = self._want
        while True:
            codes = self._codes
            index = self._index
            if index >= len(codes):
                next_block = self._block_no + 1
                if next_block >= self.posting_list.num_blocks:
                    self._exhausted = True
                    return
                self._load_block(next_block)
                self._index = 0
                continue
            if want is not None:
                size = len(codes)
                while index < size and codes[index] & MAX_TERM_ID_WITH_TF != want:
                    index += 1
                self._index = index
                if index >= size:
                    continue
            return

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "exhausted" if self._exhausted else f"at {self.position}"
        return f"PostingCursor('{self.posting_list.name}', {state})"
