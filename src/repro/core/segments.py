"""Families of merged posting lists, and the segments sealed from the tail.

The paper has one index shape — terms hashed (or, for popular terms,
pinned) into a family of merged append-only posting lists, each with an
optional jump index — and :class:`MergedListFamily` is its one
implementation: term→list assignment, lazy attach, grouped appends, the
disjunctive scan, and the zigzag join.  The engine reads an ordered set
of families plus, in tail mode, the in-memory tail; nothing else.

A *segment* is one frozen batch of documents: the tail's postings,
regrouped under a Section-3 merging strategy and written once, sorted,
as the segment's own family.  A list that would be a one-block file —
no longer than one block of a jump-indexed file holds, so that no jump
pointer would ever leave it — is *short*, and all of a segment's short
lists share one WORM file, ``engine/seg/<seg_no>/short``: whole lists
packed into blocks, none straddling one, then a directory of every
non-empty list.  A longer list keeps a file of its own,
``engine/seg/<seg_no>/pl/<list_id>``, and its jump index.  Segments are
never modified after sealing — the WORM device would refuse anyway —
which is what makes the read path snapshot-friendly: a reader holding a
list of sealed segments plus a tail snapshot sees one consistent index
no matter what the sealer and merger do next.  Without tail mode there
is a single directly-appended family, ``engine/pl/<list_id>``.

The **manifest** (``engine/segments``) is the atomic commit point.
Sealing writes the segment's posting lists first and appends one
manifest record last; merging does the same with a record that names
its input segments.  The record also fixes where the shared file ends
— its data blocks and directory entries, counted — so nothing appended
to that file after the seal is read by anyone, and a list the directory
does not name is empty whatever files appear later.  A crash anywhere
before the manifest append leaves only orphan files, which recovery
ignores (the manifest is the sole source of truth — orphans only occupy
their segment number, see :func:`next_seg_no`).  Replay validates the
doc-range bookkeeping of every record; an inconsistent manifest is
indistinguishable from tampering and is reported as such.

Merging is *online*: a merge rewrites several live segments' postings
into one new segment under a freshly chosen strategy and then retires
the inputs in a single manifest append, all while readers keep using
the old segment list they snapshotted.
"""

from __future__ import annotations

import struct
from array import array
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Mapping, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.core.block_jump_index import BlockJumpIndex
from repro.core.merge import PopularUnmergedMerge, TermAssignment, UniformHashMerge
from repro.core.posting import MAX_TERM_ID_WITH_TF, POSTING_SIZE
from repro.core.posting_list import PostingList
from repro.core.space import postings_per_block
from repro.core.vecdecode import (
    COLUMN_TYPECODE,
    TermColumn,
    decode_blocks,
    posting_array,
    term_columns,
)
from repro.errors import DocumentIdOrderError, TamperDetectedError, WorkloadError, WormError
from repro.search.join import MergedListCursor, conjunctive_join

#: WORM file holding the manifest log.
MANIFEST_FILE = "engine/segments"

#: Name prefix of the directly-appended merged lists.
LIST_PREFIX = "engine/pl/"

#: Name prefix of every segment-resident WORM file.
SEGMENT_PREFIX = "engine/seg/"

#: Assignment strategies a sealed segment can record.
STRATEGY_UNIFORM = 0
STRATEGY_POPULAR = 1

# opcode, seg_no, first_doc, last_doc, doc_count, num_lists, strategy,
# n_popular, n_inputs — followed, under the shared-file opcodes, by the
# three counts of a SharedFile, then by n_popular + n_inputs u32 values.
_HEADER = struct.Struct("<BIQQQIBHH")
_SHARED = struct.Struct("<III")
_U32 = struct.Struct("<I")

_OP_SEAL = 1
_OP_MERGE = 2
#: Added to either: the segment's short lists share one file.
_OP_SHARED = 2

#: A directory entry of a shared file: ``(list id, block, count)`` —
#: the data block holding the list and its postings, or ``_LONG`` for a
#: block: the mark of a list in a file of its own.  Lists fill a block
#: without gaps, in directory order, so a list starts where the ones
#: before it in its block end, and no directory can describe extents
#: that overlap.
_ENTRY_DTYPE = np.dtype("<u4")
_ENTRY_SIZE = 3 * _ENTRY_DTYPE.itemsize
_LONG = 0xFFFFFFFF


def segment_list_name(seg_no: int, list_id: int) -> str:
    """The WORM file holding one merged list of one segment — or the
    name a short list of its shared file is known by."""
    return f"{SEGMENT_PREFIX}{seg_no:06d}/pl/{list_id:08d}"


class SharedFile(NamedTuple):
    """Where a segment's shared file ends, as its manifest record fixes
    it: what the reader takes, and not a byte more."""

    #: Data blocks; the directory's blocks follow them.
    blocks: int
    #: Directory entries: the segment's non-empty lists.
    lists: int
    #: Those of them held in the data blocks.
    short_lists: int


@dataclass(frozen=True)
class SegmentInfo:
    """One sealed segment's manifest record.

    ``popular_terms`` and ``strategy`` pin the term→list assignment the
    sealer used, so readers rebuild the exact same mapping in any later
    session.  ``inputs`` is empty for a seal and names the retired
    segments for a merge.  ``shared`` is ``None`` for a segment sealed
    before short lists shared a file: each of its lists is a file, found
    by listing the device.
    """

    seg_no: int
    first_doc: int
    last_doc: int
    doc_count: int
    num_lists: int
    strategy: int
    popular_terms: Tuple[int, ...] = ()
    inputs: Tuple[int, ...] = ()
    shared: Optional[SharedFile] = None

    def as_dict(self) -> Dict[str, object]:
        """JSON-friendly form (CLI ``segments`` subcommand)."""
        shared_blocks, lists, short_lists = self.shared or (None, None, None)
        return {
            "seg_no": self.seg_no,
            "first_doc": self.first_doc,
            "last_doc": self.last_doc,
            "doc_count": self.doc_count,
            "num_lists": self.num_lists,
            "strategy": (
                "popular" if self.strategy == STRATEGY_POPULAR else "uniform"
            ),
            "popular_terms": len(self.popular_terms),
            "merged_from": list(self.inputs),
            "lists": lists,
            "short_lists": short_lists,
            "shared_blocks": shared_blocks,
        }


def _pack_record(info: SegmentInfo) -> bytes:
    opcode = _OP_MERGE if info.inputs else _OP_SEAL
    if info.shared is not None:
        opcode += _OP_SHARED
    head = _HEADER.pack(
        opcode,
        info.seg_no,
        info.first_doc,
        info.last_doc,
        info.doc_count,
        info.num_lists,
        info.strategy,
        len(info.popular_terms),
        len(info.inputs),
    )
    if info.shared is not None:
        head += _SHARED.pack(*info.shared)
    tail = b"".join(
        _U32.pack(v) for v in (*info.popular_terms, *info.inputs)
    )
    return head + tail


def _unpack_records(payload: bytes, *, location: str) -> Iterator[SegmentInfo]:
    offset = 0
    while offset < len(payload):
        start = offset
        if offset + _HEADER.size > len(payload):
            raise TamperDetectedError(
                f"truncated manifest record at byte {offset}",
                location=location,
                invariant="segment-manifest",
            )
        (
            opcode,
            seg_no,
            first_doc,
            last_doc,
            doc_count,
            num_lists,
            strategy,
            n_popular,
            n_inputs,
        ) = _HEADER.unpack_from(payload, offset)
        offset += _HEADER.size
        shared = None
        if opcode > _OP_SHARED and offset + _SHARED.size <= len(payload):
            shared = SharedFile(*_SHARED.unpack_from(payload, offset))
            offset += _SHARED.size
            opcode -= _OP_SHARED
        extra = n_popular + n_inputs
        if opcode not in (_OP_SEAL, _OP_MERGE) or (
            offset + extra * _U32.size > len(payload)
        ):
            raise TamperDetectedError(
                f"malformed manifest record at byte {start}",
                location=location,
                invariant="segment-manifest",
            )
        values = [
            _U32.unpack_from(payload, offset + i * _U32.size)[0]
            for i in range(extra)
        ]
        offset += extra * _U32.size
        inputs = tuple(values[n_popular:])
        if (opcode == _OP_MERGE) != bool(inputs):
            raise TamperDetectedError(
                f"manifest opcode {opcode} disagrees with its "
                f"{len(inputs)} input references",
                location=location,
                invariant="segment-manifest",
            )
        yield SegmentInfo(
            seg_no=seg_no,
            first_doc=first_doc,
            last_doc=last_doc,
            doc_count=doc_count,
            num_lists=num_lists,
            strategy=strategy,
            popular_terms=tuple(values[:n_popular]),
            inputs=inputs,
            shared=shared,
        )


class SegmentManifest:
    """Append-only WORM log of seal and merge events.

    Replaying the log yields the *live* segment list: a seal appends its
    segment; a merge replaces the contiguous run of live segments it
    names with the merged one.  Every transition is validated — ranges
    must stay disjoint and ascending — so a log that does not describe a
    reachable index state raises :class:`TamperDetectedError` instead of
    silently corrupting reads.
    """

    def __init__(self, store, *, name: str = MANIFEST_FILE):
        self.store = store
        self.name = name
        self._file = store.ensure_file(name)
        self._records: List[SegmentInfo] = []
        self._live: List[SegmentInfo] = []
        if self._file.num_blocks:
            payload = b"".join(
                store.peek_block(name, b)
                for b in range(self._file.num_blocks)
            )
            for info in _unpack_records(
                payload, location=f"segment manifest '{name}'"
            ):
                self._apply(info)
                self._records.append(info)

    # ------------------------------------------------------------------
    def live(self) -> List[SegmentInfo]:
        """Live segments in ascending doc-range order."""
        return list(self._live)

    @property
    def record_count(self) -> int:
        return len(self._records)

    @property
    def max_seg_no(self) -> int:
        """Highest segment number ever recorded (``-1`` when empty)."""
        return max((r.seg_no for r in self._records), default=-1)

    @property
    def sealed_through(self) -> int:
        """Highest doc id covered by a live segment (``-1`` when none)."""
        return self._live[-1].last_doc if self._live else -1

    # ------------------------------------------------------------------
    def append(self, info: SegmentInfo) -> None:
        """Validate, commit, and apply one seal/merge record.

        Validation runs *before* the WORM append so an inconsistent
        record is refused rather than committed and rejected at every
        future replay.
        """
        self._validate(info)
        self.store.append_record(self.name, _pack_record(info))
        self._apply(info, validated=True)
        self._records.append(info)

    def _validate(self, info: SegmentInfo) -> None:
        if info.doc_count < 1 or info.first_doc > info.last_doc:
            raise TamperDetectedError(
                f"segment {info.seg_no} has an empty or inverted doc "
                f"range [{info.first_doc}, {info.last_doc}]",
                location=f"segment manifest '{self.name}'",
                invariant="segment-manifest",
            )
        if any(r.seg_no == info.seg_no for r in self._records):
            raise TamperDetectedError(
                f"segment number {info.seg_no} reused",
                location=f"segment manifest '{self.name}'",
                invariant="segment-manifest",
            )
        shared = info.shared
        if shared is not None and not (
            bool(shared.blocks) == bool(shared.short_lists)
            and shared.blocks <= shared.short_lists <= shared.lists <= info.num_lists
        ):
            raise TamperDetectedError(
                f"segment {info.seg_no} of {info.num_lists} lists cannot have {shared}",
                location=f"segment manifest '{self.name}'",
                invariant="segment-manifest",
            )
        if not info.inputs:
            if info.first_doc <= self.sealed_through:
                raise TamperDetectedError(
                    f"segment {info.seg_no} starts at doc "
                    f"{info.first_doc}, inside the sealed range "
                    f"(through {self.sealed_through})",
                    location=f"segment manifest '{self.name}'",
                    invariant="segment-manifest",
                )
            return
        run = self._input_run(info)
        if (
            info.first_doc != run[0].first_doc
            or info.last_doc != run[-1].last_doc
            or info.doc_count != sum(r.doc_count for r in run)
        ):
            raise TamperDetectedError(
                f"merged segment {info.seg_no} does not cover exactly "
                f"its inputs {info.inputs}",
                location=f"segment manifest '{self.name}'",
                invariant="segment-manifest",
            )

    def _input_run(self, info: SegmentInfo) -> List[SegmentInfo]:
        live_nos = [r.seg_no for r in self._live]
        try:
            start = live_nos.index(info.inputs[0])
        except ValueError:
            start = -1
        if (
            start < 0
            or live_nos[start : start + len(info.inputs)]
            != list(info.inputs)
        ):
            raise TamperDetectedError(
                f"merge record {info.seg_no} references segments "
                f"{info.inputs} that are not a contiguous live run "
                f"(live: {live_nos})",
                location=f"segment manifest '{self.name}'",
                invariant="segment-manifest",
            )
        return self._live[start : start + len(info.inputs)]

    def _apply(self, info: SegmentInfo, *, validated: bool = False) -> None:
        if not validated:
            self._validate(info)
        if not info.inputs:
            self._live.append(info)
            return
        retired = set(info.inputs)
        index = next(
            i
            for i, r in enumerate(self._live)
            if r.seg_no == info.inputs[0]
        )
        self._live = [r for r in self._live if r.seg_no not in retired]
        self._live.insert(index, info)


def next_seg_no(device, manifest: SegmentManifest) -> int:
    """The next unused segment number.

    Counts both manifest-recorded segments and *orphan* segment files —
    list files a crashed seal/merge left behind without a manifest
    record.  Orphans are dead weight on WORM (they cannot be deleted
    before their implicit horizon) but must never be overwritten, so
    their numbers stay burned.
    """
    highest = manifest.max_seg_no
    for name in device.list_files():
        if name.startswith(SEGMENT_PREFIX):
            head = name[len(SEGMENT_PREFIX) :].split("/", 1)[0]
            try:
                highest = max(highest, int(head))
            except ValueError:
                continue
    return highest + 1


def _assignment_for(info: SegmentInfo):
    if info.strategy == STRATEGY_POPULAR and info.popular_terms:
        return PopularUnmergedMerge(info.num_lists, list(info.popular_terms))
    return UniformHashMerge(info.num_lists)


@dataclass
class ReadCosts:
    """Micro-costs of one query's scan or join, in the paper's units.

    One accumulator per query: every family the query reads adds its
    share, and the engine records the totals once (metrics, trace span,
    :func:`~repro.search.profiling.profile_query`).
    """

    #: Distinct physical lists read.
    lists: int = 0
    #: Posting entries in the blocks read (the workload cost Q's unit).
    entries: int = 0
    #: Posting-list blocks read (the Figure 8(c) unit).
    blocks: int = 0
    #: Cursor ``FindGeq`` seeks performed by joins.
    seeks: int = 0
    jump_follows: int = 0
    block_cache_hits: int = 0
    #: Whether any joined list had a jump index to seek through.
    used_jump_index: bool = False
    #: Sealed segments a time-ranged query did not read: their manifest
    #: doc range misses the query's window.
    families_skipped: int = 0
    per_list_blocks: Dict[int, int] = field(default_factory=dict)

    def charge(self, list_id: int, blocks: int) -> None:
        """Account ``blocks`` read from physical list ``list_id``."""
        self.blocks += blocks
        self.per_list_blocks[list_id] = (
            self.per_list_blocks.get(list_id, 0) + blocks
        )


#: A segment's postings as parallel ``uint32`` columns:
#: ``(doc_ids, term_codes)``.
PostingColumns = Tuple[np.ndarray, np.ndarray]

#: Where a short list lies: ``(file, block, offset, length)``, in bytes.
Extent = Tuple[str, int, int, int]


def write_segment_lists(
    store,
    seg_no: int,
    columns: PostingColumns,
    *,
    num_lists: int,
    strategy: int,
    popular_terms: Sequence[int],
    branching: Optional[int],
) -> Tuple[int, SharedFile]:
    """Write segment ``seg_no``'s merged posting lists from its
    postings' ``columns``; returns the posting count and what the
    manifest record must say of the shared file.  Pure data write — the
    caller commits that record afterwards (the atomic step).

    One stable sort lays the postings out by (list, doc, term id) — the
    order the synchronous path appends in, so monotonicity invariants
    and jump-pointer placement are identical.  Postings that tie (a
    stuffed repeat of a ``(doc, term)`` pair in a merge's input) keep
    the order they came in.  The short lists then go down together
    (:meth:`MergedListFamily.write_shared_file`), each longer one
    through the bulk load of a file of its own.
    """
    doc_ids, term_codes = columns
    if not len(doc_ids):
        return 0, SharedFile(0, 0, 0)
    family = MergedListFamily(
        store,
        SegmentInfo(
            seg_no=seg_no,
            first_doc=0,
            last_doc=0,
            doc_count=1,
            num_lists=num_lists,
            strategy=strategy,
            popular_terms=tuple(popular_terms),
        ),
        branching=branching,
    )
    term_ids = term_codes & MAX_TERM_ID_WITH_TF
    list_ids = family.assignment_through(int(term_ids.max())).list_ids[term_ids]
    order = np.lexsort((term_ids, doc_ids, list_ids))
    postings = np.stack((doc_ids[order], term_codes[order]), axis=1)
    list_ids = list_ids[order]
    starts = np.flatnonzero(np.r_[True, list_ids[1:] != list_ids[:-1]])
    counts = np.diff(np.r_[starts, len(postings)])
    list_ids = list_ids[starts]
    short = counts <= family.short_limit
    shared = family.write_shared_file(
        list_ids, counts, short, postings[np.repeat(short, counts)]
    )
    family.append_many(
        (list_id, postings[start : start + count])
        for list_id, start, count in zip(
            list_ids[~short].tolist(), starts[~short].tolist(), counts[~short].tolist()
        )
    )
    return len(postings), shared


class MergedListFamily:
    """A family of merged posting lists under one WORM file-name prefix.

    The paper's one index shape (Sections 3–4): terms map to physical
    lists through a merging strategy, lists append in doc order, and
    each may carry a jump index.  Pinned to a manifest record (``info``)
    it is a sealed segment — ``engine/seg/<seg_no>/pl/`` under the
    assignment the record names, never appended to after the seal; its
    short lists are extents of one shared file and its directory, not
    the device, says which lists exist.  Without one it is the
    directly-appended family ``engine/pl/`` under the caller's
    ``strategy``.  Lists (and jump indexes) attach lazily and plug into
    the engine's read cache by file name: decoded-block and jump-memo
    tiers key on it.

    ``length_hints`` (term id → posting count) orders joins by filtered
    list length where the owner tracks it; without it the raw merged
    list length is the hint.
    """

    def __init__(
        self,
        store,
        info: Optional[SegmentInfo] = None,
        *,
        branching: Optional[int],
        strategy=None,
        read_cache=None,
        decode_metrics=None,
        length_hints: Optional[Mapping[int, int]] = None,
    ):
        self.store = store
        self.info = info
        self.branching = branching
        self.read_cache = read_cache
        self.decode_metrics = decode_metrics
        self.length_hints = length_hints
        #: What fixes a sealed segment's term→list assignment; segments
        #: of equal layout are scanned as one (:meth:`collect_candidates`).
        self.layout: Optional[Tuple[int, Tuple[int, ...]]] = None
        #: Where the file a sealed segment's short lists share ends
        #: (``None``: every list is a file of its own), its name, and
        #: its directory once read (see :meth:`_directory`).
        self.shared: Optional[SharedFile] = None
        self.shared_name: Optional[str] = None
        self._extents: Optional[Dict[int, Optional[Extent]]] = None
        if info is not None:
            #: Every file of the segment is under this name.
            self.root = f"{SEGMENT_PREFIX}{info.seg_no:06d}/"
            self.shared = info.shared
            self.shared_name = self.root + "short"
            self.prefix = self.root + "pl/"
            strategy = _assignment_for(info)
            self.layout = (
                info.num_lists,
                info.popular_terms if info.strategy == STRATEGY_POPULAR else (),
            )
        else:
            self.prefix = LIST_PREFIX
        self.strategy = strategy
        self._assignment = None
        #: Attached ``(list, jump index)`` pairs by list id.
        self._lists: Dict[
            int, Tuple[PostingList, Optional[BlockJumpIndex]]
        ] = {}

    # ------------------------------------------------------------------
    # term → list, list → WORM file
    # ------------------------------------------------------------------
    def assignment_through(self, term_id: int) -> TermAssignment:
        """The term→list assignment, covering at least ``0 .. term_id``.

        Strategies are stable under universe growth (see
        :class:`~repro.core.merge.MergeStrategy`), so a larger
        assignment is re-derived as higher term ids appear; terms
        already indexed keep their physical lists.
        """
        if (
            self._assignment is None
            or self._assignment.num_terms <= term_id
        ):
            universe = self.strategy.universe_size()
            if universe is None:
                universe = max(1024, 2 * (term_id + 1))
            elif term_id >= universe:
                raise WorkloadError(
                    f"term id {term_id} exceeds the fixed universe "
                    f"({universe} terms) the merge strategy was built for"
                )
            self._assignment = self.strategy.assign(universe)
        return self._assignment

    def list_for(self, term_id: int) -> int:
        """The physical list ``term_id`` maps to."""
        return self.assignment_through(term_id).list_for(term_id)

    def list_name(self, list_id: int) -> str:
        """The WORM file holding list ``list_id`` — or, for a short list
        of a shared file, the name it is known by."""
        return f"{self.prefix}{list_id:08d}"

    @property
    def short_limit(self) -> int:
        """The most postings a *short* list holds: one block of a file
        of its own — block 0, where the jump index sets no pointer."""
        if self.branching is None:
            return self.store.block_size // POSTING_SIZE
        return postings_per_block(self.store.block_size, self.branching)

    def _attach(
        self, list_id: int, *, create: bool = False
    ) -> Optional[Tuple[PostingList, Optional[BlockJumpIndex]]]:
        """The physical ``(list, jump index)``, attached on first use;
        ``None`` while the list has never been written (unless
        ``create``).  A short list of a shared file attaches as a
        read-only one-block list over its extent, under the name it
        would have as a file.

        Searches run in parallel and may first-touch one list at the
        same moment.  Each then builds a pair of its own; the pair is
        published by one assignment, so whichever lands last, everyone
        afterwards — the writer, which appends through the jump index's
        list, and the result-cache fingerprint, which reads that list's
        length — sees the same list.
        """
        attached = self._lists.get(list_id)
        if attached is None:
            name = self.list_name(list_id)
            extent = None
            if self.shared is not None:
                directory = self._directory()
                if list_id not in directory:
                    return None
                extent = directory[list_id]
            elif not create and not self.store.device.exists(name):
                return None
            jump = None
            if extent is not None:
                posting_list = PostingList(
                    self.store, name, entries_per_block=self.short_limit, extent=extent
                )
            elif self.branching is not None:
                jump = BlockJumpIndex.create(
                    self.store, name, branching=self.branching
                )
                posting_list = jump.posting_list
                if self.read_cache is not None:
                    jump.memo = self.read_cache.memo_for(name)
            else:
                posting_list = PostingList(self.store, name)
            if self.read_cache is not None:
                # Attached after construction, so restart recovery
                # (inside PostingList.__init__) always read the device.
                posting_list.read_cache = self.read_cache.blocks
            if self.decode_metrics is not None:
                posting_list.decode_metrics = self.decode_metrics
            attached = self._lists[list_id] = (posting_list, jump)
        return attached

    def _directory(self) -> Dict[int, Optional[Extent]]:
        """The shared file's directory, read on first use: for every
        non-empty list of the segment, by ID, ascending, a short list's
        extent in the data blocks, or ``None`` for a list in a file of
        its own.

        It is held to the manifest record: exactly the committed
        entries, ascending list IDs, the short lists filling exactly the
        committed data blocks, in order — so no extent leaves its block
        or skips a posting.
        """
        if self._extents is not None:
            return self._extents
        shared, name = self.shared, self.shared_name
        per_block = self.store.block_size // _ENTRY_SIZE
        try:
            worm_file = self.store.open_file(name) if any(shared) else None
            directory = b"".join(
                worm_file.read(
                    shared.blocks + at // per_block,
                    0,
                    min(per_block, shared.lists - at) * _ENTRY_SIZE,
                )
                for at in range(0, shared.lists, per_block)
            )
            fills = [worm_file.block(b).fill for b in range(shared.blocks)]
        except WormError as error:
            raise self._mismatch(f"is shorter than that: {error}") from None
        entries = np.frombuffer(directory, dtype=_ENTRY_DTYPE).reshape(-1, 3)
        ids = entries[:, 0].astype(np.int64)
        short = entries[:, 1] != _LONG
        block, count = entries[short, 1:].astype(np.int64).T
        # The row each short list starts at, counting through the data
        # blocks, and the first and last list of each block.
        starts = np.cumsum(count) - count
        opens = np.r_[True, np.diff(block) != 0][: len(block)]
        closes = np.r_[opens[1:], True][: len(block)]
        bases = starts[opens]
        if not (
            len(block) == shared.short_lists
            and (np.diff(ids) > 0).all()
            and (ids < self.info.num_lists).all()
            and np.array_equal(block[opens], np.arange(shared.blocks))
            and np.array_equal(((starts + count)[closes] - bases) * POSTING_SIZE, fills)
        ):
            raise self._mismatch("holds a directory that does not match it")
        extents = zip(
            [name] * len(block),
            block.tolist(),
            ((starts - bases[block]) * POSTING_SIZE).tolist(),
            (count * POSTING_SIZE).tolist(),
        )
        self._extents = {
            list_id: next(extents) if is_short else None
            for list_id, is_short in zip(ids.tolist(), short.tolist())
        }
        return self._extents

    def _mismatch(self, what: str) -> TamperDetectedError:
        return TamperDetectedError(
            f"segment {self.info.seg_no} commits {self.shared.blocks} data blocks and "
            f"{self.shared.lists} directory entries; its shared file {what}",
            location=f"shared file '{self.shared_name}'",
            invariant="segment-manifest",
        )

    def posting_list_for(
        self, term_id: int
    ) -> Optional[Tuple[PostingList, Optional[BlockJumpIndex]]]:
        """The committed ``(list, jump index)`` holding ``term_id``'s
        postings, or ``None`` while that list has never been written."""
        return self._attach(self.list_for(term_id))

    # ------------------------------------------------------------------
    # write path
    # ------------------------------------------------------------------
    def append_many(
        self, groups: Iterable[Tuple[int, Iterable[Tuple[int, int]]]]
    ) -> None:
        """Append ``(list_id, [(doc_id, term_code), ...])`` groups in the
        caller's order, creating lists on first use.  Entries of one
        list — pairs, or the rows of an ``(n, 2)`` array — must arrive
        in ascending doc order (the list enforces it).

        The directly-appended family grows a posting at a time, each
        append through Section 3's cache model (what FIG2 / FIG8B
        count).  A segment's lists are written once and never appended
        again, so they are bulk-loaded: one WORM record per block.
        """
        bulk = self.info is not None
        for list_id, entries in groups:
            posting_list, jump = self._attach(list_id, create=True)
            if bulk:
                load = posting_list.append_many if jump is None else jump.insert_many
                load(entries)
            else:
                add = posting_list.append if jump is None else jump.insert
                for doc_id, term_code in entries:
                    add(doc_id, term_code)

    def write_shared_file(
        self,
        list_ids: np.ndarray,
        counts: np.ndarray,
        short: np.ndarray,
        postings: np.ndarray,
    ) -> SharedFile:
        """Write a new segment's shared file; returns where it ends.

        ``list_ids`` / ``counts`` name every non-empty list, ascending,
        ``short`` marks those whose ``postings`` — an ``(n, 2)`` array,
        list after list — go into the data blocks: whole lists, next
        fit, so none straddles a block and each stays one block read.
        The directory follows in blocks of its own.  One WORM record per
        block, each held to the position it must land at; a document ID
        that descends inside a list raises before anything is written.
        """
        postings = posting_array(postings)
        ends = np.cumsum(counts[short])
        doc_ids = postings[:, 0]
        descents = np.setdiff1d(np.flatnonzero(doc_ids[1:] < doc_ids[:-1]) + 1, ends)
        if len(descents):
            at = int(descents[0])
            list_id = list_ids[short][np.searchsorted(ends, at, side="right")]
            raise DocumentIdOrderError(
                f"doc_id {doc_ids[at]} < last appended {doc_ids[at - 1]} in "
                f"posting list '{self.list_name(list_id)}'"
            )
        capacity = self.store.block_size // POSTING_SIZE
        rows = np.r_[0, ends]
        opens: List[int] = []  # the first list of each block
        first = 0
        while first < len(ends):
            opens.append(first)
            first = int(np.searchsorted(ends, rows[first] + capacity, side="right"))
        self.store.ensure_file(self.shared_name)
        bases = rows[opens].tolist()
        for block_no, (start, end) in enumerate(zip(bases, [*bases[1:], len(postings)])):
            self._append_block(postings[start:end].tobytes(), block_no)
        entries = np.empty((len(list_ids), 3), dtype=_ENTRY_DTYPE)
        entries[:, 0] = list_ids
        entries[:, 1] = _LONG
        entries[:, 2] = counts
        entries[short, 1] = np.searchsorted(opens, np.arange(len(ends)), side="right") - 1
        per_block = self.store.block_size // _ENTRY_SIZE
        for at in range(0, len(entries), per_block):
            self._append_block(
                entries[at : at + per_block].tobytes(), len(opens) + at // per_block
            )
        return SharedFile(len(opens), len(entries), len(ends))

    def _append_block(self, payload: bytes, block_no: int) -> None:
        position = self.store.append_record(
            self.shared_name, payload, force_new_block=True
        )
        if position != (block_no, 0):
            # The file held bytes this writer never appended.
            raise TamperDetectedError(
                f"block record landed at {position}, expected {(block_no, 0)}",
                location=f"shared file '{self.shared_name}', block {block_no}",
                invariant="posting-block-position",
            )

    # ------------------------------------------------------------------
    # query paths
    # ------------------------------------------------------------------
    def conjunctive_doc_ids(
        self, term_ids: Sequence[int], costs: Optional[ReadCosts] = None
    ) -> Tuple[List[int], int, int]:
        """Documents in this family containing *all* terms (Section 4).

        Returns ``(doc_ids, seeks, blocks_read)`` and adds the zigzag
        join's full micro-costs to ``costs``; an absent or empty list
        short-circuits to no matches.
        """
        hints = self.length_hints
        cursors: List[MergedListCursor] = []
        sources: List[Tuple[int, PostingList]] = []
        for term_id in term_ids:
            list_id = self.list_for(term_id)
            attached = self._attach(list_id)
            if attached is None or not len(attached[0]):
                return [], 0, 0
            posting_list, jump = attached
            sources.append((list_id, posting_list))
            cursors.append(
                MergedListCursor(
                    posting_list,
                    term_code=term_id,
                    jump_index=jump,
                    length_hint=(
                        hints.get(term_id, 0) if hints is not None else None
                    ),
                )
            )
        if costs is None:
            costs = ReadCosts()
        jumps = {c.jump_index for c in cursors if c.jump_index is not None}
        follows_before = sum(j.pointers_followed for j in jumps)
        doc_ids, blocks = conjunctive_join(cursors)
        seeks = sum(c.seeks for c in cursors)
        costs.lists += len({list_id for list_id, _ in sources})
        costs.seeks += seeks
        costs.jump_follows += (
            sum(j.pointers_followed for j in jumps) - follows_before
        )
        costs.used_jump_index |= bool(jumps)
        for (list_id, posting_list), cursor in zip(sources, cursors):
            read = cursor.blocks_read()
            costs.charge(list_id, read)
            costs.entries += read * posting_list.entries_per_block
            costs.block_cache_hits += cursor.cache_hits()
        return doc_ids, seeks, blocks

    def collect_candidates(
        self,
        wanted: Iterable[int],
        costs: Optional[ReadCosts] = None,
        peers: Sequence["MergedListFamily"] = (),
    ) -> List[TermColumn]:
        """The wanted terms' postings as ``(term_id, doc_ids, tfs)``
        columns (disjunctive path), ordered by ``(list id, term id)``;
        adds the scan's micro-costs to ``costs``.

        ``peers`` are later families of the same :attr:`layout`, read in
        the same scan: a term lives in the same list of each, and their
        document ranges are disjoint and ascending, so each list's
        blocks concatenate — this family's, then every peer's — into one
        sorted column that is masked once per term, not once per family.
        Blocks are fetched, counted and cached one at a time, as ever.
        """
        if costs is None:
            costs = ReadCosts()
        cached = self.read_cache is not None
        hits_before = self.read_cache.blocks.stats.hits if cached else 0
        terms_of: Dict[int, List[int]] = {}
        for term_id in sorted(set(wanted)):
            terms_of.setdefault(self.list_for(term_id), []).append(term_id)
        columns: List[TermColumn] = []
        for list_id in sorted(terms_of):
            doc_ids, term_codes = array(COLUMN_TYPECODE), array(COLUMN_TYPECODE)
            for family in (self, *peers):
                attached = family._attach(list_id)
                if attached is None:
                    continue
                posting_list, _ = attached
                costs.lists += 1
                costs.charge(list_id, posting_list.num_blocks)
                for block_docs, block_codes in posting_list.scan_columns(
                    counted=False, cached=cached
                ):
                    doc_ids.extend(block_docs)
                    term_codes.extend(block_codes)
            costs.entries += len(doc_ids)
            columns.extend(term_columns(doc_ids, term_codes, terms_of[list_id]))
        if cached:
            costs.block_cache_hits += (
                self.read_cache.blocks.stats.hits - hits_before
            )
        return columns

    # ------------------------------------------------------------------
    # maintenance / audit
    # ------------------------------------------------------------------
    def list_ids(self, own_files: bool = False) -> List[int]:
        """Every non-empty list, ascending — or only those that are
        files of their own.  A shared-file segment's directory names
        them; otherwise each is a file under the prefix, found by
        listing the device."""
        if self.shared is None:
            return [
                int(name[len(self.prefix) :])
                for name in self.store.device.list_files()
                if name.startswith(self.prefix)
            ]
        return [
            list_id
            for list_id, extent in self._directory().items()
            if extent is None or not own_files
        ]

    def list_names(self, own_files: bool = False) -> List[str]:
        """:meth:`list_ids` by name — a short list's being the one it
        would have as a file, its key in the read cache."""
        return [self.list_name(list_id) for list_id in self.list_ids(own_files)]

    def attached_names(self) -> List[str]:
        """The lists attached so far, by name: the only ones of this
        family the read cache can hold anything of."""
        return [posting_list.name for posting_list, _ in self._lists.values()]

    def attached_lists(
        self,
    ) -> Iterator[Tuple[PostingList, Optional[BlockJumpIndex]]]:
        """Attach and yield every committed ``(list, jump)`` pair."""
        for list_id in self.list_ids():
            yield self._attach(list_id)

    def read_columns(self) -> PostingColumns:
        """All postings of this family as ``(doc_ids, term_codes)``
        columns, list after list — a merge's input.

        Every committed block is read straight from the store, once — a
        shared file's data blocks whole, list starts from its directory,
        then each list file's — and nothing is attached: uncounted and
        uncached — merging is maintenance and must not evict the query
        working set from the decoded-block tier.  What attaching a list
        would have refused is refused here: a block that is not whole
        postings, and a list whose document IDs descend (one comparison
        over the whole column; a list may start below the end of the
        one before it).
        """
        payloads: List[bytes] = []
        list_ids: List[int] = []
        list_starts: List[int] = []
        count = 0
        if self.shared is not None:
            for list_id, extent in self._directory().items():
                if extent is not None:
                    list_ids.append(list_id)
                    list_starts.append(count)
                    count += extent[3] // POSTING_SIZE
            payloads = [
                self.store.peek_block(self.shared_name, block_no)
                for block_no in range(self.shared.blocks)
            ]
        for list_id in self.list_ids(own_files=True):
            name = self.list_name(list_id)
            list_ids.append(list_id)
            list_starts.append(count)
            for block_no in range(self.store.open_file(name).num_blocks):
                payloads.append(self.store.peek_block(name, block_no))
                count += len(payloads[-1]) // POSTING_SIZE
        postings = decode_blocks(payloads)
        if self.decode_metrics is not None:
            self.decode_metrics[0].inc(len(payloads))
            self.decode_metrics[1].inc(len(postings))
        doc_ids = postings[:, 0]
        descents = np.setdiff1d(
            np.flatnonzero(doc_ids[1:] < doc_ids[:-1]) + 1, list_starts
        )
        if len(descents):
            at = int(descents[0])
            which = bisect_right(list_starts, at) - 1
            raise TamperDetectedError(
                f"doc ID {doc_ids[at]} after {doc_ids[at - 1]}",
                location=f"posting list '{self.list_name(list_ids[which])}', "
                f"posting {at - list_starts[which]}",
                invariant="posting-monotonicity",
            )
        return doc_ids, postings[:, 1]

    def unreachable_files(self) -> List[Tuple[str, int]]:
        """An audit's findings under a shared-file segment's names:
        ``(file, bytes)`` for what no query reads — the shared file's
        bytes past the end its manifest record fixes, and every file
        that is neither it nor a long list of its directory."""
        if self.shared is None:
            return []
        own = set(self.list_names(own_files=True))
        committed = self.shared.lists * _ENTRY_SIZE + sum(
            extent[3] for extent in self._directory().values() if extent is not None
        )
        found = []
        for name in self.store.device.list_files():
            if name.startswith(self.root) and name not in own:
                size = self.store.open_file(name).total_bytes()
                if name != self.shared_name:
                    found.append((name, size))
                elif size != committed:
                    found.append((name, size - committed))
        return found

    def posting_count(self) -> int:
        return sum(len(pl) for pl, _ in self.attached_lists())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.info is None:
            return f"MergedListFamily('{self.prefix}')"
        return (
            f"SealedSegment(no={self.info.seg_no}, "
            f"docs=[{self.info.first_doc},{self.info.last_doc}])"
        )


#: A sealed segment is a family pinned to its manifest record.
SealedSegment = MergedListFamily


def choose_popular_terms(
    counts: Dict[int, int], k: int, num_lists: int
) -> Tuple[int, ...]:
    """The ``k`` most posting-heavy terms (ties broken by term id).

    Clamped so at least one hashed list remains
    (:class:`~repro.core.merge.PopularUnmergedMerge` requires
    ``len(popular) < num_lists``).
    """
    k = max(0, min(k, num_lists - 1, len(counts)))
    if k == 0:
        return ()
    ranked = sorted(counts, key=lambda t: (-counts[t], t))
    return tuple(sorted(ranked[:k]))


def validate_seal_strategy(name: str) -> str:
    """Validate an ``EngineConfig.seal_strategy`` value."""
    if name not in ("uniform", "popular", "epoch"):
        raise WorkloadError(
            f"unknown seal strategy '{name}'; choose from "
            f"'uniform', 'popular', 'epoch'"
        )
    return name
