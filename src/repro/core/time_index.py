"""Trustworthy commit-time index (Section 5).

Investigators supply target time ranges ("Nov.–Dec. 2001"); supporting
them trustworthily requires an index on document commit times such that
Mala can neither retroactively insert records "committed" in an earlier
period nor eliminate any entry from a time-range query result.

:class:`CommitTimeIndex` keeps an append-only WORM log of
``(commit_time, doc_id)`` records — both components monotonic, so any
retro-dated append is a monotonicity violation detectable at read time —
and reads it once, at restore, into two columns: commit times and
document IDs.  The paper puts a binary jump index over the times on WORM
so that a reader need not walk the log; here the restore walks it anyway,
with every check, so the columns *are* the checked log and a range query
is two ``searchsorted`` calls on the time column.  Mala cannot write
process memory, so an in-memory jump index would add no trust.

Cost: a range query is the two binary searches; it reads the log only
past the checked mark.  The answer is a document-ID interval, not
a list: every ID between two logged ones is either logged (and then
committed inside the range, both fields being monotonic) or burned by a
crash, which the engine filters.  The columns hold the log up to a
checked high-water mark — every record at restore, then every honest
append made while the mark covered the whole log — so only records
appended around the writer are read again, by the queries that reach
them.
"""

from __future__ import annotations

import struct
from typing import Optional, Tuple

import numpy as np

from repro.errors import DocumentIdOrderError, TamperDetectedError
from repro.worm.storage import CachedWormStore

_RECORD = struct.Struct("<QI")
#: Bytes per (commit_time, doc_id) log record: 8-byte time + 4-byte doc ID.
RECORD_SIZE = _RECORD.size
#: The same record as a packed numpy row, for reading a block at once.
_ROW = np.dtype([("time", "<u8"), ("doc", "<u4")])


class CommitTimeIndex:
    """Append-only log of document commit times, held in memory as two
    checked columns.

    Parameters
    ----------
    store:
        WORM store holding the log file.
    name:
        Log file name on the device.
    """

    def __init__(self, store: CachedWormStore, name: str = "commit-times"):
        self.store = store
        self.name = name
        self._file = store.ensure_file(name)
        #: Log blocks range queries read past the checked mark (diagnostics).
        self.blocks_scanned = 0
        self._records_per_block = store.block_size // RECORD_SIZE
        # Restart recovery: one uncounted pass with the same checks as
        # ingest, so a log tampered with between sessions fails loudly
        # here rather than distorting later queries.
        self._times, self._ids = self._scan()
        #: Number of committed records.
        self.count = self._checked = len(self._times)
        self._last_time, self._last_doc_id = self._checked_last()
        self._seen = self._extent()

    def _checked_last(self) -> Tuple[int, int]:
        """The last record below the checked mark, or ``(-1, -1)``."""
        at = self._checked - 1
        return (int(self._times[at]), int(self._ids[at])) if at >= 0 else (-1, -1)

    def _extent(self) -> Tuple[int, int]:
        """The log's blocks and its tail block's bytes: all of its WORM
        state that an append can change (only the tail takes appends)."""
        blocks = self._file.num_blocks
        return blocks, self._file.block(blocks - 1).fill if blocks else 0

    def columns(self) -> Tuple[np.ndarray, np.ndarray]:
        """The commit times (``uint64``) and document IDs (``uint32``) of
        the records below the checked mark, both ascending: after a
        restore, the whole log."""
        return self._times[: self._checked], self._ids[: self._checked]

    # ------------------------------------------------------------------
    # write path
    # ------------------------------------------------------------------
    def record_commit(self, doc_id: int, commit_time: int) -> None:
        """Append one commit record; real-time, like the posting lists.

        ``commit_time`` must be non-decreasing and ``doc_id`` strictly
        increasing — the physical truth an honest ingest pipeline
        produces.  Violations are caller bugs
        (:class:`~repro.errors.DocumentIdOrderError`); *stored* violations
        found later are tampering.  The record moves the checked mark,
        and joins the columns, when the mark covered the whole log
        before it: then it follows the last checked record, which is
        the writer's last one.  Any byte appended around the writer
        freezes the mark for the session.
        """
        if commit_time < self._last_time:
            raise DocumentIdOrderError(
                f"commit time {commit_time} precedes last committed "
                f"{self._last_time}; retro-dating is not a legal ingest"
            )
        if doc_id <= self._last_doc_id:
            raise DocumentIdOrderError(
                f"doc_id {doc_id} must exceed last committed {self._last_doc_id}"
            )
        covered = self._extent() == self._seen
        self.store.append_record(self.name, _RECORD.pack(commit_time, doc_id))
        self._last_time, self._last_doc_id = commit_time, doc_id
        self.count += 1
        if covered:
            at = self._checked
            if at == len(self._times):
                # Grown by doubling, so ingest stays linear; replaced,
                # never resized, like the ranking's length column.
                grow = max(at, 64)
                self._times = np.concatenate((self._times, np.empty(grow, np.uint64)))
                self._ids = np.concatenate((self._ids, np.empty(grow, np.uint32)))
            self._times[at], self._ids[at] = commit_time, doc_id
            self._checked = at + 1
            self._seen = self._extent()

    # ------------------------------------------------------------------
    # read path
    # ------------------------------------------------------------------
    def _read(self, block_no: int, *, counted: bool) -> bytes:
        """Log block ``block_no``, which must hold whole records — every
        block but the tail a full complement of them, or record offsets
        would not address the log."""
        payload = (self.store.read_block if counted else self.store.peek_block)(self.name, block_no)
        self.blocks_scanned += counted
        if len(payload) % RECORD_SIZE or (
            block_no < self._file.num_blocks - 1
            and len(payload) != self._records_per_block * RECORD_SIZE
        ):
            raise TamperDetectedError(
                f"commit log block {block_no} holds {len(payload)} "
                f"bytes, not whole {RECORD_SIZE}-byte records",
                location=f"commit log '{self.name}', block {block_no}",
                invariant="commit-log-record-size",
            )
        return payload

    def _scan(
        self, start: int = 0, *, after=(-1, -1), from_block=None, t_end=None, counted=False
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The times and document IDs of the records from ``start`` to
        the end of the committed log — or through the first record past
        ``t_end`` — checked.

        The one reader of the log.  The extent comes from WORM state,
        not writer memory: a certified reader must scan everything
        actually committed — including records Mala appended around the
        honest writer, whose in-memory count would not include them.
        Each block is read once (a counted read with ``counted``), from
        ``from_block`` (by default the one holding ``start``), and
        checked by :meth:`_read`; both fields of every record must be
        monotonic after the record before it, the first after ``after``.
        A violation is raised at the first offending record up to and
        including the first one past ``t_end``, where a record-at-a-time
        walk stops, and at none after it.
        """
        per_block = self._records_per_block
        prev_time, prev_doc = after
        if from_block is None:
            from_block = start // per_block
        times, ids = [np.empty(0, np.uint64)], [np.empty(0, np.uint32)]
        for block_no in range(from_block, self._file.num_blocks):
            skip = max(0, start - block_no * per_block)
            rows = np.frombuffer(self._read(block_no, counted=counted), _ROW)[skip:]
            if not len(rows):
                continue
            time, doc = rows["time"], rows["doc"]
            bad = np.empty(len(rows), dtype=bool)
            bad[0] = int(time[0]) < prev_time or int(doc[0]) <= prev_doc
            bad[1:] = (time[1:] < time[:-1]) | (doc[1:] <= doc[:-1])
            past = np.flatnonzero(time > t_end) if t_end is not None else ()
            end = past[0] + 1 if len(past) else len(rows)
            violations = np.flatnonzero(bad[:end])
            if len(violations):
                at = violations[0]
                if at:
                    prev_time, prev_doc = int(time[at - 1]), int(doc[at - 1])
                offset = block_no * per_block + skip + at
                raise TamperDetectedError(
                    f"commit log record {offset} ({time[at]}, "
                    f"{doc[at]}) violates monotonicity after "
                    f"({prev_time}, {prev_doc})",
                    location=f"commit log '{self.name}', record {offset}",
                    invariant="commit-time-monotonicity",
                )
            times.append(time[:end])
            ids.append(doc[:end])
            if len(past):
                break
            prev_time, prev_doc = int(time[-1]), int(doc[-1])
        return np.concatenate(times), np.concatenate(ids)

    def docs_in_range(self, t_start: int, t_end: int) -> Optional[Tuple[int, int]]:
        """The document-ID interval ``(first, last)`` committed with
        ``t_start <= time <= t_end``, or ``None`` when nothing was.

        ``first`` and ``last`` are logged IDs; the IDs in between that
        the log does not hold were burned by a crash, and the caller
        filters those.  The columns are the checked log, so each end is
        a binary search on the time column, and its ID is the ID column's
        there: nothing is read.  Past the checked mark — records
        appended around the writer — every record up to the first one
        past ``t_end`` is read and checked for monotonicity of both
        fields, so a retro-dated append surfaces as
        :class:`~repro.errors.TamperDetectedError` instead of silently
        distorting the answer.
        """
        # Bounds come from query text: clamp them to what a record's
        # time can hold, so the column searches compare within uint64.
        t_start, t_end = max(t_start, 0), min(t_end, 2**64 - 1)
        if t_end < t_start:
            return None
        times = self._times[: self._checked]
        low, high = times.searchsorted(t_start), times.searchsorted(t_end, "right")
        if high < self._checked or self._extent() == self._seen:
            return None if low == high else (int(self._ids[low]), int(self._ids[high - 1]))
        # The range reaches past the mark, and records were appended
        # around the writer: read them from the block that was the tail
        # when the mark last covered the log.
        times, ids = self._scan(
            self._checked,
            after=self._checked_last(),
            from_block=max(self._seen[0] - 1, 0),
            t_end=t_end,
            counted=True,
        )
        ids = ids[times.searchsorted(t_start) : times.searchsorted(t_end, "right")]
        if low < high:
            return int(self._ids[low]), int(ids[-1] if len(ids) else self._ids[high - 1])
        return (int(ids[0]), int(ids[-1])) if len(ids) else None

    @property
    def last_commit_time(self) -> int:
        """Most recent committed time (-1 while empty)."""
        return self._last_time

    def verify(self) -> int:
        """Full-log audit: monotonicity of every record; returns the
        number of records checked.

        Offline pass for auditors; uses uncounted reads.
        """
        self._scan()
        return self.count

    def __len__(self) -> int:
        return self.count

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CommitTimeIndex('{self.name}', records={self.count})"
