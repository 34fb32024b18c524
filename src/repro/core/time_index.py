"""Trustworthy commit-time index (Section 5).

Investigators supply target time ranges ("Nov.–Dec. 2001"); supporting
them trustworthily requires an index on document commit times such that
Mala can neither retroactively insert records "committed" in an earlier
period nor eliminate any entry from a time-range query result.

:class:`CommitTimeIndex` delivers both guarantees with the paper's own
machinery: an append-only WORM log of ``(commit_time, doc_id)`` records —
both components monotonic, so any retro-dated append is a monotonicity
violation detectable at read time — plus a binary jump index over the
distinct commit times whose node payloads are log offsets, giving
``O(log N)`` trustworthy range queries (the jump index's Proposition 3
guarantees no committed entry can be skipped).

Cost: a range query is two FindGeq on the jump index, one for each end
of the range, and one counted read of the record each lands on, checked
against the time the jump node claims.  The answer is a document-ID
interval, not a list: every ID between two logged ones is either logged
(and then committed inside the range, both fields being monotonic) or
burned by a crash, which the engine filters.  The log's order was checked
up to a high-water mark — every record at restore, then every honest
append made while the mark covered the whole log — so only records
appended around the writer are walked, by the queries that reach them.
"""

from __future__ import annotations

import struct
from typing import Iterator, Optional, Tuple

from repro.core.jump_index import JumpIndex
from repro.errors import DocumentIdOrderError, TamperDetectedError
from repro.worm.storage import CachedWormStore

_RECORD = struct.Struct("<QI")
#: Bytes per (commit_time, doc_id) log record: 8-byte time + 4-byte doc ID.
RECORD_SIZE = _RECORD.size


class CommitTimeIndex:
    """Jump-indexed append-only log of document commit times.

    Parameters
    ----------
    store:
        WORM store holding the log file.
    name:
        Log file name on the device.
    max_time_bits:
        Sizing of the commit-time space for the jump index (64-bit epoch
        timestamps by default).
    """

    def __init__(
        self,
        store: CachedWormStore,
        name: str = "commit-times",
        *,
        max_time_bits: int = 48,
    ):
        self.store = store
        self.name = name
        self._file = store.ensure_file(name)
        self._jump = JumpIndex(max_value_bits=max_time_bits)
        #: Number of committed records.
        self.count = 0
        self._last_time = -1
        self._last_doc_id = -1
        #: Log blocks read by range queries (diagnostics).
        self.blocks_scanned = 0
        self._records_per_block = store.block_size // RECORD_SIZE
        self._restore_from_worm()
        self._mark()

    def _restore_from_worm(self) -> None:
        """Rebuild the jump index and counters from the committed log.

        Restart recovery: one uncounted pass that re-applies the same
        monotonicity checks as ingest, so a log tampered with between
        sessions fails loudly here rather than distorting later queries.
        """
        for offset, commit_time, doc_id in self._walk():
            if commit_time > self._last_time:
                self._jump.insert(commit_time, payload=offset)
            self._last_time, self._last_doc_id, self.count = commit_time, doc_id, offset + 1

    def _mark(self) -> None:
        """Move the checked high-water mark over the whole log, which
        the writer's memory then describes: records ``[0, _checked)``
        are known monotonic, ``_checked_last`` is the last of them, and
        ``_seen`` is the log's extent now.  Below the mark the log is
        committed WORM bytes that cannot change, so no query checks
        those records again."""
        self._checked, self._checked_last = self.count, (self._last_time, self._last_doc_id)
        self._seen = self._extent()

    def _extent(self) -> Tuple[int, int]:
        """The log's blocks and its tail block's bytes: all of its WORM
        state that an append can change (only the tail takes appends)."""
        blocks = self._file.num_blocks
        return blocks, self._file.block(blocks - 1).fill if blocks else 0

    # ------------------------------------------------------------------
    # write path
    # ------------------------------------------------------------------
    def record_commit(self, doc_id: int, commit_time: int) -> None:
        """Append one commit record; real-time, like the posting lists.

        ``commit_time`` must be non-decreasing and ``doc_id`` strictly
        increasing — the physical truth an honest ingest pipeline
        produces.  Violations are caller bugs
        (:class:`~repro.errors.DocumentIdOrderError`); *stored* violations
        found later are tampering.  The record moves the checked mark
        when the mark covered the whole log before it: then it follows
        the last checked record, which is the writer's last one.
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
        offset = self.count
        self.store.append_record(self.name, _RECORD.pack(commit_time, doc_id))
        if commit_time > self._last_time:
            # First record at this time: index it with its log offset.
            self._jump.insert(commit_time, payload=offset)
        self._last_time, self._last_doc_id, self.count = commit_time, doc_id, offset + 1
        if covered:
            self._mark()

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

    def _walk(
        self, start_offset: int = 0, *, after=(-1, -1), from_block=None, counted=False
    ) -> Iterator[Tuple[int, int, int]]:
        """Yield ``(offset, commit_time, doc_id)`` from record
        ``start_offset`` to the end of the committed log, checked.

        The one reader of the log's records.  The extent comes from WORM
        state, not writer memory: a certified reader must scan everything
        actually committed — including records Mala appended around the
        honest writer, whose in-memory count would not include them.
        Each block is read once (a counted read with ``counted``), from
        ``from_block`` (by default the one holding ``start_offset``), and
        checked by :meth:`_read`; both fields of every record must be
        monotonic after the record before it, the first after ``after``.
        """
        per_block = self._records_per_block
        prev_time, prev_doc = after
        if from_block is None:
            from_block = start_offset // per_block
        for block_no in range(from_block, self._file.num_blocks):
            payload = self._read(block_no, counted=counted)
            offset = max(start_offset, block_no * per_block)
            for commit_time, doc_id in _RECORD.iter_unpack(
                memoryview(payload)[(offset - block_no * per_block) * RECORD_SIZE :]
            ):
                if commit_time < prev_time or doc_id <= prev_doc:
                    raise TamperDetectedError(
                        f"commit log record {offset} ({commit_time}, "
                        f"{doc_id}) violates monotonicity after "
                        f"({prev_time}, {prev_doc})",
                        location=f"commit log '{self.name}', record {offset}",
                        invariant="commit-time-monotonicity",
                    )
                yield offset, commit_time, doc_id
                prev_time, prev_doc = commit_time, doc_id
                offset += 1

    def _boundary(self, node_id: int) -> Tuple[int, int]:
        """The ``(commit_time, doc_id)`` record jump node ``node_id``
        points at, by one counted read, held to the node's time."""
        offset = self._jump.node_payload(node_id)
        block_no, at = divmod(offset, self._records_per_block)
        record = _RECORD.unpack_from(self._read(block_no, counted=True), at * RECORD_SIZE)
        node_time = self._jump.node_value(node_id)
        if record[0] != node_time:
            raise TamperDetectedError(
                f"jump node for time {node_time} points at record "
                f"{offset} holding time {record[0]}",
                location=f"commit log '{self.name}', record {offset}",
                invariant="commit-time-jump-payload",
            )
        return record

    def docs_in_range(self, t_start: int, t_end: int) -> Optional[Tuple[int, int]]:
        """The document-ID interval ``(first, last)`` committed with
        ``t_start <= time <= t_end``, or ``None`` when nothing was.

        The IDs in between that the log does not hold were burned by a
        crash; the caller filters those.  Trust guarantees: each end
        comes from the jump index (no entry can be skipped, Proposition
        3), and the record it lands on must hold the node's time.  The
        log below the checked mark was checked when it was restored or
        appended; past the mark — records appended around the writer —
        every record up to the first one past ``t_end`` is checked for
        monotonicity of both fields, so a retro-dated append surfaces as
        :class:`~repro.errors.TamperDetectedError` instead of silently
        distorting the answer.
        """
        if t_end < t_start:
            return None
        node_id = self._jump.find_geq_node(t_start)
        if node_id is None or self._jump.node_value(node_id) > t_end:
            return None
        start = self._jump.node_payload(node_id)
        first = after = self._boundary(node_id)
        # A record the writer indexed past the mark is walked on from.
        from_block = None
        if start < self._checked:
            if self._checked_last[0] > t_end:
                # The range ends inside the checked log, where the first
                # record past it is the one the next jump node points at.
                return first[1], self._boundary(self._jump.find_geq_node(t_end + 1))[1] - 1
            if self._extent() == self._seen:
                return first[1], self._checked_last[1]
            # Records appended around the writer: walk them from the
            # block that was the tail when the mark last covered the log.
            start, after, from_block = self._checked - 1, self._checked_last, self._seen[0] - 1
        last = after[1]
        for _, commit_time, doc_id in self._walk(
            start + 1, after=after, from_block=from_block, counted=True
        ):
            if commit_time > t_end:  # checked, and past the range
                break
            last = doc_id
        return first[1], last

    def iter_records(self) -> Iterator[Tuple[int, int]]:
        """Yield every committed ``(commit_time, doc_id)`` pair in order.

        Uncounted; used by restart recovery and offline audits.
        """
        for _, commit_time, doc_id in self._walk():
            yield commit_time, doc_id

    @property
    def last_commit_time(self) -> int:
        """Most recent committed time (-1 while empty)."""
        return self._last_time

    def verify(self) -> int:
        """Full-log audit: monotonicity of every record; returns the
        number of records checked.

        Offline pass for auditors; uses uncounted reads.
        """
        for _ in self._walk():
            pass
        return self.count

    def __len__(self) -> int:
        return self.count

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CommitTimeIndex('{self.name}', records={self.count})"
