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

Cost: a range query enters through the jump index and then reads the log
sequentially — one counted block read per log block scanned, from the
block holding the first qualifying record to the one holding the first
record past the range (or the log's end), every record in between
checked as it is decoded.
"""

from __future__ import annotations

import struct
from typing import Iterator, List, Optional, Tuple

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

    def _restore_from_worm(self) -> None:
        """Rebuild the jump index and counters from the committed log.

        Restart recovery: one uncounted pass that re-applies the same
        monotonicity checks as ingest, so a log tampered with between
        sessions fails loudly here rather than distorting later queries.
        """
        for offset, commit_time, doc_id in self._walk():
            if commit_time > self._last_time:
                self._jump.insert(commit_time, payload=offset)
            self._last_time = commit_time
            self._last_doc_id = doc_id
            self.count = offset + 1

    # ------------------------------------------------------------------
    # write path
    # ------------------------------------------------------------------
    def record_commit(self, doc_id: int, commit_time: int) -> None:
        """Append one commit record; real-time, like the posting lists.

        ``commit_time`` must be non-decreasing and ``doc_id`` strictly
        increasing — the physical truth an honest ingest pipeline
        produces.  Violations are caller bugs
        (:class:`~repro.errors.DocumentIdOrderError`); *stored* violations
        found later are tampering.
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
        offset = self.count
        self.store.append_record(self.name, _RECORD.pack(commit_time, doc_id))
        if commit_time > self._last_time:
            # First record at this time: index it with its log offset.
            self._jump.insert(commit_time, payload=offset)
        self._last_time = commit_time
        self._last_doc_id = doc_id
        self.count += 1

    # ------------------------------------------------------------------
    # read path
    # ------------------------------------------------------------------
    def _walk(
        self, start_offset: int = 0, *, counted: bool = False
    ) -> Iterator[Tuple[int, int, int]]:
        """Yield ``(offset, commit_time, doc_id)`` from record
        ``start_offset`` to the end of the committed log, checked.

        The one reader of the log.  The extent comes from WORM state,
        not writer memory: a certified reader must scan everything
        actually committed — including records Mala appended around the
        honest writer, whose in-memory count would not include them.
        Each block is read once (a counted read with ``counted``) and
        must hold whole records, every block but the tail a full
        complement of them, or record offsets would not address the log;
        both fields of every record must be monotonic after the record
        before it.
        """
        read = self.store.read_block if counted else self.store.peek_block
        per_block = self._records_per_block
        tail_block = self._file.num_blocks - 1
        prev_time, prev_doc = -1, -1
        for block_no in range(start_offset // per_block, tail_block + 1):
            payload = read(self.name, block_no)
            if len(payload) % RECORD_SIZE or (
                block_no < tail_block
                and len(payload) != per_block * RECORD_SIZE
            ):
                raise TamperDetectedError(
                    f"commit log block {block_no} holds {len(payload)} "
                    f"bytes, not whole {RECORD_SIZE}-byte records",
                    location=f"commit log '{self.name}', block {block_no}",
                    invariant="commit-log-record-size",
                )
            if counted:
                self.blocks_scanned += 1
            offset = max(start_offset, block_no * per_block)
            for commit_time, doc_id in _RECORD.iter_unpack(
                memoryview(payload)[offset % per_block * RECORD_SIZE :]
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

    def docs_in_range(self, t_start: int, t_end: int) -> List[int]:
        """Document IDs committed with ``t_start <= time <= t_end``.

        Trust guarantees: the start position comes from the jump index
        (no entry can be skipped, Proposition 3) and the subsequent scan
        verifies monotonicity of both fields, so a retro-dated append
        surfaces as :class:`~repro.errors.TamperDetectedError` instead of
        silently distorting the answer.
        """
        if t_end < t_start:
            return []
        node_id = self._jump.find_geq_node(t_start)
        if node_id is None:
            return []
        start_offset = self._jump.node_payload(node_id)
        start_time = self._jump.node_value(node_id)
        if start_time > t_end:
            return []
        docs: List[int] = []
        for offset, commit_time, doc_id in self._walk(
            start_offset, counted=True
        ):
            if offset == start_offset and commit_time != start_time:
                raise TamperDetectedError(
                    f"jump node for time {start_time} points at record "
                    f"{offset} holding time {commit_time}",
                    location=f"commit log '{self.name}', record {offset}",
                    invariant="commit-time-jump-payload",
                )
            if commit_time > t_end:
                break
            docs.append(doc_id)
        return docs

    def iter_records(self) -> Iterator[Tuple[int, int]]:
        """Yield every committed ``(commit_time, doc_id)`` pair in order.

        Uncounted; used by restart recovery and offline audits.
        """
        for _, commit_time, doc_id in self._walk():
            yield commit_time, doc_id

    def first_commit_geq(self, t: int) -> Optional[int]:
        """Earliest indexed commit time ``>= t`` (``None`` if none)."""
        return self._jump.find_geq(t)

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
