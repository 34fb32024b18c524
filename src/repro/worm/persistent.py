"""Journaled WORM device: durable storage on the host filesystem.

The in-memory :class:`~repro.worm.device.WormDevice` simulates the
paper's storage box for experiments; :class:`JournaledWormDevice` makes
the same semantics *durable* by writing every mutating operation to an
append-only journal file before applying it, and replaying the journal
on open.  The journal is itself WORM-shaped: records are only ever
appended, each protected by a CRC32, with a strictly increasing sequence
number — so offline tampering with the journal (edits, reordering,
splices) is detected at replay time, exactly in the spirit of the
paper's read-time monotonicity checks.

Write-ahead contract
--------------------
Every mutating operation follows strict log-before-apply discipline
(ARIES-style): the operation is validated against the in-memory state,
then journaled, then applied.  If the journal write fails partway, the
partial frame is rolled back (truncated) and the in-memory state is left
untouched, so memory and journal never diverge inside a live process.
A crash between log and apply is harmless: replay applies the logged
operation on the next open.  Crash-safety is exercised exhaustively by
the fault-injection suite driving :mod:`repro.worm.faults`.

Journal formats (little-endian)
-------------------------------
Format **v2** (current; the file begins with the 8-byte magic
``b"WORMJRN2"``)::

    u8  record format version (currently 2)
    u32 crc32( everything after the length field )
    u32 record length
    u64 sequence number
    u8  opcode
    u16 name length | name bytes          (opcodes with a file name)
    ... opcode-specific fields ...

Format **v1** (legacy; no file magic) framed records with a *u16*
length, capping any record — and therefore any journaled append payload
— below 64 KiB::

    u32 crc32( everything after the length field )
    u16 record length
    u64 sequence number | u8 opcode | ...

v1 journals written by earlier releases replay transparently and keep
accepting v1-framed appends (with an explicit :class:`WormError` once a
record would overflow the u16 length, instead of a raw ``struct.error``).
New journals are always created in v2.

A torn final record (power loss mid-append) is distinguishable from
tampering: it fails to parse *and* is the suffix of the journal; replay
truncates it and continues, because the paper's commit contract is that
an operation counts once it is fully on stable storage.

Group commit
------------
With ``fsync=True``, durability defaults to one ``os.fsync`` per record.
``group_commit=N`` amortizes that to one fsync every N records; the
:meth:`JournaledWormDevice.sync` barrier forces the tail group down at
any time (and :meth:`~JournaledWormDevice.close` always ends with one).
"""

from __future__ import annotations

import os
import struct
import weakref
import zlib
from dataclasses import dataclass, field
from typing import BinaryIO, Dict, Iterator, Optional, Tuple

from repro.errors import TamperDetectedError, WormError
from repro.worm.device import DEFAULT_BLOCK_SIZE, WormDevice, WormFile

_OP_CREATE = 1
_OP_APPEND = 2
_OP_SET_SLOT = 3
_OP_DELETE = 4

#: Opcode -> human-readable operation name (used by journal scans).
OP_NAMES = {
    _OP_CREATE: "create",
    _OP_APPEND: "append",
    _OP_SET_SLOT: "set_slot",
    _OP_DELETE: "delete",
}

#: Journal format versions.
FORMAT_V1 = 1
FORMAT_V2 = 2

#: File magic opening every v2 journal; v1 journals have no magic.
JOURNAL_MAGIC = b"WORMJRN2"

_U16 = struct.Struct("<H")

#: v1 record frame: crc32, u16 record length.
_FRAME_V1 = struct.Struct("<IH")
#: v2 record frame: u8 record format version, crc32, u32 record length.
_FRAME_V2 = struct.Struct("<BII")

#: Largest record tail encodable in each format's length field.
_MAX_TAIL = {FORMAT_V1: 0xFFFF, FORMAT_V2: 0xFFFFFFFF}

#: Every record's tail opens with: u64 sequence number, u8 opcode, u16
#: file-name length (the name follows).  The writer packs the first two
#: in ``_write_record`` and the length with the name, in ``_name_bytes``.
_SEQ_OP = struct.Struct("<QB")
_TAIL_HEAD_SIZE = _SEQ_OP.size + _U16.size

#: A record's frame and the head of its tail, read by one unpack.
_HEAD = {
    FORMAT_V1: struct.Struct("<IHQBH"),
    FORMAT_V2: struct.Struct("<BIIQBH"),
}

#: Fixed fields following the file name, per opcode.  An append's are
#: ``force_new_block`` and the payload length; the payload follows them.
_FIELDS = {
    _OP_CREATE: struct.Struct("<IId"),  # block size, slot count, retention
    _OP_APPEND: struct.Struct("<BI"),
    _OP_SET_SLOT: struct.Struct("<IIQ"),  # block, slot, value
    _OP_DELETE: struct.Struct("<d"),  # now
}


#: A parsed record: ``(end offset, opcode, file name, fixed fields,
#: payload)``.  The payload is a view of the journal's bytes — no copy
#: until the device stores it — and is empty unless the record is an
#: append.
_Record = Tuple[int, int, str, tuple, memoryview]


def _records(data: bytes, start: int, fmt: int, path: str) -> Iterator[_Record]:
    """Parse the journal's bytes from ``start``, yielding each record.

    Stops at a torn final record (one that does not extend to a full
    frame); raises :class:`TamperDetectedError` for version, CRC, size,
    sequence, opcode or file-name violations.  A record whose CRC holds
    is exactly as long as its opcode and its own length fields say, or it
    is refused: nothing is read past a short body or silently cut to fit.
    A file name is decoded the first time it appears and looked up after.
    """
    # Replay runs this loop once per record; what it calls is bound here.
    crc32 = zlib.crc32
    layout = _FIELDS.get
    view = memoryview(data)
    size = len(data)
    v2 = fmt == FORMAT_V2
    head = _HEAD[fmt]
    frame = _FRAME_V2 if v2 else _FRAME_V1
    unpack_head, head_size, frame_size = head.unpack_from, head.size, frame.size
    names: Dict[bytes, str] = {}
    known_name = names.get
    offset = start
    seq = 0
    while offset < size:
        if offset + head_size <= size:
            values = unpack_head(data, offset)
        elif offset + frame_size <= size:
            # Too near the end for a whole head: the record is torn or
            # too short to name a file, and both are refused below
            # before the fields it lacks are read.
            values = frame.unpack_from(data, offset) + (None, None, None)
        else:
            return  # torn frame header
        if v2:
            version, crc, length, record_seq, opcode, name_len = values
            if version != FORMAT_V2:
                raise TamperDetectedError(
                    f"journal record at byte {offset} has unsupported format "
                    f"version {version}",
                    location=f"journal '{path}'",
                    invariant="journal-record-version",
                )
        else:
            crc, length, record_seq, opcode, name_len = values
        tail = offset + frame_size
        end = tail + length
        if end > size:
            return  # torn body
        if crc32(view[tail:end]) != crc:
            raise TamperDetectedError(
                f"journal record at byte {offset} fails its CRC",
                location=f"journal '{path}'",
                invariant="journal-crc",
            )
        if length < _TAIL_HEAD_SIZE:
            raise _bad_size(path, offset, length, "too short for a file name")
        if record_seq != seq:
            raise TamperDetectedError(
                f"journal record at byte {offset} claims sequence "
                f"{record_seq}, expected {seq}",
                location=f"journal '{path}'",
                invariant="journal-sequence",
            )
        fields = layout(opcode)
        if fields is None:
            raise TamperDetectedError(
                f"journal contains unknown opcode {opcode}",
                location=f"journal '{path}'",
                invariant="journal-opcode",
            )
        name_at = tail + _TAIL_HEAD_SIZE
        name_end = name_at + name_len
        body_end = name_end + fields.size
        if body_end > end:
            raise _bad_size(
                path, offset, length, f"too short for a {OP_NAMES[opcode]}'s fields"
            )
        values = fields.unpack_from(data, name_end)
        expected = body_end + values[1] if opcode == _OP_APPEND else body_end
        if expected != end:
            raise _bad_size(
                path, offset, length, f"but its fields describe {expected - tail}"
            )
        raw = data[name_at:name_end]
        name = known_name(raw)
        if name is None:
            try:
                name = names[raw] = raw.decode("utf-8")
            except UnicodeDecodeError:
                raise TamperDetectedError(
                    f"journal record at byte {offset} names a file in bytes "
                    "that are not UTF-8",
                    location=f"journal '{path}'",
                    invariant="journal-name",
                ) from None
        yield end, opcode, name, values, view[body_end:end]
        offset = end
        seq += 1


def _bad_size(path: str, offset: int, length: int, what: str) -> TamperDetectedError:
    return TamperDetectedError(
        f"journal record at byte {offset} is {length} bytes long, {what}",
        location=f"journal '{path}'",
        invariant="journal-record-size",
    )


def _sniff_format(data: bytes) -> Tuple[int, int, bool]:
    """Classify journal bytes: ``(format, record start offset, torn header)``.

    A strict prefix of the v2 magic is a journal torn during creation —
    treated as empty (the caller truncates and re-stamps the magic).
    """
    if data.startswith(JOURNAL_MAGIC):
        return FORMAT_V2, len(JOURNAL_MAGIC), False
    if data and len(data) < len(JOURNAL_MAGIC) and JOURNAL_MAGIC.startswith(data):
        return FORMAT_V2, len(JOURNAL_MAGIC), True
    if data:
        return FORMAT_V1, 0, False
    return FORMAT_V2, len(JOURNAL_MAGIC), False


@dataclass
class JournalScanReport:
    """fsck-style summary of one journal file (no state is applied)."""

    path: str
    format_version: int
    records: int = 0
    op_counts: Dict[str, int] = field(default_factory=dict)
    #: Journal bytes (frames included) spent on each operation.
    op_bytes: Dict[str, int] = field(default_factory=dict)
    #: Data bytes carried by append records — what the device stores;
    #: ``committed_bytes / payload_bytes`` is the journal's framing cost.
    payload_bytes: int = 0
    total_bytes: int = 0
    #: Bytes covered by fully committed records (magic + whole frames).
    committed_bytes: int = 0
    #: Trailing bytes of a torn final record (discarded at replay).
    torn_bytes: int = 0
    #: Tamper diagnosis, or ``None`` when the journal is sound.
    error: Optional[str] = None
    #: Short name of the violated invariant when ``error`` is set.
    invariant: str = ""

    @property
    def ok(self) -> bool:
        """Whether the journal replays without a tamper alarm."""
        return self.error is None

    def summary(self) -> str:
        """One human-readable line per journal, fsck style."""
        status = "OK" if self.ok else "TAMPERED"
        if self.ok and self.torn_bytes:
            status = f"OK (torn tail: {self.torn_bytes} B discarded)"
        ops = ", ".join(
            f"{name}={count}" for name, count in sorted(self.op_counts.items())
        )
        line = (
            f"{self.path}: {status}  format=v{self.format_version} "
            f"records={self.records} bytes={self.committed_bytes}"
        )
        if ops:
            line += f"  [{ops}]"
            spent = ", ".join(
                f"{name}={size}" for name, size in sorted(self.op_bytes.items())
            )
            line += f"  [bytes: {spent}; payload={self.payload_bytes}]"
        if not self.ok:
            line += f"\n  {self.invariant}: {self.error}"
        return line


def scan_journal(path: str) -> JournalScanReport:
    """Verify a journal file without constructing a device.

    Walks every record through the parser replay uses, so it checks
    what replay checks of each record by itself — framing, CRC, sizes,
    sequence number, opcode, file name — but applies nothing, so it is
    safe to run on corrupt or foreign files.  What only applying shows
    (an append to a file that was never created, a slot set twice) is
    found by replay alone.
    """
    with open(path, "rb") as handle:
        data = handle.read()
    fmt, offset, torn_header = _sniff_format(data)
    report = JournalScanReport(
        path=path, format_version=fmt, total_bytes=len(data)
    )
    if torn_header:
        report.torn_bytes = len(data)
        return report
    if not data:
        return report
    report.committed_bytes = min(offset, len(data))
    try:
        for end, opcode, _name, _fields, payload in _records(data, offset, fmt, path):
            name = OP_NAMES[opcode]
            report.op_counts[name] = report.op_counts.get(name, 0) + 1
            report.op_bytes[name] = report.op_bytes.get(name, 0) + end - offset
            report.payload_bytes += len(payload)
            report.records += 1
            offset = report.committed_bytes = end
    except TamperDetectedError as exc:
        report.error = str(exc)
        report.invariant = exc.invariant
    else:
        report.torn_bytes = len(data) - offset
    return report


class _JournaledWormFile(WormFile):
    """WormFile that journals appends and slot assignments (log first)."""

    __slots__ = ("_journal", "_name_field")

    def __init__(self, name, *, journal: "JournaledWormDevice", **kwargs):
        super().__init__(name, **kwargs)
        # Weak: the device holds its files, and a file holding its device
        # back would keep a dropped archive's blocks alive until the
        # cyclic collector happened to run.
        self._journal = weakref.ref(journal)
        #: The name as every record about this file carries it, encoded once.
        self._name_field = journal._name_bytes(name)

    def append_record(self, payload: bytes, *, force_new_block: bool = False):
        journal = self._journal()
        # Validate -> log -> apply: a payload the device would refuse is
        # never journaled, and a journaled payload is always applied.
        self.validate_append(payload)
        journal.log_append(self._name_field, payload, force_new_block)
        journal._fault_point("append:between-log-and-apply")
        result = super().append_record(payload, force_new_block=force_new_block)
        journal._fault_point("append:after-apply")
        return result

    def set_slot(self, block_no: int, slot_no: int, value: int) -> None:
        journal = self._journal()
        self.validate_set_slot(block_no, slot_no)
        journal.log_set_slot(self.name, block_no, slot_no, value)
        journal._fault_point("set_slot:between-log-and-apply")
        super().set_slot(block_no, slot_no, value)
        journal._fault_point("set_slot:after-apply")


class JournaledWormDevice(WormDevice):
    """A WORM device whose full state is journaled to one host file.

    Parameters
    ----------
    path:
        Journal file path.  Created if missing (format v2); replayed if
        present (v1 and v2 journals both replay; the on-disk format is
        preserved for subsequent appends).
    block_size:
        Default block size for new files (must match across sessions;
        recorded per file in the journal).
    fsync:
        Call ``os.fsync`` after journal writes.  Durable but slow;
        defaults to off for experiments.
    group_commit:
        With ``fsync=True``, fsync once per ``group_commit`` records
        instead of once per record; :meth:`sync` is the explicit
        barrier, and :meth:`close` always syncs the tail group.
    """

    def __init__(
        self,
        path: str,
        *,
        block_size: int = DEFAULT_BLOCK_SIZE,
        fsync: bool = False,
        group_commit: int = 1,
    ):
        super().__init__(block_size=block_size)
        if group_commit < 1:
            raise ValueError(f"group_commit must be >= 1, got {group_commit}")
        self.path = path
        self.fsync = fsync
        self.group_commit = group_commit
        self._sequence = 0
        self._pending_records = 0
        self._closed = False
        data = b""
        if os.path.exists(path):
            with open(path, "rb") as handle:
                data = handle.read()
        self.format_version, body_start, torn_header = _sniff_format(data)
        self._journal_file: BinaryIO = self._open_journal(path)
        if torn_header:
            # Crash while stamping the magic of a brand-new journal:
            # nothing was ever committed, so restart from scratch.
            os.ftruncate(self._journal_file.fileno(), 0)
            data = b""
        if not data:
            self._journal_file.write(JOURNAL_MAGIC)
            self._journal_file.flush()
            self._journal_size = len(JOURNAL_MAGIC)
        else:
            self._journal_size = len(data)
            self._replay(data, body_start)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def _open_journal(self, path: str) -> BinaryIO:
        """Open the append handle; the fault-injecting device wraps it.

        Unbuffered, so every journal write reaches the OS immediately
        and a failed write can be rolled back to an exact byte boundary.
        """
        return open(path, "ab", buffering=0)

    def _fault_point(self, name: str) -> None:
        """Crash-point hook between WAL stages; a no-op in production.

        :class:`repro.worm.faults.FaultInjectingWormDevice` overrides
        this to simulate power loss at any registered point.
        """

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called."""
        return self._closed

    @property
    def records(self) -> int:
        """Journal records committed so far (the WAL sequence number)."""
        return self._sequence

    @property
    def journal_bytes(self) -> int:
        """Committed journal size in bytes (magic header included)."""
        return self._journal_size

    @property
    def pending_records(self) -> int:
        """Records in the open group-commit batch, not yet fsynced."""
        return self._pending_records

    def sync(self) -> None:
        """Durability barrier: flush and fsync the journal now.

        Completes any open group-commit batch regardless of the
        ``fsync`` setting, so callers can run with ``fsync=False`` and
        still place explicit durability points.
        """
        if self._closed:
            raise WormError(f"journal '{self.path}' is closed")
        self._journal_file.flush()
        self._fsync_journal()
        self._pending_records = 0

    def close(self) -> None:
        """Sync and close the journal handle (idempotent).

        The in-memory device state stays readable; only further
        journaled mutations are refused.
        """
        if self._closed:
            return
        try:
            if self._pending_records:
                self.sync()
        finally:
            self._closed = True
            self._journal_file.close()

    def __enter__(self) -> "JournaledWormDevice":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # file factory / namespace ops (journaled, log-before-apply)
    # ------------------------------------------------------------------
    def _new_file(self, name: str, **kwargs) -> WormFile:
        return _JournaledWormFile(name, journal=self, **kwargs)

    def create_file(self, name, *, block_size=None, slot_count=0,
                    retention_until=None):
        self.validate_create(name)
        self._log_create(
            name, block_size or self.block_size, slot_count, retention_until
        )
        self._fault_point("create:between-log-and-apply")
        worm_file = super().create_file(
            name,
            block_size=block_size,
            slot_count=slot_count,
            retention_until=retention_until,
        )
        self._fault_point("create:after-apply")
        return worm_file

    def delete_file(self, name: str, *, now: Optional[float] = None) -> None:
        self.validate_delete(name, now=now)
        body = self._name_bytes(name) + _FIELDS[_OP_DELETE].pack(
            now if now is not None else -1.0
        )
        self._write_record(_OP_DELETE, body)
        self._fault_point("delete:between-log-and-apply")
        super().delete_file(name, now=now)
        self._fault_point("delete:after-apply")

    # ------------------------------------------------------------------
    # journal writing
    # ------------------------------------------------------------------
    @staticmethod
    def _name_bytes(name: str) -> bytes:
        raw = name.encode("utf-8")
        if len(raw) > 0xFFFF:
            raise WormError(f"file name too long to journal: {len(raw)} bytes")
        return _U16.pack(len(raw)) + raw

    def _write_record(self, opcode: int, body: bytes) -> None:
        if self._closed:
            raise WormError(f"journal '{self.path}' is closed")
        tail = _SEQ_OP.pack(self._sequence, opcode) + body
        if len(tail) > _MAX_TAIL[self.format_version]:
            raise WormError(
                f"record of {len(tail)} bytes overflows the length field of "
                f"journal format v{self.format_version} "
                f"(max {_MAX_TAIL[self.format_version]} bytes)"
                + (
                    "; re-create the archive to get a v2 journal with u32 "
                    "record lengths"
                    if self.format_version == FORMAT_V1
                    else ""
                )
            )
        if self.format_version == FORMAT_V1:
            frame = _FRAME_V1.pack(zlib.crc32(tail), len(tail)) + tail
        else:
            frame = _FRAME_V2.pack(FORMAT_V2, zlib.crc32(tail), len(tail)) + tail
        committed = self._journal_size
        pending = self._pending_records
        try:
            self._journal_file.write(frame)
            self._journal_file.flush()
            if self.fsync:
                self._pending_records += 1
                if self._pending_records >= self.group_commit:
                    self._fsync_journal()
                    self._pending_records = 0
        except Exception:
            # Rollback-on-log-failure: scrub any partially written frame
            # so the journal never runs ahead of (or diverges from) the
            # in-memory state the caller is about to leave unmutated.
            # Simulated crashes derive from BaseException and skip this
            # — a power loss leaves its torn bytes for replay to discard.
            self._pending_records = pending
            self._rollback_journal(committed)
            raise
        self._journal_size = committed + len(frame)
        self._sequence += 1

    def _rollback_journal(self, size: int) -> None:
        try:
            self._journal_file.flush()
        except Exception:
            pass  # best effort; ftruncate below is what matters
        os.ftruncate(self._journal_file.fileno(), size)

    def _fsync_journal(self) -> None:
        # The fault-injecting wrapper exposes its own fsync so syncs can
        # be counted and failed; a plain file handle falls back to the OS.
        fsync = getattr(self._journal_file, "fsync", None)
        if fsync is not None:
            fsync()
        else:
            os.fsync(self._journal_file.fileno())

    def _log_create(
        self,
        name: str,
        block_size: int,
        slot_count: int,
        retention_until: Optional[float],
    ) -> None:
        retention = retention_until if retention_until is not None else -1.0
        body = self._name_bytes(name) + _FIELDS[_OP_CREATE].pack(
            block_size, slot_count, retention
        )
        self._write_record(_OP_CREATE, body)

    def log_append(
        self, name_field: bytes, payload: bytes, force_new_block: bool
    ) -> None:
        """Journal one data append (called by the file before applying).

        ``name_field`` is the file's name as :meth:`_name_bytes` encodes it.
        """
        body = b"".join(
            (
                name_field,
                _FIELDS[_OP_APPEND].pack(bool(force_new_block), len(payload)),
                payload,
            )
        )
        self._write_record(_OP_APPEND, body)

    def log_set_slot(self, name: str, block_no: int, slot_no: int, value: int) -> None:
        """Journal one write-once slot assignment."""
        body = self._name_bytes(name) + _FIELDS[_OP_SET_SLOT].pack(
            block_no, slot_no, value
        )
        self._write_record(_OP_SET_SLOT, body)

    # ------------------------------------------------------------------
    # replay
    # ------------------------------------------------------------------
    def _replay(self, data: bytes, start: int) -> None:
        """Apply every committed record to the in-memory device.

        Records apply through the base device and file, which log
        nothing.  An append — nearly every record of a journal that
        appends a posting at a time — goes from the parser to the file in
        the loop itself; ``open_file`` raises for a file never created.
        """
        files = self._files
        append = WormFile.append_record
        committed = start
        records = 0
        for committed, opcode, name, fields, payload in _records(
            data, start, self.format_version, self.path
        ):
            records += 1
            if opcode == _OP_APPEND:
                worm_file = files.get(name) or self.open_file(name)
                append(worm_file, payload, force_new_block=fields[0])
            else:
                self._apply(opcode, name, fields)
        self._sequence = records
        if committed < len(data):
            # Torn tail: discard the trailing record on disk too, so new
            # appends land at the committed boundary instead of after
            # crash garbage (which would shadow them forever).
            os.ftruncate(self._journal_file.fileno(), committed)
            self._journal_size = committed

    def _apply(self, opcode: int, name: str, fields: tuple) -> None:
        """Replay a create, slot assignment or delete."""
        if opcode == _OP_CREATE:
            block_size, slot_count, retention = fields
            super().create_file(
                name,
                block_size=block_size,
                slot_count=slot_count,
                retention_until=None if retention < 0 else retention,
            )
        elif opcode == _OP_SET_SLOT:
            WormFile.set_slot(self.open_file(name), *fields)
        else:  # _OP_DELETE; _records rejects unknown opcodes
            (now,) = fields
            super().delete_file(name, now=None if now < 0 else now)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"JournaledWormDevice('{self.path}', files={len(self)}, "
            f"records={self._sequence}, format=v{self.format_version})"
        )
