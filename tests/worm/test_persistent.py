"""Unit tests for the journaled (file-backed) WORM device."""

import hashlib
import os
import shutil
import struct
import zlib

import pytest

from repro.errors import TamperDetectedError, WormError, WormViolationError
from repro.worm.persistent import (
    FORMAT_V1,
    FORMAT_V2,
    JOURNAL_MAGIC,
    JournaledWormDevice,
    scan_journal,
)
from tests.helpers import device_state

_V2_FRAME = struct.Struct("<BII")
DATA = os.path.join(os.path.dirname(__file__), os.pardir, "data")


@pytest.fixture()
def journal_path(tmp_path):
    return str(tmp_path / "device.journal")


def reopen(device, path):
    device.close()
    return JournaledWormDevice(path)


def v2_record_extents(data):
    """Byte extents ``(start, end)`` of every v2 record in ``data``."""
    extents = []
    offset = len(JOURNAL_MAGIC)
    while offset < len(data):
        _version, _crc, length = _V2_FRAME.unpack_from(data, offset)
        end = offset + _V2_FRAME.size + length
        extents.append((offset, end))
        offset = end
    return extents


def write_v1_journal(path, records):
    """Write a legacy v1 journal exactly as pre-v2 releases framed it.

    ``records`` are ``(opcode, body)`` pairs; sequence numbers are
    assigned in order.  v1 has no file magic and u16 record lengths.
    """
    with open(path, "wb") as handle:
        for seq, (opcode, body) in enumerate(records):
            tail = struct.pack("<Q", seq) + bytes([opcode]) + body
            handle.write(
                struct.pack("<I", zlib.crc32(tail))
                + struct.pack("<H", len(tail))
                + tail
            )


def v1_create_body(name, block_size, slot_count=0, retention=-1.0):
    raw = name.encode()
    return (
        struct.pack("<H", len(raw)) + raw
        + struct.pack("<I", block_size)
        + struct.pack("<I", slot_count)
        + struct.pack("<d", retention)
    )


def v1_append_body(name, payload, force_new=False):
    raw = name.encode()
    return (
        struct.pack("<H", len(raw)) + raw
        + bytes([1 if force_new else 0])
        + struct.pack("<I", len(payload))
        + payload
    )


class TestDurability:
    def test_files_survive_reopen(self, journal_path):
        device = JournaledWormDevice(journal_path, block_size=64)
        f = device.create_file("records", slot_count=2)
        f.append_record(b"first")
        f.append_record(b"second")
        f.set_slot(0, 1, 42)
        device = reopen(device, journal_path)
        g = device.open_file("records")
        assert g.read(0) == b"firstsecond"
        assert g.get_slot(0, 1) == 42
        assert g.block_size == 64
        assert g.slot_count == 2

    def test_block_layout_preserved(self, journal_path):
        device = JournaledWormDevice(journal_path, block_size=16)
        f = device.create_file("f")
        for _ in range(5):
            f.append_record(b"12345678")  # 2 per block
        f.append_record(b"x", force_new_block=True)
        layout = [(b.block_no, b.fill) for b in f.blocks()]
        device = reopen(device, journal_path)
        g = device.open_file("f")
        assert [(b.block_no, b.fill) for b in g.blocks()] == layout

    def test_appends_continue_after_reopen(self, journal_path):
        device = JournaledWormDevice(journal_path, block_size=64)
        device.create_file("f").append_record(b"one")
        device = reopen(device, journal_path)
        device.open_file("f").append_record(b"two")
        device = reopen(device, journal_path)
        assert device.open_file("f").read(0) == b"onetwo"

    def test_worm_semantics_survive_reopen(self, journal_path):
        device = JournaledWormDevice(journal_path)
        f = device.create_file("f", slot_count=1)
        f.append_record(b"data")
        f.set_slot(0, 0, 7)
        device = reopen(device, journal_path)
        g = device.open_file("f")
        with pytest.raises(WormViolationError):
            g.set_slot(0, 0, 8)

    def test_retention_and_delete_journaled(self, journal_path):
        device = JournaledWormDevice(journal_path)
        device.create_file("temp", retention_until=100.0)
        device.create_file("keep")
        device.delete_file("temp", now=200.0)
        device = reopen(device, journal_path)
        assert not device.exists("temp")
        assert device.exists("keep")

    def test_empty_journal_is_fresh_device(self, journal_path):
        device = JournaledWormDevice(journal_path)
        assert len(device) == 0

    def test_works_under_cached_store(self, journal_path):
        from repro.worm.storage import CachedWormStore

        device = JournaledWormDevice(journal_path, block_size=256)
        store = CachedWormStore(8, device=device)
        store.create_file("pl")
        for i in range(100):
            store.append_record("pl", b"x" * 8)
        device.close()
        store2 = CachedWormStore(8, device=JournaledWormDevice(journal_path))
        assert store2.open_file("pl").total_bytes() == 800

    def test_rejected_ops_never_reach_the_journal(self, journal_path):
        """An op the device refuses must not be logged (WAL validation)."""
        device = JournaledWormDevice(journal_path, block_size=16)
        f = device.create_file("f", slot_count=1)
        f.append_record(b"x")
        f.set_slot(0, 0, 1)
        before = os.path.getsize(journal_path)
        with pytest.raises(WormViolationError):
            f.append_record(b"y" * 17)  # exceeds block size
        with pytest.raises(WormViolationError):
            f.set_slot(0, 0, 2)  # write-once slot taken
        with pytest.raises(WormViolationError):
            device.delete_file("f")  # infinite retention
        assert os.path.getsize(journal_path) == before
        device = reopen(device, journal_path)
        assert device.open_file("f").read(0) == b"x"


class TestFormatV2:
    def test_new_journals_are_v2_with_magic(self, journal_path):
        device = JournaledWormDevice(journal_path)
        device.create_file("f")
        device.close()
        assert device.format_version == FORMAT_V2
        with open(journal_path, "rb") as handle:
            assert handle.read(len(JOURNAL_MAGIC)) == JOURNAL_MAGIC

    def test_large_append_round_trips(self, journal_path):
        """Regression: a >64 KiB payload overflowed the v1 u16 record length."""
        device = JournaledWormDevice(journal_path, block_size=1 << 20)
        payload = b"x" * 70000
        device.create_file("big").append_record(payload)
        device = reopen(device, journal_path)
        assert device.open_file("big").read(0) == payload

    def test_name_too_long_raises_worm_error(self, journal_path):
        device = JournaledWormDevice(journal_path)
        with pytest.raises(WormError, match="name too long"):
            device.create_file("n" * 70000)


class TestV1Compatibility:
    def _write_legacy(self, journal_path):
        write_v1_journal(
            journal_path,
            [
                (1, v1_create_body("f", block_size=64, slot_count=1)),
                (2, v1_append_body("f", b"legacy")),
                (3, (
                    struct.pack("<H", 1) + b"f"
                    + struct.pack("<I", 0)
                    + struct.pack("<I", 0)
                    + struct.pack("<Q", 99)
                )),
            ],
        )

    def test_v1_journal_replays(self, journal_path):
        self._write_legacy(journal_path)
        device = JournaledWormDevice(journal_path)
        assert device.format_version == FORMAT_V1
        f = device.open_file("f")
        assert f.read(0) == b"legacy"
        assert f.get_slot(0, 0) == 99

    def test_v1_journal_keeps_accepting_v1_appends(self, journal_path):
        self._write_legacy(journal_path)
        device = JournaledWormDevice(journal_path)
        device.open_file("f").append_record(b"-more")
        device = reopen(device, journal_path)
        assert device.format_version == FORMAT_V1
        assert device.open_file("f").read(0) == b"legacy-more"

    def test_v1_oversize_record_raises_worm_error_not_struct_error(
        self, journal_path
    ):
        self._write_legacy(journal_path)
        device = JournaledWormDevice(journal_path)
        device.create_file("big", block_size=1 << 20)
        with pytest.raises(WormError, match="overflows the length field"):
            device.open_file("big").append_record(b"x" * 70000)
        # The refused record was never logged: the device stays sound.
        device = reopen(device, journal_path)
        assert device.open_file("big").total_bytes() == 0

    def test_v1_scan(self, journal_path):
        self._write_legacy(journal_path)
        report = scan_journal(journal_path)
        assert report.ok
        assert report.format_version == FORMAT_V1
        assert report.records == 3


class TestCloseSemantics:
    def test_close_is_idempotent(self, journal_path):
        device = JournaledWormDevice(journal_path)
        device.create_file("f")
        device.close()
        device.close()  # second close is a no-op
        assert device.closed

    def test_write_after_close_raises(self, journal_path):
        device = JournaledWormDevice(journal_path)
        f = device.create_file("f")
        device.close()
        with pytest.raises(WormError, match="closed"):
            f.append_record(b"late")

    def test_context_manager_round_trip(self, journal_path):
        with JournaledWormDevice(journal_path, block_size=64) as device:
            device.create_file("f").append_record(b"ctx")
        assert device.closed
        with JournaledWormDevice(journal_path) as device:
            assert device.open_file("f").read(0) == b"ctx"

    def test_close_reopen_round_trip_with_group_commit(self, journal_path):
        device = JournaledWormDevice(
            journal_path, block_size=64, fsync=True, group_commit=8
        )
        f = device.create_file("f")
        for i in range(5):
            f.append_record(b"r%d" % i)
        device.close()  # must sync the open group tail
        device = JournaledWormDevice(journal_path)
        assert device.open_file("f").total_bytes() == 10


class TestEngineOnDisk:
    def test_full_engine_round_trip(self, journal_path):
        from repro.search.engine import EngineConfig, TrustworthySearchEngine
        from repro.worm.storage import CachedWormStore

        config = EngineConfig(num_lists=16, branching=4, block_size=512)
        device = JournaledWormDevice(journal_path, block_size=512)
        engine = TrustworthySearchEngine(
            config, store=CachedWormStore(None, device=device)
        )
        engine.index_document("imclone memo for stewart")
        engine.index_document("budget meeting notes")
        device.close()
        # A brand-new process: fresh device replayed from the journal.
        engine2 = TrustworthySearchEngine(
            config,
            store=CachedWormStore(None, device=JournaledWormDevice(journal_path)),
        )
        assert [r.doc_id for r in engine2.search("imclone")] == [0]
        assert engine2.documents.get(1).text == "budget meeting notes"


class TestTamperingAndCrashes:
    def _fill(self, journal_path):
        device = JournaledWormDevice(journal_path, block_size=64)
        f = device.create_file("f")
        for i in range(10):
            f.append_record(f"rec{i}".encode())
        device.close()

    def test_torn_tail_is_discarded_not_fatal(self, journal_path):
        self._fill(journal_path)
        with open(journal_path, "ab") as handle:
            handle.write(b"\x01\x02\x03")  # a torn partial record
        device = JournaledWormDevice(journal_path)
        assert device.open_file("f").total_bytes() == 40  # 10 * 'recN'

    def test_torn_tail_is_truncated_so_later_appends_survive(self, journal_path):
        """Regression: appends after a discarded torn tail used to be
        shadowed by the garbage bytes and silently lost on the next
        replay."""
        self._fill(journal_path)
        clean_size = os.path.getsize(journal_path)
        with open(journal_path, "ab") as handle:
            handle.write(b"\x99" * 7)
        device = JournaledWormDevice(journal_path)
        assert os.path.getsize(journal_path) == clean_size
        device.open_file("f").append_record(b"after-tear")
        device = reopen(device, journal_path)
        assert device.open_file("f").total_bytes() == 50

    def test_bit_flip_detected(self, journal_path):
        self._fill(journal_path)
        data = bytearray(open(journal_path, "rb").read())
        start, _end = v2_record_extents(data)[0]
        data[start + 11] ^= 0xFF  # inside the first record's tail
        open(journal_path, "wb").write(bytes(data))
        with pytest.raises(TamperDetectedError) as excinfo:
            JournaledWormDevice(journal_path)
        assert excinfo.value.invariant in ("journal-crc", "journal-sequence")

    def test_record_excision_detected(self, journal_path):
        """Deleting a middle record breaks the sequence numbering."""
        self._fill(journal_path)
        data = open(journal_path, "rb").read()
        extents = v2_record_extents(data)
        (_s1, e1), (_s2, e2) = extents[0], extents[1]
        open(journal_path, "wb").write(data[:e1] + data[e2:])
        with pytest.raises(TamperDetectedError) as excinfo:
            JournaledWormDevice(journal_path)
        assert excinfo.value.invariant == "journal-sequence"

    def test_unsupported_record_version_detected(self, journal_path):
        self._fill(journal_path)
        data = bytearray(open(journal_path, "rb").read())
        start, _end = v2_record_extents(data)[0]
        data[start] = 9  # bogus per-record format version
        open(journal_path, "wb").write(bytes(data))
        with pytest.raises(TamperDetectedError) as excinfo:
            JournaledWormDevice(journal_path)
        assert excinfo.value.invariant == "journal-record-version"

    def test_torn_magic_header_restarts_fresh(self, journal_path):
        with open(journal_path, "wb") as handle:
            handle.write(JOURNAL_MAGIC[:3])  # crash while stamping magic
        device = JournaledWormDevice(journal_path)
        assert len(device) == 0
        device.create_file("f").append_record(b"ok")
        device = reopen(device, journal_path)
        assert device.open_file("f").read(0) == b"ok"

    def test_fsync_mode(self, journal_path):
        device = JournaledWormDevice(journal_path, fsync=True)
        device.create_file("f").append_record(b"durable")
        device.close()
        assert JournaledWormDevice(journal_path).open_file("f").read(0) == b"durable"


def write_v2_journal(path, tails):
    """A v2 journal whose records carry ``tails`` verbatim, each under a
    valid frame and CRC — what an insider with the format in hand writes."""
    with open(path, "wb") as handle:
        handle.write(JOURNAL_MAGIC)
        for tail in tails:
            handle.write(_V2_FRAME.pack(FORMAT_V2, zlib.crc32(tail), len(tail)) + tail)


def v2_tail(seq, opcode, body):
    return struct.pack("<QB", seq, opcode) + body


class TestRecordSizes:
    """A record whose CRC holds but whose body is not the size its
    opcode and length fields say is refused — by replay and by the
    scan — instead of crashing ``struct`` or replaying cut to fit."""

    CREATE = v2_tail(0, 1, v1_create_body("f", 64))
    CRAFTED = {
        "tail-under-nine-bytes": [struct.pack("<Q", 0)[:5]],
        "truncated-create-body": [v2_tail(0, 1, v1_create_body("f", 64)[:-3])],
        # Inner u32 length says 64; 8 payload bytes are present.
        "append-length-beyond-body": [
            CREATE,
            v2_tail(1, 2, v1_append_body("f", b"x" * 64)[:-56]),
        ],
        "append-length-short-of-body": [
            CREATE,
            v2_tail(1, 2, v1_append_body("f", b"x" * 8) + b"trailing"),
        ],
        "name-longer-than-record": [v2_tail(0, 4, struct.pack("<H", 500) + b"f")],
        "set-slot-with-trailing-bytes": [
            CREATE,
            v2_tail(1, 3, struct.pack("<H", 1) + b"f" + struct.pack("<IIQ", 0, 0, 1) + b"!"),
        ],
    }

    @pytest.mark.parametrize("case", sorted(CRAFTED))
    def test_replay_and_scan_refuse_it(self, journal_path, case):
        write_v2_journal(journal_path, self.CRAFTED[case])
        with pytest.raises(TamperDetectedError) as excinfo:
            JournaledWormDevice(journal_path)
        assert excinfo.value.invariant == "journal-record-size"
        assert excinfo.value.location == f"journal '{journal_path}'"
        report = scan_journal(journal_path)
        assert not report.ok
        assert report.invariant == "journal-record-size"
        assert report.error == str(excinfo.value)
        assert report.records == len(self.CRAFTED[case]) - 1

    def test_exact_sizes_replay(self, journal_path):
        write_v2_journal(
            journal_path,
            [self.CREATE, v2_tail(1, 2, v1_append_body("f", b"x" * 8))],
        )
        assert JournaledWormDevice(journal_path).open_file("f").read(0) == b"x" * 8
        assert scan_journal(journal_path).ok


class TestFileNames:
    """A record whose CRC and sizes hold but whose file name is not
    UTF-8 is refused — by replay and by the scan alike — instead of
    crashing replay with a ``UnicodeDecodeError`` the scan never sees."""

    def test_non_utf8_name_is_refused(self, journal_path):
        name = b"\xff\xfe"
        body = struct.pack("<H", len(name)) + name + struct.pack("<IId", 64, 0, -1.0)
        write_v2_journal(journal_path, [v2_tail(0, 1, body)])
        with pytest.raises(TamperDetectedError) as excinfo:
            JournaledWormDevice(journal_path)
        assert excinfo.value.invariant == "journal-name"
        assert excinfo.value.location == f"journal '{journal_path}'"
        report = scan_journal(journal_path)
        assert not report.ok
        assert report.invariant == "journal-name"
        assert report.error == str(excinfo.value)
        assert report.records == 0


class TestReplayedState:
    """Replay rebuilds the device the committed archives were written
    to: the digest of every file's name, retention, slot count, block
    bytes and slots, as the parser before the single-pass replay loop
    computed it."""

    DIGESTS = {
        "tail_archive_pr15.worm": (
            201, "5e2662fdb0825e9f9ee662fef72a16d59ac095069cfd932f68848c046cd51ddc"
        ),
        "tail_archive_pr21.worm": (
            109, "835f88433e7161897da847c05b78d443277599797bc5eaaeb54c6400b4f8a652"
        ),
    }

    @pytest.mark.parametrize("archive", sorted(DIGESTS))
    def test_archive_replays_to_its_pinned_state(self, tmp_path, archive):
        path = str(tmp_path / archive)
        shutil.copy(os.path.join(DATA, archive), path)
        with JournaledWormDevice(path) as device:
            digest = hashlib.sha256(repr(device_state(device)).encode()).hexdigest()
            assert (device.records, digest) == self.DIGESTS[archive]


class TestScanJournal:
    def test_scan_clean_journal(self, journal_path):
        device = JournaledWormDevice(journal_path, block_size=64)
        device.create_file("f", slot_count=1)
        device.open_file("f").append_record(b"data")
        device.open_file("f").set_slot(0, 0, 1)
        device.close()
        report = scan_journal(journal_path)
        assert report.ok
        assert report.records == 3
        assert report.op_counts == {"create": 1, "append": 1, "set_slot": 1}
        assert report.torn_bytes == 0
        assert report.committed_bytes == os.path.getsize(journal_path)
        assert "OK" in report.summary()

    def test_scan_reports_torn_tail(self, journal_path):
        device = JournaledWormDevice(journal_path, block_size=64)
        device.create_file("f")
        device.close()
        with open(journal_path, "ab") as handle:
            handle.write(b"\x02\x01")
        report = scan_journal(journal_path)
        assert report.ok
        assert report.torn_bytes == 2
        assert "torn tail" in report.summary()

    def test_scan_reports_tampering_without_raising(self, journal_path):
        device = JournaledWormDevice(journal_path, block_size=64)
        device.create_file("f")
        device.open_file("f").append_record(b"data")
        device.close()
        data = bytearray(open(journal_path, "rb").read())
        start, _end = v2_record_extents(data)[0]
        data[start + 12] ^= 0xFF
        open(journal_path, "wb").write(bytes(data))
        report = scan_journal(journal_path)
        assert not report.ok
        assert report.invariant == "journal-crc"
        assert "TAMPERED" in report.summary()

    def test_scan_empty_journal(self, journal_path):
        open(journal_path, "wb").close()
        report = scan_journal(journal_path)
        assert report.ok
        assert report.records == 0
