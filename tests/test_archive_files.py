"""An archive opens only the files it wrote, and only as it wrote them.

``open_archive(path, create=…, shards=K)`` must not adopt shard journals
that another archive left beside ``path``: the "new" archive would
answer that archive's documents and number its own after them.  And the
config record is a WORM file like any other, so anyone can append to
it: bytes after the record ``init`` wrote refuse the open with a typed
:class:`~repro.errors.TamperDetectedError`, as the engine's logs do, not
a ``JSONDecodeError`` or ``UnicodeDecodeError``.
"""

import os

import pytest

from repro.cli import _CONFIG_FILE, main, open_archive
from repro.errors import ReproError, TamperDetectedError
from repro.search.engine import EngineConfig
from repro.worm.persistent import JournaledWormDevice

CONFIG = EngineConfig(num_lists=16)
TEXTS = ["imclone memo", "quarterly memo", "stewart memo"]


def build(path, shards):
    engine, handle = open_archive(path, create=CONFIG, shards=shards)
    try:
        assert engine.index_batch(TEXTS) == [0, 1, 2]
    finally:
        handle.close()


def shard_journal(path, shard_id):
    return f"{path}.shard{shard_id:02d}"


class TestStrayShardJournals:
    @pytest.mark.parametrize("left", [(0, 1), (0,), (1,)], ids=["both", "shard00", "shard01"])
    def test_a_new_archive_refuses_journals_another_left(self, tmp_path, left):
        path = str(tmp_path / "archive.worm")
        build(path, shards=2)
        os.remove(path)
        for shard_id in {0, 1} - set(left):
            os.remove(shard_journal(path, shard_id))
        stray = rf"shard journal .*shard{left[0]:02d}' already exists"
        with pytest.raises(ReproError, match=stray):
            open_archive(path, create=CONFIG, shards=2)
        assert not os.path.exists(path)  # the refusal made no coordinator journal
        # Nothing was committed: with the strays gone, the same path
        # makes a new, empty archive.
        for shard_id in left:
            os.remove(shard_journal(path, shard_id))
        engine, handle = open_archive(path, create=CONFIG, shards=2)
        try:
            assert engine.search("memo") == []
            assert engine.index_batch(["gamma memo"]) == [0]
            assert [r.doc_id for r in engine.search("memo")] == [0]
        finally:
            handle.close()

    def test_the_cli_refuses_it_too(self, tmp_path, capsys):
        path = str(tmp_path / "archive.worm")
        build(path, shards=2)
        os.remove(path)
        assert main(["init", "--archive", path, "--shards", "2"]) == 2
        assert "shard00' already exists" in capsys.readouterr().err


#: What the engine logs' tests append: a control byte, bytes that are
#: not UTF-8, zero bytes, and the start of a JSON value.
HOSTILE = [b"\x01", b"\xff\xff\xff", b"\x00" * 7, b"{["]


@pytest.mark.parametrize("shards", [1, 2])
@pytest.mark.parametrize("payload", HOSTILE, ids=["x01", "xff", "zeros", "json-start"])
def test_bytes_appended_to_the_config_record_refuse_the_open(tmp_path, shards, payload, capsys):
    path = str(tmp_path / "archive.worm")
    build(path, shards)
    device = JournaledWormDevice(path)
    device.open_file(_CONFIG_FILE).append_record(payload)
    device.close()
    with pytest.raises(TamperDetectedError) as exc:
        open_archive(path)
    assert exc.value.invariant == "config-record"
    assert exc.value.location == f"config file '{_CONFIG_FILE}'"
    assert main(["search", "--archive", path, "memo"]) == 2
    assert "config record" in capsys.readouterr().err


@pytest.mark.parametrize("refusal", ["tampered", "initialized", "uninitialized"])
def test_a_refused_open_closes_the_journal_it_opened(tmp_path, monkeypatch, refusal):
    path = str(tmp_path / "archive.worm")
    if refusal != "uninitialized":
        build(path, shards=1)
    if refusal == "tampered":
        device = JournaledWormDevice(path)
        device.open_file(_CONFIG_FILE).append_record(b"\x01")
        device.close()
    opened = []
    init = JournaledWormDevice.__init__

    def tracked(device, *args, **kwargs):
        init(device, *args, **kwargs)
        opened.append(device)

    monkeypatch.setattr(JournaledWormDevice, "__init__", tracked)
    closed = []
    close = JournaledWormDevice.close

    def counted_close(device):
        closed.append(device)
        close(device)

    monkeypatch.setattr(JournaledWormDevice, "close", counted_close)
    with pytest.raises(ReproError):
        if refusal == "initialized":
            open_archive(path, create=CONFIG)
        else:
            open_archive(path)
    assert closed == opened and len(opened) == 1
