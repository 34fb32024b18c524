"""The ``verify-journal`` subcommand and the CLI durability knobs."""

import os

import pytest

from repro.cli import main, open_archive
from repro.worm.persistent import JOURNAL_MAGIC, scan_journal


@pytest.fixture()
def archive(tmp_path):
    return str(tmp_path / "records.worm")


def run(*argv):
    return main(list(argv))


def _flip_byte(path, offset):
    with open(path, "r+b") as handle:
        handle.seek(offset)
        byte = handle.read(1)
        handle.seek(offset)
        handle.write(bytes([byte[0] ^ 0xFF]))


class TestVerifyJournal:
    def test_clean_archive(self, archive, capsys):
        run("init", "--archive", archive, "--num-lists", "32")
        run("index", "--archive", archive, "--text", "quarterly report")
        assert run("verify-journal", "--archive", archive) == 0
        out = capsys.readouterr().out
        assert "OK" in out
        assert "verified journal: clean" in out

    def test_tampered_archive(self, archive, capsys):
        run("init", "--archive", archive, "--num-lists", "32")
        run("index", "--archive", archive, "--text", "quarterly report")
        # Flip a byte deep inside the journal (past the magic + headers).
        _flip_byte(archive, os.path.getsize(archive) // 2)
        assert run("verify-journal", "--archive", archive) == 1
        captured = capsys.readouterr()
        assert "TAMPERED" in captured.out
        assert "TAMPERED" in captured.err

    def test_torn_tail_is_clean(self, archive, capsys):
        run("init", "--archive", archive, "--num-lists", "32")
        run("index", "--archive", archive, "--text", "quarterly report")
        with open(archive, "ab") as handle:
            handle.write(b"\x07\x07\x07")  # a torn partial record
        assert run("verify-journal", "--archive", archive) == 0
        assert "torn tail: 3 B discarded" in capsys.readouterr().out

    def test_missing_archive(self, archive, capsys):
        assert run("verify-journal", "--archive", archive) == 2
        assert "no archive" in capsys.readouterr().err

    def test_sharded_archive_scans_every_journal(self, archive, capsys):
        run("init", "--archive", archive, "--num-lists", "32", "--shards", "2")
        run(
            "index", "--archive", archive,
            "--text", "memo one", "--text", "memo two", "--text", "memo three",
        )
        assert run("verify-journal", "--archive", archive) == 0
        out = capsys.readouterr().out
        assert "verified 3 journals: clean" in out
        assert out.count("OK") == 3

    def test_sharded_archive_reports_the_bad_shard(self, archive, capsys):
        run("init", "--archive", archive, "--num-lists", "32", "--shards", "2")
        run(
            "index", "--archive", archive,
            "--text", "memo one", "--text", "memo two", "--text", "memo three",
        )
        shard0 = f"{archive}.shard00"
        assert os.path.exists(shard0)
        _flip_byte(shard0, os.path.getsize(shard0) // 2)
        assert run("verify-journal", "--archive", archive) == 1
        out = capsys.readouterr().out
        assert "TAMPERED" in out
        # The coordinator journal and the healthy shard still verify.
        assert out.count("OK") == 2

    def test_reports_bytes_per_opcode_and_payload(self, archive, capsys):
        """Framing overhead per stored byte can be read off any archive:
        a sealed segment's appends carry a block each, so their share of
        the journal is mostly payload; per-posting appends are mostly
        frame."""
        run("init", "--archive", archive, "--num-lists", "4",
            "--tail-max-docs", "64")
        run("index", "--archive", archive,
            *(arg for i in range(40) for arg in ("--text", f"memo {i} audit trail")))
        before = scan_journal(archive)
        run("segments", "--archive", archive, "--seal")
        capsys.readouterr()
        assert run("verify-journal", "--archive", archive) == 0
        out = capsys.readouterr().out
        report = scan_journal(archive)
        assert set(report.op_bytes) == set(report.op_counts)
        assert sum(report.op_bytes.values()) + len(JOURNAL_MAGIC) == (
            report.committed_bytes
        )
        spent = ", ".join(f"{op}={n}" for op, n in sorted(report.op_bytes.items()))
        assert f"[bytes: {spent}; payload={report.payload_bytes}]" in out
        # The seal alone: at least 120 postings ("memo", "audit" and
        # "trail" are in every memo) in a handful of block records.
        seal_appends = report.op_counts["append"] - before.op_counts["append"]
        seal_payload = report.payload_bytes - before.payload_bytes
        seal_bytes = report.op_bytes["append"] - before.op_bytes["append"]
        assert seal_payload >= 120 * 8
        assert seal_appends < 20
        assert seal_bytes < 2 * seal_payload


class TestDurabilityKnobs:
    def test_index_with_fsync_and_group_commit(self, archive, capsys):
        run("init", "--archive", archive, "--num-lists", "32")
        assert (
            run(
                "index", "--archive", archive,
                "--fsync", "--group-commit", "8",
                "--text", "imclone trading memo",
                "--text", "budget meeting notes",
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "committed doc 0" in out
        assert "committed doc 1" in out
        engine, device = open_archive(archive)
        try:
            assert [r.doc_id for r in engine.search("imclone")] == [0]
        finally:
            device.close()
