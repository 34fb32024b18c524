"""Integration tests for the CLI over a sharded archive."""

import os

import pytest

from repro.cli import main, open_archive
from repro.sharding.engine import ShardedSearchEngine


@pytest.fixture()
def archive(tmp_path):
    return str(tmp_path / "records.worm")


def run(*argv):
    return main(list(argv))


def init_sharded(archive, shards=3):
    assert (
        run(
            "init", "--archive", archive,
            "--num-lists", "32", "--branching", "0",
            "--shards", str(shards),
        )
        == 0
    )


class TestShardedInit:
    def test_init_reports_shard_count(self, archive, capsys):
        init_sharded(archive, shards=4)
        assert "4 shards" in capsys.readouterr().out

    def test_shard_count_persisted(self, archive):
        init_sharded(archive, shards=3)
        engine, handle = open_archive(archive)
        try:
            assert isinstance(engine, ShardedSearchEngine)
            assert engine.num_shards == 3
        finally:
            handle.close()

    def test_default_is_unsharded(self, archive):
        assert run("init", "--archive", archive) == 0
        engine, handle = open_archive(archive)
        try:
            assert not isinstance(engine, ShardedSearchEngine)
        finally:
            handle.close()


class TestShardedRoundTrip:
    def test_index_creates_shard_journals(self, archive, capsys):
        init_sharded(archive, shards=2)
        assert (
            run(
                "index", "--archive", archive,
                "--text", "imclone trading memo",
                "--text", "martha stewart statement",
                "--text", "waksal family sale",
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "committed doc 0" in out
        assert "committed doc 2" in out
        for shard_id in range(2):
            assert os.path.exists(f"{archive}.shard{shard_id:02d}")

    def test_search_spans_shards(self, archive, capsys):
        init_sharded(archive, shards=3)
        run(
            "index", "--archive", archive,
            "--text", "imclone trading memo",
            "--text", "imclone quarterly report",
            "--text", "unrelated finance audit",
        )
        capsys.readouterr()
        assert run("search", "--archive", archive, "imclone") == 0
        out = capsys.readouterr().out
        assert "doc 0" in out
        assert "doc 1" in out
        assert "doc 2" not in out

    def test_batch_size_flag(self, archive, capsys):
        init_sharded(archive, shards=2)
        texts = []
        for i in range(7):
            texts += ["--text", f"bulk document number {i}"]
        assert (
            run(
                "index", "--archive", archive, "--batch-size", "3", *texts
            )
            == 0
        )
        out = capsys.readouterr().out
        assert out.count("committed doc") == 7

    def test_verified_search_on_clean_archive(self, archive, capsys):
        init_sharded(archive)
        run("index", "--archive", archive, "--text", "imclone memo")
        capsys.readouterr()
        assert (
            run("search", "--archive", archive, "imclone", "--verify") == 0
        )
        assert "WARNING" not in capsys.readouterr().err


class TestShardedOps:
    def test_audit_covers_shards_and_map(self, archive, capsys):
        init_sharded(archive, shards=2)
        run(
            "index", "--archive", archive,
            "--text", "alpha beta", "--text", "gamma delta",
        )
        capsys.readouterr()
        assert run("audit", "--archive", archive) == 0
        assert "0 with violations" in capsys.readouterr().out

    def test_stats_reports_shard_layout(self, archive, capsys):
        init_sharded(archive, shards=3)
        run("index", "--archive", archive, "--text", "some record text")
        capsys.readouterr()
        assert run("stats", "--archive", archive) == 0
        out = capsys.readouterr().out
        assert "shards" in out
        assert "shard_documents" in out

    def test_profile_uses_sharded_profiler(self, archive, capsys):
        init_sharded(archive, shards=2)
        run(
            "index", "--archive", archive,
            "--text", "alpha beta", "--text", "alpha gamma",
        )
        capsys.readouterr()
        assert run("profile", "--archive", archive, "alpha") == 0
        assert "2 shards" in capsys.readouterr().out

    def test_dispose_across_shards(self, archive, capsys):
        assert (
            run(
                "init", "--archive", archive,
                "--branching", "0", "--shards", "2", "--retention", "5",
            )
            == 0
        )
        run(
            "index", "--archive", archive,
            "--text", "ephemeral one", "--text", "ephemeral two",
        )
        capsys.readouterr()
        assert run("dispose", "--archive", archive, "--now", "100") == 0
        assert "disposed 2" in capsys.readouterr().out
