"""CLI error paths: every bad input exits 2 with a diagnostic, not a trace.

The happy paths live in test_cli.py; this module covers the failure
modes an operator actually hits — missing archives, malformed queries,
bad knob values, unreadable input files.
"""

import pytest

from repro.cli import main


def run(*argv):
    return main(list(argv))


@pytest.fixture()
def archive(tmp_path):
    """A small initialized archive with two documents committed."""
    path = str(tmp_path / "archive.worm")
    assert run("init", "--archive", path, "--num-lists", "32") == 0
    assert (
        run(
            "index",
            "--archive",
            path,
            "--text",
            "imclone trading memo",
            "--text",
            "quarterly finance audit",
        )
        == 0
    )
    return path


class TestMissingArchive:
    def test_search_uninitialized_path(self, tmp_path, capsys):
        path = str(tmp_path / "nope.worm")
        assert run("search", "--archive", path, "memo") == 2
        assert "not an initialized archive" in capsys.readouterr().err

    def test_stats_uninitialized_path(self, tmp_path):
        assert run("stats", "--archive", str(tmp_path / "nope.worm")) == 2

    def test_audit_uninitialized_path(self, tmp_path):
        assert run("audit", "--archive", str(tmp_path / "nope.worm")) == 2

    def test_double_init_rejected(self, archive, capsys):
        assert run("init", "--archive", archive) == 2
        assert "already initialized" in capsys.readouterr().err


class TestMalformedQuery:
    def test_mixed_mode_query(self, archive, capsys):
        assert run("search", "--archive", archive, "+imclone memo") == 2
        assert capsys.readouterr().err

    def test_empty_query(self, archive):
        assert run("search", "--archive", archive, "   ") == 2

    def test_bad_time_range(self, archive):
        assert run("search", "--archive", archive, "memo @9..3") == 2


class TestBadKnobs:
    def test_init_zero_shards(self, tmp_path, capsys):
        path = str(tmp_path / "a.worm")
        assert run("init", "--archive", path, "--shards", "0") == 2
        assert "--shards must be >= 1" in capsys.readouterr().err

    def test_search_zero_cache_mb(self, archive, capsys):
        assert (
            run(
                "search", "--archive", archive, "memo",
                "--read-cache", "--cache-mb", "0",
            )
            == 2
        )
        assert "--cache-mb must be positive" in capsys.readouterr().err

    def test_search_negative_cache_mb(self, archive):
        assert (
            run(
                "search", "--archive", archive, "memo",
                "--read-cache", "--cache-mb", "-4",
            )
            == 2
        )

    def test_search_unknown_cache_policy(self, archive):
        # The read cache is LRU; argparse rejects the flag that chose.
        with pytest.raises(SystemExit) as exc:
            run(
                "search", "--archive", archive, "memo",
                "--read-cache", "--cache-policy", "arc",
            )
        assert exc.value.code == 2

    def test_search_zero_repeat(self, archive, capsys):
        assert (
            run("search", "--archive", archive, "memo", "--repeat", "0") == 2
        )
        assert "--repeat must be >= 1" in capsys.readouterr().err


class TestUnreadableFiles:
    def test_index_missing_file(self, archive, capsys):
        assert run("index", "--archive", archive, "/nonexistent/doc.txt") == 2
        assert "cannot read '/nonexistent/doc.txt'" in capsys.readouterr().err

    def test_index_nothing_to_index(self, archive, capsys):
        assert run("index", "--archive", archive) == 2
        assert "nothing to index" in capsys.readouterr().err

    def test_profile_missing_query_file(self, archive, capsys):
        assert (
            run(
                "profile", "--archive", archive,
                "--query-file", "/nonexistent/queries.txt",
            )
            == 2
        )
        assert "cannot read" in capsys.readouterr().err


class TestCacheHappyPathGuard:
    """The knobs that gate the error paths also work when valid."""

    def test_cached_search(self, archive, capsys):
        assert (
            run(
                "search", "--archive", archive, "memo",
                "--read-cache", "--cache-mb", "2", "--repeat", "3",
            )
            == 0
        )
        assert "imclone" in capsys.readouterr().out


class TestRetiredSubcommands:
    """``python3 -m bench`` measures the assembled system; the first
    harness's subcommands are gone, not hidden."""

    @pytest.mark.parametrize("command", ["loadtest", "capacity"])
    def test_argparse_rejects(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            run(command, "--help")
        assert exc.value.code == 2
        assert f"invalid choice: '{command}'" in capsys.readouterr().err
