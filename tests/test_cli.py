"""Integration tests for the archive CLI."""

import pytest

from repro.cli import main, open_archive


@pytest.fixture()
def archive(tmp_path):
    return str(tmp_path / "records.worm")


def run(*argv):
    return main(list(argv))


class TestInit:
    def test_init_creates_archive(self, archive, capsys):
        assert run("init", "--archive", archive, "--num-lists", "32") == 0
        assert "initialized archive" in capsys.readouterr().out

    def test_double_init_rejected(self, archive, capsys):
        run("init", "--archive", archive)
        assert run("init", "--archive", archive) == 2
        assert "already initialized" in capsys.readouterr().err

    def test_branching_zero_disables_jump_index(self, archive):
        run("init", "--archive", archive, "--branching", "0")
        engine, device = open_archive(archive)
        assert engine.config.branching is None
        device.close()

    def test_config_persisted(self, archive):
        run(
            "init", "--archive", archive,
            "--num-lists", "64", "--retention", "500",
        )
        engine, device = open_archive(archive)
        assert engine.config.num_lists == 64
        assert engine.config.retention_period == 500
        device.close()


class TestConfigRecord:
    """The config record is committed state: its bytes are a format."""

    def test_record_bytes(self, archive):
        from repro.cli import _CONFIG_FILE
        from repro.search.engine import EngineConfig

        config = EngineConfig(num_lists=64, branching=None, tail_max_docs=9)
        engine, handle = open_archive(archive, create=config, shards=2)
        record = engine.coordinator.peek_block(_CONFIG_FILE, 0)
        handle.close()
        assert record == (
            b'{"num_lists":64,"block_size":8192,"branching":null,'
            b'"ranking":"bm25","retention_period":null,"shards":2,'
            b'"tail_max_docs":9,"seal_strategy":"uniform",'
            b'"seal_popular_terms":8,"merge_at_segments":8}'
        )

    def test_record_from_before_shards_and_tail_mode(self):
        from repro.cli import _CONFIG_FILE, _read_config
        from repro.worm.storage import CachedWormStore

        store = CachedWormStore(None)
        store.create_file(_CONFIG_FILE).append_record(
            b'{"num_lists":16,"block_size":1024,"branching":4,'
            b'"ranking":"cosine","retention_period":7}'
        )
        config, shards = _read_config(store)
        assert shards == 1
        assert (config.num_lists, config.ranking) == (16, "cosine")
        assert config.tail_max_docs is None  # tail mode off
        assert config.merge_at_segments == 8  # the field's default


class TestIndexAndSearch:
    def test_round_trip(self, archive, capsys):
        run("init", "--archive", archive, "--num-lists", "32")
        assert (
            run(
                "index", "--archive", archive,
                "--text", "imclone trading memo for stewart",
                "--text", "quarterly finance audit",
            )
            == 0
        )
        capsys.readouterr()
        assert run("search", "--archive", archive, "imclone") == 0
        out = capsys.readouterr().out
        assert "doc 0" in out
        assert "imclone trading memo" in out

    def test_conjunctive_query(self, archive, capsys):
        run("init", "--archive", archive, "--num-lists", "32")
        run(
            "index", "--archive", archive,
            "--text", "stewart imclone", "--text", "stewart only",
        )
        capsys.readouterr()
        run("search", "--archive", archive, "+stewart +imclone")
        out = capsys.readouterr().out
        assert "doc 0" in out and "doc 1" not in out

    def test_index_from_files(self, archive, tmp_path, capsys):
        run("init", "--archive", archive)
        doc = tmp_path / "memo.txt"
        doc.write_text("retention policy memo")
        assert run("index", "--archive", archive, str(doc)) == 0
        capsys.readouterr()
        run("search", "--archive", archive, "retention")
        assert "doc 0" in capsys.readouterr().out

    def test_index_nothing_errors(self, archive, capsys):
        run("init", "--archive", archive)
        assert run("index", "--archive", archive) == 2

    def test_no_results(self, archive, capsys):
        run("init", "--archive", archive)
        run("index", "--archive", archive, "--text", "something")
        capsys.readouterr()
        run("search", "--archive", archive, "nonexistentterm")
        assert "no results" in capsys.readouterr().out

    def test_uninitialized_archive_rejected(self, archive, capsys):
        assert run("search", "--archive", archive, "anything") == 2


class TestSegments:
    def test_tail_config_round_trips(self, archive):
        run(
            "init", "--archive", archive,
            "--tail-max-docs", "4", "--seal-strategy", "popular",
            "--seal-popular", "3", "--merge-at", "0",
        )
        engine, device = open_archive(archive)
        assert engine.config.tail_max_docs == 4
        assert engine.config.seal_strategy == "popular"
        assert engine.config.seal_popular_terms == 3
        assert engine.config.merge_at_segments is None
        device.close()

    def test_seal_merge_and_report(self, archive, capsys):
        run("init", "--archive", archive, "--tail-max-docs", "100")
        run(
            "index", "--archive", archive,
            "--text", "alpha memo", "--text", "beta memo",
        )
        capsys.readouterr()
        assert run("segments", "--archive", archive) == 0
        assert "tail: 2 docs" in capsys.readouterr().out
        assert run("segments", "--archive", archive, "--seal") == 0
        capsys.readouterr()
        run("index", "--archive", archive, "--text", "gamma memo")
        capsys.readouterr()
        assert run("segments", "--archive", archive, "--seal", "--merge") == 0
        out = capsys.readouterr().out
        assert "merged live segments" in out
        # Searches span segments after all of it.
        run("search", "--archive", archive, "memo")
        out = capsys.readouterr().out
        assert "doc 0" in out and "doc 2" in out

    def test_segments_rejects_legacy_archive(self, archive, capsys):
        run("init", "--archive", archive)
        assert run("segments", "--archive", archive) == 2
        assert "not in tail mode" in capsys.readouterr().err


class TestAuditAndDispose:
    def test_clean_audit(self, archive, capsys):
        run("init", "--archive", archive)
        run("index", "--archive", archive, "--text", "clean memo")
        capsys.readouterr()
        assert run("audit", "--archive", archive) == 0
        assert "0 with violations" in capsys.readouterr().out

    def test_audit_detects_stuffing_via_verify_search(self, archive, capsys):
        run("init", "--archive", archive, "--num-lists", "8")
        run("index", "--archive", archive, "--text", "imclone memo")
        # Stuff the archive out-of-band (Mala with filesystem access to
        # the WORM box API).
        engine, device = open_archive(archive)
        from repro.adversary.attacks import posting_stuffing_attack

        tid = engine.term_id("imclone")
        posting_stuffing_attack(
            engine.posting_list_for("imclone")[0], tid, count=3
        )
        device.close()
        capsys.readouterr()
        assert run("search", "--archive", archive, "imclone", "--verify") == 0
        captured = capsys.readouterr()
        assert "tampering detected" in captured.err.lower()
        # The quarantine is durable: the next verify run is clean.
        assert run("search", "--archive", archive, "imclone", "--verify") == 0
        captured = capsys.readouterr()
        assert "tampering" not in captured.err.lower()

    def test_stats_subcommand(self, archive, capsys):
        run("init", "--archive", archive, "--num-lists", "8")
        run("index", "--archive", archive, "--text", "imclone memo")
        capsys.readouterr()
        assert run("stats", "--archive", archive) == 0
        out = capsys.readouterr().out
        assert "documents  1" in out
        assert "jump_index" in out
        assert "device_bytes" in out

    def test_profile_subcommand(self, archive, capsys, tmp_path):
        run("init", "--archive", archive, "--num-lists", "8")
        run(
            "index", "--archive", archive,
            "--text", "imclone stewart memo", "--text", "imclone audit",
        )
        log = tmp_path / "queries.txt"
        log.write_text("imclone\n+imclone +stewart\n")
        capsys.readouterr()
        assert run(
            "profile", "--archive", archive, "--query-file", str(log)
        ) == 0
        out = capsys.readouterr().out
        assert "disjunctive" in out
        assert "conjunctive" in out
        assert "jump index" in out  # the recommendation line

    def test_profile_nothing_errors(self, archive, capsys):
        run("init", "--archive", archive)
        assert run("profile", "--archive", archive) == 2

    def test_dispose_lifecycle(self, archive, capsys):
        run("init", "--archive", archive, "--retention", "10")
        run(
            "index", "--archive", archive,
            "--text", "old record", "--commit-time", "0",
        )
        capsys.readouterr()
        assert run("dispose", "--archive", archive, "--now", "5") == 0
        assert "nothing past" in capsys.readouterr().out
        assert run("dispose", "--archive", archive, "--now", "50") == 0
        assert "disposed 1" in capsys.readouterr().out
        run("search", "--archive", archive, "record")
        assert "no results" in capsys.readouterr().out


class TestDisposeDurability:
    def test_dispose_accepts_durability_flags(self, archive, capsys):
        run("init", "--archive", archive, "--retention", "10")
        run(
            "index", "--archive", archive,
            "--text", "old record", "--commit-time", "0",
        )
        capsys.readouterr()
        assert run(
            "dispose", "--archive", archive, "--now", "50",
            "--fsync", "--group-commit", "4",
        ) == 0
        assert "disposed 1" in capsys.readouterr().out


class TestServeValidation:
    def test_out_of_range_port_rejected(self, archive, capsys):
        run("init", "--archive", archive)
        assert run("serve", "--archive", archive, "--port", "70000") == 2
        assert "--port" in capsys.readouterr().err

    def test_negative_rate_rejected(self, archive, capsys):
        run("init", "--archive", archive)
        assert run("serve", "--archive", archive, "--rate", "-1") == 2
        assert "--rate" in capsys.readouterr().err
