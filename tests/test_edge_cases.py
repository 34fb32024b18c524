"""Cross-cutting edge-case and error-path tests.

Collected here rather than per-module because each exercises a seam
between components (store views, CLI error codes, reattach corner
cases) rather than one module's contract.
"""

import pytest

from repro.errors import IndexError_
from repro.worm.storage import CachedWormStore


class TestStoreSeams:
    def test_ensure_file_preserves_slot_count_of_existing(self, store):
        store.create_file("f", slot_count=4)
        again = store.ensure_file("f", slot_count=99)
        assert again.slot_count == 4  # existing file wins

    def test_peek_slot_on_plain_file_rejected(self, store):
        store.create_file("plain")  # slot_count = 0
        store.append_record("plain", b"x")
        from repro.errors import BlockBoundsError

        with pytest.raises(BlockBoundsError):
            store.peek_slot("plain", 0, 0)


class TestBlockJumpIndexSeams:
    def test_create_infeasible_geometry_rejected(self):
        from repro.core.block_jump_index import BlockJumpIndex

        store = CachedWormStore(None, block_size=64)
        with pytest.raises(IndexError_):
            # 64-byte blocks cannot hold B=64's pointer array.
            BlockJumpIndex.create(store, "pl", branching=64, max_doc_bits=32)

    def test_rebuild_path_on_empty_index(self):
        from repro.core.block_jump_index import BlockJumpIndex

        store = CachedWormStore(None, block_size=256)
        bji = BlockJumpIndex.create(store, "pl", branching=4, max_doc_bits=16)
        bji.rebuild_path()  # no blocks yet: must be a no-op
        bji.insert(5)
        assert bji.lookup(5)

    def test_find_geq_on_exhausted_cursor(self):
        from repro.core.block_jump_index import BlockJumpIndex

        store = CachedWormStore(None, block_size=256)
        bji = BlockJumpIndex.create(store, "pl", branching=4, max_doc_bits=16)
        for v in range(10):
            bji.insert(v)
        cursor = bji.posting_list.cursor()
        assert bji.find_geq(cursor, 100) is None
        assert cursor.exhausted
        assert bji.find_geq(cursor, 0) is None  # stays exhausted


class TestCliErrorPaths:
    def test_search_raises_exit_code_on_hard_tamper(self, tmp_path, capsys):
        """A corrupted commit log fails reattach with exit code 2."""
        from repro.cli import main, open_archive

        archive = str(tmp_path / "a.worm")
        assert main(["init", "--archive", archive, "--num-lists", "8"]) == 0
        assert (
            main(
                ["index", "--archive", archive, "--text", "imclone memo",
                 "--commit-time", "100"]
            )
            == 0
        )
        engine, device = open_archive(archive)
        import struct

        engine.store.device.open_file("engine/commit-times").append_record(
            struct.pack("<QI", 0, 99)
        )
        device.close()
        capsys.readouterr()
        # Reattach replays the tampered log and raises; the CLI surfaces
        # a nonzero exit rather than a traceback.
        code = main(["search", "--archive", archive, "imclone"])
        assert code != 0

    def test_search_verify_exits_3_on_pointer_past_the_end(self, tmp_path, capsys):
        """A jump pointer to a block the list does not have is tampering
        (exit 3), not a bad request (exit 2)."""
        from repro.cli import main, open_archive
        from tests.helpers import (
            POINTER_CONFIG,
            POINTER_CORPUS,
            plant_pointer_past_the_end,
        )

        archive = str(tmp_path / "a.worm")
        engine, handle = open_archive(archive, create=POINTER_CONFIG)
        engine.index_batch(POINTER_CORPUS)
        plant_pointer_past_the_end(engine)
        handle.close()
        capsys.readouterr()
        assert main(["search", "--archive", archive, "--verify", "+alpha +beta"]) == 3
        assert "TAMPERING DETECTED" in capsys.readouterr().err

    def test_index_missing_file_exits_cleanly(self, tmp_path, capsys):
        from repro.cli import main

        archive = str(tmp_path / "a.worm")
        main(["init", "--archive", archive])
        capsys.readouterr()
        code = main(["index", "--archive", archive, str(tmp_path / "missing.txt")])
        assert code == 2
        assert "cannot read" in capsys.readouterr().err


class TestEngineSeams:
    def test_archive_stats_counts_committed_state(self):
        from repro.search.engine import EngineConfig, TrustworthySearchEngine

        engine = TrustworthySearchEngine(EngineConfig(num_lists=8, branching=4))
        engine.index_document("alpha beta gamma")
        stats = engine.archive_stats()
        assert stats["documents"] == 1
        assert stats["postings"] == 3
        assert stats["commit_log_records"] == 1
        assert stats["device_bytes"] > 0

    def test_time_index_last_commit_time_empty(self, store):
        from repro.core.time_index import CommitTimeIndex

        assert CommitTimeIndex(store, "t").last_commit_time == -1
