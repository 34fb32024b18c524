"""Unit tests for the cached WORM store (device + cache + accounting)."""

import pytest

from repro.errors import UnknownFileError, WormViolationError
from repro.worm.iostats import IoStats
from repro.worm.storage import CachedWormStore


class TestLifecycle:
    def test_create_open_ensure(self, store):
        created = store.create_file("f")
        assert store.open_file("f") is created
        assert store.ensure_file("f") is created
        other = store.ensure_file("g")
        assert store.open_file("g") is other

    def test_block_size_exposed(self):
        assert CachedWormStore(None, block_size=512).block_size == 512


class TestCountedAppends:
    def test_resident_tail_appends_are_free(self, store):
        store.create_file("f")
        store.append_record("f", b"x" * 8)
        store.append_record("f", b"x" * 8)
        assert store.io.total == 0  # 256-byte block, nowhere near full

    def test_block_fill_costs_one_write(self, store):
        store.create_file("f")
        for _ in range(32):  # 32 * 8 = 256 bytes: exactly one block
            store.append_record("f", b"x" * 8)
        assert store.io.block_writes == 1
        assert store.io.block_reads == 0

    def test_partial_roll_flushes_old_tail(self, store):
        store.create_file("f")
        store.append_record("f", b"x" * 200)
        store.append_record("f", b"x" * 200)  # does not fit: rolls
        assert store.io.block_writes == 1

    def test_force_new_block_flushes_old_tail(self, store):
        store.create_file("f")
        store.append_record("f", b"x")
        store.append_record("f", b"y", force_new_block=True)
        assert store.io.block_writes == 1
        assert store.open_file("f").num_blocks == 2

    def test_eviction_under_small_cache(self, small_cache_store):
        s = small_cache_store
        for i in range(6):  # 6 lists but only 4 cache slots
            s.create_file(f"f{i}")
            s.append_record(f"f{i}", b"x")
        for i in range(6):
            s.append_record(f"f{i}", b"y")
        # Re-touching the first lists misses: evict (write) + read.
        assert s.io.block_writes >= 2
        assert s.io.block_reads >= 2


class TestCountedReadsAndSlots:
    def test_read_block_counts_on_miss(self):
        s = CachedWormStore(1, block_size=64)
        s.create_file("f")
        s.append_record("f", b"abc")
        s.create_file("g")
        s.append_record("g", b"xyz")  # evicts f's tail from the 1-slot cache
        before = s.io.block_reads
        assert s.read_block("f", 0) == b"abc"
        assert s.io.block_reads == before + 1

    def test_read_block_hit_is_free(self, store):
        store.create_file("f")
        store.append_record("f", b"abc")
        store.read_block("f", 0)
        before = store.io.total
        store.read_block("f", 0)
        assert store.io.total == before

    def test_slot_roundtrip_counted(self, store):
        store.create_file("f", slot_count=4)
        store.append_record("f", b"x")
        store.set_slot("f", 0, 2, 77)
        assert store.get_slot("f", 0, 2) == 77
        with pytest.raises(WormViolationError):
            store.set_slot("f", 0, 2, 78)

    def test_peek_paths_are_uncounted(self, store):
        store.create_file("f", slot_count=1)
        store.append_record("f", b"abc")
        store.set_slot("f", 0, 0, 5)
        store.cache.flush_all()
        before = store.io.snapshot()
        assert store.peek_block("f", 0) == b"abc"
        assert store.peek_slot("f", 0, 0) == 5
        diff = store.io.since(before)
        assert diff.total == 0

    def test_unknown_file_propagates(self, store):
        with pytest.raises(UnknownFileError):
            store.read_block("nope", 0)


class TestIoStats:
    def test_snapshot_and_since(self):
        io = IoStats()
        io.block_reads += 3
        snap = io.snapshot()
        io.block_writes += 2
        diff = io.since(snap)
        assert (diff.block_reads, diff.block_writes) == (0, 2)
        assert diff.total == 2
        assert snap.total == 3

    def test_reset(self):
        io = IoStats()
        io.block_reads += 1
        io.reset()
        assert io.total == 0
