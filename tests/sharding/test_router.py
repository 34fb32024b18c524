"""The shard router: stable placement, and global IDs derived from the
shards' commit-time logs."""

import pytest

from repro.errors import WorkloadError
from repro.search.engine import EngineConfig, TrustworthySearchEngine
from repro.sharding.router import ShardRouter, stable_shard
from repro.worm.storage import CachedWormStore

CONFIG = EngineConfig(num_lists=8, block_size=512, branching=4)


def open_shards(stores):
    """Shard engines over ``stores``; over used stores, a reopen."""
    shards = [TrustworthySearchEngine(CONFIG, store=store) for store in stores]
    return shards, ShardRouter([shard.documents for shard in shards])


def new_shards(num_shards):
    return open_shards([CachedWormStore(None, block_size=512) for _ in range(num_shards)])


def ingest(router, shards, count):
    """Route ``count`` documents and commit each on its shard."""
    assignments = router.assign_many(count)
    for a in assignments:
        shards[a.shard_id].index_document(f"document g{a.global_id}")
    return assignments


class TestStableShard:
    def test_deterministic(self):
        for global_id in range(200):
            assert stable_shard(global_id, 4) == stable_shard(global_id, 4)

    def test_in_range(self):
        for num_shards in (1, 2, 3, 7, 16):
            for global_id in range(100):
                assert 0 <= stable_shard(global_id, num_shards) < num_shards

    def test_not_round_robin(self):
        # An avalanche mix must not stripe consecutive IDs cyclically.
        placements = [stable_shard(g, 4) for g in range(64)]
        assert placements != [g % 4 for g in range(64)]

    def test_roughly_balanced(self):
        counts = [0] * 4
        for global_id in range(4000):
            counts[stable_shard(global_id, 4)] += 1
        for count in counts:
            assert 700 <= count <= 1300  # ~1000 +- 30%


class TestAssignment:
    def test_global_ids_dense(self):
        shards, router = new_shards(3)
        assignments = ingest(router, shards, 50)
        assert [a.global_id for a in assignments] == list(range(50))
        assert [a.shard_id for a in assignments] == [stable_shard(g, 3) for g in range(50)]

    def test_assignment_writes_nothing(self):
        shards, router = new_shards(3)
        ingest(router, shards, 5)
        # Until a shard commits them, the same IDs are handed out again.
        assert router.assign_many(4) == router.assign_many(4)
        assert [a.global_id for a in router.assign_many(4)] == [5, 6, 7, 8]
        assert len(router) == 5

    def test_local_ids_monotonic_per_shard(self):
        stores = [CachedWormStore(None, block_size=512) for _ in range(3)]
        shards, router = open_shards(stores)
        assignments = ingest(router, shards, 100)
        for _ in range(2):  # this session, then a reopen
            next_local = [0, 0, 0]
            for a in assignments:
                assert router.to_local(a.global_id) == (a.shard_id, next_local[a.shard_id])
                next_local[a.shard_id] += 1
            shards, router = open_shards(stores)

    def test_round_trip_lookup(self):
        shards, router = new_shards(4)
        for a in ingest(router, shards, 60):
            shard_id, local_id = router.to_local(a.global_id)
            assert shard_id == a.shard_id
            assert router.to_global(shard_id, local_id) == a.global_id
            text = shards[shard_id].documents.get(local_id).text
            assert text == f"document g{a.global_id}"

    def test_unknown_global_id_rejected(self):
        shards, router = new_shards(2)
        ingest(router, shards, 3)
        assert not router.has(3)
        assert not router.has(-1)
        with pytest.raises(WorkloadError):
            router.to_local(3)
        # Past the highest committed ID the answer needs no routing table.
        assert not router.has(10**12)
        assert len(router._shard_of) < 10

    def test_unmapped_local_gets_negative_synthetic_id(self):
        shards, router = new_shards(3)
        ingest(router, shards, 10)
        synthetic = router.to_global(1, router.shard_size(1) + 5)
        assert synthetic < 0
        assert not router.has(synthetic)

    def test_synthetic_ids_unique(self):
        _, router = new_shards(3)
        seen = set()
        for shard_id in range(3):
            for local_id in range(router.shard_size(shard_id), 20):
                seen.add(router.to_global(shard_id, local_id))
        assert len(seen) == sum(20 - router.shard_size(s) for s in range(3))

    def test_burned_local_id_maps_to_nothing(self):
        shards, router = new_shards(2)
        ingest(router, shards, 6)
        shard = shards[0]
        burned = shard.documents.next_doc_id
        # A crash left this ID's file behind with no commit-time record.
        shard.store.device.create_file(shard.documents.file_name(burned))
        later = ingest(router, shards, 6)
        on_shard = [a.global_id for a in later if a.shard_id == 0]
        assert on_shard
        assert router.to_local(on_shard[0]) == (0, burned + 1)
        assert router.to_global(0, burned + 1) == on_shard[0]
        assert router.to_global(0, burned) < 0
        for a in later:
            shard_id, local_id = router.to_local(a.global_id)
            assert shards[shard_id].documents.get(local_id).text == f"document g{a.global_id}"

    def test_invalid_shard_count(self):
        with pytest.raises(WorkloadError):
            ShardRouter([])


class TestPersistence:
    def test_restore_from_worm_map(self):
        # The mapping comes back from the shards' commit-time logs.
        stores = [CachedWormStore(None, block_size=512) for _ in range(3)]
        shards, router = open_shards(stores)
        originals = ingest(router, shards, 40)
        expected = {a.global_id: router.to_local(a.global_id) for a in originals}
        _, reopened = open_shards(stores)
        assert len(reopened) == 40
        assert {g: reopened.to_local(g) for g in expected} == expected

    def test_restore_continues_assignment(self):
        stores = [CachedWormStore(None, block_size=512) for _ in range(2)]
        shards, router = open_shards(stores)
        ingest(router, shards, 10)
        _, reopened = open_shards(stores)
        assert reopened.assign_many(1)[0].global_id == 10

    def test_uncommitted_ids_are_handed_out_first(self):
        stores = [CachedWormStore(None, block_size=512) for _ in range(2)]
        shards, router = open_shards(stores)
        ingest(router, shards, 10)
        # A batch whose shard-1 group never committed: its IDs are holes.
        batch = router.assign_many(8)
        for a in batch:
            if a.shard_id == 0:
                shards[0].index_document(f"document g{a.global_id}")
        holes = [a.global_id for a in batch if a.shard_id == 1]
        assert holes
        shards, reopened = open_shards(stores)
        assert len(reopened) == 10 + 8 - len(holes)
        assert not any(reopened.has(g) for g in holes)
        refill = ingest(reopened, shards, len(holes) + 3)
        assert [a.global_id for a in refill[: len(holes)]] == holes
        assert all(a.global_id >= 18 for a in refill[len(holes) :])
        assert len(reopened) == 21
        assert all(reopened.has(g) for g in range(21))
