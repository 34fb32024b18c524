"""Adapter + engine-integration tests: one snapshot covers every layer."""

from dataclasses import replace

import pytest

from repro.observability.adapters import (
    engine_metrics,
    export_faults,
    export_journal,
    export_store,
    metrics_document,
)
from repro.observability.metrics import MetricsRegistry, NullMetricsRegistry
from repro.observability.trace import QueryTrace
from repro.search.engine import EngineConfig, TrustworthySearchEngine
from repro.sharding.engine import ShardedSearchEngine
from repro.worm.faults import FaultInjectingWormDevice
from repro.worm.persistent import JournaledWormDevice
from repro.worm.storage import CachedWormStore

CONFIG = EngineConfig(num_lists=64, block_size=1024)


def _value(snapshot, name, **labels):
    for series in snapshot[name]["series"]:
        if series["labels"] == {k: str(v) for k, v in labels.items()}:
            return series["value"]
    raise AssertionError(f"no series {labels} in {name}")


class TestStoreExport:
    def test_store_and_cache_counters_exported(self):
        registry = MetricsRegistry()
        store = CachedWormStore(4, block_size=512)
        f = store.create_file("x")
        for i in range(20):
            store.append_record("x", b"payload-%d" % i)
        for block in range(f.num_blocks):
            store.read_block("x", block)
        export_store(registry, store, shard="7")
        snap = registry.snapshot()
        assert _value(snap, "repro_store_block_reads_total", shard=7) == (
            store.io.block_reads
        )
        assert _value(snap, "repro_cache_hits_total", shard=7) == (
            store.cache.stats.hits
        )
        assert _value(snap, "repro_cache_hit_rate", shard=7) == pytest.approx(
            store.cache.stats.hit_rate
        )

    def test_export_is_a_set_not_an_increment(self):
        registry = MetricsRegistry()
        store = CachedWormStore(None, block_size=512)
        store.create_file("x")
        store.append_record("x", b"p")
        export_store(registry, store)
        export_store(registry, store)  # refresh must not double
        snap = registry.snapshot()
        assert _value(snap, "repro_cache_misses_total", shard=0) == (
            store.cache.stats.misses
        )

    def test_null_registry_short_circuits(self):
        registry = NullMetricsRegistry()
        store = CachedWormStore(None, block_size=512)
        export_store(registry, store)
        assert registry.snapshot() == {}


class TestJournalAndFaultExport:
    def test_journal_counters_exported(self, tmp_path):
        registry = MetricsRegistry()
        device = JournaledWormDevice(str(tmp_path / "j.worm"))
        store = CachedWormStore(None, device=device)
        store.create_file("f")
        store.append_record("f", b"hello")
        export_journal(registry, device, shard="0")
        snap = registry.snapshot()
        assert _value(snap, "repro_journal_records_total", shard=0) == (
            device.records
        )
        assert _value(snap, "repro_journal_bytes", shard=0) == (
            device.journal_bytes
        )
        assert device.records >= 2
        device.close()

    def test_plain_device_is_a_noop(self):
        registry = MetricsRegistry()
        store = CachedWormStore(None, block_size=512)
        export_journal(registry, store.device)
        assert "repro_journal_records_total" not in registry.snapshot()

    def test_fault_hit_counts_exported(self, tmp_path):
        registry = MetricsRegistry()
        device = FaultInjectingWormDevice(str(tmp_path / "f.worm"))
        store = CachedWormStore(None, device=device)
        store.create_file("f")
        store.append_record("f", b"hello")
        export_faults(registry, device, shard="0")
        snap = registry.snapshot()
        fault_series = snap["repro_fault_point_calls_total"]["series"]
        points = {s["labels"]["point"]: s["value"] for s in fault_series}
        assert points  # WAL stages were counted
        assert points == {
            k: v for k, v in device.plan.counts.items()
        }
        assert _value(snap, "repro_fault_crashed", shard=0) == 0
        device.close()


class TestEngineIntegration:
    def test_single_engine_snapshot_covers_all_layers(self):
        engine = TrustworthySearchEngine(CONFIG)
        for i in range(30):
            engine.index_document(f"alpha beta doc{i}")
        engine.search("+alpha +beta")
        snap = engine_metrics(engine).snapshot()
        # query layer
        assert _value(snap, "repro_queries_total", mode="all") == 1
        assert snap["repro_query_stage_seconds"]["type"] == "histogram"
        assert _value(snap, "repro_join_seeks_total") > 0
        # ingest layer
        assert _value(snap, "repro_documents_indexed_total") == 30
        # storage + cache layer (adapter-exported)
        assert _value(snap, "repro_cache_hits_total", shard=0) == (
            engine.store.cache.stats.hits
        )
        # archive gauges
        assert _value(snap, "repro_archive_documents") == 30

    def _check_jump_follow_counter(self, **config):
        engine = TrustworthySearchEngine(
            EngineConfig(num_lists=4, block_size=512, branching=4, **config)
        )
        for i in range(200):
            engine.index_document(f"t{i % 40} common")
        engine.search("+t3 +common")
        snap = engine_metrics(engine).snapshot()
        # A sealed list short enough to share a file has no jump index.
        follows = sum(
            j.pointers_followed
            for _, j in engine.iter_posting_lists()
            if j is not None
        )
        assert follows > 0
        assert _value(snap, "repro_jump_pointer_follows_total") == follows
        return engine, snap

    def test_jump_follow_counter_tracks_index(self):
        self._check_jump_follow_counter()

    def test_jump_follow_counter_tracks_sealed_segments(self):
        """Tail mode runs the same join: multi-block sealed lists joined
        through their jump indexes land in the same counters."""
        engine, snap = self._check_jump_follow_counter(
            tail_max_docs=100, merge_at_segments=None
        )
        assert len(engine.iter_segments()) == 2
        assert all(
            0 < s.info.shared.short_lists < s.info.shared.lists
            for s in engine.iter_segments()
        )
        per_list = snap["repro_join_list_blocks_total"]["series"]
        assert sum(s["value"] for s in per_list) == _value(
            snap, "repro_join_blocks_read_total"
        ) > 0

    def test_sharded_engine_shares_one_registry(self):
        engine = ShardedSearchEngine(CONFIG, num_shards=3)
        engine.index_batch([f"alpha beta doc{i}" for i in range(30)])
        trace = QueryTrace("+alpha +beta")
        engine.search("+alpha +beta", trace=trace)
        engine.close()
        snap = engine_metrics(engine).snapshot()
        # every shard records its own join/resolve stage timings...
        stage_series = snap["repro_query_stage_seconds"]["series"]
        join_shards = {
            s["labels"]["shard"]
            for s in stage_series
            if s["labels"]["stage"] == "join"
        }
        assert join_shards == {"0", "1", "2"}
        # ...and its own run latency histogram in the executor
        hist = snap["repro_shard_run_seconds"]["series"]
        assert {s["labels"]["shard"] for s in hist} == {"0", "1", "2"}
        assert _value(snap, "repro_fanout_queries_total") == 1
        # coordinator store exported under its own label
        assert _value(
            snap, "repro_store_block_writes_total", shard="coordinator"
        ) == engine.coordinator.io.block_writes
        # one span per shard, each with its run's size
        shard_spans = [s for s in trace.spans if s.name == "shard"]
        assert {s.attrs["shard"] for s in shard_spans} == {0, 1, 2}
        assert all("results" in s.attrs for s in shard_spans)

    def test_null_metrics_run_is_unmetered_but_correct(self):
        metered = TrustworthySearchEngine(CONFIG)
        unmetered = TrustworthySearchEngine(
            CONFIG, metrics=NullMetricsRegistry()
        )
        for engine in (metered, unmetered):
            for i in range(10):
                engine.index_document(f"alpha beta doc{i}")
        assert [r.doc_id for r in metered.search("+alpha +beta")] == [
            r.doc_id for r in unmetered.search("+alpha +beta")
        ]
        assert unmetered.metrics.snapshot() == {}

    def test_metrics_document_schema(self):
        engine = TrustworthySearchEngine(CONFIG)
        engine.index_document("alpha beta")
        trace = QueryTrace("alpha")
        engine.search("alpha", trace=trace)
        doc = metrics_document(engine, traces=[trace])
        assert doc["schema"] == "repro-metrics/v1"
        assert "repro_queries_total" in doc["metrics"]
        assert doc["traces"][0]["query"] == "alpha"
        names = [s["name"] for s in doc["traces"][0]["spans"]]
        assert names[0] == "parse"
        assert "rank" in names


class TestTraceOnQueryPath:
    def _check_join_trace(self, config):
        engine = TrustworthySearchEngine(config)
        for i in range(50):
            engine.index_document(f"alpha beta doc{i}")
        trace = QueryTrace("+alpha +beta")
        engine.search("+alpha +beta", trace=trace)
        by_name = {s.name: s for s in trace.spans}
        assert {"parse", "resolve", "join", "rank"} <= set(by_name)
        join = by_name["join"]
        assert join.attrs["matches"] == 50
        assert join.attrs["seeks"] > 0
        assert join.attrs["blocks_read"] >= 1
        return join

    def test_conjunctive_trace_records_join_micro_costs(self):
        self._check_join_trace(CONFIG)

    def test_tail_mode_join_span_carries_the_same_micro_costs(self):
        join = self._check_join_trace(
            replace(CONFIG, tail_max_docs=20, read_cache=True)
        )
        assert join.attrs["jump_follows"] >= 0

    def test_time_ranged_query_explains_its_window_in_paper_units(self):
        engine = TrustworthySearchEngine(CONFIG)
        for i in range(300):  # 85 commit records per 1 KB log block
            engine.index_document(f"alpha doc{i}" if i % 2 else "beta")
        trace = QueryTrace("alpha @100..199")
        hits = engine.search("alpha @100..199", top_k=300, trace=trace)
        filtered = next(s for s in trace.spans if s.name == "filter")
        assert filtered.attrs["candidates"] == 150
        assert filtered.attrs["window_docs"] == 100
        assert filtered.attrs["window_blocks"] == 0  # the checked columns answer it
        assert filtered.attrs["kept"] == len(hits) == 50

    def test_verify_stage_traced(self):
        engine = TrustworthySearchEngine(CONFIG)
        engine.index_document("alpha beta")
        trace = QueryTrace("alpha")
        engine.search("alpha", verify=True, trace=trace)
        verify = [s for s in trace.spans if s.name == "verify"]
        assert len(verify) == 1
        assert verify[0].attrs["ok"] is True
