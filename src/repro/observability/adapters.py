"""Export the engine's existing counters into a metrics registry.

The storage, cache, journal, and fault-injection layers each keep their
own authoritative counters (:class:`~repro.worm.iostats.IoStats`,
:class:`~repro.worm.cache.CacheStats`, the WAL sequence number in
:class:`~repro.worm.persistent.JournaledWormDevice`,
:class:`~repro.worm.faults.FaultPlan.counts`).  These adapters *set*
registry series from those sources at snapshot time — the source objects
stay authoritative and pay no double-count risk — so one
:meth:`~repro.observability.metrics.MetricsRegistry.snapshot` covers
every layer next to the live query/ingest instrumentation.

Everything here duck-types its inputs (``hasattr`` probes for journal
and fault state) so the module imports no engine, sharding, or worm
code and can never create an import cycle.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

#: Label value used for the coordinator store of a sharded engine.
COORDINATOR = "coordinator"


def export_store(registry, store, *, shard: str = "0") -> None:
    """Export one :class:`~repro.worm.storage.CachedWormStore`'s counters.

    Covers storage I/O, cache behaviour, and — when the underlying
    device is journaled and/or fault-injecting — WAL and fault-hit
    counters.  ``shard`` labels every series ("0", "1", ... for shard
    stores, :data:`COORDINATOR` for cross-shard state).
    """
    if not registry.enabled:
        return
    shard = str(shard)
    io = store.io
    stats = store.cache.stats
    for name, help_text, value in (
        (
            "repro_store_block_reads_total",
            "Random block reads charged to this store",
            io.block_reads,
        ),
        (
            "repro_store_block_writes_total",
            "Random block writes charged to this store",
            io.block_writes,
        ),
        ("repro_cache_hits_total", "Storage-cache hits", stats.hits),
        ("repro_cache_misses_total", "Storage-cache misses", stats.misses),
        (
            "repro_cache_evictions_total",
            "Storage-cache evictions (LRU write-outs)",
            stats.evictions,
        ),
        (
            "repro_cache_full_flushes_total",
            "Tail blocks written out because they filled",
            stats.full_flushes,
        ),
    ):
        registry.counter(name, help_text, labels=("shard",)).labels(
            shard=shard
        ).set(value)
    registry.gauge(
        "repro_cache_hit_rate",
        "Fraction of storage-cache accesses that hit",
        labels=("shard",),
    ).labels(shard=shard).set(stats.hit_rate)
    registry.gauge(
        "repro_cache_resident_blocks",
        "Blocks currently resident in the storage cache",
        labels=("shard",),
    ).labels(shard=shard).set(len(store.cache))
    export_journal(registry, store.device, shard=shard)
    export_faults(registry, store.device, shard=shard)


def export_journal(registry, device, *, shard: str = "0") -> None:
    """Export WAL counters of a journaled device (no-op for others)."""
    if not registry.enabled or not hasattr(device, "journal_bytes"):
        return
    shard = str(shard)
    registry.counter(
        "repro_journal_records_total",
        "Journal records committed (the WAL sequence number)",
        labels=("shard",),
    ).labels(shard=shard).set(device.records)
    registry.gauge(
        "repro_journal_bytes",
        "Committed journal size in bytes",
        labels=("shard",),
    ).labels(shard=shard).set(device.journal_bytes)
    registry.gauge(
        "repro_journal_pending_records",
        "Records awaiting the next group-commit fsync",
        labels=("shard",),
    ).labels(shard=shard).set(device.pending_records)


def export_faults(registry, device, *, shard: str = "0") -> None:
    """Export fault-injection hit counts (no-op without a fault plan)."""
    if not registry.enabled:
        return
    plan = getattr(device, "plan", None)
    counts = getattr(plan, "counts", None)
    if counts is None:
        return
    shard = str(shard)
    family = registry.counter(
        "repro_fault_point_calls_total",
        "Times each instrumented fault point was reached",
        labels=("shard", "point"),
    )
    for point, calls in counts.items():
        family.labels(shard=shard, point=point).set(calls)
    registry.gauge(
        "repro_fault_crashed",
        "Whether the fault plan has simulated a crash (0/1)",
        labels=("shard",),
    ).labels(shard=shard).set(1 if getattr(plan, "crashed", False) else 0)


def export_read_cache(registry, read_cache, *, shard: str = "0") -> None:
    """Export a read-path cache's counters (no-op when off).

    ``read_cache`` is an engine's
    :class:`~repro.search.readcache.ReadCache` (or ``None`` when read
    caching is disabled); duck-typed through ``as_dict()`` so this
    module keeps importing no engine code.  Emits hits, misses,
    evictions and invalidations, each labelled ``tier="results"``, plus
    the resident bytes.
    """
    if not registry.enabled or read_cache is None:
        return
    shard = str(shard)
    stats = read_cache.as_dict()
    for counter_key, help_text in (
        ("hits", "Read-cache hits"),
        ("misses", "Read-cache misses"),
        ("evictions", "Read-cache evictions"),
        ("invalidations", "Read-cache invalidations (append-driven)"),
    ):
        registry.counter(
            f"repro_readcache_{counter_key}_total",
            help_text,
            labels=("shard", "tier"),
        ).labels(shard=shard, tier="results").set(stats[counter_key])
    registry.gauge(
        "repro_readcache_resident_bytes",
        "Approximate bytes held by the read cache",
        labels=("shard",),
    ).labels(shard=shard).set(stats["resident_bytes"])


def export_service(registry, service_stats: Dict[str, object]) -> None:
    """Export the archive service's admission-control state as gauges.

    ``service_stats`` is :meth:`repro.service.server.ArchiveService.stats`
    — a plain dict, duck-typed so this module keeps importing no service
    code.  Counters and latency histograms are registered live by the
    service itself (they are events, not state); this adapter covers the
    point-in-time side: queue depth, in-flight requests, tenant count,
    drain flag, and uptime, refreshed at scrape time like every other
    exporter here.
    """
    if not registry.enabled:
        return
    for key, help_text in (
        ("queue_depth", "Requests waiting for an execution slot"),
        ("inflight", "Requests currently executing"),
        ("tenants", "Distinct tenants with a rate-limit bucket"),
        ("draining", "Whether the service is draining (0/1)"),
        ("uptime_seconds", "Seconds since the service opened its engine"),
    ):
        value = service_stats.get(key)
        if value is None:
            continue
        registry.gauge(
            f"repro_service_{key}", help_text
        ).set(float(value))


def export_archive(registry, archive_stats: Dict[str, object]) -> None:
    """Export the numeric fields of ``archive_stats()`` as gauges."""
    if not registry.enabled:
        return
    for key, value in archive_stats.items():
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            continue
        registry.gauge(
            f"repro_archive_{key}",
            f"Archive stat '{key}' (see archive_stats())",
        ).set(value)


def engine_metrics(engine):
    """Refresh every adapter export for ``engine`` and return its registry.

    Accepts either a :class:`~repro.search.engine.TrustworthySearchEngine`
    or a :class:`~repro.sharding.engine.ShardedSearchEngine` (duck-typed
    on the ``shards`` attribute); after this call the registry's snapshot
    covers the storage, cache, journal, index, and query layers.
    """
    registry = engine.metrics
    if not registry.enabled:
        return registry
    shards = getattr(engine, "shards", None)
    if shards is not None:
        for index, shard in enumerate(shards):
            export_store(registry, shard.store, shard=index)
            export_read_cache(
                registry, getattr(shard, "read_cache", None), shard=index
            )
        export_store(registry, engine.coordinator, shard=COORDINATOR)
    else:
        export_store(registry, engine.store, shard="0")
        export_read_cache(
            registry, getattr(engine, "read_cache", None), shard="0"
        )
    export_archive(registry, engine.archive_stats())
    return registry


def metrics_document(
    engine, *, traces: Optional[Iterable] = None
) -> Dict[str, object]:
    """One stable JSON document: refreshed metrics plus optional traces.

    This is what ``--metrics-json`` writes; ``schema`` versions the
    layout so downstream tooling can detect format changes.
    """
    registry = engine_metrics(engine)
    return {
        "schema": "repro-metrics/v1",
        "metrics": registry.snapshot(),
        "traces": [trace.to_dict() for trace in (traces or [])],
    }
