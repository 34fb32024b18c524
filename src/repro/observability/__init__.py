"""Observability: metrics registry, query tracing, and layer adapters.

Dependency-free instrumentation for the trustworthy search engine.  See
:mod:`repro.observability.metrics` for the registry,
:mod:`repro.observability.trace` for per-query span recording, and
:mod:`repro.observability.adapters` for exporting the storage, cache,
journal, and fault-injection layers' existing counters.
"""

from repro.observability.adapters import (
    engine_metrics,
    export_archive,
    export_faults,
    export_journal,
    export_read_cache,
    export_service,
    export_store,
    metrics_document,
)
from repro.observability.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricFamily,
    MetricsError,
    MetricsRegistry,
    NullMetricsRegistry,
)
from repro.observability.trace import QueryTrace, Span

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsError",
    "MetricsRegistry",
    "NullMetricsRegistry",
    "QueryTrace",
    "Span",
    "engine_metrics",
    "export_archive",
    "export_faults",
    "export_journal",
    "export_read_cache",
    "export_service",
    "export_store",
    "metrics_document",
]
