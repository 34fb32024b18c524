"""Observability: metrics registry, query tracing, and layer adapters.

Dependency-free instrumentation for the trustworthy search engine.  See
:mod:`repro.observability.metrics` for the registry,
:mod:`repro.observability.trace` for per-query span recording, and
:mod:`repro.observability.adapters` for exporting the storage, cache,
journal, and fault-injection layers' existing counters.
"""
