"""The long-lived archive service: one engine open, many requests served.

Everything the one-shot CLI pays per invocation — engine open, journal
replay, index load — this package pays once.  :mod:`repro.service.server`
exposes the engine over HTTP (``/search``, ``/ingest``, ``/audit``,
``/metrics``, ``/healthz``); :mod:`repro.service.admission` supplies the
admission control (per-tenant token buckets → 429, bounded execution
queue → 503); :mod:`repro.service.locks` holds the reader-writer
discipline that serialises ingest against the single-writer append path.

Start one from the CLI (``repro-search serve --archive records.worm``)
or embed one in-process::

    from repro.service import serve_archive

    with serve_archive("records.worm", port=0) as server:
        ...  # drive server.endpoint over HTTP

See ``docs/SERVICE.md`` for endpoint schemas, admission semantics, and
the drain contract.
"""

# The names ``bench/workloads.py`` imports from the package; everything
# else is imported from the module that defines it (DESIGN.md §3).
from repro.service.admission import AdmissionConfig
from repro.service.server import ServiceConfig, serve_archive

__all__ = ["AdmissionConfig", "ServiceConfig", "serve_archive"]
