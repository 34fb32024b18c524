"""The archive service's HTTP client.

:mod:`repro.loadtest.transport` holds :class:`HTTPTransport` — keep-alive
connections to a running ``repro-search serve``, typed errors for 429 and
503 — and this package re-exports it.  It is what ``bench/``'s
``svc-mixed`` workload, the service tests and CI's service smoke drive
the service with.

The package was the first whole-system load harness (driver, latency
recorder, snapshots, tolerance bands); ``python3 -m bench`` measures the
assembled system now and the harness is deleted.  The name stays because
``bench/`` imports ``repro.loadtest.transport`` and binds
``HTTPTransport._request`` by that path, and ``bench/`` changes only in
PRs of its own; the rename to a client module rides with the next one.
"""

from repro.loadtest.transport import (
    HTTPTransport,
    RateLimitedError,
    ServiceClientError,
    ServiceOverloadedError,
    ServiceProtocolError,
)

__all__ = [
    "HTTPTransport",
    "RateLimitedError",
    "ServiceClientError",
    "ServiceOverloadedError",
    "ServiceProtocolError",
]
