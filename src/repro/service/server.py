"""The long-lived archive service: open once, serve many.

Every CLI subcommand pays engine open + index load per invocation; a
compliance archive is instead a continuously available service —
regulators and investigators query it while records keep arriving.
:class:`ArchiveService` opens the (possibly sharded) engine **once** and
serves it over HTTP until drained:

==========  ======  =====================================================
endpoint    method  purpose
==========  ======  =====================================================
/search     POST    ranked keyword search (optionally verified)
/ingest     POST    commit + index a bounded batch of documents
/audit      GET     full tamper audit of the archive
/metrics    GET     Prometheus text (``?format=json`` for the snapshot)
/healthz    GET     liveness + drain state (no admission control)
==========  ======  =====================================================

Admission control is the point, not a bolt-on (see
:mod:`repro.service.admission`): per-tenant token buckets answer *429*
with a ``Retry-After`` hint, the bounded execution gate answers *503*
when the queue is full, and a writer-preferring reader-writer lock
(:mod:`repro.service.locks`) serialises ingest against the
single-writer append path while searches run concurrently.

Shutdown is a *drain*, not a kill: stop accepting, let in-flight
requests finish, fsync every journal, close the engine.  SIGTERM and
SIGINT both trigger it in :func:`repro.cli._cmd_serve`.
"""

from __future__ import annotations

import json
import socketserver
import sys
import threading
import time
from dataclasses import dataclass, field
from email.utils import formatdate
from typing import Dict, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.errors import ReproError, TamperDetectedError
from repro.observability.adapters import engine_metrics, export_service
from repro.observability.metrics import MetricsRegistry
from repro.service import wire
from repro.service.admission import AdmissionConfig, AdmissionController
from repro.service.locks import ReadWriteLock
from repro.service.protocol import (
    DEFAULT_TENANT,
    TENANT_HEADER,
    SchemaError,
    error_payload,
    ok_payload,
    parse_ingest_request,
    parse_search_request,
)

#: Endpoints that exist at all (label cardinality bound for metrics).
KNOWN_ENDPOINTS = frozenset(
    {"/search", "/ingest", "/audit", "/metrics", "/healthz"}
)


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables of one service process (admission + HTTP plumbing)."""

    admission: AdmissionConfig = field(default_factory=AdmissionConfig)
    #: Socket read / keep-alive idle timeout (seconds); bounds how long
    #: a drain waits for idle persistent connections to fall away.
    request_timeout: float = 5.0
    #: Largest accepted request body.
    max_body_bytes: int = 8 * 1024 * 1024
    #: Echo one access-log line per request to stderr.
    log_requests: bool = False
    #: Seconds between background tail seals (tail-mode engines only;
    #: ``0`` disables the sealer thread).  Size-triggered sealing via
    #: ``EngineConfig.tail_max_docs`` still applies either way — this
    #: bounds how long a *quiet* archive keeps documents tail-resident.
    seal_interval: float = 0.0


class ArchiveService:
    """HTTP-agnostic request handling over one long-lived engine.

    Every ``handle_*`` method takes parsed input and returns
    ``(status, body, headers)`` — the HTTP layer is a thin router, and
    handler unit tests exercise schemas, admission, and drain semantics
    without a socket.

    Parameters
    ----------
    engine:
        An opened :class:`~repro.search.engine.TrustworthySearchEngine`
        or :class:`~repro.sharding.engine.ShardedSearchEngine`.
    closer:
        The archive handle from :func:`repro.cli.open_archive`; its
        ``close()`` is called at the end of :meth:`shutdown`.
    config:
        See :class:`ServiceConfig`.
    """

    def __init__(self, engine, closer=None, config: Optional[ServiceConfig] = None):
        self.engine = engine
        self.closer = closer
        self.config = config or ServiceConfig()
        self.admission = AdmissionController(self.config.admission)
        self.lock = ReadWriteLock()
        self.registry = getattr(engine, "metrics", None)
        if self.registry is None or not getattr(self.registry, "enabled", False):
            self.registry = MetricsRegistry()
        self._draining = threading.Event()
        self._started = time.monotonic()
        self._requests = self.registry.counter(
            "repro_service_requests_total",
            "Requests served, by endpoint and status code",
            labels=("endpoint", "status"),
        )
        self._latency = self.registry.histogram(
            "repro_service_request_seconds",
            "Request handling latency, by endpoint",
            labels=("endpoint",),
        )
        self._rejections = self.registry.counter(
            "repro_service_rejections_total",
            "Requests rejected by admission control, by reason",
            labels=("reason",),
        )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def draining(self) -> bool:
        """Whether the service has begun its drain."""
        return self._draining.is_set()

    def begin_drain(self) -> None:
        """Stop admitting work; existing requests keep running."""
        self._draining.set()

    def shutdown(self) -> None:
        """Final step of the drain: sync every journal, close the engine.

        Callers must only invoke this after in-flight requests have
        completed (:meth:`ArchiveServer.drain` joins handler threads
        first).
        """
        self.begin_drain()
        self.engine.sync()
        if self.closer is not None:
            self.closer.close()

    def stats(self) -> Dict[str, object]:
        """Admission-control state for :func:`~repro.observability.adapters.export_service`."""
        limiter = self.admission.limiter
        return {
            "draining": self.draining,
            "inflight": self.admission.gate.inflight,
            "queue_depth": self.admission.gate.queue_depth,
            "tenants": len(limiter) if limiter is not None else 0,
            "uptime_seconds": time.monotonic() - self._started,
        }

    # ------------------------------------------------------------------
    # request plane
    # ------------------------------------------------------------------
    def dispatch(
        self,
        method: str,
        path: str,
        payload: object = None,
        *,
        tenant: str = DEFAULT_TENANT,
    ) -> Tuple[int, Dict[str, object], Dict[str, str]]:
        """Route one request through admission control to its handler.

        ``payload`` is the decoded JSON body (or the query-string dict
        for GET /search).  Returns ``(status, body, headers)``.
        """
        started = time.perf_counter()
        endpoint = path if path in KNOWN_ENDPOINTS else "other"
        try:
            status, body, headers = self._dispatch(
                method, path, payload, tenant
            )
        except SchemaError as exc:
            status, body, headers = 400, error_payload("bad_request", str(exc)), {}
        except TamperDetectedError as exc:
            status, body, headers = (
                500,
                error_payload("tampering", str(exc)),
                {},
            )
        except ReproError as exc:
            status, body, headers = 400, error_payload("bad_request", str(exc)), {}
        except Exception as exc:  # noqa: BLE001 - a service must answer
            status, body, headers = (
                500,
                error_payload("internal", f"{type(exc).__name__}: {exc}"),
                {},
            )
        self._requests.labels(endpoint=endpoint, status=status).inc()
        self._latency.labels(endpoint=endpoint).observe(
            time.perf_counter() - started
        )
        return status, body, headers

    def _dispatch(
        self, method: str, path: str, payload: object, tenant: str
    ) -> Tuple[int, Dict[str, object], Dict[str, str]]:
        if path == "/healthz":
            return self.handle_healthz() if method == "GET" else _method_not_allowed("GET")
        if path == "/metrics":
            if method != "GET":
                return _method_not_allowed("GET")
            fmt = "prometheus"
            if isinstance(payload, dict):
                fmt = str(payload.get("format", "prometheus"))
            return self.handle_metrics(fmt)
        if path not in KNOWN_ENDPOINTS:
            return (
                404,
                error_payload("not_found", f"no endpoint at '{path}'"),
                {},
            )
        if self.draining:
            self._rejections.labels(reason="draining").inc()
            return (
                503,
                error_payload("draining", "service is draining; not accepting work"),
                {"Connection": "close"},
            )
        decision = self.admission.admit(tenant)
        if not decision.admitted:
            self._rejections.labels(reason=decision.reason).inc()
            retry_after = max(1, int(decision.retry_after + 0.999))
            if decision.reason == AdmissionController.RATE_LIMITED:
                body = error_payload(
                    "rate_limited",
                    f"tenant '{tenant}' is over its request rate",
                    retry_after_seconds=retry_after,
                )
                return 429, body, {"Retry-After": str(retry_after)}
            body = error_payload(
                "overloaded",
                "request queue is full; shed to protect latency",
                retry_after_seconds=retry_after,
            )
            return 503, body, {"Retry-After": str(retry_after)}
        try:
            if path == "/search":
                if method not in ("GET", "POST"):
                    return _method_not_allowed("GET, POST")
                return self.handle_search(payload)
            if path == "/ingest":
                if method != "POST":
                    return _method_not_allowed("POST")
                return self.handle_ingest(payload)
            # /audit
            if method != "GET":
                return _method_not_allowed("GET")
            return self.handle_audit()
        finally:
            self.admission.release(decision)

    # ------------------------------------------------------------------
    # handlers
    # ------------------------------------------------------------------
    def handle_search(
        self, payload: object
    ) -> Tuple[int, Dict[str, object], Dict[str, str]]:
        """``/search``: ranked results under the shared (reader) lock."""
        request = parse_search_request(payload)
        with self.lock.reading():
            if request.verify:
                results, report = self.engine.search_with_incident_handling(
                    request.query, top_k=request.top_k
                )
                verification = {
                    "verified": True,
                    "ok": report.ok,
                    "violations": list(report.violations),
                }
            else:
                results = self.engine.search(
                    request.query, top_k=request.top_k
                )
                verification = {"verified": False}
        body = ok_payload(
            query=request.query,
            count=len(results),
            results=[
                {"doc_id": hit.doc_id, "score": hit.score} for hit in results
            ],
            **verification,
        )
        return 200, body, {}

    def handle_ingest(
        self, payload: object
    ) -> Tuple[int, Dict[str, object], Dict[str, str]]:
        """``/ingest``: one batch under the exclusive (writer) lock.

        With a tail-mode engine (``EngineConfig.tail_max_docs``) the
        writer critical section shrinks to WORM document/log commits
        plus an in-memory tail insertion — posting-list I/O moves to
        seal time — so concurrent searches stall far less under a
        write-heavy mix.
        """
        request = parse_ingest_request(payload)
        with self.lock.writing():
            doc_ids = self.engine.index_batch(
                request.documents, commit_times=request.commit_times
            )
        return (
            200,
            ok_payload(doc_ids=list(doc_ids), count=len(doc_ids)),
            {},
        )

    def handle_audit(self) -> Tuple[int, Dict[str, object], Dict[str, str]]:
        """``/audit``: the full tamper audit, as a reader."""
        from repro.adversary.detection import full_engine_audit

        with self.lock.reading():
            reports = full_engine_audit(self.engine)
            incidents = len(self.engine.incidents)
        bad = [report for report in reports if not report.ok]
        body = ok_payload(
            ok=not bad,
            subjects=len(reports),
            entries_checked=sum(r.entries_checked for r in reports),
            violations=[r.to_dict() for r in bad],
            incidents=incidents,
        )
        return 200, body, {}

    def handle_healthz(self) -> Tuple[int, Dict[str, object], Dict[str, str]]:
        """``/healthz``: liveness, drain state, and archive shape."""
        status = 503 if self.draining else 200
        body = ok_payload(
            status="draining" if self.draining else "ok",
            documents=len(self.engine.documents),
            shards=self.engine.num_shards,
            uptime_seconds=round(time.monotonic() - self._started, 3),
        )
        return status, body, {}

    def handle_metrics(
        self, fmt: str = "prometheus"
    ) -> Tuple[int, Dict[str, object], Dict[str, str]]:
        """``/metrics``: refresh every exporter and render the registry.

        Returns the body under the ``"text"`` key for Prometheus format
        (the HTTP layer writes it verbatim) or the snapshot dict for
        ``format=json``.
        """
        with self.lock.reading():  # archive_stats walks live engine state
            registry = engine_metrics(self.engine)
        export_service(registry, self.stats())
        if fmt == "json":
            return 200, {"schema": "repro-metrics/v1", "metrics": registry.snapshot()}, {}
        if fmt != "prometheus":
            raise SchemaError(
                f"/metrics: unknown format '{fmt}' (prometheus|json)"
            )
        return (
            200,
            {"text": registry.render_prometheus()},
            {"Content-Type": "text/plain; version=0.0.4; charset=utf-8"},
        )


def _method_not_allowed(
    allowed: str,
) -> Tuple[int, Dict[str, object], Dict[str, str]]:
    return (
        405,
        error_payload("method_not_allowed", f"allowed: {allowed}"),
        {"Allow": allowed},
    )


class _ServiceHTTPServer(socketserver.ThreadingTCPServer):
    """Threading server that joins handler threads on close (drain)."""

    daemon_threads = False  # server_close() must join in-flight handlers
    allow_reuse_address = True

    def __init__(self, address, handler, service: ArchiveService):
        self.service = service
        super().__init__(address, handler)


#: The interim answer ``Expect: 100-continue`` waits for.
_CONTINUE = b"HTTP/1.1 100 Continue\r\n\r\n"

_TENANT = TENANT_HEADER.lower()


class _Handler(socketserver.StreamRequestHandler):
    """One connection: read a head with :mod:`repro.service.wire`, route
    it (:meth:`_handle`) through :meth:`ArchiveService.dispatch`, answer
    in one write, until the client, HTTP/1.0 or the drain ends it."""

    # A reply longer than one segment ends in a short one, which Nagle
    # would hold for the client's delayed ACK (~40 ms on loopback).
    disable_nagle_algorithm = True
    server: _ServiceHTTPServer

    @property
    def service(self) -> ArchiveService:
        return self.server.service

    def setup(self) -> None:  # bound read timeout (drain + slowloris)
        self.timeout = self.service.config.request_timeout
        super().setup()

    def handle(self) -> None:
        self.close_connection = False
        try:
            while not self.close_connection:
                self.head_only, self.request_line = False, "-"
                try:
                    request = wire.read_request(self.rfile)
                except wire.WireError as exc:
                    self.close_connection = True
                    self._reply(400, error_payload("bad_request", str(exc)), {})
                    return
                if request is None:
                    return
                self._handle(*request)
        except OSError:
            return  # a read timed out or the client went away: hang up

    def _handle(
        self, method: str, target: str, version: str, headers: Dict[str, str]
    ) -> None:
        self.head_only = method == "HEAD"
        self.request_line = f"{method} {target} {version}"
        if version == "HTTP/1.0" or "close" in headers.get("connection", "").lower():
            self.close_connection = True
        try:
            body = self._read_body(version, headers)
            parts = urlsplit(target)
            path = parts.path.rstrip("/") or "/"
            if method == "POST":
                payload = _json_body(body)
            elif method == "GET":
                payload = {
                    key: values[-1]
                    for key, values in parse_qs(parts.query).items()
                }
                if path == "/search" and payload:
                    payload = _search_payload_from_query(payload)
            else:
                payload = None
        except (SchemaError, ValueError) as exc:
            self._reply(400, error_payload("bad_request", str(exc)), {})
            return
        tenant = headers.get(_TENANT, "").strip() or DEFAULT_TENANT
        self._reply(*self.service.dispatch(method, path, payload, tenant=tenant))

    def _read_body(self, version: str, headers: Dict[str, str]) -> bytes:
        """The request's body.  A refusal here ends the connection: what
        is left of the body unread cannot be framed as the next request."""
        try:
            length = wire.content_length(headers)
            limit = self.service.config.max_body_bytes
            if length > limit:
                raise wire.WireError(
                    f"request body of {length} bytes exceeds the {limit}-byte limit"
                )
            if (
                length
                and version == "HTTP/1.1"
                and headers.get("expect", "").lower() == "100-continue"
            ):
                self.connection.sendall(_CONTINUE)
            return wire.read_body(self.rfile, length)
        except wire.WireError as exc:
            self.close_connection = True
            raise SchemaError(str(exc)) from exc

    def _reply(self, status: int, body: Dict[str, object], headers: Dict[str, str]) -> None:
        content_type = headers.pop("Content-Type", "application/json")
        if "text" in body and content_type.startswith("text/"):
            raw = str(body["text"]).encode("utf-8")
        else:
            raw = (
                json.dumps(body, sort_keys=True, separators=(",", ":")) + "\n"
            ).encode("utf-8")
        if headers.pop("Connection", None) == "close" or self.service.draining:
            self.close_connection = True
        head = {
            "Date": formatdate(usegmt=True),
            "Content-Type": content_type,
            "Content-Length": str(len(raw)),
        }
        if self.close_connection:
            head["Connection"] = "close"
        head.update(headers)
        self.connection.sendall(
            wire.message(wire.status_line(status), head, b"" if self.head_only else raw)
        )
        if self.service.config.log_requests:
            sys.stderr.write(
                f'{self.client_address[0]} - - [{head["Date"]}] '
                f'"{self.request_line}" {status} {len(raw)}\n'
            )


def _json_body(raw: bytes) -> object:
    if not raw:
        return None
    try:
        return json.loads(raw.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise SchemaError(f"request body is not valid JSON: {exc}") from exc


def _search_payload_from_query(params: Dict[str, str]) -> Dict[str, object]:
    """``GET /search?q=...&top_k=...`` → the POST body schema."""
    payload: Dict[str, object] = {}
    if "q" in params:
        payload["query"] = params["q"]
    elif "query" in params:
        payload["query"] = params["query"]
    if "top_k" in params:
        try:
            payload["top_k"] = int(params["top_k"])
        except ValueError as exc:
            raise SchemaError(
                f"/search: 'top_k' must be an integer, got {params['top_k']!r}"
            ) from exc
    if "verify" in params:
        payload["verify"] = params["verify"].lower() in ("1", "true", "yes")
    return payload


class ArchiveServer:
    """One service process: the HTTP listener plus its drain choreography.

    Parameters
    ----------
    service:
        The :class:`ArchiveService` to expose.
    host / port:
        Bind address; ``port=0`` picks a free port (see :attr:`port`).
    """

    def __init__(self, service: ArchiveService, *, host: str = "127.0.0.1", port: int = 0):
        self.service = service
        self._httpd = _ServiceHTTPServer((host, port), _Handler, service)
        self._thread: Optional[threading.Thread] = None
        self._drained = threading.Event()
        self._sealer: Optional[threading.Thread] = None
        self._sealer_stop = threading.Event()
        #: Last exception the sealer loop swallowed (surfaced for tests
        #: and operators; the loop itself must outlive transient errors).
        self.sealer_error: Optional[BaseException] = None

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def endpoint(self) -> str:
        """Base URL clients should talk to."""
        return f"http://{self.host}:{self.port}"

    def start(self) -> "ArchiveServer":
        """Serve in a background thread; returns self for chaining."""
        if self._thread is not None:
            raise ReproError("server already started")
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            kwargs={"poll_interval": 0.05},
            name="archive-server",
        )
        self._thread.start()
        self._start_sealer()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread until another thread drains."""
        self._start_sealer()
        self._httpd.serve_forever(poll_interval=0.05)

    def _start_sealer(self) -> None:
        """Launch the background tail sealer, if configured and useful.

        The sealer takes the *writer* lock for each seal — sealing
        mutates the tail and appends segment lists exactly like ingest
        appends posting lists — so it serialises against /ingest and
        never overlaps a search.
        """
        interval = self.service.config.seal_interval
        if (
            self._sealer is not None
            or interval <= 0
            or not self.service.engine.tail_enabled
        ):
            return

        def _run() -> None:
            while not self._sealer_stop.wait(interval):
                try:
                    with self.service.lock.writing():
                        self.service.engine.seal_tail()
                except Exception as exc:  # noqa: BLE001 - keep sealing
                    self.sealer_error = exc

        self._sealer = threading.Thread(target=_run, name="tail-sealer")
        self._sealer.start()

    def drain(self) -> None:
        """Graceful shutdown: reject new work, finish in-flight, sync, close.

        Safe to call from any thread (including a signal handler's);
        idempotent — later calls wait for the first to finish.
        """
        if self._drained.is_set():
            return
        self.service.begin_drain()
        # Stop the sealer before tearing anything down: a seal holds the
        # writer lock and appends to WORM, so it must not race close().
        self._sealer_stop.set()
        if self._sealer is not None:
            self._sealer.join()
            self._sealer = None
        # shutdown() stops the accept loop; server_close() then joins
        # every in-flight handler thread, so no accepted request is lost.
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join()
            self._thread = None
        self.service.shutdown()
        self._drained.set()

    def __enter__(self) -> "ArchiveServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.drain()


def serve_archive(
    archive_path: str,
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    config: Optional[ServiceConfig] = None,
    **open_kwargs,
) -> ArchiveServer:
    """Open the archive at ``archive_path`` once and wrap it in a server.

    ``open_kwargs`` pass through to :func:`repro.cli.open_archive`
    (durability knobs, read cache).  The returned server is
    not yet started; use ``with serve_archive(...) as server:`` or call
    :meth:`ArchiveServer.start` / :meth:`ArchiveServer.serve_forever`.
    Draining the server closes the archive.
    """
    from repro.cli import open_archive

    engine, closer = open_archive(archive_path, **open_kwargs)
    service = ArchiveService(engine, closer, config=config)
    return ArchiveServer(service, host=host, port=port)
