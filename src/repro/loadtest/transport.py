"""HTTP client for the archive service.

:class:`HTTPTransport` has an engine's calling surface —
``search(query, top_k=...)`` and ``index_batch(texts)`` — over the wire,
so whatever drives an in-process engine can drive a running
:mod:`repro.service` endpoint, queueing delay, admission control and
serialisation included.

Each calling thread keeps one persistent ``http.client.HTTPConnection``
(the service speaks HTTP/1.1 keep-alive).  Non-2xx answers raise typed
exceptions — :class:`RateLimitedError` for 429,
:class:`ServiceOverloadedError` for 503.

What is retried: one thing.  A server may close a kept-alive connection
while it sits idle; the client learns of it on its next request, as a
reset or a hang-up before any byte of an answer, and sends that request
once more on a fresh connection.  Nothing else is sent twice — not a
request on a connection opened for it, and never one that timed out: a
late answer is not a missing one, the archive may have committed the
batch, and a committed duplicate can never be taken back.  Those raise
:class:`ServiceClientError` and the caller decides.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
from typing import Dict, List, Optional, Sequence, Tuple
from urllib.parse import urlsplit

from repro.errors import ReproError


#: How a connection the peer closed before answering shows up
#: (``http.client.RemoteDisconnected`` is a ``ConnectionResetError``).
_PEER_CLOSED = (ConnectionResetError, BrokenPipeError)


class ServiceClientError(ReproError):
    """Base class for archive-service client failures."""


class RateLimitedError(ServiceClientError):
    """The service answered 429: the tenant is over its request rate."""

    def __init__(self, message: str, *, retry_after: Optional[float] = None):
        super().__init__(message)
        self.retry_after = retry_after


class ServiceOverloadedError(ServiceClientError):
    """The service answered 503: queue full, draining, or shedding load."""

    def __init__(self, message: str, *, retry_after: Optional[float] = None):
        super().__init__(message)
        self.retry_after = retry_after


class ServiceProtocolError(ServiceClientError):
    """The service answered something other than the v1 protocol."""


class TransportSearchResult:
    """One wire-format hit, shaped like an engine ``SearchResult``."""

    __slots__ = ("doc_id", "score")

    def __init__(self, doc_id: int, score: float):
        self.doc_id = doc_id
        self.score = score

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TransportSearchResult(doc_id={self.doc_id}, score={self.score})"


class HTTPTransport:
    """Engine-protocol adapter over a running archive service.

    Parameters
    ----------
    endpoint:
        Base URL, e.g. ``http://127.0.0.1:8080``.
    timeout:
        Per-request socket timeout in seconds.
    tenant:
        Value for the ``X-Repro-Tenant`` header (rate-limit identity);
        ``None`` sends no header (the service charges ``default``).
    """

    def __init__(
        self,
        endpoint: str,
        *,
        timeout: float = 30.0,
        tenant: Optional[str] = None,
    ):
        parts = urlsplit(endpoint if "//" in endpoint else f"//{endpoint}")
        if parts.scheme not in ("", "http"):
            raise ServiceClientError(
                f"unsupported scheme '{parts.scheme}' (http only)"
            )
        if not parts.hostname:
            raise ServiceClientError(f"endpoint '{endpoint}' has no host")
        self.host = parts.hostname
        self.port = parts.port or 80
        self.timeout = timeout
        self.tenant = tenant
        self._local = threading.local()
        self._connections: List[http.client.HTTPConnection] = []
        self._connections_lock = threading.Lock()
        self._health: Optional[Dict[str, object]] = None

    # ------------------------------------------------------------------
    # connection plumbing
    # ------------------------------------------------------------------
    def _connection(self) -> http.client.HTTPConnection:
        connection = getattr(self._local, "connection", None)
        if connection is None:
            connection = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
            connection.connect()
            # Request bodies go out as separate segments; Nagle plus
            # delayed ACK would add ~40 ms per loopback round trip.
            connection.sock.setsockopt(
                socket.IPPROTO_TCP, socket.TCP_NODELAY, 1
            )
            self._local.connection = connection
            with self._connections_lock:
                self._connections.append(connection)
        return connection

    def _drop_connection(self) -> None:
        connection = getattr(self._local, "connection", None)
        if connection is not None:
            connection.close()
            with self._connections_lock:
                if connection in self._connections:
                    self._connections.remove(connection)
            self._local.connection = None

    def _request(
        self, method: str, path: str, payload: Optional[Dict[str, object]] = None
    ) -> Tuple[int, Dict[str, object], Dict[str, str]]:
        body = None
        headers = {"Accept": "application/json"}
        if payload is not None:
            body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
            headers["Content-Type"] = "application/json"
        if self.tenant is not None:
            headers["X-Repro-Tenant"] = self.tenant
        reused = getattr(self._local, "connection", None) is not None
        while True:
            response = None
            try:
                connection = self._connection()
                connection.request(method, path, body=body, headers=headers)
                response = connection.getresponse()
                raw = response.read()  # drain: keep-alive needs a clean socket
                break
            except (http.client.HTTPException, OSError) as exc:
                self._drop_connection()
                # The server closed this connection while it sat idle
                # (see the module docstring): the one case sent again.
                if reused and response is None and isinstance(exc, _PEER_CLOSED):
                    reused = False
                    continue
                raise ServiceClientError(
                    f"{method} {path} failed: {type(exc).__name__}: {exc}"
                ) from exc
        response_headers = {k: v for k, v in response.getheaders()}
        if response.getheader("Connection", "").lower() == "close":
            self._drop_connection()
        content_type = response.getheader("Content-Type", "")
        if content_type.startswith("application/json"):
            try:
                document = json.loads(raw.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise ServiceProtocolError(
                    f"{method} {path}: unparseable JSON answer: {exc}"
                ) from exc
        else:
            document = {"text": raw.decode("utf-8", errors="replace")}
        return response.status, document, response_headers

    def _call(
        self, method: str, path: str, payload: Optional[Dict[str, object]] = None
    ) -> Dict[str, object]:
        status, document, headers = self._request(method, path, payload)
        if 200 <= status < 300:
            return document
        error = document.get("error", {}) if isinstance(document, dict) else {}
        message = (
            f"{method} {path} -> {status}: "
            f"{error.get('message', 'no detail')}"
        )
        retry_after = _parse_retry_after(headers.get("Retry-After"))
        if status == 429:
            raise RateLimitedError(message, retry_after=retry_after)
        if status == 503:
            raise ServiceOverloadedError(message, retry_after=retry_after)
        raise ServiceProtocolError(message)

    # ------------------------------------------------------------------
    # the engine's calling surface
    # ------------------------------------------------------------------
    def search(
        self, query: str, *, top_k: int = 10, verify: bool = False
    ) -> List[TransportSearchResult]:
        """POST /search; returns hits shaped like engine results."""
        document = self._call(
            "POST",
            "/search",
            {"query": query, "top_k": top_k, "verify": verify},
        )
        return [
            TransportSearchResult(int(hit["doc_id"]), float(hit["score"]))
            for hit in document.get("results", [])
        ]

    def index_batch(
        self,
        texts: Sequence[str],
        *,
        commit_times: Optional[Sequence[int]] = None,
    ) -> List[int]:
        """POST /ingest; returns the assigned global document IDs.

        Batches larger than the service's per-request document cap
        (:data:`repro.service.protocol.MAX_INGEST_DOCUMENTS`) are split
        into multiple requests transparently.
        """
        from repro.service.protocol import MAX_INGEST_DOCUMENTS

        texts = list(texts)
        doc_ids: List[int] = []
        for start in range(0, len(texts), MAX_INGEST_DOCUMENTS):
            payload: Dict[str, object] = {
                "documents": texts[start : start + MAX_INGEST_DOCUMENTS]
            }
            if commit_times is not None:
                payload["commit_times"] = list(
                    commit_times[start : start + MAX_INGEST_DOCUMENTS]
                )
            document = self._call("POST", "/ingest", payload)
            doc_ids.extend(int(doc_id) for doc_id in document.get("doc_ids", []))
        return doc_ids

    # ------------------------------------------------------------------
    # service introspection
    # ------------------------------------------------------------------
    def healthz(self) -> Dict[str, object]:
        """GET /healthz (cached after the first success)."""
        if self._health is None:
            self._health = self._call("GET", "/healthz")
        return self._health

    def close(self) -> None:
        """Close every per-thread connection this transport opened."""
        with self._connections_lock:
            connections, self._connections = self._connections, []
        for connection in connections:
            connection.close()

    def __enter__(self) -> "HTTPTransport":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"HTTPTransport(http://{self.host}:{self.port})"


def _parse_retry_after(value: Optional[str]) -> Optional[float]:
    if value is None:
        return None
    try:
        return float(value)
    except ValueError:
        return None
