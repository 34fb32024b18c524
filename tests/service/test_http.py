"""The service's HTTP at the byte level, over raw sockets.

What a client other than :class:`HTTPTransport` may send — HTTP/1.0,
``Connection: close``, ``Expect: 100-continue``, a method no endpoint
takes, a body over the limit, a head that is not HTTP — and what the
server owes it: a JSON reply saying what was wrong, or a closed
connection.  No exception may escape a handler thread (the fixture
checks it after the drain has joined them all), and the next
well-formed request must still be answered.
"""

import io
import json
import socket
import sys
import time
from email.utils import parsedate_to_datetime

import pytest

from repro.loadtest.transport import HTTPTransport
from repro.service import wire
from repro.service.server import ArchiveServer, ArchiveService, ServiceConfig
from tests.helpers import DEFAULT_CORPUS, build_engine

REQUEST_TIMEOUT = 5.0
MAX_BODY = 100


@pytest.fixture()
def server():
    config = ServiceConfig(request_timeout=REQUEST_TIMEOUT, max_body_bytes=MAX_BODY)
    srv = ArchiveServer(ArchiveService(build_engine(batch=True), config=config))
    escaped = []
    srv._httpd.handle_error = lambda request, address: escaped.append(sys.exc_info()[1])
    with srv:
        yield srv
    assert not escaped


def _exchange(server, data: bytes, *, hang_up: bool = False) -> bytes:
    """Send ``data`` (then half-close, if ``hang_up``) and read until the
    server closes; a reset counts as a close."""
    chunks = []
    with socket.create_connection((server.host, server.port), timeout=10) as sock:
        try:
            sock.sendall(data)
            if hang_up:
                sock.shutdown(socket.SHUT_WR)
            for chunk in iter(lambda: sock.recv(65536), b""):
                chunks.append(chunk)
        except ConnectionResetError:
            pass
    return b"".join(chunks)


def _replies(data: bytes):
    """``[(status, headers, body)]`` of back-to-back replies."""
    rfile, replies = io.BytesIO(data), []
    while (head := wire.read_response(rfile)) is not None:
        status, headers = head
        replies.append((status, headers, wire.read_body(rfile, wire.content_length(headers))))
    return replies


def _error_code(reply) -> str:
    return json.loads(reply[2])["error"]["code"]


class TestRefusals:
    def test_an_oversized_body_is_refused_and_the_connection_closed(self, server):
        body = b'{"documents": ["' + b"x" * 150 + b'"]}'
        started = time.monotonic()
        answer = _exchange(
            server,
            b"POST /ingest HTTP/1.1\r\nHost: a\r\nContent-Length: %d\r\n\r\n%s"
            % (len(body), body),
        )
        assert time.monotonic() - started < REQUEST_TIMEOUT / 5
        (reply,) = _replies(answer)
        assert reply[0] == 400 and reply[1]["connection"] == "close"
        assert _error_code(reply) == "bad_request"
        assert len(server.service.engine.documents) == len(DEFAULT_CORPUS)

    def test_an_unsupported_method_gets_a_json_405(self, server):
        replies = _replies(
            _exchange(
                server,
                b"PUT /search HTTP/1.1\r\nHost: a\r\nContent-Length: 2\r\n\r\n{}"
                b"GET /healthz HTTP/1.1\r\nHost: a\r\nConnection: close\r\n\r\n",
            )
        )
        (status, headers, _), healthz = replies
        assert status == 405 and headers["allow"] == "GET, POST"
        assert _error_code(replies[0]) == "method_not_allowed"
        assert healthz[0] == 200  # the body was read, so the connection lived

    def test_a_head_reply_carries_no_body(self, server):
        rfile = io.BytesIO(
            _exchange(
                server,
                b"HEAD /healthz HTTP/1.1\r\nHost: a\r\n\r\n"
                b"GET /healthz HTTP/1.1\r\nHost: a\r\nConnection: close\r\n\r\n",
            )
        )
        status, headers = wire.read_response(rfile)
        assert status == 405 and headers["allow"] == "GET"
        assert int(headers["content-length"]) > 0
        assert wire.read_response(rfile)[0] == 200  # right after the head


class TestProtocol:
    @pytest.mark.parametrize(
        "request_bytes",
        [
            b"GET /healthz HTTP/1.0\r\n\r\n",
            b"GET /healthz HTTP/1.1\r\nHost: a\r\nConnection: close\r\n\r\n",
        ],
        ids=["HTTP/1.0", "Connection: close"],
    )
    def test_the_connection_closes_after_the_reply(self, server, request_bytes):
        started = time.monotonic()
        (reply,) = _replies(_exchange(server, request_bytes))
        assert time.monotonic() - started < REQUEST_TIMEOUT / 5
        assert reply[0] == 200 and reply[1]["connection"] == "close"

    def test_expect_100_continue_gets_its_interim_answer(self, server):
        body = b'{"query": "imclone"}'
        with socket.create_connection((server.host, server.port), timeout=10) as sock:
            sock.sendall(
                b"POST /search HTTP/1.1\r\nHost: a\r\nExpect: 100-continue\r\n"
                b"Content-Length: %d\r\nConnection: close\r\n\r\n" % len(body)
            )
            assert sock.recv(64) == b"HTTP/1.1 100 Continue\r\n\r\n"
            sock.sendall(body)
            answer = b"".join(iter(lambda: sock.recv(65536), b""))
        (reply,) = _replies(answer)
        assert reply[0] == 200 and json.loads(reply[2])["count"] > 0

    def test_every_reply_carries_a_date(self, server):
        replies = _replies(
            _exchange(
                server,
                b"GET /healthz HTTP/1.1\r\n\r\n"
                b"GET /nowhere HTTP/1.1\r\n\r\n"
                b"DELETE /audit HTTP/1.1\r\n\r\n"
                b"POST /search HTTP/1.1\r\nContent-Length: 1\r\n\r\n{"
                b"GET /metrics HTTP/1.1\r\nConnection: close\r\n\r\n",
            )
        )
        assert [reply[0] for reply in replies] == [200, 404, 405, 400, 200]
        for _, headers, _ in replies:
            assert abs(parsedate_to_datetime(headers["date"]).timestamp() - time.time()) < 60


#: Heads that are not HTTP this server takes, each answered or hung up on.
HOSTILE = {
    "overlong request line": b"GET /" + b"a" * wire.MAX_LINE + b" HTTP/1.1\r\n\r\n",
    "overlong header": b"GET /healthz HTTP/1.1\r\nX: " + b"a" * wire.MAX_LINE + b"\r\n\r\n",
    "101 headers": b"GET /healthz HTTP/1.1\r\n" + b"X: 1\r\n" * 101 + b"\r\n",
    "no colon": b"GET /healthz HTTP/1.1\r\nno colon here\r\n\r\n",
    "non-ASCII method": b"G\xc9T /healthz HTTP/1.1\r\n\r\n",
    "binary": bytes(range(256)) + b"\r\n\r\n",
    "HTTP/2 preface": b"PRI * HTTP/2.0\r\n\r\nSM\r\n\r\n",
    "conflicting lengths": (
        b"POST /search HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 3\r\n\r\n{}"
    ),
    "chunked": (
        b"POST /search HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n2\r\n{}\r\n0\r\n\r\n"
    ),
    "negative length": b"POST /search HTTP/1.1\r\nContent-Length: -5\r\n\r\n",
    "unparseable target": b"GET //[ HTTP/1.1\r\n\r\n",
    "truncated head": b"GET /healthz HTTP/1.1\r\nHost: a",
    "truncated body": b"POST /search HTTP/1.1\r\nContent-Length: 50\r\n\r\n{}",
    "body not UTF-8": b"POST /search HTTP/1.1\r\nContent-Length: 2\r\n\r\n\xff\xfe",
}


@pytest.mark.parametrize("data", HOSTILE.values(), ids=HOSTILE)
def test_a_hostile_head_gets_a_json_4xx_or_a_close(server, data):
    answer = _exchange(server, data, hang_up=True)
    if answer:
        (reply,) = _replies(answer)
        assert 400 <= reply[0] < 500
        assert _error_code(reply) == "bad_request"
    with HTTPTransport(server.endpoint) as client:
        assert client.search("imclone")
