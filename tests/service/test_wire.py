"""The service's HTTP codec against hostile bytes, with no socket.

Whatever a peer sends, a head reader returns a head within the codec's
bounds, returns ``None`` (nothing was sent), or raises
:class:`WireError` — no other exception, and no head past a limit.
Both readers are driven: the server's (requests) and the client's
(responses).
"""

import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service import wire
from repro.service.wire import MAX_HEADERS, MAX_LINE, WireError

REQUEST = b"POST /search HTTP/1.1"
RESPONSE = b"HTTP/1.1 200 OK"

#: Header lines a hostile peer would try, drawn beside arbitrary bytes.
NASTY = [
    b"Content-Length: 5",
    b"content-length: 5",
    b"Content-Length: 7",
    b"Content-Length: -1",
    b"Content-Length: 0x10",
    b"Content-Length: " + b"9" * 5000,
    b"Transfer-Encoding: chunked",
    b"a header line with no colon",
    b": no name",
    b"Bad Name: a space in the name",
    b" folded: a continuation line",
    b"Caf\xc3\xa9: \xff\xfe non-ASCII",
    b"X-Bare: a\rb",
    b"X-Controls: \x00\x7f",
]

TOKEN = set("!#$%&'*+-.^_`|~0123456789abcdefghijklmnopqrstuvwxyz")


@st.composite
def heads(draw, start: bytes) -> bytes:
    """A head built from hostile parts, possibly cut short."""
    lines = [draw(st.one_of(st.just(start), st.binary(max_size=40)))]
    lines += draw(
        st.lists(st.one_of(st.sampled_from(NASTY), st.binary(max_size=40)), max_size=6)
    )
    filler = draw(st.sampled_from([0, MAX_HEADERS - 1, MAX_HEADERS, MAX_HEADERS + 1]))
    lines += [b"X-Filler-%d: x" % i for i in range(filler)]
    if draw(st.booleans()):
        # "Y: " + value + CRLF is one byte under, at, or over the limit.
        lines.append(b"Y: " + b"y" * (MAX_LINE - 5 + draw(st.integers(-1, 1))))
    data = b"\r\n".join(lines) + b"\r\n\r\n" + draw(st.binary(max_size=20))
    if draw(st.booleans()):
        data = data[: draw(st.integers(0, len(data)))]
    return data


def _check_bounded(headers, data: bytes) -> None:
    assert len(headers) <= MAX_HEADERS
    for name, value in headers.items():
        assert name and set(name) <= TOKEN
        assert "\r" not in value and "\n" not in value
        assert len(name) + len(value) < MAX_LINE
    try:
        length = wire.content_length(headers)
    except WireError:
        return
    assert 0 <= length < 10**18
    assert "transfer-encoding" not in headers


@settings(deadline=None)
@given(st.one_of(heads(REQUEST), st.binary(max_size=200)))
def test_a_request_head_is_bounded_or_refused(data):
    try:
        head = wire.read_request(io.BytesIO(data))
    except WireError:
        return
    if head is None:
        assert data == b""
        return
    method, target, version, headers = head
    assert method and set(method.lower()) <= TOKEN
    assert " " not in target and version in ("HTTP/1.0", "HTTP/1.1")
    _check_bounded(headers, data)


@settings(deadline=None)
@given(st.one_of(heads(RESPONSE), st.binary(max_size=200)))
def test_a_response_head_is_bounded_or_refused(data):
    try:
        head = wire.read_response(io.BytesIO(data))
    except WireError:
        return
    if head is None:
        assert data == b""
        return
    status, headers = head
    assert 0 <= status <= 999
    _check_bounded(headers, data)


def _request(*lines: bytes) -> bytes:
    return b"\r\n".join((REQUEST,) + lines) + b"\r\n\r\n"


@pytest.mark.parametrize(
    "data",
    [
        pytest.param(b"GET /" + b"a" * MAX_LINE + b" HTTP/1.1\r\n\r\n", id="overlong line"),
        pytest.param(_request(*[b"X: 1"] * (MAX_HEADERS + 1)), id="101 headers"),
        pytest.param(_request(b"no colon"), id="no colon"),
        pytest.param(_request(b"Bad Name: x"), id="space in a name"),
        pytest.param(_request(b"Content-Length: 5", b"Content-Length: 6"), id="conflicting lengths"),
        pytest.param(_request(b"Content-Length: 1e3"), id="length not decimal"),
        pytest.param(_request(b"Content-Length: " + b"9" * 19), id="length out of range"),
        pytest.param(_request(b"Transfer-Encoding: chunked"), id="chunked"),
        pytest.param(REQUEST + b"\r\nHost: x", id="truncated"),
        pytest.param(b"GET / HTTP/2.0\r\n\r\n", id="unknown version"),
        pytest.param(b"GET /a b HTTP/1.1\r\n\r\n", id="space in the target"),
    ],
)
def test_a_hostile_request_head_is_refused(data):
    with pytest.raises(WireError):
        wire.content_length(wire.read_request(io.BytesIO(data))[3])


def test_the_limits_themselves_are_accepted():
    data = _request(*[b"X-%d: 1" % i for i in range(MAX_HEADERS - 1)], b"Y: " + b"y" * (MAX_LINE - 5))
    method, target, version, headers = wire.read_request(io.BytesIO(data))
    assert (method, target, version, len(headers)) == ("POST", "/search", "HTTP/1.1", MAX_HEADERS)


def test_repeated_headers():
    data = _request(b"Content-Length: 2", b"content-length: 2", b"Accept: a", b"ACCEPT: b")
    headers = wire.read_request(io.BytesIO(data))[3]
    assert wire.content_length(headers) == 2
    assert headers["accept"] == "a, b"


def test_a_message_round_trips_and_a_line_break_is_refused():
    rfile = io.BytesIO(
        wire.message(wire.status_line(404), {"Content-Length": "2", "X-A": "b"}, b"{}")
    )
    status, headers = wire.read_response(rfile)
    assert (status, headers) == (404, {"content-length": "2", "x-a": "b"})
    assert wire.read_body(rfile, wire.content_length(headers)) == b"{}"
    assert wire.read_response(rfile) is None
    with pytest.raises(WireError):
        wire.message("GET / HTTP/1.1", {"X-Tenant": "a\r\nX-Evil: 1"})
    with pytest.raises(WireError):
        wire.read_body(io.BytesIO(b"{"), 2)
