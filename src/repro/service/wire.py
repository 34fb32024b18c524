"""The HTTP/1.1 codec both ends of the archive service speak.

The server (:mod:`repro.service.server`) and its client
(:mod:`repro.loadtest.transport`) exchange small JSON messages over
kept-alive connections.  This module is all the HTTP they need:

- a bounded head reader: a start line plus at most :data:`MAX_HEADERS`
  header lines of at most :data:`MAX_LINE` bytes each (the standard
  library's own limits), header names lower-cased into a dict;
- strict ``Content-Length`` framing: one decimal length or none (an
  empty body); conflicting lengths and any ``Transfer-Encoding`` are
  refused, so a body is never read by a guess;
- one ``sendall`` per message: :func:`message` returns the head and the
  body as one ``bytes``.

Whatever the bytes, a reader returns a head within those bounds, returns
``None`` (the peer closed before the first byte of a message), or raises
:class:`WireError`.
"""

from __future__ import annotations

import re
from http import HTTPStatus
from typing import Dict, Optional, Tuple

from repro.errors import ReproError

#: Longest start or header line in bytes, line break included.
MAX_LINE = 65536

#: Most header lines in one head.
MAX_HEADERS = 100

#: Longest ``Content-Length`` read as a number; ``int()`` never sees more.
_MAX_LENGTH_DIGITS = 18

#: An RFC 9110 token: what a method or a header name is made of.
_TOKEN = re.compile(r"[!#$%&'*+\-.^_`|~0-9A-Za-z]+\Z")

_VERSIONS = ("HTTP/1.0", "HTTP/1.1")

_REASONS = {status.value: status.phrase for status in HTTPStatus}

Headers = Dict[str, str]


class WireError(ReproError):
    """Bytes that are not an HTTP/1.1 message this codec accepts."""


def _read_line(rfile) -> bytes:
    line = rfile.readline(MAX_LINE + 1)
    if len(line) > MAX_LINE:
        raise WireError(f"a head line is longer than {MAX_LINE} bytes")
    if line and not line.endswith(b"\n"):
        raise WireError("the message ended inside its head")
    return line


def _read_head(rfile) -> Optional[Tuple[str, Headers]]:
    start = _read_line(rfile)
    if not start:
        return None
    headers: Headers = {}
    lines = 0
    while True:
        line = _read_line(rfile)
        if not line:
            raise WireError("the message ended inside its head")
        if line in (b"\r\n", b"\n"):
            return start.decode("latin-1").rstrip("\r\n"), headers
        lines += 1
        if lines > MAX_HEADERS:
            raise WireError(f"more than {MAX_HEADERS} header lines")
        name, colon, value = line.decode("latin-1").partition(":")
        value = value.strip(" \t\r\n")
        if not colon or not _TOKEN.match(name) or "\r" in value:
            raise WireError(f"malformed header line {line[:80]!r}")
        name = name.lower()
        if name not in headers:
            headers[name] = value
        elif name == "content-length":
            if headers[name] != value:
                raise WireError("conflicting Content-Length headers")
        else:
            headers[name] += ", " + value


def read_request(rfile) -> Optional[Tuple[str, str, str, Headers]]:
    """``(method, target, version, headers)`` of the next request, or
    ``None`` when the peer closed the connection between requests."""
    head = _read_head(rfile)
    if head is None:
        return None
    start, headers = head
    words = start.split(" ")
    if len(words) != 3 or not _TOKEN.match(words[0]) or words[2] not in _VERSIONS:
        raise WireError(f"malformed request line {start[:80]!r}")
    return words[0], words[1], words[2], headers


def read_response(rfile) -> Optional[Tuple[int, Headers]]:
    """``(status, headers)`` of the next response, or ``None`` when the
    peer closed the connection before its first byte."""
    head = _read_head(rfile)
    if head is None:
        return None
    start, headers = head
    words = start.split(" ", 2)
    if len(words) < 2 or words[0] not in _VERSIONS or not _is_status(words[1]):
        raise WireError(f"malformed status line {start[:80]!r}")
    return int(words[1]), headers


def _is_status(word: str) -> bool:
    return len(word) == 3 and word.isascii() and word.isdigit()


def content_length(headers: Headers) -> int:
    """The body length a head declares (``0`` when it declares none)."""
    if "transfer-encoding" in headers:
        raise WireError("Transfer-Encoding is not supported; send Content-Length")
    declared = headers.get("content-length", "0")
    if not (declared.isascii() and declared.isdigit()):
        raise WireError(
            f"Content-Length {declared[:40]!r} is not a non-negative decimal integer"
        )
    if len(declared) > _MAX_LENGTH_DIGITS:
        raise WireError(f"Content-Length of {len(declared)} digits is out of range")
    return int(declared)


def read_body(rfile, length: int) -> bytes:
    """Exactly ``length`` bytes, or :class:`WireError` if the peer stops short."""
    body = rfile.read(length) if length else b""
    if len(body) != length:
        raise WireError(f"the body ended after {len(body)} of {length} bytes")
    return body


def message(start: str, headers: Headers, body: bytes = b"") -> bytes:
    """One whole message, ready for a single ``sendall``."""
    lines = [start]
    lines.extend(f"{name}: {value}" for name, value in headers.items())
    text = "\r\n".join(lines)
    # Joined by CRLF, a clean head holds one CR and one LF per header.
    if text.count("\r") != len(headers) or text.count("\n") != len(headers):
        raise WireError(f"a line break inside the head of {start[:80]!r}")
    return (text + "\r\n\r\n").encode("latin-1") + body


def status_line(status: int) -> str:
    """``HTTP/1.1 <status> <reason>``."""
    return f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}"
