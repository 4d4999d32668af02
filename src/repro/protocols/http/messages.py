"""HTTP/1.1 message parsing and formatting (the subset the study uses).

The TCP probe is an ``HTTP GET`` for the root page; pool hosts are
encouraged to run a web server that redirects to
``www.pool.ntp.org``.  We implement request/response framing with
Content-Length bodies — enough to carry that exchange and to notice
malformed responses.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ...netsim.errors import CodecError

CRLF = b"\r\n"
HEADER_END = b"\r\n\r\n"
HTTP_PORT = 80


@dataclass
class HTTPRequest:
    """A parsed HTTP request."""

    method: str = "GET"
    target: str = "/"
    version: str = "HTTP/1.1"
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    def encode(self) -> bytes:
        lines = [f"{self.method} {self.target} {self.version}"]
        headers = dict(self.headers)
        if self.body and "content-length" not in {k.lower() for k in headers}:
            headers["Content-Length"] = str(len(self.body))
        lines.extend(f"{name}: {value}" for name, value in headers.items())
        head = "\r\n".join(lines).encode("ascii") + HEADER_END
        return head + self.body

    @classmethod
    def decode(cls, data: bytes) -> "HTTPRequest":
        head, _sep, body = data.partition(HEADER_END)
        if not _sep:
            raise CodecError("request headers not terminated")
        lines = head.split(CRLF)
        try:
            method, target, version = lines[0].decode("ascii").split(" ", 2)
        except (UnicodeDecodeError, ValueError) as exc:
            raise CodecError(f"bad request line: {lines[0]!r}") from exc
        headers = _parse_headers(lines[1:])
        return cls(method=method, target=target, version=version, headers=headers, body=body)


@dataclass
class HTTPResponse:
    """A parsed HTTP response."""

    status: int = 200
    reason: str = "OK"
    version: str = "HTTP/1.1"
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    def encode(self) -> bytes:
        headers = dict(self.headers)
        lowered = {k.lower() for k in headers}
        if "content-length" not in lowered:
            headers["Content-Length"] = str(len(self.body))
        if "connection" not in lowered:
            headers["Connection"] = "close"
        lines = [f"{self.version} {self.status} {self.reason}"]
        lines.extend(f"{name}: {value}" for name, value in headers.items())
        head = "\r\n".join(lines).encode("ascii") + HEADER_END
        return head + self.body

    @classmethod
    def decode(cls, data: bytes) -> "HTTPResponse":
        head, _sep, body = data.partition(HEADER_END)
        if not _sep:
            raise CodecError("response headers not terminated")
        lines = head.split(CRLF)
        parts = lines[0].decode("ascii", errors="replace").split(" ", 2)
        if len(parts) < 2 or not parts[1].isdigit():
            raise CodecError(f"bad status line: {lines[0]!r}")
        version = parts[0]
        status = int(parts[1])
        reason = parts[2] if len(parts) > 2 else ""
        headers = _parse_headers(lines[1:])
        return cls(status=status, reason=reason, version=version, headers=headers, body=body)

    def header(self, name: str, default: str | None = None) -> str | None:
        """Case-insensitive header lookup."""
        wanted = name.lower()
        for key, value in self.headers.items():
            if key.lower() == wanted:
                return value
        return default

    @property
    def is_redirect(self) -> bool:
        return self.status in (301, 302, 303, 307, 308)

    @property
    def complete(self) -> bool:
        """False while a Content-Length header promises more body bytes."""
        length = self.header("content-length")
        return length is None or not length.isdigit() or len(self.body) >= int(length)


def _parse_headers(lines: list[bytes]) -> dict[str, str]:
    headers: dict[str, str] = {}
    for raw in lines:
        if not raw:
            continue
        name, sep, value = raw.decode("ascii", errors="replace").partition(":")
        if not sep:
            raise CodecError(f"bad header line: {raw!r}")
        headers[name.strip()] = value.strip()
    return headers


#: Parsed messages by their exact bytes.  Every pool web server sends
#: one of a few fixed responses to one of a few fixed requests, so a
#: study parses each distinct message once.  The cap bounds a
#: pathological workload (cleared wholesale, like the pseudo-header
#: memo in :mod:`repro.netsim.checksum`).
_RESPONSES: dict[bytes, HTTPResponse] = {}
_REQUESTS: dict[bytes, HTTPRequest] = {}
_PARSED_MAX = 256


def _parsed(cache: dict, decode, data: bytes):
    message = cache.get(data)
    if message is None:
        message = decode(data)  # CodecError propagates, uncached
        if len(cache) >= _PARSED_MAX:
            cache.clear()
        cache[data] = message
    return message


def parse_response(data: bytes) -> HTTPResponse:
    """:meth:`HTTPResponse.decode`, parsing each distinct ``data`` once.

    Every call returns its own :class:`HTTPResponse` with its own
    headers dict, so callers never share mutable state.
    """
    parsed = _parsed(_RESPONSES, HTTPResponse.decode, data)
    return HTTPResponse(
        status=parsed.status,
        reason=parsed.reason,
        version=parsed.version,
        headers=dict(parsed.headers),
        body=parsed.body,
    )


def request_method(data: bytes) -> str:
    """The method of the request in ``data`` (raises :class:`CodecError`).

    Parses each distinct request once, like :func:`parse_response`.
    """
    return _parsed(_REQUESTS, HTTPRequest.decode, data).method


def response_complete(data: bytes) -> bool:
    """True once ``data`` holds a full response (per Content-Length)."""
    if HEADER_END not in data:
        return False
    try:
        return _parsed(_RESPONSES, HTTPResponse.decode, data).complete
    except CodecError:
        return True  # malformed: treat as complete so the caller can fail it
