"""HTTP: message framing, pool web server, probe client."""

from .client import DEFAULT_DEADLINE, FetchResult, HTTPFetch, fetch
from .messages import (
    HTTPRequest,
    HTTPResponse,
    HTTP_PORT,
    parse_response,
    response_complete,
)
from .server import PoolWebServer, REDIRECT_TARGET

__all__ = [
    "DEFAULT_DEADLINE",
    "FetchResult",
    "HTTPFetch",
    "HTTPRequest",
    "HTTPResponse",
    "HTTP_PORT",
    "PoolWebServer",
    "REDIRECT_TARGET",
    "fetch",
    "parse_response",
    "response_complete",
]
