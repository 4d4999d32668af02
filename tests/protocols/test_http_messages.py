"""Tests for HTTP message framing."""

import pytest

from repro.netsim.errors import CodecError
from repro.protocols.http import messages
from repro.protocols.http.messages import (
    HTTPRequest,
    HTTPResponse,
    parse_response,
    request_method,
    response_complete,
)


class TestRequest:
    def test_roundtrip(self):
        request = HTTPRequest(
            method="GET",
            target="/",
            headers={"Host": "ntp-0001.uk", "Connection": "close"},
        )
        decoded = HTTPRequest.decode(request.encode())
        assert decoded.method == "GET"
        assert decoded.target == "/"
        assert decoded.headers["Host"] == "ntp-0001.uk"

    def test_body_gets_content_length(self):
        request = HTTPRequest(method="POST", target="/x", body=b"payload")
        wire = request.encode()
        assert b"Content-Length: 7" in wire
        assert HTTPRequest.decode(wire).body == b"payload"

    def test_unterminated_headers_rejected(self):
        with pytest.raises(CodecError):
            HTTPRequest.decode(b"GET / HTTP/1.1\r\nHost: x\r\n")

    def test_bad_request_line_rejected(self):
        with pytest.raises(CodecError):
            HTTPRequest.decode(b"NONSENSE\r\n\r\n")


class TestResponse:
    def test_roundtrip(self):
        response = HTTPResponse(
            status=302,
            reason="Found",
            headers={"Location": "http://www.pool.ntp.org/"},
            body=b"<html></html>",
        )
        decoded = HTTPResponse.decode(response.encode())
        assert decoded.status == 302
        assert decoded.header("location") == "http://www.pool.ntp.org/"
        assert decoded.body == b"<html></html>"

    def test_is_redirect(self):
        assert HTTPResponse(status=302).is_redirect
        assert HTTPResponse(status=301).is_redirect
        assert not HTTPResponse(status=200).is_redirect

    def test_header_lookup_case_insensitive(self):
        response = HTTPResponse(headers={"Content-Type": "text/html"})
        assert response.header("content-type") == "text/html"
        assert response.header("missing") is None
        assert response.header("missing", "dflt") == "dflt"

    def test_connection_close_added(self):
        assert b"Connection: close" in HTTPResponse().encode()

    def test_bad_status_line_rejected(self):
        with pytest.raises(CodecError):
            HTTPResponse.decode(b"HTTP/1.1 abc\r\n\r\n")


class TestCompleteness:
    def test_incomplete_headers(self):
        assert not response_complete(b"HTTP/1.1 200 OK\r\n")

    def test_complete_with_full_body(self):
        wire = HTTPResponse(body=b"12345").encode()
        assert response_complete(wire)

    def test_incomplete_body(self):
        wire = HTTPResponse(body=b"12345").encode()
        assert not response_complete(wire[:-2])

    def test_no_content_length_is_complete_at_header_end(self):
        raw = b"HTTP/1.1 200 OK\r\n\r\n"
        assert response_complete(raw)


class TestParseOnce:
    """The fixed exchange is parsed once per distinct message."""

    @pytest.fixture
    def decodes(self, monkeypatch):
        calls = []
        for cls in (HTTPResponse, HTTPRequest):
            original = cls.decode.__func__

            def counting(inner_cls, data, _original=original):
                calls.append(data)
                return _original(inner_cls, data)

            monkeypatch.setattr(cls, "decode", classmethod(counting))
        monkeypatch.setattr(messages, "_RESPONSES", {})
        monkeypatch.setattr(messages, "_REQUESTS", {})
        return calls

    def test_each_distinct_response_parsed_once(self, decodes):
        wire = HTTPResponse(status=302, headers={"Location": "x"}, body=b"ab").encode()
        assert response_complete(wire)
        first = parse_response(wire)
        second = parse_response(wire)
        assert decodes == [wire]
        assert first == second and first.status == 302

    def test_every_result_gets_its_own_headers(self, decodes):
        wire = HTTPResponse(headers={"Server": "s"}).encode()
        first = parse_response(wire)
        first.headers["Server"] = "mutated"
        assert parse_response(wire).header("server") == "s"

    def test_malformed_response_is_not_cached(self, decodes):
        with pytest.raises(CodecError):
            parse_response(b"HTTP/1.1 abc\r\n\r\n")
        with pytest.raises(CodecError):
            parse_response(b"HTTP/1.1 abc\r\n\r\n")
        assert len(decodes) == 2

    def test_request_method_parsed_once(self, decodes):
        wire = HTTPRequest(method="POST", headers={"Host": "h"}).encode()
        assert request_method(wire) == "POST"
        assert request_method(wire) == "POST"
        assert decodes == [wire]
