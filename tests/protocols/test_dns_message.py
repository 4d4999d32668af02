"""Tests for the DNS message codec, including name compression."""

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.netsim.errors import CodecError
from repro.protocols.dns.message import (
    DNSMessage,
    QTYPE_A,
    RCODE_NOERROR,
    RCODE_NXDOMAIN,
    ResourceRecord,
    decode_name,
    encode_name,
)


class TestNames:
    def test_simple_roundtrip(self):
        wire = encode_name("pool.ntp.org")
        name, offset = decode_name(wire, 0)
        assert name == "pool.ntp.org"
        assert offset == len(wire)

    def test_root_name(self):
        wire = encode_name("")
        assert wire == b"\x00"
        assert decode_name(wire, 0) == ("", 1)

    def test_case_normalised(self):
        assert encode_name("Pool.NTP.org") == encode_name("pool.ntp.org")

    def test_trailing_dot_ignored(self):
        assert encode_name("pool.ntp.org.") == encode_name("pool.ntp.org")

    def test_compression_pointer_reuses_suffix(self):
        offsets = {}
        first = encode_name("uk.pool.ntp.org", offsets, 0)
        second = encode_name("de.pool.ntp.org", offsets, len(first))
        # Second name: 'de' label (3 bytes) + 2-byte pointer.
        assert len(second) == 3 + 2
        wire = first + second
        assert decode_name(wire, 0)[0] == "uk.pool.ntp.org"
        assert decode_name(wire, len(first))[0] == "de.pool.ntp.org"

    def test_pointer_loop_detected(self):
        # A pointer pointing at itself.
        wire = b"\xc0\x00"
        with pytest.raises(CodecError):
            decode_name(wire, 0)

    def test_label_too_long_rejected(self):
        with pytest.raises(CodecError):
            encode_name("a" * 64 + ".org")

    def test_truncated_name_rejected(self):
        with pytest.raises(CodecError):
            decode_name(b"\x05ab", 0)


class TestMessages:
    def test_query_roundtrip(self):
        query = DNSMessage.query(0x1234, "pool.ntp.org")
        decoded = DNSMessage.decode(query.encode())
        assert decoded.ident == 0x1234
        assert not decoded.is_response
        assert decoded.questions[0].qname == "pool.ntp.org"
        assert decoded.questions[0].qtype == QTYPE_A

    def test_response_roundtrip_with_answers(self):
        query = DNSMessage.query(7, "pool.ntp.org")
        answers = [
            ResourceRecord("pool.ntp.org", QTYPE_A, 1, 150, address=0x3E010203),
            ResourceRecord("pool.ntp.org", QTYPE_A, 1, 150, address=0x3E010204),
        ]
        response = DNSMessage.response_to(query, answers)
        decoded = DNSMessage.decode(response.encode())
        assert decoded.is_response
        assert decoded.rcode == RCODE_NOERROR
        assert [r.address for r in decoded.answers] == [0x3E010203, 0x3E010204]
        assert decoded.questions[0].qname == "pool.ntp.org"

    def test_answer_names_compressed(self):
        query = DNSMessage.query(7, "pool.ntp.org")
        answers = [
            ResourceRecord("pool.ntp.org", QTYPE_A, 1, 150, address=i)
            for i in range(4)
        ]
        wire = DNSMessage.response_to(query, answers).encode()
        # Compression: each answer name is a 2-byte pointer, not 14 bytes.
        uncompressed_size = len(DNSMessage.query(7, "pool.ntp.org").encode()) + 4 * (
            14 + 14
        )
        assert len(wire) < uncompressed_size

    def test_nxdomain(self):
        query = DNSMessage.query(9, "no.such.zone")
        response = DNSMessage.response_to(query, [], rcode=RCODE_NXDOMAIN)
        assert DNSMessage.decode(response.encode()).rcode == RCODE_NXDOMAIN

    def test_truncated_header_rejected(self):
        with pytest.raises(CodecError):
            DNSMessage.decode(b"\x00" * 11)

    def test_bad_a_rdata_length_rejected(self):
        query = DNSMessage.query(7, "x.org")
        wire = bytearray(
            DNSMessage.response_to(
                query,
                [ResourceRecord("x.org", QTYPE_A, 1, 1, address=1)],
            ).encode()
        )
        # Corrupt the rdlength of the answer (last 6 bytes are len+rdata).
        wire[-5] = 3
        with pytest.raises(CodecError):
            DNSMessage.decode(bytes(wire))


_label = st.text(
    alphabet=st.sampled_from("abcdefghijklmnopqrstuvwxyz0123456789-"),
    min_size=1,
    max_size=20,
).filter(lambda s: not s.startswith("-"))


@given(st.lists(_label, min_size=1, max_size=5))
def test_name_roundtrip_property(labels):
    name = ".".join(labels)
    wire = encode_name(name)
    assert decode_name(wire, 0)[0] == name


@given(
    st.lists(st.lists(_label, min_size=2, max_size=4), min_size=1, max_size=6),
    st.integers(0, 0xFFFF),
)
def test_message_with_shared_suffixes_roundtrips(names_labels, ident):
    """Compression across many answers sharing suffixes roundtrips."""
    qname = "pool.ntp.org"
    query = DNSMessage.query(ident, qname)
    answers = [
        ResourceRecord(".".join(labels) + ".ntp.org", QTYPE_A, 1, 60, address=i)
        for i, labels in enumerate(names_labels)
    ]
    decoded = DNSMessage.decode(DNSMessage.response_to(query, answers).encode())
    assert [r.name for r in decoded.answers] == [a.name for a in answers]
    assert [r.address for r in decoded.answers] == [a.address for a in answers]


def _decode_or_codec_error(wire: bytes) -> None:
    """Decoding hostile bytes may fail, but only with the typed error."""
    try:
        DNSMessage.decode(wire)
    except CodecError:
        pass


@given(st.binary(max_size=96))
@example(bytes.fromhex("0001010000010000000000000378ff7a0000010001"))
def test_random_bytes_raise_only_codec_error(wire):
    _decode_or_codec_error(wire)


@given(
    st.lists(st.lists(_label, min_size=2, max_size=4), min_size=1, max_size=4),
    st.data(),
)
def test_truncated_or_garbled_response_raises_only_codec_error(names_labels, data):
    """A real response, cut short and with one byte overwritten (a
    non-ASCII label byte included), never escapes as another error."""
    query = DNSMessage.query(7, "pool.ntp.org")
    answers = [
        ResourceRecord(".".join(labels) + ".ntp.org", QTYPE_A, 1, 60, address=i)
        for i, labels in enumerate(names_labels)
    ]
    wire = bytearray(DNSMessage.response_to(query, answers).encode())
    index = data.draw(st.integers(0, len(wire) - 1))
    wire[index] = data.draw(st.integers(0, 0xFF))
    cut = data.draw(st.integers(0, len(wire)))
    _decode_or_codec_error(bytes(wire[:cut]))
