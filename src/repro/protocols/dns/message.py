"""DNS message codec (RFC 1035 subset: A queries and responses).

The discovery phase of the study is a script doing repeated DNS
lookups of ``pool.ntp.org`` and its sub-domains; this codec implements
the wire format those lookups use, including name compression pointers
in answers (both for realism and because compression bugs are a classic
source of measurement-tool breakage worth testing against).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

from ...netsim.errors import CodecError

DNS_PORT = 53

QTYPE_A = 1
QCLASS_IN = 1

FLAG_QR = 0x8000
FLAG_AA = 0x0400
FLAG_RD = 0x0100
FLAG_RA = 0x0080

RCODE_NOERROR = 0
RCODE_NXDOMAIN = 3

_HEADER = struct.Struct("!HHHHHH")
MAX_LABEL = 63
MAX_NAME = 255


def encode_name(name: str, offsets: dict[str, int] | None = None, base: int = 0) -> bytes:
    """Encode a domain name, optionally using compression pointers.

    ``offsets`` maps already-encoded suffixes to their message offset;
    ``base`` is where this name will start in the message.  The dict is
    updated with new suffix positions.
    """
    name = name.rstrip(".").lower()
    if len(name) > MAX_NAME:
        raise CodecError(f"name too long: {name!r}")
    out = bytearray()
    labels = name.split(".") if name else []
    for index in range(len(labels)):
        suffix = ".".join(labels[index:])
        if offsets is not None and suffix in offsets:
            pointer = offsets[suffix]
            out += struct.pack("!H", 0xC000 | pointer)
            return bytes(out)
        if offsets is not None:
            position = base + len(out)
            if position < 0x4000:
                offsets[suffix] = position
        label = labels[index].encode("ascii")
        if not label or len(label) > MAX_LABEL:
            raise CodecError(f"bad label in {name!r}")
        out.append(len(label))
        out += label
    out.append(0)
    return bytes(out)


def decode_name(data: bytes, offset: int) -> tuple[str, int]:
    """Decode a (possibly compressed) name; returns (name, next offset)."""
    labels: list[str] = []
    jumps = 0
    next_offset: int | None = None
    while True:
        if offset >= len(data):
            raise CodecError("name runs past end of message")
        length = data[offset]
        if length & 0xC0 == 0xC0:
            if offset + 1 >= len(data):
                raise CodecError("truncated compression pointer")
            pointer = ((length & 0x3F) << 8) | data[offset + 1]
            if next_offset is None:
                next_offset = offset + 2
            jumps += 1
            if jumps > 32:
                raise CodecError("compression pointer loop")
            offset = pointer
            continue
        if length & 0xC0:
            raise CodecError(f"reserved label type: {length:#x}")
        offset += 1
        if length == 0:
            break
        if offset + length > len(data):
            raise CodecError("label runs past end of message")
        try:
            labels.append(data[offset : offset + length].decode("ascii"))
        except UnicodeDecodeError as exc:
            raise CodecError(f"non-ASCII label at offset {offset}") from exc
        offset += length
    return ".".join(labels), (next_offset if next_offset is not None else offset)


@dataclass
class Question:
    """One entry of the question section."""

    qname: str
    qtype: int = QTYPE_A
    qclass: int = QCLASS_IN


@dataclass
class ResourceRecord:
    """One answer record (A records carry a 32-bit address in rdata)."""

    name: str
    rtype: int
    rclass: int
    ttl: int
    address: int | None = None  # for A records

    @property
    def rdata(self) -> bytes:
        if self.rtype == QTYPE_A:
            if self.address is None:
                raise CodecError("A record without address")
            return struct.pack("!I", self.address)
        raise CodecError(f"unsupported rtype {self.rtype}")


@dataclass
class DNSMessage:
    """A DNS query or response."""

    ident: int
    flags: int = FLAG_RD
    questions: list[Question] = field(default_factory=list)
    answers: list[ResourceRecord] = field(default_factory=list)

    @property
    def is_response(self) -> bool:
        return bool(self.flags & FLAG_QR)

    @property
    def rcode(self) -> int:
        return self.flags & 0x000F

    @classmethod
    def query(cls, ident: int, qname: str, qtype: int = QTYPE_A) -> "DNSMessage":
        """Build a recursive A query."""
        return cls(ident=ident, flags=FLAG_RD, questions=[Question(qname, qtype)])

    @classmethod
    def response_to(
        cls,
        query: "DNSMessage",
        answers: list[ResourceRecord],
        rcode: int = RCODE_NOERROR,
    ) -> "DNSMessage":
        """Build an authoritative response echoing the query's question."""
        flags = FLAG_QR | FLAG_AA | FLAG_RA | (query.flags & FLAG_RD) | (rcode & 0xF)
        return cls(
            ident=query.ident,
            flags=flags,
            questions=list(query.questions),
            answers=answers,
        )

    def encode(self) -> bytes:
        """Serialise with name compression across questions and answers."""
        out = bytearray(
            _HEADER.pack(
                self.ident,
                self.flags,
                len(self.questions),
                len(self.answers),
                0,
                0,
            )
        )
        offsets: dict[str, int] = {}
        for question in self.questions:
            out += encode_name(question.qname, offsets, len(out))
            out += struct.pack("!HH", question.qtype, question.qclass)
        for record in self.answers:
            out += encode_name(record.name, offsets, len(out))
            rdata = record.rdata
            out += struct.pack("!HHIH", record.rtype, record.rclass, record.ttl, len(rdata))
            out += rdata
        return bytes(out)

    @classmethod
    def decode(cls, data: bytes) -> "DNSMessage":
        """Parse wire bytes (A answers only; other rtypes are skipped)."""
        if len(data) < _HEADER.size:
            raise CodecError(f"DNS header truncated: {len(data)} bytes")
        ident, flags, qdcount, ancount, _ns, _ar = _HEADER.unpack_from(data)
        offset = _HEADER.size
        questions = []
        for _ in range(qdcount):
            qname, offset = decode_name(data, offset)
            if offset + 4 > len(data):
                raise CodecError("question section truncated")
            qtype, qclass = struct.unpack_from("!HH", data, offset)
            offset += 4
            questions.append(Question(qname, qtype, qclass))
        answers = []
        for _ in range(ancount):
            name, offset = decode_name(data, offset)
            if offset + 10 > len(data):
                raise CodecError("answer section truncated")
            rtype, rclass, ttl, rdlength = struct.unpack_from("!HHIH", data, offset)
            offset += 10
            if offset + rdlength > len(data):
                raise CodecError("rdata truncated")
            rdata = data[offset : offset + rdlength]
            offset += rdlength
            address = None
            if rtype == QTYPE_A:
                if rdlength != 4:
                    raise CodecError(f"bad A rdata length {rdlength}")
                address = struct.unpack("!I", rdata)[0]
            answers.append(ResourceRecord(name, rtype, rclass, ttl, address))
        return cls(ident=ident, flags=flags, questions=questions, answers=answers)
