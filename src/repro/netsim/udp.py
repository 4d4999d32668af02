"""UDP datagram codec (RFC 768).

UDP is the paper's protocol under test: NTP requests ride in UDP
datagrams whose enclosing IP header carries either not-ECT or ECT(0).
The codec computes the optional UDP checksum over the IPv4
pseudo-header so captures and ICMP quotations are byte-faithful.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from .checksum import data_sum16, internet_checksum, pseudo_header
from .errors import CodecError
from .ipv4 import PROTO_UDP

_HEADER = struct.Struct("!HHHH")
HEADER_LEN = _HEADER.size  # 8


@dataclass(slots=True)
class UDPDatagram:
    """A UDP datagram (header fields plus payload).

    A socket-sent datagram rides in its IP packet as this object
    (:meth:`IPv4Packet.carrying <repro.netsim.ipv4.IPv4Packet.carrying>`)
    and is shared by every copy of that packet, so it is never mutated
    after send.
    """

    src_port: int
    dst_port: int
    payload: bytes = b""

    @property
    def length(self) -> int:
        """Value of the UDP length field (header + payload)."""
        return HEADER_LEN + len(self.payload)

    def encode(self, src_addr: int, dst_addr: int) -> bytes:
        """Serialise with a checksum over the IPv4 pseudo-header.

        As in :meth:`TCPSegment.encode
        <repro.tcp.segment.TCPSegment.encode>`, the pseudo-header and
        header words are summed as plain integers and only the payload
        is swept (:func:`data_sum16`).
        """
        src_port = self.src_port
        dst_port = self.dst_port
        if not 0 <= src_port <= 0xFFFF:
            raise CodecError(f"UDP src port out of range: {src_port}")
        if not 0 <= dst_port <= 0xFFFF:
            raise CodecError(f"UDP dst port out of range: {dst_port}")
        payload = self.payload
        length = HEADER_LEN + len(payload)
        src = src_addr & 0xFFFFFFFF
        dst = dst_addr & 0xFFFFFFFF
        total = (
            # pseudo-header: addresses, protocol, UDP length
            (src >> 16) + (src & 0xFFFF)
            + (dst >> 16) + (dst & 0xFFFF)
            + PROTO_UDP + (length & 0xFFFF)
            # header words (the length again; checksum counts as zero)
            + src_port + dst_port + (length & 0xFFFF)
            + (data_sum16(payload) if payload else 0)
        )
        total = (total & 0xFFFF) + (total >> 16)
        total = (total & 0xFFFF) + (total >> 16)
        csum = ~total & 0xFFFF
        if csum == 0:
            csum = 0xFFFF  # RFC 768: transmitted zero means "no checksum"
        return _HEADER.pack(src_port, dst_port, length, csum) + payload

    @classmethod
    def decode(
        cls,
        data: bytes,
        src_addr: int | None = None,
        dst_addr: int | None = None,
        verify: bool = False,
    ) -> "UDPDatagram":
        """Parse wire bytes.

        Quotations may truncate the payload; the 8-byte header must be
        intact (this matches what classic routers quote: IP header plus
        the first 8 bytes of the transport datagram — exactly the UDP
        header).  Checksum verification needs the addresses from the
        enclosing IP header and a complete payload.
        """
        if len(data) < HEADER_LEN:
            raise CodecError(f"UDP header truncated: {len(data)} bytes")
        src_port, dst_port, length, csum = _HEADER.unpack_from(data)
        if length < HEADER_LEN:
            raise CodecError(f"bad UDP length field: {length}")
        payload = data[HEADER_LEN:length]
        if verify:
            if src_addr is None or dst_addr is None:
                raise CodecError("UDP checksum verification needs IP addresses")
            if len(data) < length:
                raise CodecError("cannot verify checksum of truncated datagram")
            if csum != 0:
                pseudo = pseudo_header(src_addr, dst_addr, PROTO_UDP, length)
                if internet_checksum(pseudo + data[:length]) != 0:
                    raise CodecError("UDP checksum mismatch")
        return cls(src_port=src_port, dst_port=dst_port, payload=payload)

    def __repr__(self) -> str:
        return (
            f"UDPDatagram({self.src_port} -> {self.dst_port}, "
            f"len={self.length})"
        )
