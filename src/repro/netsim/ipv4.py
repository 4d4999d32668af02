"""IPv4 addressing and header codec.

Addresses are 32-bit integers throughout the simulator's hot paths;
:func:`parse_addr` / :func:`format_addr` convert to and from dotted
quads at the edges.  The header codec is byte-exact (RFC 791) including
the header checksum, because the traceroute analysis compares the
bytes a router quotes inside ICMP errors against the bytes originally
sent — the core technique of the paper's Section 4.2.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from .checksum import internet_checksum
from .ecn import DSCP_MASK, ECN, ECN_BY_CODE
from .errors import AddressError, CodecError

#: IP protocol numbers used in this project.
PROTO_ICMP = 1
PROTO_TCP = 6
PROTO_UDP = 17

_HEADER = struct.Struct("!BBHHHBBHII")
HEADER_LEN = _HEADER.size  # 20 — we do not emit IP options
DEFAULT_TTL = 64


def parse_addr(text: str) -> int:
    """Parse a dotted-quad IPv4 address into a 32-bit integer."""
    parts = text.split(".")
    if len(parts) != 4:
        raise AddressError(f"not a dotted quad: {text!r}")
    value = 0
    for part in parts:
        if not part.isdigit():
            raise AddressError(f"bad octet {part!r} in {text!r}")
        octet = int(part)
        if octet > 255:
            raise AddressError(f"octet out of range in {text!r}")
        value = (value << 8) | octet
    return value


def format_addr(addr: int) -> str:
    """Format a 32-bit integer as a dotted-quad IPv4 address."""
    if not 0 <= addr <= 0xFFFFFFFF:
        raise AddressError(f"address out of range: {addr!r}")
    return f"{(addr >> 24) & 0xFF}.{(addr >> 16) & 0xFF}.{(addr >> 8) & 0xFF}.{addr & 0xFF}"


@dataclass(frozen=True)
class Prefix:
    """An IPv4 prefix (network address plus mask length)."""

    network: int
    length: int

    def __post_init__(self) -> None:
        if not 0 <= self.length <= 32:
            raise AddressError(f"prefix length out of range: {self.length}")
        mask = self.mask
        if self.network & ~mask & 0xFFFFFFFF:
            raise AddressError(
                f"host bits set in prefix {format_addr(self.network)}/{self.length}"
            )

    @classmethod
    def parse(cls, text: str) -> "Prefix":
        """Parse ``"a.b.c.d/len"`` notation."""
        try:
            net_text, len_text = text.split("/")
        except ValueError as exc:
            raise AddressError(f"not a prefix: {text!r}") from exc
        try:
            length = int(len_text)
        except ValueError as exc:
            raise AddressError(
                f"bad prefix length {len_text!r} in {text!r}"
            ) from exc
        return cls(parse_addr(net_text), length)

    @property
    def mask(self) -> int:
        """Network mask as a 32-bit integer."""
        if self.length == 0:
            return 0
        return (0xFFFFFFFF << (32 - self.length)) & 0xFFFFFFFF

    @property
    def size(self) -> int:
        """Number of addresses covered by the prefix."""
        return 1 << (32 - self.length)

    def contains(self, addr: int) -> bool:
        """True if ``addr`` falls inside this prefix."""
        return (addr & self.mask) == self.network

    def host(self, index: int) -> int:
        """Return the ``index``-th address inside the prefix."""
        if not 0 <= index < self.size:
            raise AddressError(f"host index {index} outside /{self.length}")
        return self.network + index

    def __str__(self) -> str:
        return f"{format_addr(self.network)}/{self.length}"


#: The packet's public fields, in constructor order (what :meth:`replace`
#: accepts and :meth:`__eq__` compares).
_FIELDS = ("src", "dst", "protocol", "payload", "ttl", "tos", "ident", "dont_fragment")


class IPv4Packet:
    """A parsed IPv4 datagram, packed for the simulator's hot path.

    The simulator moves these objects between nodes; the byte form is
    produced on demand (ICMP quotation, wire checks) via :meth:`encode`.
    ``ident`` mirrors the IP identification field, which the probing
    code uses to correlate ICMP quotations with the probes that
    elicited them.

    Carried transport header: a packet sent by a host's TCP stack or
    UDP socket, or an ICMP error generated by a router or host
    (:meth:`carrying`), holds the sender's
    :class:`~repro.tcp.segment.TCPSegment`,
    :class:`~repro.netsim.udp.UDPDatagram` or
    :class:`~repro.netsim.icmp.ICMPMessage` in :attr:`transport`, and
    the receiver demuxes that object directly.  :attr:`payload` — the
    transport's wire bytes — is then built only when something reads
    it (ICMP quotation, a trace filter that inspects it) and cached.  TCP and UDP bytes
    depend on ``src``/``dst`` through the pseudo-header checksum;
    addresses are never rewritten in place, and :meth:`replace` builds
    the bytes before changing them, so lazy bytes always equal what an
    eager encode at send time would have produced.  Assigning
    :attr:`payload` drops the carried header: the bytes are then the
    packet's only content.  Packets built from bytes (decoded, or
    quoted inside an ICMP error) carry no header.

    Ownership contract: callers hand a packet to the network, which
    takes one :meth:`copy` at the boundary and thereafter mutates that
    simulator-owned copy **in place** (:attr:`ttl` decrements,
    :meth:`set_ecn` CE marks) instead of allocating a fresh object per
    hop.  Host-side filters and caller-visible rewrites keep
    copy-on-write semantics via :meth:`replace` / :meth:`with_ecn`.
    Copies share the carried header, which is never mutated after
    send.

    The header checksum never requires serialising the header:
    :meth:`encode` folds the nine 16-bit header words arithmetically
    from the fields, which is the closed form of RFC 1624's incremental
    update — a TTL decrement or TOS rewrite changes one word, and the
    checksum cost stays O(1) regardless of how many mutations occurred.
    """

    __slots__ = (
        "src",
        "dst",
        "protocol",
        "transport",
        "_wire",
        "ttl",
        "tos",
        "ident",
        "dont_fragment",
    )

    def __init__(
        self,
        src: int,
        dst: int,
        protocol: int,
        payload: bytes = b"",
        ttl: int = DEFAULT_TTL,
        tos: int = 0,
        ident: int = 0,
        dont_fragment: bool = True,
    ) -> None:
        self.src = src
        self.dst = dst
        self.protocol = protocol
        self.transport = None
        self._wire = payload
        self.ttl = ttl
        self.tos = tos
        self.ident = ident
        self.dont_fragment = dont_fragment

    @classmethod
    def carrying(
        cls,
        src: int,
        dst: int,
        protocol: int,
        transport,
        tos: int = 0,
        ident: int = 0,
        ttl: int = DEFAULT_TTL,
    ) -> "IPv4Packet":
        """A packet carrying ``transport`` (anything with ``encode(src, dst)``).

        Nothing is encoded here; see the class docstring.
        """
        new = cls.__new__(cls)
        new.src = src
        new.dst = dst
        new.protocol = protocol
        new.transport = transport
        new._wire = None
        new.ttl = ttl
        new.tos = tos
        new.ident = ident
        new.dont_fragment = True
        return new

    @property
    def payload(self) -> bytes:
        """The transport's wire bytes (built on first read when carried)."""
        wire = self._wire
        if wire is None:
            wire = self._wire = self.transport.encode(self.src, self.dst)
        return wire

    @payload.setter
    def payload(self, value: bytes) -> None:
        self._wire = value
        self.transport = None

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not IPv4Packet:
            return NotImplemented
        return (
            self.src == other.src
            and self.dst == other.dst
            and self.protocol == other.protocol
            and self.ttl == other.ttl
            and self.tos == other.tos
            and self.ident == other.ident
            and self.dont_fragment == other.dont_fragment
            and self.payload == other.payload
        )

    __hash__ = None  # type: ignore[assignment]  # mutable, like the old dataclass

    def copy(self) -> "IPv4Packet":
        """Fast field-for-field copy (the network-boundary clone)."""
        new = IPv4Packet.__new__(IPv4Packet)
        new.src = self.src
        new.dst = self.dst
        new.protocol = self.protocol
        new.transport = self.transport
        new._wire = self._wire
        new.ttl = self.ttl
        new.tos = self.tos
        new.ident = self.ident
        new.dont_fragment = self.dont_fragment
        return new

    def replace(self, **changes: object) -> "IPv4Packet":
        """Return a copy with ``changes`` applied (dataclasses.replace shape)."""
        for name in changes:
            if name not in _FIELDS:
                raise TypeError(f"IPv4Packet has no field {name!r}")
        if self._wire is None and ("src" in changes or "dst" in changes):
            # The lazy bytes were fixed by the addresses they were sent
            # between; build them before the addresses change.
            self._wire = self.transport.encode(self.src, self.dst)
        new = self.copy()
        for name, value in changes.items():
            setattr(new, name, value)
        return new

    @property
    def ecn(self) -> ECN:
        """ECN codepoint carried in the TOS byte."""
        return ECN_BY_CODE[self.tos & 3]

    def with_ecn(self, ecn: ECN) -> "IPv4Packet":
        """Return a copy with the ECN field rewritten (DSCP preserved)."""
        new = self.copy()
        new.tos = (new.tos & DSCP_MASK) | ecn
        return new

    def set_ecn(self, ecn: ECN) -> None:
        """Rewrite the ECN field in place (simulator-owned packets only)."""
        self.tos = (self.tos & DSCP_MASK) | ecn

    @property
    def total_length(self) -> int:
        """Total datagram length (header + payload), in bytes."""
        return HEADER_LEN + len(self.payload)

    def encode(self) -> bytes:
        """Serialise to wire format with a correct header checksum."""
        ttl = self.ttl
        if not 0 <= ttl <= 255:
            raise CodecError(f"TTL out of range: {ttl}")
        ident = self.ident
        if not 0 <= ident <= 0xFFFF:
            raise CodecError(f"IP ident out of range: {ident}")
        tos = self.tos
        src = self.src
        dst = self.dst
        total_length = HEADER_LEN + len(self.payload)
        flags_frag = 0x4000 if self.dont_fragment else 0
        # One's-complement sum of the nine non-checksum header words,
        # computed straight from the fields (see class docstring).  Nine
        # words sum below 0x90000, so two folds absorb every carry.
        total = (
            0x4500
            + tos
            + total_length
            + ident
            + flags_frag
            + ((ttl << 8) | self.protocol)
            + (src >> 16)
            + (src & 0xFFFF)
            + (dst >> 16)
            + (dst & 0xFFFF)
        )
        total = (total & 0xFFFF) + (total >> 16)
        total = (total & 0xFFFF) + (total >> 16)
        return (
            _HEADER.pack(
                0x45,
                tos,
                total_length,
                ident,
                flags_frag,
                ttl,
                self.protocol,
                ~total & 0xFFFF,
                src,
                dst,
            )
            + self.payload
        )

    @classmethod
    def decode(cls, data: bytes, verify: bool = True) -> "IPv4Packet":
        """Parse wire bytes into a packet.

        Parameters
        ----------
        data:
            The datagram, possibly truncated *after* the header (ICMP
            quotations frequently truncate the transport payload; the
            header itself must be complete).
        verify:
            When True, a wrong header checksum raises
            :class:`CodecError`.
        """
        if len(data) < HEADER_LEN:
            raise CodecError(f"IPv4 header truncated: {len(data)} bytes")
        (
            ver_ihl,
            tos,
            total_length,
            ident,
            flags_frag,
            ttl,
            protocol,
            csum,
            src,
            dst,
        ) = _HEADER.unpack_from(data)
        if ver_ihl >> 4 != 4:
            raise CodecError(f"not IPv4: version={ver_ihl >> 4}")
        ihl = (ver_ihl & 0xF) * 4
        if ihl < HEADER_LEN or len(data) < ihl:
            raise CodecError(f"bad IHL: {ihl}")
        if verify and internet_checksum(data[:ihl]) != 0:
            raise CodecError("IPv4 header checksum mismatch")
        payload = data[ihl : total_length if total_length >= ihl else None]
        return cls(
            src=src,
            dst=dst,
            protocol=protocol,
            payload=payload,
            ttl=ttl,
            tos=tos,
            ident=ident,
            dont_fragment=bool(flags_frag & 0x4000),
        )

    def __repr__(self) -> str:
        return (
            f"IPv4Packet({format_addr(self.src)} -> {format_addr(self.dst)}, "
            f"proto={self.protocol}, ttl={self.ttl}, ecn={self.ecn.describe()}, "
            f"len={self.total_length})"
        )
