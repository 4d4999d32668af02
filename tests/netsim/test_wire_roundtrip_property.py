"""Byte-exactness properties for the packet hot path.

The hot-path overhaul (slotted packets, arithmetic header checksum,
in-place TTL/ECN mutation) must not change a single wire byte.  These
properties pin the codec against randomly generated packets: encode →
decode round-trips, ICMP quote truncation keeps its prefix exactness,
and the in-place ECN rewrite produces bytes identical to a
fresh-object rewrite.

Stack-sent packets carry their TCP segment or UDP datagram and build
the wire bytes only when read; the properties at the end pin those
lazy bytes (and the ICMP quotes made from them) to an eager encode.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim.ecn import ECN
from repro.netsim.icmp import quote_datagram, time_exceeded
from repro.netsim.ipv4 import HEADER_LEN, IPv4Packet, PROTO_UDP

addrs = st.integers(1, 0xFFFFFFFE)
packets = st.builds(
    IPv4Packet,
    src=addrs,
    dst=addrs,
    protocol=st.integers(0, 255),
    payload=st.binary(max_size=64),
    ttl=st.integers(1, 255),
    tos=st.integers(0, 255),
    ident=st.integers(0, 0xFFFF),
    dont_fragment=st.booleans(),
)


@settings(max_examples=200, deadline=None)
@given(packets)
def test_encode_decode_roundtrip(packet):
    decoded = IPv4Packet.decode(packet.encode())
    assert decoded == packet


@settings(max_examples=200, deadline=None)
@given(packets)
def test_arithmetic_checksum_verifies(packet):
    # decode() recomputes the RFC 1071 checksum over the wire header;
    # the arithmetic encoder must produce bytes that verify.
    IPv4Packet.decode(packet.encode(), verify=True)


@settings(max_examples=100, deadline=None)
@given(packets, st.integers(0, 64))
def test_icmp_quote_is_exact_truncation(packet, quote_payload):
    quote = quote_datagram(packet, payload_bytes=quote_payload)
    wire = packet.encode()
    keep = min(quote_payload, len(packet.payload))
    assert quote == wire[: HEADER_LEN + keep]


@settings(max_examples=100, deadline=None)
@given(packets)
def test_ttl_toggle_quote_matches_copy_quote(packet):
    # The router quotes an expiring packet by toggling TTL to 0 in
    # place around time_exceeded() instead of building a copy.  The
    # toggle must produce byte-identical quotes and leave the live
    # packet untouched.
    expected = time_exceeded(packet.replace(ttl=0))
    saved = packet.ttl
    packet.ttl = 0
    message = time_exceeded(packet)
    packet.ttl = saved
    assert message.body == expected.body
    assert message.quoted_packet().ttl == 0
    assert packet.ttl == saved


@settings(max_examples=100, deadline=None)
@given(packets, st.sampled_from(list(ECN)))
def test_in_place_ecn_rewrite_matches_copy_rewrite(packet, ecn):
    copied = packet.with_ecn(ecn)
    mutated = packet.copy()
    mutated.set_ecn(ecn)
    assert mutated == copied
    assert mutated.encode() == copied.encode()
    assert mutated.ecn is ecn
    # DSCP bits survive the rewrite (RFC 3168: ECN field only).
    assert mutated.tos & 0xFC == packet.tos & 0xFC


@settings(max_examples=100, deadline=None)
@given(packets)
def test_copy_is_independent(packet):
    clone = packet.copy()
    assert clone == packet and clone is not packet
    clone.ttl = max(1, clone.ttl - 1)
    clone.payload = b"x" + clone.payload
    assert packet.encode() == IPv4Packet.decode(packet.encode()).encode()


def test_udp_probe_bytes_stable_under_replace():
    # replace() must behave like dataclasses.replace did: new object,
    # selected fields overridden, original untouched.
    packet = IPv4Packet(
        src=0x0A000001,
        dst=0x0A000002,
        protocol=PROTO_UDP,
        payload=b"probe",
        ttl=64,
        tos=ECN.ECT_0,
    )
    bleached = packet.replace(tos=0)
    assert packet.tos == int(ECN.ECT_0)
    assert bleached.tos == 0
    assert bleached.payload == packet.payload
    try:
        packet.replace(nonsense=1)
    except TypeError:
        pass
    else:  # pragma: no cover - defends the API contract
        raise AssertionError("replace() accepted an unknown field")


@settings(max_examples=200, deadline=None)
@given(
    addrs,
    addrs,
    st.builds(
        __import__("repro.tcp.segment", fromlist=["TCPSegment"]).TCPSegment,
        src_port=st.integers(0, 0xFFFF),
        dst_port=st.integers(0, 0xFFFF),
        seq=st.integers(0, 0xFFFFFFFF),
        ack=st.integers(0, 0xFFFFFFFF),
        flags=st.integers(0, 0xFF),
        window=st.integers(0, 0xFFFF),
        payload=st.binary(max_size=40),
        mss=st.one_of(st.none(), st.integers(0, 0xFFFF)),
    ),
)
def test_tcp_arithmetic_checksum_matches_reference(src, dst, segment):
    # encode() sums header fields arithmetically instead of packing a
    # zero-checksum header and sweeping bytes; the result must verify
    # against the RFC 1071 reference and round-trip every field.
    import struct

    from repro.netsim.checksum import internet_checksum, pseudo_header
    from repro.netsim.ipv4 import PROTO_TCP
    from repro.tcp.segment import TCPSegment

    wire = segment.encode(src, dst)
    pseudo = pseudo_header(src, dst, PROTO_TCP, len(wire))
    assert internet_checksum(pseudo + wire) == 0
    decoded = TCPSegment.decode(wire, src, dst, verify=True)
    assert decoded.src_port == segment.src_port
    assert decoded.dst_port == segment.dst_port
    assert decoded.seq == segment.seq
    assert decoded.ack == segment.ack
    assert decoded.flags == segment.flags
    assert decoded.window == segment.window
    assert decoded.payload == segment.payload
    assert decoded.mss == segment.mss
    # RFC 768 zero-avoidance is UDP-only: TCP transmits a genuine zero
    # checksum when the sum folds to 0xFFFF.
    (csum,) = struct.unpack_from("!H", wire, 16)
    assert 0 <= csum <= 0xFFFF


class _StubHost:
    """A host stand-in that keeps what a stack hands to the IP layer."""

    hostname = "stub"

    def __init__(self, addr):
        self.addr = addr
        self.tcp = None
        self.sent = []

    def send_ip(self, packet):
        self.sent.append(packet)


def _tcp_sent(src, dst, src_port, dst_port, seq, ack, flags, mss, payload):
    """One segment emitted by a real TCPConnection, as handed to IP."""
    from repro.tcp.connection import TCPConnection, TCPStack

    host = _StubHost(src)
    conn = TCPConnection(TCPStack(host), src_port, dst, dst_port, iss=seq, mss=mss)
    conn.rcv_nxt = ack
    conn._emit(flags, payload, seq)
    (packet,) = host.sent
    return packet


def _udp_sent(src, dst, src_port, dst_port, payload, ecn=ECN.NOT_ECT, ttl=64):
    """One datagram sent through a real UDPSocket, as handed to IP."""
    from repro.netsim.sockets import UDPSocket

    host = _StubHost(src)
    UDPSocket(host=host, port=src_port).send(dst, dst_port, payload, ecn=ecn, ttl=ttl)
    (packet,) = host.sent
    return packet


ports = st.integers(0, 0xFFFF)
tcp_sends = st.tuples(
    addrs,
    addrs,
    ports,
    ports,
    # snd_nxt may run past 2**32; the wire (and the carried segment)
    # hold it modulo 2**32.
    st.integers(0, 0x1_FFFF_FFFF),
    st.integers(0, 0xFFFFFFFF),
    st.integers(0, 0xFF),
    st.integers(0, 0xFFFF),
    st.binary(max_size=48),
)
udp_sends = st.tuples(addrs, addrs, ports, ports, st.binary(max_size=48))


def _eager_udp(src, dst, src_port, dst_port, payload):
    from repro.netsim.udp import UDPDatagram

    return UDPDatagram(src_port, dst_port, payload).encode(src, dst)


def _eager_tcp(src, dst, src_port, dst_port, seq, ack, flags, mss, payload):
    from repro.tcp.segment import ACK, SYN, TCPSegment

    return TCPSegment(
        src_port=src_port,
        dst_port=dst_port,
        seq=seq,
        ack=ack if flags & ACK else 0,
        flags=flags,
        mss=mss if flags & SYN else None,
        payload=payload,
    ).encode(src, dst)


@settings(max_examples=200, deadline=None)
@given(tcp_sends)
def test_stack_sent_tcp_lazy_bytes_match_eager_encode(send):
    from repro.netsim.checksum import internet_checksum, pseudo_header
    from repro.netsim.ipv4 import PROTO_TCP
    from repro.tcp.segment import TCPSegment

    src, dst = send[0], send[1]
    packet = _tcp_sent(*send)
    assert packet.protocol == PROTO_TCP
    assert packet.transport is not None and packet._wire is None  # nothing encoded yet
    wire = packet.payload
    assert wire == _eager_tcp(*send)
    assert internet_checksum(pseudo_header(src, dst, PROTO_TCP, len(wire)) + wire) == 0
    # The carried segment is exactly what a receiver decoding the bytes sees.
    assert TCPSegment.decode(wire, src, dst, verify=True) == packet.transport


@settings(max_examples=200, deadline=None)
@given(udp_sends)
def test_socket_sent_udp_lazy_bytes_match_encode(send):
    # UDPSocket.send attaches the datagram and encodes nothing; the
    # bytes built on first read must equal a full UDPDatagram.encode
    # and verify against the RFC 1071 reference checksum.
    from repro.netsim.udp import UDPDatagram

    src, dst = send[0], send[1]
    packet = _udp_sent(*send)
    assert packet.protocol == PROTO_UDP and packet._wire is None
    want = _eager_udp(*send)
    assert packet.payload == want
    assert UDPDatagram.decode(want, src, dst, verify=True) == packet.transport


@settings(max_examples=200, deadline=None)
@given(udp_sends)
def test_udp_arithmetic_checksum_matches_reference(send):
    import struct

    from repro.netsim.checksum import internet_checksum, pseudo_header
    from repro.netsim.udp import _HEADER, UDPDatagram

    src, dst, src_port, dst_port, payload = send
    wire = UDPDatagram(src_port, dst_port, payload).encode(src, dst)
    length = 8 + len(payload)
    reference = internet_checksum(
        pseudo_header(src, dst, PROTO_UDP, length)
        + _HEADER.pack(src_port, dst_port, length, 0)
        + payload
    )
    (csum,) = struct.unpack_from("!H", wire, 6)
    assert csum == (reference or 0xFFFF)  # RFC 768 zero-avoidance


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(tcp_sends.map(lambda s: ("tcp", s)), udp_sends.map(lambda s: ("udp", s))),
    st.integers(0, 8),
    st.lists(st.sampled_from(list(ECN)), max_size=3),
    st.booleans(),
    st.integers(0, 64),
)
def test_icmp_quote_of_lazy_packet_matches_eager(sent, hops, ecn_marks, bleach, quote_payload):
    # The network mutates its copy in place (TTL decrements, CE marks,
    # TOS bleaching) before a router quotes it; none of that touches
    # the transport bytes, so the quote of a never-encoded packet must
    # equal the quote of one whose bytes were built at send time.
    kind, send = sent
    lazy = _tcp_sent(*send) if kind == "tcp" else _udp_sent(*send)
    eager_wire = _eager_tcp(*send) if kind == "tcp" else _eager_udp(*send)
    eager = IPv4Packet(
        src=lazy.src,
        dst=lazy.dst,
        protocol=lazy.protocol,
        payload=eager_wire,
        ttl=lazy.ttl,
        tos=lazy.tos,
        ident=lazy.ident,
    )
    for packet in (lazy, eager):
        packet.ttl -= hops
        for ecn in ecn_marks:
            packet.set_ecn(ecn)
    if bleach:
        lazy, eager = lazy.replace(tos=0), eager.replace(tos=0)
    assert lazy._wire is None
    lazy.ttl = eager.ttl = 0  # the router's quote-time toggle
    quoted = time_exceeded(lazy, quote_payload).body
    assert quoted == time_exceeded(eager, quote_payload).body
    assert quote_datagram(lazy, quote_payload) == quoted
    assert lazy == eager and lazy.encode() == eager.encode()


@settings(max_examples=100, deadline=None)
@given(tcp_sends, st.binary(max_size=16), addrs)
def test_copy_keeps_header_and_payload_assignment_drops_it(send, other, new_dst):
    packet = _tcp_sent(*send)
    segment = packet.transport
    clone = packet.copy()
    assert clone.transport is segment and clone == packet
    assert packet.replace(tos=3).transport is segment
    assert packet.with_ecn(ECN.CE).transport is segment
    clone.payload = other
    assert clone.transport is None and clone.payload == other
    assert packet.transport is segment  # the original keeps its header
    replaced = packet.replace(payload=other)
    assert replaced.transport is None and replaced.payload == other
    assert replaced != packet.replace(payload=other + b"!")  # bytes are compared
    # Readdressing keeps the bytes sent between the original addresses.
    moved = packet.replace(dst=new_dst)
    assert moved.payload == _eager_tcp(*send)
    assert packet.payload == _eager_tcp(*send)


@settings(max_examples=100, deadline=None)
@given(tcp_sends, st.integers(0, 64))
def test_carried_icmp_error_bytes_match_eager_encode(send, quote_payload):
    # Routers and hosts send ICMP errors as carried messages too; the
    # lazy bytes must be the message's own encode and decode back to it.
    from repro.netsim.icmp import ICMPMessage
    from repro.netsim.ipv4 import PROTO_ICMP

    probe = _tcp_sent(*send)
    message = time_exceeded(probe, quote_payload)
    reply = IPv4Packet.carrying(0x0A000001, probe.src, PROTO_ICMP, message)
    assert reply._wire is None
    assert reply.payload == message.encode()
    assert ICMPMessage.decode(reply.payload) == message
    assert message.quoted_packet().payload[:quote_payload] == probe.payload[:quote_payload]
