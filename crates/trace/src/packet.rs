//! Per-packet trace records.
//!
//! A [`PacketRecord`] is the synthetic equivalent of one captured frame in the
//! original testbed. It carries everything the paper's analyses need: a
//! timestamp, the two endpoints, the transport protocol, TCP flags, the
//! payload length, the direction relative to the test computer, the flow the
//! packet belongs to, and the traffic class of that flow.

use crate::flow::{FlowId, FlowKind};
use crate::time::SimTime;
use std::fmt;

/// A network endpoint: an IPv4-style address plus a TCP port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Endpoint {
    /// IPv4 address encoded as a host-order `u32` (e.g. `0xC0A80001` = 192.168.0.1).
    pub addr: u32,
    /// Transport port.
    pub port: u16,
}

impl Endpoint {
    /// Creates an endpoint from an address and port.
    pub const fn new(addr: u32, port: u16) -> Self {
        Endpoint { addr, port }
    }

    /// Creates an endpoint from dotted-quad octets.
    pub const fn from_octets(a: u8, b: u8, c: u8, d: u8, port: u16) -> Self {
        Endpoint {
            addr: ((a as u32) << 24) | ((b as u32) << 16) | ((c as u32) << 8) | d as u32,
            port,
        }
    }

    /// The four dotted-quad octets of the address.
    pub const fn octets(&self) -> [u8; 4] {
        [(self.addr >> 24) as u8, (self.addr >> 16) as u8, (self.addr >> 8) as u8, self.addr as u8]
    }
}

impl fmt::Display for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let o = self.octets();
        write!(f, "{}.{}.{}.{}:{}", o[0], o[1], o[2], o[3], self.port)
    }
}

/// Transport protocol of a packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TransportProtocol {
    /// Transmission Control Protocol: every simulated packet is TCP.
    Tcp,
}

/// TCP control flags carried by a packet.
///
/// Only the flags the analyses care about are modelled; `PSH`/`URG` are not.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct TcpFlags {
    /// Synchronize sequence numbers (connection open).
    pub syn: bool,
    /// Acknowledgement field significant.
    pub ack: bool,
    /// No more data from sender (connection close).
    pub fin: bool,
    /// Reset the connection.
    pub rst: bool,
}

impl TcpFlags {
    /// A pure SYN (first packet of the three-way handshake).
    pub const SYN: TcpFlags = TcpFlags { syn: true, ack: false, fin: false, rst: false };
    /// A SYN-ACK (second packet of the handshake).
    pub const SYN_ACK: TcpFlags = TcpFlags { syn: true, ack: true, fin: false, rst: false };
    /// A plain ACK.
    pub const ACK: TcpFlags = TcpFlags { syn: false, ack: true, fin: false, rst: false };
    /// A FIN-ACK (teardown).
    pub const FIN_ACK: TcpFlags = TcpFlags { syn: false, ack: true, fin: true, rst: false };

    /// True for the client-initiated SYN that opens a connection (SYN without ACK).
    pub(crate) fn is_connection_open(&self) -> bool {
        self.syn && !self.ack
    }
}

impl fmt::Display for TcpFlags {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut parts = Vec::new();
        if self.syn {
            parts.push("SYN");
        }
        if self.ack {
            parts.push("ACK");
        }
        if self.fin {
            parts.push("FIN");
        }
        if self.rst {
            parts.push("RST");
        }
        if parts.is_empty() {
            write!(f, "-")
        } else {
            write!(f, "{}", parts.join("|"))
        }
    }
}

/// Direction of a packet relative to the test computer (the sync client host).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// From the test computer towards the cloud (uploads, requests).
    Upload,
    /// From the cloud towards the test computer (downloads, responses).
    Download,
}

impl Direction {
    /// The opposite direction.
    pub fn reverse(self) -> Direction {
        match self {
            Direction::Upload => Direction::Download,
            Direction::Download => Direction::Upload,
        }
    }
}

/// One synthetic captured packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PacketRecord {
    /// Capture timestamp.
    pub timestamp: SimTime,
    /// Source endpoint.
    pub src: Endpoint,
    /// Destination endpoint.
    pub dst: Endpoint,
    /// Transport protocol.
    pub protocol: TransportProtocol,
    /// TCP flags.
    pub flags: TcpFlags,
    /// Application payload bytes carried by this packet (excluding headers).
    pub payload_len: u32,
    /// Total header bytes (Ethernet + IP + TCP + TLS record framing).
    pub header_len: u32,
    /// Direction relative to the test computer.
    pub direction: Direction,
    /// The flow this packet belongs to.
    pub flow: FlowId,
    /// Traffic class of the owning flow at capture time.
    pub kind: FlowKind,
}

impl PacketRecord {
    /// Total bytes on the wire for this packet (headers plus payload).
    pub fn wire_len(&self) -> u64 {
        self.header_len as u64 + self.payload_len as u64
    }

    /// True when the packet carries application payload.
    pub(crate) fn has_payload(&self) -> bool {
        self.payload_len > 0
    }

    /// True for the client SYN that opens a TCP connection.
    pub fn is_syn(&self) -> bool {
        self.flags.is_connection_open()
    }
}

/// Typical header overhead for a TCP segment: Ethernet (14) + IP (20) + TCP (32
/// with options). TLS record framing is added separately by the TLS model.
pub const TCP_HEADER_BYTES: u32 = 66;

/// Maximum TCP segment payload used by the simulator (standard Ethernet MSS).
pub const MSS: u32 = 1460;

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_packet(flags: TcpFlags, payload: u32) -> PacketRecord {
        PacketRecord {
            timestamp: SimTime::from_millis(5),
            src: Endpoint::from_octets(192, 168, 1, 10, 50000),
            dst: Endpoint::from_octets(10, 0, 0, 1, 443),
            protocol: TransportProtocol::Tcp,
            flags,
            payload_len: payload,
            header_len: TCP_HEADER_BYTES,
            direction: Direction::Upload,
            flow: FlowId(7),
            kind: FlowKind::Storage,
        }
    }

    #[test]
    fn endpoint_octet_roundtrip_and_display() {
        let e = Endpoint::from_octets(192, 168, 1, 10, 443);
        assert_eq!(e.octets(), [192, 168, 1, 10]);
        assert_eq!(e.addr, 0xC0A8010A);
        assert_eq!(format!("{e}"), "192.168.1.10:443");
        assert_eq!(Endpoint::new(0xC0A8010A, 443), e);
    }

    #[test]
    fn tcp_flag_constants_behave_as_expected() {
        assert!(TcpFlags::SYN.is_connection_open());
        assert!(!TcpFlags::SYN_ACK.is_connection_open());
        assert!(!TcpFlags::ACK.is_connection_open());
        assert!(!TcpFlags::FIN_ACK.is_connection_open());
        assert_eq!(format!("{}", TcpFlags::SYN_ACK), "SYN|ACK");
        assert_eq!(format!("{}", TcpFlags::default()), "-");
        assert_eq!(format!("{}", TcpFlags::FIN_ACK), "ACK|FIN");
    }

    #[test]
    fn direction_reverse_is_involutive() {
        assert_eq!(Direction::Upload.reverse(), Direction::Download);
        assert_eq!(Direction::Download.reverse(), Direction::Upload);
        assert_eq!(Direction::Upload.reverse().reverse(), Direction::Upload);
    }

    #[test]
    fn packet_wire_length_sums_headers_and_payload() {
        let p = sample_packet(TcpFlags::ACK, 1460);
        assert_eq!(p.wire_len(), 66 + 1460);
        assert!(p.has_payload());
        assert!(!p.is_syn());
    }

    #[test]
    fn syn_detection_requires_tcp_and_pure_syn() {
        let syn = sample_packet(TcpFlags::SYN, 0);
        assert!(syn.is_syn());
        let synack = sample_packet(TcpFlags::SYN_ACK, 0);
        assert!(!synack.is_syn());
    }

    #[test]
    fn packets_are_cloneable_and_comparable() {
        let p = sample_packet(TcpFlags::SYN, 0);
        let q = p.clone();
        assert_eq!(p, q);
        let mut r = p.clone();
        r.payload_len = 10;
        assert_ne!(p, r);
    }
}
