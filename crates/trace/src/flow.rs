//! Flow identification and accounting.
//!
//! The paper distinguishes *control* flows (login, notification, metadata
//! commits) from *storage* flows (actual file content) and derives metrics
//! like synchronization start-up time ("time until the first storage flow is
//! observed") and protocol overhead ("total storage and control traffic over
//! the benchmark size") from this classification. §3.1 notes that all
//! services except Wuala use dedicated servers for control and storage, so
//! flows can be classified simply by their destination; for Wuala the paper
//! falls back to flow sizes and connection sequences — the simulator tags
//! flows at creation time instead.

use crate::packet::{Direction, Endpoint, PacketRecord};
use crate::time::SimTime;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// Unique identifier of a flow (a five-tuple instance) within one trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct FlowId(pub u64);

impl fmt::Display for FlowId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "flow#{}", self.0)
    }
}

/// Traffic class of a flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum FlowKind {
    /// Login / metadata / commit traffic towards control servers.
    Control,
    /// Bulk file content towards storage servers.
    Storage,
    /// Background keep-alive / notification traffic (e.g. Dropbox's plain-HTTP
    /// notification protocol, periodic polling while idle).
    Notification,
    /// Name resolution traffic towards DNS resolvers.
    Dns,
}

impl FlowKind {
    /// Every flow kind, for exhaustive per-kind accounting.
    pub const ALL: [FlowKind; 4] =
        [FlowKind::Control, FlowKind::Storage, FlowKind::Notification, FlowKind::Dns];

    /// True for the kinds the paper's §3.1 idle capture counts as
    /// control-plane ("background") traffic: login/metadata exchanges and
    /// the keep-alive/notification channels. The Fig. 1 accounting and the
    /// fleet's background-vs-payload split both use this predicate so they
    /// can never drift apart.
    pub fn is_control_plane(self) -> bool {
        matches!(self, FlowKind::Control | FlowKind::Notification)
    }
}

impl fmt::Display for FlowKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FlowKind::Control => "control",
            FlowKind::Storage => "storage",
            FlowKind::Notification => "notification",
            FlowKind::Dns => "dns",
        };
        write!(f, "{s}")
    }
}

/// Aggregate statistics for a single flow, built from its packets.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlowStats {
    /// The flow identifier.
    pub id: FlowId,
    /// Client-side endpoint (the test computer).
    pub client: Endpoint,
    /// Server-side endpoint.
    pub server: Endpoint,
    /// Traffic class the flow was tagged with.
    pub kind: FlowKind,
    /// Timestamp of the first packet (usually the SYN).
    pub first_packet: SimTime,
    /// Timestamp of the last packet.
    pub last_packet: SimTime,
    /// Timestamp of the first packet carrying payload, if any.
    pub first_payload: Option<SimTime>,
    /// Timestamp of the last packet carrying payload, if any.
    pub last_payload: Option<SimTime>,
    /// Number of packets observed in the upload direction.
    pub packets_up: u64,
    /// Number of packets observed in the download direction.
    pub packets_down: u64,
    /// Application payload bytes uploaded.
    pub payload_up: u64,
    /// Application payload bytes downloaded.
    pub payload_down: u64,
    /// Total wire bytes uploaded (headers + payload).
    pub wire_up: u64,
    /// Total wire bytes downloaded (headers + payload).
    pub wire_down: u64,
    /// Number of connection-opening SYN packets seen (0 for UDP flows, 1 for TCP).
    pub syn_count: u64,
}

impl FlowStats {
    fn from_first_packet(p: &PacketRecord) -> FlowStats {
        let (client, server) = match p.direction {
            Direction::Upload => (p.src, p.dst),
            Direction::Download => (p.dst, p.src),
        };
        let mut stats = FlowStats {
            id: p.flow,
            client,
            server,
            kind: p.kind,
            first_packet: p.timestamp,
            last_packet: p.timestamp,
            first_payload: None,
            last_payload: None,
            packets_up: 0,
            packets_down: 0,
            payload_up: 0,
            payload_down: 0,
            wire_up: 0,
            wire_down: 0,
            syn_count: 0,
        };
        stats.absorb(p);
        stats
    }

    fn absorb(&mut self, p: &PacketRecord) {
        debug_assert_eq!(p.flow, self.id);
        self.last_packet = self.last_packet.max(p.timestamp);
        self.first_packet = self.first_packet.min(p.timestamp);
        if p.has_payload() {
            self.first_payload = Some(match self.first_payload {
                Some(t) => t.min(p.timestamp),
                None => p.timestamp,
            });
            self.last_payload = Some(match self.last_payload {
                Some(t) => t.max(p.timestamp),
                None => p.timestamp,
            });
        }
        match p.direction {
            Direction::Upload => {
                self.packets_up += 1;
                self.payload_up += p.payload_len as u64;
                self.wire_up += p.wire_len();
            }
            Direction::Download => {
                self.packets_down += 1;
                self.payload_down += p.payload_len as u64;
                self.wire_down += p.wire_len();
            }
        }
        if p.is_syn() {
            self.syn_count += 1;
        }
    }

    /// Total wire bytes in both directions.
    pub fn wire_total(&self) -> u64 {
        self.wire_up + self.wire_down
    }

    /// Duration between the first and the last packet of the flow.
    pub fn duration(&self) -> crate::time::SimDuration {
        self.last_packet - self.first_packet
    }
}

/// Flow table: aggregates a packet stream into per-flow statistics.
///
/// The table preserves insertion order by flow id (flows are numbered in the
/// order the simulator opened them), which the Wuala-style "connection
/// sequence" heuristics rely on.
#[derive(Debug, Clone, Default)]
pub struct FlowTable {
    flows: BTreeMap<FlowId, FlowStats>,
}

impl FlowTable {
    /// Creates an empty flow table.
    pub fn new() -> Self {
        FlowTable { flows: BTreeMap::new() }
    }

    /// Builds a flow table from a packet slice.
    pub fn from_packets<'a, I: IntoIterator<Item = &'a PacketRecord>>(packets: I) -> Self {
        let mut table = FlowTable::new();
        for p in packets {
            table.add_packet(p);
        }
        table
    }

    /// Adds one packet to the table.
    pub fn add_packet(&mut self, p: &PacketRecord) {
        self.flows
            .entry(p.flow)
            .and_modify(|f| f.absorb(p))
            .or_insert_with(|| FlowStats::from_first_packet(p));
    }

    /// Number of flows observed.
    pub fn len(&self) -> usize {
        self.flows.len()
    }

    /// True when no flow has been observed.
    pub fn is_empty(&self) -> bool {
        self.flows.is_empty()
    }

    /// Looks up one flow.
    pub fn get(&self, id: FlowId) -> Option<&FlowStats> {
        self.flows.get(&id)
    }

    /// Iterates over all flows in flow-id (creation) order.
    pub fn iter(&self) -> impl Iterator<Item = &FlowStats> {
        self.flows.values()
    }

    /// Iterates over the flows of a given traffic class.
    pub fn of_kind(&self, kind: FlowKind) -> impl Iterator<Item = &FlowStats> {
        self.flows.values().filter(move |f| f.kind == kind)
    }

    /// Total wire bytes across all flows of a traffic class.
    pub fn wire_bytes(&self, kind: FlowKind) -> u64 {
        self.of_kind(kind).map(|f| f.wire_total()).sum()
    }

    /// Total wire bytes across every flow in the trace.
    pub fn wire_bytes_total(&self) -> u64 {
        self.flows.values().map(|f| f.wire_total()).sum()
    }

    /// Number of TCP connections opened (client SYNs) for a traffic class.
    pub fn connections(&self, kind: FlowKind) -> u64 {
        self.of_kind(kind).map(|f| f.syn_count).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{TcpFlags, TransportProtocol, MSS, TCP_HEADER_BYTES};

    fn packet(
        flow: u64,
        t_ms: u64,
        dir: Direction,
        flags: TcpFlags,
        payload: u32,
        kind: FlowKind,
    ) -> PacketRecord {
        let client = Endpoint::from_octets(192, 168, 1, 10, 50000 + flow as u16);
        let server = Endpoint::from_octets(10, 0, 0, 1, 443);
        let (src, dst) = match dir {
            Direction::Upload => (client, server),
            Direction::Download => (server, client),
        };
        PacketRecord {
            timestamp: SimTime::from_millis(t_ms),
            src,
            dst,
            protocol: TransportProtocol::Tcp,
            flags,
            payload_len: payload,
            header_len: TCP_HEADER_BYTES,
            direction: dir,
            flow: FlowId(flow),
            kind,
        }
    }

    fn handshake_and_data(
        flow: u64,
        start_ms: u64,
        kind: FlowKind,
        data_packets: u32,
    ) -> Vec<PacketRecord> {
        let mut v = vec![
            packet(flow, start_ms, Direction::Upload, TcpFlags::SYN, 0, kind),
            packet(flow, start_ms + 50, Direction::Download, TcpFlags::SYN_ACK, 0, kind),
            packet(flow, start_ms + 100, Direction::Upload, TcpFlags::ACK, 0, kind),
        ];
        for i in 0..data_packets {
            v.push(packet(
                flow,
                start_ms + 110 + i as u64,
                Direction::Upload,
                TcpFlags::ACK,
                MSS,
                kind,
            ));
        }
        v
    }

    #[test]
    fn flow_stats_accumulate_packets() {
        let packets = handshake_and_data(1, 0, FlowKind::Storage, 3);
        let table = FlowTable::from_packets(&packets);
        assert_eq!(table.len(), 1);
        let f = table.get(FlowId(1)).unwrap();
        assert_eq!(f.syn_count, 1);
        assert_eq!(f.packets_up, 5); // SYN + ACK + 3 data
        assert_eq!(f.packets_down, 1); // SYN-ACK
        assert_eq!(f.payload_up, 3 * MSS as u64);
        assert_eq!(f.payload_down, 0);
        assert_eq!(f.first_packet, SimTime::ZERO);
        assert_eq!(f.first_payload, Some(SimTime::from_millis(110)));
        assert_eq!(f.last_payload, Some(SimTime::from_millis(112)));
        assert_eq!(f.wire_up, 5 * TCP_HEADER_BYTES as u64 + 3 * MSS as u64);
        assert!(f.duration().as_micros() > 0);
    }

    #[test]
    fn flows_are_separated_by_id_and_kind() {
        let mut packets = handshake_and_data(1, 0, FlowKind::Control, 1);
        packets.extend(handshake_and_data(2, 500, FlowKind::Storage, 10));
        packets.extend(handshake_and_data(3, 900, FlowKind::Storage, 5));
        let table = FlowTable::from_packets(&packets);
        assert_eq!(table.len(), 3);
        assert_eq!(table.of_kind(FlowKind::Storage).count(), 2);
        assert_eq!(table.of_kind(FlowKind::Control).count(), 1);
        assert_eq!(table.connections(FlowKind::Storage), 2);
        assert_eq!(table.connections(FlowKind::Control), 1);
        assert_eq!(table.get(FlowId(2)).unwrap().first_payload, Some(SimTime::from_millis(610)));
        assert_eq!(table.get(FlowId(3)).unwrap().last_payload, Some(SimTime::from_millis(1014)));
    }

    #[test]
    fn wire_byte_totals_are_consistent() {
        let mut packets = handshake_and_data(1, 0, FlowKind::Control, 2);
        packets.extend(handshake_and_data(2, 100, FlowKind::Storage, 4));
        let table = FlowTable::from_packets(&packets);
        let total = table.wire_bytes_total();
        assert_eq!(
            total,
            table.wire_bytes(FlowKind::Control) + table.wire_bytes(FlowKind::Storage)
        );
        assert!(total > 0);
    }

    #[test]
    fn empty_table_behaves() {
        let table = FlowTable::new();
        assert!(table.is_empty());
        assert_eq!(table.len(), 0);
        assert_eq!(table.wire_bytes_total(), 0);
        assert_eq!(table.connections(FlowKind::Storage), 0);
        assert!(table.get(FlowId(1)).is_none());
    }

    #[test]
    fn display_impls() {
        assert_eq!(format!("{}", FlowId(3)), "flow#3");
        assert_eq!(format!("{}", FlowKind::Storage), "storage");
        assert_eq!(format!("{}", FlowKind::Control), "control");
        assert_eq!(format!("{}", FlowKind::Notification), "notification");
        assert_eq!(format!("{}", FlowKind::Dns), "dns");
    }
}
