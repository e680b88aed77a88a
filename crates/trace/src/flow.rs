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
use serde::Serialize;
use std::collections::hash_map::{Entry, HashMap};
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

/// Unique identifier of a flow (a five-tuple instance) within one trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub struct FlowId(pub u64);

impl fmt::Display for FlowId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "flow#{}", self.0)
    }
}

/// Traffic class of a flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
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
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
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
    /// Application payload bytes uploaded.
    pub payload_up: u64,
    /// Application payload bytes downloaded.
    pub payload_down: u64,
    /// Total wire bytes uploaded (headers + payload).
    pub wire_up: u64,
    /// Total wire bytes downloaded (headers + payload).
    pub wire_down: u64,
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
            payload_up: 0,
            payload_down: 0,
            wire_up: 0,
            wire_down: 0,
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
                self.payload_up += p.payload_len as u64;
                self.wire_up += p.wire_len();
            }
            Direction::Download => {
                self.payload_down += p.payload_len as u64;
                self.wire_down += p.wire_len();
            }
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
/// [`FlowTable::from_packets`] folds the stream in one pass: a flow-id →
/// slot hash index sends each packet to its flow's [`FlowStats`], a new id
/// appends one. The flows are then sorted once by their unique ids, so
/// iteration runs in flow-id order (flows are numbered in the order the
/// simulator opened them, which the Wuala-style "connection sequence"
/// heuristics rely on) and [`FlowTable::get`] bisects.
#[derive(Debug, Clone, Default)]
pub struct FlowTable {
    /// Every flow once, in flow-id order.
    flows: Vec<FlowStats>,
}

/// Hashes a [`FlowId`] with one multiply and a fold. Flow ids are allocated
/// by the simulator, never read from input, so the default keyed hash's
/// protection against crafted collisions buys nothing here; it cost a
/// 300 000-packet fold about 4 ms more on a 2-core Xeon.
#[derive(Debug, Default, Clone, Copy)]
struct FlowIdHasher(u64);

impl Hasher for FlowIdHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("a FlowId hashes through write_u64");
    }

    fn write_u64(&mut self, id: u64) {
        let h = id.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = h ^ (h >> 32);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

impl FlowTable {
    /// Builds a flow table from a packet slice.
    pub fn from_packets<'a, I: IntoIterator<Item = &'a PacketRecord>>(packets: I) -> Self {
        let mut slots: HashMap<FlowId, usize, BuildHasherDefault<FlowIdHasher>> =
            HashMap::default();
        let mut flows: Vec<FlowStats> = Vec::new();
        for p in packets {
            match slots.entry(p.flow) {
                Entry::Occupied(slot) => flows[*slot.get()].absorb(p),
                Entry::Vacant(slot) => {
                    slot.insert(flows.len());
                    flows.push(FlowStats::from_first_packet(p));
                }
            }
        }
        flows.sort_unstable_by_key(|f| f.id);
        FlowTable { flows }
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
        let slot = self.flows.binary_search_by_key(&id, |f| f.id).ok()?;
        Some(&self.flows[slot])
    }

    /// Iterates over all flows in flow-id (creation) order.
    pub fn iter(&self) -> impl Iterator<Item = &FlowStats> {
        self.flows.iter()
    }

    /// Iterates over the flows of a given traffic class.
    pub fn of_kind(&self, kind: FlowKind) -> impl Iterator<Item = &FlowStats> {
        self.flows.iter().filter(move |f| f.kind == kind)
    }

    /// Total wire bytes across all flows of a traffic class.
    pub fn wire_bytes(&self, kind: FlowKind) -> u64 {
        self.of_kind(kind).map(|f| f.wire_total()).sum()
    }

    /// Total wire bytes across every flow in the trace.
    pub fn wire_bytes_total(&self) -> u64 {
        self.flows.iter().map(|f| f.wire_total()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{TcpFlags, TransportProtocol, MSS, TCP_HEADER_BYTES};
    use proptest::prelude::*;
    use std::collections::BTreeMap;

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
        assert_eq!(f.payload_up, 3 * MSS as u64);
        assert_eq!(f.payload_down, 0);
        assert_eq!(f.first_packet, SimTime::ZERO);
        assert_eq!(f.first_payload, Some(SimTime::from_millis(110)));
        assert_eq!(f.last_payload, Some(SimTime::from_millis(112)));
        assert_eq!(f.wire_up, 5 * TCP_HEADER_BYTES as u64 + 3 * MSS as u64); // SYN + ACK + 3 data
        assert_eq!(f.wire_down, TCP_HEADER_BYTES as u64); // SYN-ACK
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
        let table = FlowTable::from_packets(&[]);
        assert!(table.is_empty());
        assert_eq!(table.len(), 0);
        assert_eq!(table.wire_bytes_total(), 0);
        assert_eq!(table.of_kind(FlowKind::Storage).count(), 0);
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

    /// The fold the hash index replaced: one `BTreeMap` entry per packet.
    fn btree_fold(packets: &[PacketRecord]) -> BTreeMap<FlowId, FlowStats> {
        let mut flows = BTreeMap::new();
        for p in packets {
            flows
                .entry(p.flow)
                .and_modify(|f: &mut FlowStats| f.absorb(p))
                .or_insert_with(|| FlowStats::from_first_packet(p));
        }
        flows
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random streams whose flows arrive out of id order (ids from three
        /// shard-sized ranges), in both directions, with and without
        /// payload, over every flow kind: the table reads exactly what the
        /// `BTreeMap` fold reads.
        #[test]
        fn from_packets_equals_the_btree_map_fold(
            raw_ids in collection::vec(any::<u64>(), 1..12),
            draws in collection::vec(any::<u64>(), 0..120),
            probes in collection::vec(any::<u64>(), 1..8),
        ) {
            let ids: Vec<u64> = raw_ids.iter().map(|w| ((w % 3) << 40) | ((w >> 2) % 50)).collect();
            let packets: Vec<PacketRecord> = draws
                .iter()
                .map(|&w| {
                    let slot = (w % ids.len() as u64) as usize;
                    let direction =
                        if (w >> 8) & 1 == 0 { Direction::Upload } else { Direction::Download };
                    let payload = if (w >> 9) & 1 == 0 { 0 } else { ((w >> 10) % 3000) as u32 };
                    let flags = if payload == 0 { TcpFlags::SYN } else { TcpFlags::ACK };
                    let kind = FlowKind::ALL[slot % FlowKind::ALL.len()];
                    packet(ids[slot], (w >> 24) % 1000, direction, flags, payload, kind)
                })
                .collect();
            let table = FlowTable::from_packets(&packets);
            let reference = btree_fold(&packets);

            prop_assert_eq!(table.len(), reference.len());
            prop_assert_eq!(table.is_empty(), reference.is_empty());
            prop_assert_eq!(table.iter().collect::<Vec<_>>(), reference.values().collect::<Vec<_>>());
            let absent = probes.iter().map(|w| FlowId(((w % 3) << 40) | (50 + w % 50)));
            let nearby = ids.iter().flat_map(|&id| [id.wrapping_sub(1), id, id + 1]).map(FlowId);
            for id in absent.chain(nearby) {
                prop_assert_eq!(table.get(id), reference.get(&id));
            }
            for kind in FlowKind::ALL {
                let of_kind: Vec<&FlowStats> = reference.values().filter(|f| f.kind == kind).collect();
                prop_assert_eq!(table.of_kind(kind).collect::<Vec<_>>(), of_kind);
                let wire: u64 = reference.values().filter(|f| f.kind == kind).map(FlowStats::wire_total).sum();
                prop_assert_eq!(table.wire_bytes(kind), wire);
            }
            let total: u64 = reference.values().map(FlowStats::wire_total).sum();
            prop_assert_eq!(table.wire_bytes_total(), total);
        }
    }
}
