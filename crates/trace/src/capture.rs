//! Trace capture: the synthetic equivalent of running tcpdump on the testbed.
//!
//! A capture records into one [`TraceShard`]: protocol endpoints append
//! packets and allocate flow ids, and [`TraceShard::freeze`] sorts the
//! packets once, stably, to the `(timestamp, flow, seq)` total order of a
//! frozen [`Trace`]. A shard's index fixes its flow-id range
//! (`SHARD_FLOW_SPAN` ids per shard), so shards recorded apart merge into
//! the same frozen order as one shard holding all their packets. Reads go
//! through the one borrowed view type, [`TraceView`], which the analyzers
//! in [`crate::analysis`] consume.

use crate::flow::{FlowId, FlowKind, FlowTable};
use crate::packet::PacketRecord;

/// Number of flow ids reserved for each shard: shard `i` allocates ids in
/// `[i * SHARD_FLOW_SPAN, (i + 1) * SHARD_FLOW_SPAN)`. 2^40 ids per shard is
/// unreachable in practice (a million-client run opens ~10^7 flows), so shard
/// ranges never collide and shard 0 reproduces the historical sequential
/// `0, 1, 2, …` allocation exactly.
pub(crate) const SHARD_FLOW_SPAN: u64 = 1 << 40;

/// One worker's private, lock-free capture shard.
///
/// A shard is plain owned data: protocol endpoints append packets and
/// allocate flow ids without any synchronisation, and a long-lived fleet
/// client simply moves its shard (inside its simulator) between round
/// workers. Determinism comes from structure, not locking — each shard owns a
/// disjoint flow-id range, and the merge key recovers one canonical packet
/// order whatever the shard count was.
#[derive(Debug, Clone)]
pub struct TraceShard {
    index: usize,
    pub(crate) packets: Vec<PacketRecord>,
    next_flow: u64,
}

impl Default for TraceShard {
    fn default() -> Self {
        TraceShard::new()
    }
}

impl TraceShard {
    /// Creates the canonical single-worker shard (index 0), whose flow ids
    /// are the historical sequential `0, 1, 2, …`.
    pub fn new() -> Self {
        TraceShard::with_index(0)
    }

    /// Creates the shard for worker `index`, allocating flow ids from
    /// `index * SHARD_FLOW_SPAN`.
    pub(crate) fn with_index(index: usize) -> Self {
        TraceShard { index, packets: Vec::new(), next_flow: 0 }
    }

    /// Preallocates room for `additional` more packets, so steady-state
    /// recording never reallocates mid-run.
    pub fn reserve(&mut self, additional: usize) {
        self.packets.reserve(additional);
    }

    /// Allocates a fresh flow id from this shard's private range. Within a
    /// shard, ids are handed out in connection-open order, which the
    /// sequence-based analyses rely on.
    pub fn allocate_flow(&mut self) -> FlowId {
        let id = FlowId(self.index as u64 * SHARD_FLOW_SPAN + self.next_flow);
        self.next_flow += 1;
        id
    }

    /// Appends a packet record.
    ///
    /// Packets may be recorded slightly out of order by independent protocol
    /// endpoints; [`TraceShard::freeze`] (or a sorted [`TraceView::sorted`]
    /// snapshot) restores the canonical
    /// `(timestamp, flow, seq)` order, exactly like a pcap file is processed
    /// in timestamp order.
    pub fn record(&mut self, packet: PacketRecord) {
        self.packets.push(packet);
    }

    /// Read view of this shard's capture, in insertion (`seq`) order.
    pub fn view(&self) -> TraceView<'_> {
        TraceView { packets: &self.packets }
    }

    /// Freezes the capture: sorts the packets once, stably, to the
    /// canonical `(timestamp, flow, seq)` order (`seq`, the insertion
    /// index, breaks the remaining ties). A capture already in that order
    /// is one run the sort only scans.
    pub fn freeze(mut self) -> Trace {
        sort_canonical(&mut self.packets);
        Trace { packets: self.packets }
    }
}

/// Stable sort to the canonical `(timestamp, flow, seq)` order; `seq` is the
/// insertion index, supplied by stability.
fn sort_canonical(packets: &mut [PacketRecord]) {
    packets.sort_by_key(|p| (p.timestamp, p.flow));
}

/// A frozen, canonically ordered packet trace for one experiment run.
///
/// Produced by [`TraceShard::freeze`]; read through [`Trace::view`] and
/// the analyzers in [`crate::analysis`].
#[derive(Debug, Default, Clone)]
pub struct Trace {
    packets: Vec<PacketRecord>,
}

impl Trace {
    /// Read view of the merged capture.
    pub fn view(&self) -> TraceView<'_> {
        TraceView { packets: &self.packets }
    }

    /// Consumes the trace, returning the packets in canonical order.
    pub fn into_packets(self) -> Vec<PacketRecord> {
        self.packets
    }
}

/// The one read view over captured packets — borrowed from a [`TraceShard`],
/// a frozen [`Trace`], or any packet slice.
///
/// This replaces the old closure-and-clone access (`TraceHandle::with`,
/// `TraceHandle::snapshot`) and the duplicated forwarding methods that lived
/// on both `Trace` and `TraceHandle`: every reader goes through the same
/// accessors over a borrowed slice, and nothing is cloned unless the caller
/// explicitly asks for a [`TraceView::sorted`] snapshot.
#[derive(Debug, Clone, Copy)]
pub struct TraceView<'a> {
    packets: &'a [PacketRecord],
}

impl<'a> TraceView<'a> {
    /// Number of captured packets.
    pub fn len(self) -> usize {
        self.packets.len()
    }

    /// True when nothing has been captured.
    pub fn is_empty(self) -> bool {
        self.packets.is_empty()
    }

    /// The underlying packet records.
    pub fn packets(self) -> &'a [PacketRecord] {
        self.packets
    }

    /// Builds the flow table of the capture.
    pub fn flow_table(self) -> FlowTable {
        FlowTable::from_packets(self.packets)
    }

    /// Total wire bytes across all flows.
    pub fn wire_bytes_total(self) -> u64 {
        self.packets.iter().map(|p| p.wire_len()).sum()
    }

    /// Total wire bytes for one traffic class.
    pub fn wire_bytes(self, kind: FlowKind) -> u64 {
        self.packets.iter().filter(|p| p.kind == kind).map(|p| p.wire_len()).sum()
    }

    /// Clones the packets into a canonically ordered snapshot.
    pub fn sorted(self) -> Vec<PacketRecord> {
        let mut packets = self.packets.to_vec();
        sort_canonical(&mut packets);
        packets
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{Direction, Endpoint, TcpFlags, TransportProtocol, TCP_HEADER_BYTES};
    use crate::perf_pins::TraceRecorder;
    use crate::time::SimTime;

    fn packet(flow: FlowId, t_us: u64, payload: u32) -> PacketRecord {
        PacketRecord {
            timestamp: SimTime::from_micros(t_us),
            src: Endpoint::from_octets(192, 168, 1, 10, 50000),
            dst: Endpoint::from_octets(10, 0, 0, 1, 443),
            protocol: TransportProtocol::Tcp,
            flags: if payload == 0 { TcpFlags::SYN } else { TcpFlags::ACK },
            payload_len: payload,
            header_len: TCP_HEADER_BYTES,
            direction: Direction::Upload,
            flow,
            kind: FlowKind::Storage,
        }
    }

    fn shards(n: usize) -> Vec<TraceShard> {
        (0..n).map(TraceShard::with_index).collect()
    }

    #[test]
    fn shard_zero_allocates_the_historical_sequential_ids() {
        let mut shard = TraceShard::new();
        assert_eq!(shard.allocate_flow(), FlowId(0));
        assert_eq!(shard.allocate_flow(), FlowId(1));
        assert_eq!(shard.allocate_flow(), FlowId(2));
    }

    #[test]
    fn shard_flow_ranges_are_disjoint() {
        let mut shards = shards(3);
        let ids: Vec<FlowId> = shards.iter_mut().map(|s| s.allocate_flow()).collect();
        assert_eq!(ids, vec![FlowId(0), FlowId(SHARD_FLOW_SPAN), FlowId(2 * SHARD_FLOW_SPAN)]);
        let again: Vec<FlowId> = shards.iter_mut().map(|s| s.allocate_flow()).collect();
        assert_eq!(
            again,
            vec![FlowId(1), FlowId(SHARD_FLOW_SPAN + 1), FlowId(2 * SHARD_FLOW_SPAN + 1)]
        );
    }

    #[test]
    fn finish_sorts_by_timestamp_with_seq_breaking_ties() {
        let mut shard = TraceShard::new();
        let f = shard.allocate_flow();
        shard.record(packet(f, 300, 10));
        shard.record(packet(f, 100, 0));
        shard.record(packet(f, 200, 20));
        shard.record(packet(f, 200, 30));
        let sorted = shard.freeze().into_packets();
        let ts: Vec<u64> = sorted.iter().map(|p| p.timestamp.as_micros()).collect();
        assert_eq!(ts, vec![100, 200, 200, 300]);
        // seq (insertion order) breaks the t=200 tie.
        assert_eq!(sorted[1].payload_len, 20);
        assert_eq!(sorted[2].payload_len, 30);
    }

    #[test]
    fn sharded_merge_is_bit_identical_to_single_shard_capture() {
        // The same four flows, each with the same packets, captured once on a
        // single shard and once spread over three shards with pure-function
        // flow ids: the finished traces must match exactly.
        let flows: Vec<FlowId> = (0..4).map(FlowId).collect();
        let per_flow: Vec<Vec<PacketRecord>> = flows
            .iter()
            .enumerate()
            .map(|(i, &f)| {
                vec![
                    packet(f, 50 * i as u64 + 10, 0),
                    packet(f, 50 * i as u64 + 20, 100),
                    packet(f, 120, 200), // deliberate cross-flow timestamp tie
                ]
            })
            .collect();

        let mut single = TraceShard::new();
        for pkts in &per_flow {
            for p in pkts {
                single.record(p.clone());
            }
        }
        let reference = single.freeze().into_packets();

        let mut three = shards(3);
        for (i, pkts) in per_flow.iter().enumerate() {
            // Flow 0 and 3 land on shard 0: shard assignment must not matter.
            let shard = &mut three[i % 3];
            for p in pkts {
                shard.record(p.clone());
            }
        }
        assert_eq!(TraceRecorder::from_shards(three).finish().into_packets(), reference);
    }

    #[test]
    fn from_shards_accepts_any_shard_order() {
        let mut two = shards(2);
        let f0 = two[0].allocate_flow();
        let f1 = two[1].allocate_flow();
        two[0].record(packet(f0, 20, 0));
        two[1].record(packet(f1, 10, 0));
        two.reverse();
        let merged = TraceRecorder::from_shards(two).finish();
        let view = merged.view();
        assert_eq!(view.len(), 2);
        assert_eq!(view.packets()[0].flow, f1);
        assert_eq!(view.packets()[1].flow, f0);
    }

    #[test]
    fn finish_equals_a_one_shard_recording_in_every_edge_case() {
        // Every case hands its shards back in reverse index order.
        let (f0, f1, f2) = (FlowId(3), FlowId(SHARD_FLOW_SPAN + 1), FlowId(2 * SHARD_FLOW_SPAN));
        let falling =
            |f, skew: u64| (0..4u64).map(|k| packet(f, 40 - 10 * k + skew, k as u32)).collect();
        let cases: [(&str, Vec<Vec<PacketRecord>>); 4] = [
            ("all shards empty", vec![vec![], vec![], vec![]]),
            (
                "one busy shard among empty ones",
                vec![vec![], vec![], vec![packet(f2, 30, 1), packet(f2, 10, 2), packet(f2, 30, 3)]],
            ),
            ("three busy shards", vec![falling(f0, 0), falling(f1, 1), falling(f2, 2)]),
            (
                "equal timestamps on flows of different shards",
                vec![
                    vec![packet(f0, 100, 1), packet(f0, 100, 2)],
                    vec![packet(f1, 100, 3), packet(f1, 100, 4), packet(f1, 90, 5)],
                ],
            ),
        ];
        for (case, per_shard) in cases {
            let mut recorded = shards(per_shard.len());
            for (shard, packets) in recorded.iter_mut().zip(&per_shard) {
                packets.iter().for_each(|p| shard.record(p.clone()));
            }
            recorded.reverse();
            let frozen = TraceRecorder::from_shards(recorded).finish().into_packets();
            let mut one = TraceShard::new();
            per_shard.concat().into_iter().for_each(|p| one.record(p));
            assert_eq!(frozen, one.freeze().into_packets(), "{case}");
        }
    }

    #[test]
    fn byte_accounting_matches_flow_table() {
        let mut shard = TraceShard::new();
        let f = shard.allocate_flow();
        shard.record(packet(f, 10, 0));
        shard.record(packet(f, 20, 1000));
        shard.record(packet(f, 30, 500));
        let view = shard.view();
        let expected = 3 * TCP_HEADER_BYTES as u64 + 1500;
        assert_eq!(view.wire_bytes_total(), expected);
        assert_eq!(view.wire_bytes(FlowKind::Storage), expected);
        assert_eq!(view.wire_bytes(FlowKind::Control), 0);
        let table = view.flow_table();
        assert_eq!(table.get(f).map(|s| s.payload_up), Some(1500));
        assert_eq!(table.len(), 1);
    }

    #[test]
    fn empty_capture_edge_cases() {
        let shard = TraceShard::new();
        let view = shard.view();
        assert!(view.is_empty());
        assert_eq!(view.wire_bytes_total(), 0);
        assert!(view.sorted().is_empty());
        let trace = TraceRecorder::from_shards(shards(4)).finish();
        assert!(trace.view().is_empty());
        assert!(trace.into_packets().is_empty());
    }

    #[test]
    fn view_reads_without_cloning() {
        let mut shard = TraceShard::new();
        let f = shard.allocate_flow();
        shard.record(packet(f, 10, 42));
        shard.record(packet(f, 5, 7));
        let view = shard.view();
        assert_eq!(view.len(), 2);
        assert_eq!(view.packets()[0].timestamp, SimTime::from_micros(10));
        // Insertion order through the view; canonical order via `sorted`.
        assert_eq!(view.packets()[0].payload_len, 42);
        assert_eq!(view.sorted()[0].payload_len, 7);
    }
}
