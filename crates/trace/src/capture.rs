//! Trace capture: the synthetic equivalent of running tcpdump on the testbed.
//!
//! Capture is *sharded*: each worker records into a private, lock-free
//! [`TraceShard`] handed out by a [`TraceRecorder`]. Flow ids are carved from
//! per-shard bases ([`SHARD_FLOW_SPAN`] ids per shard) so allocation stays
//! deterministic without any cross-thread coordination, and
//! [`TraceRecorder::finish`] k-way merges the shards by the
//! `(timestamp, flow, seq)` total order into a frozen [`Trace`] — bit-identical
//! to a single-shard capture for any worker count. Reads go through the one
//! borrowed view type, [`TraceView`], which the analyzers in
//! [`crate::analysis`] consume.

use crate::flow::{FlowId, FlowKind, FlowTable};
use crate::packet::PacketRecord;
use crate::time::SimTime;
use std::collections::BinaryHeap;

/// Number of flow ids reserved for each shard: shard `i` allocates ids in
/// `[i * SHARD_FLOW_SPAN, (i + 1) * SHARD_FLOW_SPAN)`. 2^40 ids per shard is
/// unreachable in practice (a million-client run opens ~10^7 flows), so shard
/// ranges never collide and shard 0 reproduces the historical sequential
/// `0, 1, 2, …` allocation exactly.
pub const SHARD_FLOW_SPAN: u64 = 1 << 40;

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
    packets: Vec<PacketRecord>,
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
    pub fn with_index(index: usize) -> Self {
        TraceShard { index, packets: Vec::new(), next_flow: 0 }
    }

    /// The worker index this shard was carved for.
    pub fn index(&self) -> usize {
        self.index
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
    /// endpoints; the merge in [`TraceRecorder::finish`] (or a sorted
    /// [`TraceView::sorted`] snapshot) restores the canonical
    /// `(timestamp, flow, seq)` order, exactly like a pcap file is processed
    /// in timestamp order.
    pub fn record(&mut self, packet: PacketRecord) {
        self.packets.push(packet);
    }

    /// Read view of this shard's capture, in insertion (`seq`) order.
    pub fn view(&self) -> TraceView<'_> {
        TraceView { packets: &self.packets }
    }

    /// Consumes the shard, returning its packets in the canonical
    /// `(timestamp, flow, seq)` order.
    pub fn into_packets(mut self) -> Vec<PacketRecord> {
        sort_canonical(&mut self.packets);
        self.packets
    }
}

/// Hands per-worker [`TraceShard`]s out and merges them back into one frozen
/// [`Trace`].
///
/// The lifecycle is: carve (`with_shards`/`into_shards`), record (each worker
/// appends to its own shard), merge (`from_shards` + [`TraceRecorder::finish`]).
#[derive(Debug, Clone)]
pub struct TraceRecorder {
    shards: Vec<TraceShard>,
}

impl Default for TraceRecorder {
    fn default() -> Self {
        TraceRecorder::new()
    }
}

impl TraceRecorder {
    /// Creates a single-shard recorder — the sequential-capture baseline the
    /// sharded merge must reproduce bit for bit.
    pub fn new() -> Self {
        TraceRecorder::with_shards(1)
    }

    /// Creates a recorder with `shards` worker shards (at least one), each
    /// owning a disjoint flow-id range.
    pub fn with_shards(shards: usize) -> Self {
        let shards = shards.max(1);
        TraceRecorder { shards: (0..shards).map(TraceShard::with_index).collect() }
    }

    /// Rebuilds a recorder from worker shards (in any order) for merging.
    pub fn from_shards(mut shards: Vec<TraceShard>) -> Self {
        shards.sort_by_key(|s| s.index);
        TraceRecorder { shards }
    }

    /// Splits the recorder into its worker shards, one per worker.
    pub fn into_shards(self) -> Vec<TraceShard> {
        self.shards
    }

    /// Number of worker shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The worker shards, for in-place recording without splitting.
    pub fn shards_mut(&mut self) -> &mut [TraceShard] {
        &mut self.shards
    }

    /// Freezes the capture: k-way merges every shard by the canonical
    /// `(timestamp, flow, seq)` total order into a [`Trace`].
    ///
    /// Each shard is first sorted to canonical order (stable, so `seq` —
    /// the per-shard insertion index — breaks `(timestamp, flow)` ties), then
    /// the sorted runs are heap-merged. Because each flow's packets live in
    /// exactly one shard, the merged order is independent of how work was
    /// assigned to shards: single-shard and k-shard captures of the same
    /// packets are bit-identical.
    pub fn finish(self) -> Trace {
        let mut runs: Vec<Vec<PacketRecord>> = self
            .shards
            .into_iter()
            .map(|mut shard| {
                sort_canonical(&mut shard.packets);
                shard.packets
            })
            .collect();
        runs.retain(|r| !r.is_empty());
        let total = runs.iter().map(Vec::len).sum();
        if runs.len() == 1 {
            return Trace { packets: runs.pop().expect("one run") };
        }

        // K-way merge of the sorted runs. `Reverse` ordering on the canonical
        // key turns the max-heap into a min-heap; the run index is the final
        // tie-breaker so the heap order is total (cross-shard key ties cannot
        // occur — flows are shard-private — but the comparator must not care).
        let mut packets = Vec::with_capacity(total);
        let mut cursors: Vec<std::vec::IntoIter<PacketRecord>> =
            runs.into_iter().map(Vec::into_iter).collect();
        let mut fronts: Vec<Option<PacketRecord>> =
            cursors.iter_mut().map(Iterator::next).collect();
        let mut heap: BinaryHeap<std::cmp::Reverse<(SimTime, FlowId, usize)>> =
            BinaryHeap::with_capacity(cursors.len());
        for (run, front) in fronts.iter().enumerate() {
            if let Some(p) = front {
                heap.push(std::cmp::Reverse((p.timestamp, p.flow, run)));
            }
        }
        while let Some(std::cmp::Reverse((_, _, run))) = heap.pop() {
            packets.push(fronts[run].take().expect("heap entry implies a buffered front"));
            if let Some(next) = cursors[run].next() {
                heap.push(std::cmp::Reverse((next.timestamp, next.flow, run)));
                fronts[run] = Some(next);
            }
        }
        Trace { packets }
    }
}

/// Stable sort to the canonical `(timestamp, flow, seq)` order; `seq` is the
/// insertion index, supplied by stability.
fn sort_canonical(packets: &mut [PacketRecord]) {
    packets.sort_by_key(|p| (p.timestamp, p.flow));
}

/// A frozen, canonically ordered packet trace for one experiment run.
///
/// Produced by [`TraceRecorder::finish`]; read through [`Trace::view`] and
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
    /// Wraps a packet slice in the read view.
    pub fn new(packets: &'a [PacketRecord]) -> Self {
        TraceView { packets }
    }

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

    #[test]
    fn shard_zero_allocates_the_historical_sequential_ids() {
        let mut shard = TraceShard::new();
        assert_eq!(shard.allocate_flow(), FlowId(0));
        assert_eq!(shard.allocate_flow(), FlowId(1));
        assert_eq!(shard.allocate_flow(), FlowId(2));
    }

    #[test]
    fn shard_flow_ranges_are_disjoint() {
        let mut recorder = TraceRecorder::with_shards(3);
        let ids: Vec<FlowId> =
            recorder.shards_mut().iter_mut().map(|s| s.allocate_flow()).collect();
        assert_eq!(ids, vec![FlowId(0), FlowId(SHARD_FLOW_SPAN), FlowId(2 * SHARD_FLOW_SPAN)]);
        let again: Vec<FlowId> =
            recorder.shards_mut().iter_mut().map(|s| s.allocate_flow()).collect();
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
        let sorted = TraceRecorder::from_shards(vec![shard]).finish().into_packets();
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
        let reference = TraceRecorder::from_shards(vec![single]).finish().into_packets();

        let mut recorder = TraceRecorder::with_shards(3);
        for (i, pkts) in per_flow.iter().enumerate() {
            // Flow 0 and 3 land on shard 0: shard assignment must not matter.
            let shard = &mut recorder.shards_mut()[i % 3];
            for p in pkts {
                shard.record(p.clone());
            }
        }
        assert_eq!(recorder.finish().into_packets(), reference);
    }

    #[test]
    fn from_shards_accepts_any_shard_order() {
        let mut recorder = TraceRecorder::with_shards(2);
        let f0 = recorder.shards_mut()[0].allocate_flow();
        let f1 = recorder.shards_mut()[1].allocate_flow();
        recorder.shards_mut()[0].record(packet(f0, 20, 0));
        recorder.shards_mut()[1].record(packet(f1, 10, 0));
        let mut shards = recorder.into_shards();
        shards.reverse();
        let merged = TraceRecorder::from_shards(shards).finish();
        let view = merged.view();
        assert_eq!(view.len(), 2);
        assert_eq!(view.packets()[0].flow, f1);
        assert_eq!(view.packets()[1].flow, f0);
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
        assert_eq!(table.wire_bytes_total(), expected);
        assert_eq!(table.len(), 1);
    }

    #[test]
    fn empty_capture_edge_cases() {
        let shard = TraceShard::new();
        let view = shard.view();
        assert!(view.is_empty());
        assert_eq!(view.wire_bytes_total(), 0);
        assert!(view.sorted().is_empty());
        let trace = TraceRecorder::with_shards(4).finish();
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
