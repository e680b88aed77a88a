//! What only `perf/` calls: the sharded recorder its `trace.finish_merge_*`
//! rows time. Every capture in the library records into one
//! [`TraceShard`] and freezes it ([`TraceShard::freeze`]). The recorder is
//! re-exported at the crate root, where `perf/` imports it. No library code
//! outside a test calls into this module (`tests/repo_rules.rs` checks);
//! deleting it and re-pointing `perf/`'s imports is ROADMAP item 1c.

use crate::capture::{Trace, TraceShard};

/// Hands out worker shards, each with its own flow-id range, and merges
/// them back into one frozen [`Trace`].
#[derive(Debug, Clone)]
pub struct TraceRecorder {
    shards: Vec<TraceShard>,
}

impl TraceRecorder {
    /// `shards` shards (at least one), shard `i` from [`TraceShard::with_index`].
    pub fn with_shards(shards: usize) -> Self {
        TraceRecorder { shards: (0..shards.max(1)).map(TraceShard::with_index).collect() }
    }

    /// A recorder over `shards`, in any order.
    pub fn from_shards(shards: Vec<TraceShard>) -> Self {
        TraceRecorder { shards }
    }

    /// The shards, one per worker.
    pub fn into_shards(self) -> Vec<TraceShard> {
        self.shards
    }

    /// Appends every shard's packets onto the first shard's buffer and
    /// freezes that. Flows are shard-private, so a `(timestamp, flow)` tie
    /// only occurs inside one shard, where the stable sort keeps insertion
    /// order: k shards freeze to what one shard holding their packets
    /// freezes to, in any shard order.
    pub fn finish(self) -> Trace {
        let mut shards = self.shards.into_iter();
        let mut first = shards.next().unwrap_or_default();
        shards.for_each(|shard| first.packets.extend(shard.packets));
        first.freeze()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::{FlowId, FlowKind};
    use crate::packet::{Direction, Endpoint, PacketRecord, TcpFlags, TransportProtocol};
    use crate::time::SimTime;

    fn packet(flow: FlowId, t_us: u64) -> PacketRecord {
        PacketRecord {
            timestamp: SimTime::from_micros(t_us),
            src: Endpoint::from_octets(192, 168, 1, 10, 50000),
            dst: Endpoint::from_octets(10, 0, 0, 1, 443),
            protocol: TransportProtocol::Tcp,
            flags: TcpFlags::ACK,
            payload_len: t_us as u32,
            header_len: 40,
            direction: Direction::Upload,
            flow,
            kind: FlowKind::Storage,
        }
    }

    /// Ten packets per shard over two flows each, timestamps falling and
    /// tied within and across shards.
    fn record(shards: &mut [TraceShard]) {
        for shard in shards {
            let flows = [shard.allocate_flow(), shard.allocate_flow()];
            for k in 0..10u64 {
                shard.record(packet(flows[k as usize % 2], 100 - 10 * (k / 2)));
            }
        }
    }

    #[test]
    fn the_recorder_freezes_what_one_shard_freezes() {
        for requested in [0, 1, 200] {
            let mut shards = TraceRecorder::with_shards(requested).into_shards();
            assert_eq!(shards.len(), requested.max(1));
            record(&mut shards);
            let mut one = TraceShard::new();
            shards.iter().flat_map(|s| s.view().packets()).for_each(|p| one.record(p.clone()));
            let honest = one.freeze();
            let pinned = TraceRecorder::from_shards(shards).finish();
            assert_eq!(pinned.into_packets(), honest.into_packets(), "{requested} shards");
        }
    }
}
