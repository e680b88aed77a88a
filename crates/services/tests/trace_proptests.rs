//! Property tests for the sharded trace recorder `perf/` times and the
//! traced scale capture.
//!
//! The recorder's contract is the determinism invariant of the capture's
//! flow-id ranges: merging per-worker shards by the
//! `(timestamp, flow, seq)` total order reconstructs the exact packet
//! sequence a sequential single-shard capture produces, for arbitrary
//! packet interleavings, arbitrary flow-to-shard routings and any worker
//! count.
//!
//! The traced fleet-scale runner emits its capture straight in that order,
//! after the run, from the run's events and intervals. Its reference here
//! records each commit's packets in event order, the way a recorder
//! observing the run would, and sorts them stably by `(timestamp, flow)`;
//! the two must agree packet for packet, and a digest over every field of
//! two pinned captures must keep the value it had before the emission.

use cloudsim_services::scale::{run_population, run_population_traced, ScaleRun, ScaleSpec};
use cloudsim_storage::{GcPolicy, ObjectStore};
use cloudsim_trace::packet::{
    Direction, Endpoint, PacketRecord, TcpFlags, TransportProtocol, TCP_HEADER_BYTES,
};
use cloudsim_trace::{FlowId, FlowKind, SimDuration, SimTime, TraceRecorder, TraceShard};
use proptest::prelude::*;

fn packet(flow: FlowId, t_us: u64, payload: u32) -> PacketRecord {
    PacketRecord {
        timestamp: SimTime::from_micros(t_us),
        src: Endpoint::from_octets(10, 0, 0, 2, 50_000),
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

/// Appends the packet skeleton of client `i`'s commit `k` in event order:
/// the SYN at the transfer start, then one payload packet per file at its
/// analytic completion instant.
fn record_commit_packets(
    packets: &mut Vec<PacketRecord>,
    spec: &ScaleSpec,
    i: usize,
    k: usize,
    start: SimTime,
) {
    let flow = spec.commit_flow(i, k);
    let link = spec.link(i);
    let src =
        Endpoint::from_octets(10, (i >> 16) as u8, (i >> 8) as u8, i as u8, 40_000 + k as u16);
    let dst = Endpoint::from_octets(198, 18, 0, 1, 443);
    let packet = |timestamp, flags, payload_len| PacketRecord {
        timestamp,
        src,
        dst,
        protocol: TransportProtocol::Tcp,
        flags,
        payload_len,
        header_len: TCP_HEADER_BYTES,
        direction: Direction::Upload,
        flow,
        kind: FlowKind::Storage,
    };
    packets.push(packet(start, TcpFlags::SYN, 0));
    for f in 0..spec.files_per_commit {
        let sent = start
            + link.access_rtt
            + SimDuration::for_transmission((f as u64 + 1) * spec.file_size, link.up_bandwidth);
        packets.push(packet(sent, TcpFlags::ACK, spec.file_size as u32));
    }
}

/// The capture of `run` as an observer of the run would record it: every
/// commit in event order — `(instant, client, round)` — at the start its
/// logged interval names, then one stable sort by `(timestamp, flow)`.
fn reference_capture(spec: &ScaleSpec, run: &ScaleRun) -> Vec<PacketRecord> {
    let mut events: Vec<(SimTime, usize, usize)> = (0..spec.clients)
        .flat_map(|i| (0..spec.commits_per_client).map(move |k| (spec.commit_at(i, k), i, k)))
        .collect();
    events.sort_unstable();
    assert_eq!(events.len(), run.intervals.len(), "one interval per commit");
    let mut packets = Vec::new();
    for (&(_, i, k), &(start, _)) in events.iter().zip(&run.intervals) {
        record_commit_packets(&mut packets, spec, i, k, start);
    }
    packets.sort_by_key(|p| (p.timestamp, p.flow));
    packets
}

/// FNV-1a over every field of every packet, in capture order.
fn capture_digest(packets: &[PacketRecord]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |word: u64| {
        for byte in word.to_le_bytes() {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for p in packets {
        let flags = [p.flags.syn, p.flags.ack, p.flags.fin, p.flags.rst];
        eat(p.timestamp.as_micros());
        eat((u64::from(p.src.addr) << 16) | u64::from(p.src.port));
        eat((u64::from(p.dst.addr) << 16) | u64::from(p.dst.port));
        eat(p.protocol as u64);
        eat(flags.iter().enumerate().map(|(bit, &set)| u64::from(set) << bit).sum());
        eat(u64::from(p.payload_len));
        eat(u64::from(p.header_len));
        eat(p.direction as u64);
        eat(p.flow.0);
        eat(p.kind as u64);
    }
    hash
}

/// The two pinned captures, each with its digest as computed on commit
/// 434d3d3b75f46dd151958508a89f1463c37b3acc (where packets were recorded in event order and sorted when
/// the trace was frozen): a 2 000-client population at the default shape
/// (two commits of four 64 kB files), and 500 clients × 7 commits × 3
/// one-byte files, whose files complete within a microsecond of each
/// other and tie on timestamp inside their flow.
#[test]
fn traced_scale_capture_keeps_its_pinned_digest() {
    let pinned = [
        (ScaleSpec::new(2_000).with_seed(12), 0xe328_b4fa_41bc_5065),
        (ScaleSpec::new(500).with_commits(7).with_files(3, 1).with_seed(12), 0x5bed_9eeb_27de_0c6d),
    ];
    for (spec, expected) in pinned {
        let (run, trace) =
            run_population_traced(&spec, ObjectStore::with_policy(GcPolicy::MarkSweep));
        let view = trace.view();
        let packets = view.packets();
        let ties = packets.windows(2).filter(|w| w[0].timestamp == w[1].timestamp).count();
        let digest = capture_digest(packets);
        println!(
            "{} clients × {} commits × {} files of {} B: {} packets, {} flows, \
             {ties} equal-timestamp neighbours, digest {digest:#018x}",
            spec.clients,
            spec.commits_per_client,
            spec.files_per_commit,
            spec.file_size,
            packets.len(),
            view.flow_table().len(),
        );
        assert_eq!(packets.len() as u64, run.commits * (1 + spec.files_per_commit as u64));
        assert_eq!(digest, expected, "the capture of {spec:?} moved");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// For an arbitrary interleaved packet stream (each flow's packets kept
    /// in stream order, flows routed whole to arbitrary shards), the k-shard
    /// merge is bit-identical to recording the same stream on one shard.
    #[test]
    fn sharded_merge_equals_single_shard_capture(
        shards in 1usize..8,
        // Per-flow timestamp draws; payloads derive from (flow, seq) so
        // every packet is distinguishable.
        flows in proptest::collection::vec(
            proptest::collection::vec(0u64..200, 1..6),
            1..16,
        ),
        routing in proptest::collection::vec(0usize..8, 1..17),
        interleave in proptest::collection::vec(0usize..16, 0..48),
    ) {
        // Expand the draws into per-flow packet sequences. Timestamps are
        // raw draws over a narrow range — ties within and across flows are
        // likely, which is exactly what exercises the
        // (timestamp, flow, seq) merge key.
        let per_flow: Vec<Vec<PacketRecord>> = flows
            .iter()
            .enumerate()
            .map(|(i, draws)| {
                draws
                    .iter()
                    .enumerate()
                    .map(|(s, &t)| packet(FlowId(i as u64), t, (i * 100 + s) as u32))
                    .collect()
            })
            .collect();

        // One global interleaving: `interleave` picks which flow emits its
        // next pending packet; leftovers drain in flow order.
        let mut cursors = vec![0usize; per_flow.len()];
        let mut stream: Vec<(usize, PacketRecord)> = Vec::new();
        for &pick in &interleave {
            let i = pick % per_flow.len();
            if cursors[i] < per_flow[i].len() {
                stream.push((i, per_flow[i][cursors[i]].clone()));
                cursors[i] += 1;
            }
        }
        for (i, pkts) in per_flow.iter().enumerate() {
            while cursors[i] < pkts.len() {
                stream.push((i, pkts[cursors[i]].clone()));
                cursors[i] += 1;
            }
        }

        // Reference: the whole stream on a single shard.
        let mut single = TraceShard::new();
        for (_, p) in &stream {
            single.record(p.clone());
        }
        let reference = single.freeze().into_packets();

        // Sharded: the same stream routed flow-whole to arbitrary shards.
        let mut parts = TraceRecorder::with_shards(shards).into_shards();
        for (i, p) in &stream {
            let shard = routing[*i % routing.len()] % shards;
            parts[shard].record(p.clone());
        }
        let merged = TraceRecorder::from_shards(parts).finish();
        prop_assert_eq!(merged.into_packets(), reference);
    }

    /// The traced fleet-scale runner end to end: the emitted capture
    /// equals the event-order reference packet for packet, and the run data
    /// matches the traceless runner exactly. The draws cover one-byte files
    /// (timestamp ties inside a flow), many commits of multi-megabyte files
    /// (transfers that start after their event on a busy link) and all four
    /// links.
    #[test]
    fn traced_scale_capture_equals_the_event_order_reference(
        seed in 0u64..1_000_000,
        clients in 4usize..40,
        commits in 1usize..12,
        files in 1usize..6,
        size in 0usize..3,
    ) {
        let file_size = [1, 64 * 1024, 5 << 20][size];
        let spec = ScaleSpec::new(clients)
            .with_seed(seed)
            .with_commits(commits)
            .with_files(files, file_size);
        let (run, trace) = run_population_traced(&spec, ObjectStore::with_policy(GcPolicy::MarkSweep));
        let reference = reference_capture(&spec, &run);
        let packets = trace.view().packets();
        prop_assert_eq!(packets.len(), reference.len());
        for (n, (emitted, recorded)) in packets.iter().zip(&reference).enumerate() {
            prop_assert_eq!((n, emitted), (n, recorded));
        }

        let plain = run_population(&spec, ObjectStore::with_policy(GcPolicy::MarkSweep));
        prop_assert_eq!(run.commits, plain.commits);
        prop_assert_eq!(run.logical_bytes, plain.logical_bytes);
        prop_assert_eq!(&run.intervals, &plain.intervals);
        prop_assert_eq!(run.aggregate(), plain.aggregate());
    }
}
