//! `netsim.*`, `trace.*` and `parallel.*`: the flow-level TCP model, the
//! sharded packet recorder and its analyses, and the fan-out helper.

use super::Bench;
use cloudsim_net::tcp::{ConnectionOptions, TcpConnection};
use cloudsim_net::{FaultSchedule, FaultSpec, HostId, Network, PathSpec, Simulator};
use cloudsim_trace::packet::{
    Direction, Endpoint, PacketRecord, TcpFlags, TransportProtocol, TCP_HEADER_BYTES,
};
use cloudsim_trace::series::{concurrency_peak, CumulativeSeries};
use cloudsim_trace::{
    FlowId, FlowKind, LatencyHistogram, SimDuration, SimTime, TraceRecorder, TraceShard,
};
use cloudsim_workload::seed::derive_seed;

/// Shards of the many-shard merge (the recorder of an eight-worker run).
const MANY_SHARDS: usize = 8;

pub fn run(b: &mut Bench) {
    netsim(b);
    trace(b);
    parallel(b);
}

/// A one-server topology behind a 50 ms, 50 Mbit/s path.
fn topology() -> (Network, HostId) {
    let mut net = Network::new();
    let host = net.add_server("layers.example", [10, 0, 0, 1], 443);
    net.set_path(host, PathSpec::symmetric(SimDuration::from_millis(50), 50_000_000));
    (net, host)
}

fn netsim(b: &mut Bench) {
    let (net, host) = topology();
    let seed = b.seed;
    let options = ConnectionOptions::https(FlowKind::Storage);
    let opened = |sim: &mut Simulator| TcpConnection::open(sim, &net, host, options, SimTime::ZERO);
    let think = SimDuration::from_millis(20);
    // One repetition makes enough transfers to take milliseconds, not
    // microseconds: `n` megabyte transfers, `light` small exchanges.
    let (n, light) = (b.sizes.transfers, b.sizes.transfers * 40);
    let count = n as f64;

    b.rate(
        "netsim.tcp_open_per_s",
        light as f64,
        || Simulator::new(seed),
        |mut sim| (0..light).map(|_| opened(&mut sim).established_at()).max(),
    );
    let connected = || {
        let mut sim = Simulator::new(seed);
        let conn = opened(&mut sim);
        (sim, conn)
    };
    b.rate("netsim.tcp_upload_1mb_per_s", count, connected, |(mut sim, mut conn)| {
        let mut t = conn.established_at();
        for _ in 0..n {
            t = conn.send(&mut sim, &net, t, 1_000_000);
        }
        t
    });
    b.rate("netsim.tcp_request_10kb_per_s", light as f64, connected, |(mut sim, mut conn)| {
        let mut t = conn.established_at();
        for _ in 0..light {
            t = conn.request(&mut sim, &net, t, 10_000, 500, think);
        }
        t
    });
    b.rate("netsim.tcp_fetch_1mb_per_s", count, connected, |(mut sim, mut conn)| {
        let mut t = conn.established_at();
        for _ in 0..n {
            t = conn.fetch(&mut sim, &net, t, 500, 1_000_000, think).completed_at;
        }
        t
    });
    // The faulted twin under a schedule whose only outage lies far beyond
    // the transfers: every send pays the schedule lookup, none is cut.
    let late = FaultSchedule::generate(
        &FaultSpec {
            horizon: SimDuration::from_secs(60),
            outages: 3,
            min_outage: SimDuration::from_secs(2),
            max_outage: SimDuration::from_secs(8),
        },
        seed,
    )
    .shifted(SimDuration::from_secs(1_000_000));
    b.rate("netsim.tcp_send_faulted_per_s", count, connected, |(mut sim, mut conn)| {
        let mut t = conn.established_at();
        for _ in 0..n {
            t = conn.send_faulted(&mut sim, &net, t, 1_000_000, &late).expect("no outage is near");
        }
        t
    });
    let spec = cloudsim_services::FleetFaults::standard().spec;
    let schedules = light as u64 * 2;
    b.rate(
        "netsim.fault_schedule_generate_per_s",
        schedules as f64,
        || (),
        |()| {
            (0..schedules)
                .map(|i| FaultSchedule::generate(&spec, derive_seed(seed, i, 0, 0)).windows.len())
                .sum::<usize>()
        },
    );

    // Exact: packets the model records for one 1 MB upload on an open
    // connection.
    let (mut sim, mut conn) = connected();
    let before = sim.trace().len();
    let start = conn.established_at();
    conn.send(&mut sim, &net, start, 1_000_000);
    b.set("netsim.packets_per_mb", (sim.trace().len() - before) as f64);
}

/// The `i`-th packet of a synthetic capture: five packets per flow, one
/// millisecond apart, like a fleet-scale commit.
fn packet(i: usize) -> PacketRecord {
    let flow = (i / 5) as u64;
    PacketRecord {
        timestamp: SimTime::from_micros(flow * 1_000 + (i % 5) as u64 * 10),
        src: Endpoint::from_octets(10, (flow >> 16) as u8, (flow >> 8) as u8, flow as u8, 40_000),
        dst: Endpoint::from_octets(198, 18, 0, 1, 443),
        protocol: TransportProtocol::Tcp,
        flags: if i.is_multiple_of(5) { TcpFlags::SYN } else { TcpFlags::ACK },
        payload_len: if i.is_multiple_of(5) { 0 } else { 1_400 },
        header_len: TCP_HEADER_BYTES,
        direction: Direction::Upload,
        flow: FlowId(flow),
        kind: FlowKind::Storage,
    }
}

fn trace(b: &mut Bench) {
    let n = b.sizes.packets;
    let count = n as f64;
    let packets: Vec<PacketRecord> = (0..n).map(packet).collect();

    b.rate(
        "trace.record_pkts_per_s",
        count,
        || {
            let mut shard = TraceShard::new();
            shard.reserve(n);
            shard
        },
        |mut shard| {
            for p in &packets {
                shard.record(p.clone());
            }
            shard
        },
    );
    // Packets land in shards flow by flow, as workers record whole commits.
    let sharded = |shards: usize| {
        let mut parts = TraceRecorder::with_shards(shards).into_shards();
        for p in &packets {
            parts[(p.flow.0 % shards as u64) as usize].record(p.clone());
        }
        parts
    };
    for (name, shards) in [
        ("trace.finish_merge_pkts_per_s_1shard", 1),
        ("trace.finish_merge_pkts_per_s_nshard", MANY_SHARDS),
    ] {
        b.rate(name, count, || sharded(shards), |parts| TraceRecorder::from_shards(parts).finish());
    }
    let merged = TraceRecorder::from_shards(sharded(MANY_SHARDS)).finish();
    b.rate("trace.flow_table_pkts_per_s", count, || (), |()| merged.view().flow_table());

    let events: Vec<(SimTime, f64)> =
        packets.iter().map(|p| (p.timestamp, p.payload_len as f64)).collect();
    b.rate("trace.series_points_per_s", count, || events.clone(), CumulativeSeries::from_events);
    let durations: Vec<SimDuration> = (0..n as u64)
        .map(|i| SimDuration::from_micros(derive_seed(b.seed, i, 0, 0) % 5_000_000))
        .collect();
    b.rate(
        "trace.hist_record_per_s",
        count,
        || (),
        |()| {
            let mut hist = LatencyHistogram::new();
            for &d in &durations {
                hist.record(d);
            }
            hist
        },
    );
    let intervals: Vec<(SimTime, SimTime)> = durations
        .iter()
        .enumerate()
        .map(|(i, &d)| {
            let start = SimTime::from_micros(i as u64 * 700);
            (start, start + d)
        })
        .collect();
    b.rate(
        "trace.concurrency_peak_intervals_per_s",
        count,
        || (),
        |()| concurrency_peak(&intervals),
    );
}

fn parallel(b: &mut Bench) {
    let workers = cloudsim_parallel::available_workers();
    // One repetition is a train of empty-work waves, each as wide as a
    // typical fleet-scale wave; the row is the cost of one wave.
    let (waves, width) = (b.sizes.transfers, 64);
    let per_wave_us = |secs: f64| secs * 1e6 / waves as f64;

    let s = b.time(
        "parallel.run_indexed_wave_us",
        waves as u64,
        || (),
        |()| {
            (0..waves)
                .map(|_| cloudsim_parallel::run_indexed(workers, width, || (), |(), k| k).len())
                .sum::<usize>()
        },
    );
    b.set_summary("parallel.run_indexed_wave_us", per_wave_us(s.median), s.n, s.iqr_share());
    let mut contexts = vec![(); workers];
    let s = b.time(
        "parallel.run_with_contexts_wave_us",
        waves as u64,
        || (),
        |()| {
            (0..waves)
                .map(|_| {
                    cloudsim_parallel::run_with_contexts(&mut contexts, width, |(), k| k).len()
                })
                .sum::<usize>()
        },
    );
    b.set_summary("parallel.run_with_contexts_wave_us", per_wave_us(s.median), s.n, s.iqr_share());
}
