//! Flow-level TCP connection model with per-packet trace emission.
//!
//! The model captures the aspects of TCP that drive the paper's results:
//!
//! * connection establishment costs one RTT (plus two more for TLS), which is
//!   what penalises clients that open one connection per file (§4.2, Fig. 3);
//! * slow start makes short transfers latency-bound: a 100 kB upload to a
//!   160 ms-away server takes several round trips regardless of bandwidth
//!   (§5.2);
//! * once the congestion window covers the bandwidth-delay product the
//!   transfer becomes bandwidth-bound;
//! * the congestion window persists across requests on the same connection,
//!   so connection reuse (Dropbox's bundling) avoids repeatedly paying the
//!   slow-start ramp.
//!
//! Every data segment and acknowledgement is recorded in the experiment trace
//! with the timestamp at which the *test computer* would have captured it,
//! exactly like the tcpdump vantage point of the original testbed.

use crate::fault::FaultSchedule;
use crate::host::HostId;
use crate::network::Network;
use crate::path::PathSpec;
use crate::sim::Simulator;
use crate::tls::TlsProfile;
use cloudsim_trace::packet::{MSS, TCP_HEADER_BYTES};
use cloudsim_trace::{
    Direction, Endpoint, FlowId, FlowKind, PacketRecord, SimDuration, SimTime, TcpFlags,
    TransportProtocol,
};

/// Initial congestion window in segments (RFC 6928, already deployed in 2013).
pub const INITIAL_CWND_SEGMENTS: u32 = 10;

/// Upper bound on the congestion window in segments (corresponds to the
/// default 4 MB maximum socket buffers of the era).
pub const MAX_CWND_SEGMENTS: u32 = 2800;

/// Timing of one downstream-heavy exchange performed by
/// [`TcpConnection::fetch`]: when the request went out, when the first
/// response byte arrived (the restore suite's time-to-first-byte) and when
/// the download completed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DownloadOutcome {
    /// When the request started (no earlier than the connection was free).
    pub requested_at: SimTime,
    /// When the first response payload byte reached the client.
    pub first_byte_at: SimTime,
    /// When the last response byte reached the client.
    pub completed_at: SimTime,
}

/// The shape of one ranged GET driven by [`TcpConnection::fetch_faulted`]:
/// the arguments [`TcpConnection::fetch`] takes one by one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fetch {
    /// Request payload uploaded before the server answers.
    pub request_bytes: u64,
    /// Response payload downloaded.
    pub download_bytes: u64,
    /// Server processing time between the two.
    pub server_think: SimDuration,
}

/// A transfer cut mid-flight by a link outage. The connection is dead after
/// this: the socket closed without a FIN exchange, so a session layer must
/// reopen (and pay the handshake again) before resuming from
/// [`TransferInterrupted::bytes_acked`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransferInterrupted {
    /// Payload bytes the application can rely on: acknowledged bytes for an
    /// upload, received bytes for a download. Everything past this offset
    /// must be re-driven.
    pub bytes_acked: u64,
    /// Payload bytes that actually travelled before the cut (wire cost).
    /// `bytes_sent - bytes_acked` is the wasted share of the attempt: bytes
    /// in flight when the link died.
    pub bytes_sent: u64,
    /// Virtual time from the operation's effective start to the cut.
    pub elapsed: SimDuration,
    /// The absolute instant the link went down under the transfer.
    pub interrupted_at: SimTime,
}

/// What one bounded data run (or whole transfer) achieved before a cutoff.
#[derive(Debug, Clone, Copy)]
struct RunOutcome {
    /// Send time of the last emitted data segment.
    last: SimTime,
    /// Data segments actually emitted.
    segments: u64,
    /// Payload bytes actually emitted (wire cost, wasted or not).
    sent_bytes: u64,
    /// Payload bytes the peer acknowledged before the cutoff (uploads) or
    /// the client received before the cutoff (downloads).
    acked_bytes: u64,
    /// True when the cutoff suppressed at least one segment of the run.
    truncated: bool,
}

/// What stays fixed across the data legs of one operation: the path, the
/// RTT sampled for it, its effective start and the first instant an outage
/// can cut it (`None`: nothing can).
struct Op {
    path: PathSpec,
    start: SimTime,
    rtt: SimDuration,
    cut: Option<SimTime>,
}

impl Op {
    /// True when `t` lies beyond the operation's cut.
    fn cuts(&self, t: SimTime) -> bool {
        self.cut.is_some_and(|c| t > c)
    }
}

/// Why the fault-free operations may unwrap the faulted bodies they run.
const NEVER_CUT: &str = "an empty outage schedule never cuts a transfer";

/// Options for opening a connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConnectionOptions {
    /// Whether the connection carries TLS (HTTPS). Dropbox's notification
    /// protocol and some Wuala storage operations use plain HTTP (§3.1).
    pub tls: bool,
    /// Traffic class recorded for every packet of this connection.
    pub kind: FlowKind,
}

impl ConnectionOptions {
    /// HTTPS connection of the given traffic class.
    pub fn https(kind: FlowKind) -> Self {
        ConnectionOptions { tls: true, kind }
    }

    /// Plain HTTP connection of the given traffic class.
    pub fn http(kind: FlowKind) -> Self {
        ConnectionOptions { tls: false, kind }
    }
}

/// One TCP (optionally TLS) connection between the test computer and a server.
#[derive(Debug, Clone)]
pub struct TcpConnection {
    flow: FlowId,
    kind: FlowKind,
    tls: bool,
    tls_profile: TlsProfile,
    client: Endpoint,
    server: Endpoint,
    host: HostId,
    opened_at: SimTime,
    established_at: SimTime,
    /// Congestion window (in segments) carried over between requests.
    cwnd: u32,
    /// The earliest time the connection is free for the next operation.
    free_at: SimTime,
    closed: bool,
}

impl TcpConnection {
    /// Opens a connection to `host`, starting the three-way handshake at
    /// `start` (plus the TLS handshake when requested). Packets are recorded;
    /// the connection is usable from [`TcpConnection::established_at`].
    pub fn open(
        sim: &mut Simulator,
        net: &Network,
        host: HostId,
        opts: ConnectionOptions,
        start: SimTime,
    ) -> TcpConnection {
        let path = net.path(host);
        let server = net.host(host).unwrap_or_else(|| panic!("unknown host {host}")).endpoint;
        let flow = sim.trace_mut().allocate_flow();
        // Ephemeral port derived from the flow id keeps connections distinct
        // without requiring mutable access to the topology. Modulo the full
        // IANA ephemeral span so a fleet client opening thousands of
        // connections cycles through 49152..=65535 without ever exceeding
        // u16::MAX (49152 + span-1 == 65535 exactly).
        let span = (u16::MAX - crate::network::EPHEMERAL_PORT_MIN) as u64 + 1;
        let client_port = crate::network::EPHEMERAL_PORT_MIN + (flow.0 % span) as u16;
        let client = Endpoint::new(net.client().endpoint.addr, client_port);

        let mut conn = TcpConnection {
            flow,
            kind: opts.kind,
            tls: opts.tls,
            tls_profile: TlsProfile::default(),
            client,
            server,
            host,
            opened_at: start,
            established_at: start,
            cwnd: INITIAL_CWND_SEGMENTS,
            free_at: start,
            closed: false,
        };

        let rtt = path.sample_rtt(sim.rng());
        let one_way = rtt / 2;

        // TCP three-way handshake: SYN out, SYN-ACK back, ACK out.
        conn.emit(sim, start, Direction::Upload, TcpFlags::SYN, 0, 0);
        conn.emit(sim, start + rtt, Direction::Download, TcpFlags::SYN_ACK, 0, 0);
        conn.emit(sim, start + rtt, Direction::Upload, TcpFlags::ACK, 0, 0);
        let mut established = start + rtt;

        if opts.tls {
            // Full TLS handshake: client flight, server flight (certificates),
            // client Finished — two extra round trips.
            let tls = conn.tls_profile;
            conn.emit_stream(
                sim,
                established,
                Direction::Upload,
                tls.client_handshake_bytes as u64 / 2,
                path.effective_up_bandwidth(),
                0,
            );
            conn.emit_stream(
                sim,
                established + rtt,
                Direction::Download,
                tls.server_handshake_bytes as u64,
                path.effective_down_bandwidth(),
                0,
            );
            conn.emit_stream(
                sim,
                established + rtt,
                Direction::Upload,
                tls.client_handshake_bytes as u64 / 2,
                path.effective_up_bandwidth(),
                0,
            );
            established += rtt.saturating_mul(tls.handshake_rtts as u64);
        }

        conn.established_at = established;
        conn.free_at = established;
        sim.advance_to(established + one_way);
        conn
    }

    /// The flow id of this connection in the experiment trace.
    pub fn flow(&self) -> FlowId {
        self.flow
    }

    /// The server this connection terminates at.
    pub fn host(&self) -> HostId {
        self.host
    }

    /// Time at which the client sent the initial SYN.
    pub fn opened_at(&self) -> SimTime {
        self.opened_at
    }

    /// Time at which the transport (and TLS) handshake completed.
    pub fn established_at(&self) -> SimTime {
        self.established_at
    }

    /// The earliest time the connection is idle and can start a new operation.
    pub fn free_at(&self) -> SimTime {
        self.free_at
    }

    /// Whether the connection has been closed.
    pub fn is_closed(&self) -> bool {
        self.closed
    }

    /// Performs an application request/response exchange: uploads
    /// `upload_bytes` of payload, waits `server_think`, then downloads
    /// `download_bytes`. Returns the time the last response byte reaches the
    /// client. The exchange starts no earlier than `start` and no earlier than
    /// the connection is free.
    pub fn request(
        &mut self,
        sim: &mut Simulator,
        net: &Network,
        start: SimTime,
        upload_bytes: u64,
        download_bytes: u64,
        server_think: SimDuration,
    ) -> SimTime {
        assert!(!self.closed, "request on a closed connection");
        // Historical behaviour of `request`: the in-flight bound of the
        // response is the *upload*-direction BDP (a conservative
        // receive-window assumption); `fetch` windows it against the
        // download direction instead.
        let get = Fetch { request_bytes: upload_bytes, download_bytes, server_think };
        self.exchange(sim, net, start, get, PathSpec::bdp_bytes_up, &FaultSchedule::NONE)
            .expect(NEVER_CUT)
            .completed_at
    }

    /// Performs a downstream-heavy exchange — the storage GET of the restore
    /// path: uploads `request_bytes` of request payload, waits
    /// `server_think`, then downloads `download_bytes` with the window bound
    /// by the *download*-direction bandwidth-delay product. On an asymmetric
    /// link this is what lets the server actually fill the fat downstream
    /// pipe (an ADSL client restores ~8× faster than it uploads); on
    /// symmetric paths it behaves exactly like [`TcpConnection::request`].
    /// Returns the request/first-byte/completion timing.
    pub fn fetch(
        &mut self,
        sim: &mut Simulator,
        net: &Network,
        start: SimTime,
        request_bytes: u64,
        download_bytes: u64,
        server_think: SimDuration,
    ) -> DownloadOutcome {
        let get = Fetch { request_bytes, download_bytes, server_think };
        self.fetch_faulted(sim, net, start, get, &FaultSchedule::NONE).expect(NEVER_CUT)
    }

    /// Uploads `bytes` of payload and waits for the final acknowledgement.
    /// Returns the time the acknowledgement of the last byte reaches the
    /// client.
    pub fn send(
        &mut self,
        sim: &mut Simulator,
        net: &Network,
        start: SimTime,
        bytes: u64,
    ) -> SimTime {
        self.send_faulted(sim, net, start, bytes, &FaultSchedule::NONE).expect(NEVER_CUT)
    }

    /// The upload-and-ack timeline behind [`TcpConnection::send`], under a
    /// link-outage schedule. When an outage window cuts the link
    /// mid-upload, the transfer stops at the cut, the connection dies (no
    /// FIN — the socket just goes dark) and a typed [`TransferInterrupted`]
    /// reports how many bytes the server had acknowledged. `send` is this
    /// with [`FaultSchedule::NONE`].
    pub fn send_faulted(
        &mut self,
        sim: &mut Simulator,
        net: &Network,
        start: SimTime,
        bytes: u64,
        faults: &FaultSchedule,
    ) -> Result<SimTime, TransferInterrupted> {
        assert!(!self.closed, "send on a closed connection");
        let op = self.begin(sim, net, start, faults)?;
        let bdp = op.path.bdp_bytes_up();
        let up = self.transfer(sim, &op, op.start, bytes, Direction::Upload, bdp);
        let acked_at = up.last + op.rtt;
        // Acked payload already implies its acks beat the cut; only a bare
        // zero-byte probe has to check its one round trip.
        if up.acked_bytes < bytes || (bytes == 0 && op.cuts(acked_at)) {
            return Err(self.interrupt(sim, op.start, op.cut, up.acked_bytes, up.sent_bytes));
        }
        self.free_at = acked_at;
        sim.advance_to(acked_at);
        Ok(acked_at)
    }

    /// [`TcpConnection::fetch`] under a link-outage schedule. A cut during
    /// the request phase interrupts with zero bytes; a cut during the
    /// response phase interrupts with the response bytes received so far —
    /// the offset a ranged re-fetch resumes from. `fetch` is this with
    /// [`FaultSchedule::NONE`].
    pub fn fetch_faulted(
        &mut self,
        sim: &mut Simulator,
        net: &Network,
        start: SimTime,
        get: Fetch,
        faults: &FaultSchedule,
    ) -> Result<DownloadOutcome, TransferInterrupted> {
        assert!(!self.closed, "fetch on a closed connection");
        self.exchange(sim, net, start, get, PathSpec::bdp_bytes_down, faults)
    }

    /// The request/response timeline behind `request`, `fetch` and
    /// `fetch_faulted`: upload leg, server think, download leg windowed
    /// against `down_bdp` of the path.
    fn exchange(
        &mut self,
        sim: &mut Simulator,
        net: &Network,
        start: SimTime,
        get: Fetch,
        down_bdp: fn(&PathSpec) -> u64,
        faults: &FaultSchedule,
    ) -> Result<DownloadOutcome, TransferInterrupted> {
        let op = self.begin(sim, net, start, faults)?;
        let one_way = op.rtt / 2;

        // Upload leg: the last byte arrives at the server one-way after the
        // last segment leaves the client, and a request must fully reach
        // the server before the cut for the response to ever start. (A
        // zero-byte request has nothing to lose; its cut shows below.)
        let bdp = op.path.bdp_bytes_up();
        let up = self.transfer(sim, &op, op.start, get.request_bytes, Direction::Upload, bdp);
        let at_server = up.last + one_way;
        if get.request_bytes > 0 && (up.truncated || op.cuts(at_server)) {
            return Err(self.interrupt(sim, op.start, op.cut, 0, up.sent_bytes));
        }

        // Download leg: timestamps are recorded at the client, so the first
        // response byte shows up one-way after the server starts sending.
        let response_start = at_server + get.server_think;
        let first_byte_at = response_start + one_way;
        let bdp = down_bdp(&op.path);
        let down =
            self.transfer(sim, &op, response_start, get.download_bytes, Direction::Download, bdp);
        let completed_at = down.last + one_way;
        if down.acked_bytes < get.download_bytes
            || (get.download_bytes == 0 && op.cuts(first_byte_at))
        {
            let sent = get.request_bytes + down.sent_bytes;
            return Err(self.interrupt(sim, op.start, op.cut, down.acked_bytes, sent));
        }

        self.free_at = completed_at;
        sim.advance_to(completed_at);
        Ok(DownloadOutcome { requested_at: op.start, first_byte_at, completed_at })
    }

    /// The prelude every operation shares: queue behind the connection's
    /// previous operation, find the outage that can cut this one — failing
    /// on the spot, at zero wire cost, when the link is already down (the
    /// attempt still costs the retry budget upstream) — and only then
    /// sample the operation's RTT, the draw order the baselines pin.
    fn begin(
        &mut self,
        sim: &mut Simulator,
        net: &Network,
        start: SimTime,
        faults: &FaultSchedule,
    ) -> Result<Op, TransferInterrupted> {
        let start = start.max(self.free_at);
        let cut = faults.first_cut_at_or_after(start);
        if cut.is_some_and(|c| c <= start) {
            return Err(self.interrupt(sim, start, cut, 0, 0));
        }
        let path = net.path(self.host);
        let rtt = path.sample_rtt(sim.rng());
        Ok(Op { path, start, rtt, cut })
    }

    /// Kills the connection at the instant the link went down under an
    /// operation that `started` earlier (or, for a link already down, at
    /// `started` itself): no FIN exchange travels (nothing can), the socket
    /// is simply dead and any later operation must open a fresh connection.
    fn interrupt(
        &mut self,
        sim: &mut Simulator,
        started: SimTime,
        cut: Option<SimTime>,
        bytes_acked: u64,
        bytes_sent: u64,
    ) -> TransferInterrupted {
        let at = cut.map_or(started, |c| c.max(started));
        self.closed = true;
        self.free_at = at;
        sim.advance_to(at);
        TransferInterrupted {
            bytes_acked,
            bytes_sent,
            elapsed: at.saturating_since(started),
            interrupted_at: at,
        }
    }

    /// Closes the connection with a FIN exchange at `time` (or when the
    /// connection becomes free, whichever is later).
    pub fn close(&mut self, sim: &mut Simulator, net: &Network, time: SimTime) -> SimTime {
        if self.closed {
            return self.free_at;
        }
        let path = net.path(self.host);
        let rtt = path.sample_rtt(sim.rng());
        let t = time.max(self.free_at);
        self.emit(sim, t, Direction::Upload, TcpFlags::FIN_ACK, 0, 0);
        self.emit(sim, t + rtt, Direction::Download, TcpFlags::FIN_ACK, 0, 0);
        self.emit(sim, t + rtt, Direction::Upload, TcpFlags::ACK, 0, 0);
        self.closed = true;
        self.free_at = t + rtt;
        sim.advance_to(t + rtt);
        self.free_at
    }

    /// The transfer engine behind every data leg: sends `bytes` of payload
    /// in one direction starting at `start`, recording the congestion-
    /// window-shaped segment schedule and one acknowledgement per two
    /// segments, with at most `bdp_bytes` in flight, and stopping at the
    /// operation's cut (a link outage) if it has one. `last` of the outcome
    /// is the time the last data segment is *sent* by the transmitting side
    /// (client time base: upload segments are stamped when sent, download
    /// segments when received); zero bytes send nothing and leave it at
    /// `start`. Without a cut the emitted packets and returned times are
    /// the historical unbounded transfer's — the bit-identity contract the
    /// committed baselines rely on.
    fn transfer(
        &mut self,
        sim: &mut Simulator,
        op: &Op,
        start: SimTime,
        bytes: u64,
        direction: Direction,
        bdp_bytes: u64,
    ) -> RunOutcome {
        let (path, rtt) = (&op.path, op.rtt);
        let bandwidth = match direction {
            Direction::Upload => path.effective_up_bandwidth(),
            Direction::Download => path.effective_down_bandwidth(),
        };
        let seg_payload = MSS as u64;
        let total_segments = bytes.div_ceil(seg_payload);
        let seg_tx = SimDuration::for_transmission(seg_payload, bandwidth);
        let bdp_segments = bdp_bytes.max(1).div_ceil(seg_payload).max(1) as u32;

        let mut remaining = total_segments;
        let mut sent_bytes = 0u64;
        let mut acked_bytes = 0u64;
        let mut truncated = false;
        let mut cwnd = self.cwnd;
        let mut t = start;
        let mut last_sent = start;

        while remaining > 0 {
            let window = (cwnd as u64).min(remaining);
            let window_tx = seg_tx.saturating_mul(window);

            let run = if window_tx >= rtt || cwnd >= bdp_segments.min(MAX_CWND_SEGMENTS) {
                // The pipe is full: the rest of the transfer streams at line
                // rate, ack-clocked, with no idle gaps.
                let run = self.emit_data_run(sim, op, t, direction, bytes - sent_bytes, seg_tx);
                cwnd = cwnd.max(bdp_segments).min(MAX_CWND_SEGMENTS);
                run
            } else {
                // Slow-start round: `window` segments paced across the round
                // (ack-clocked senders spread their window over the RTT), then
                // the window grows for the next round. Pacing also prevents
                // slow-start rounds from looking like chunk-boundary pauses to
                // the throughput analyzer.
                let run_bytes = (window * seg_payload).min(bytes - sent_bytes);
                let spacing = seg_tx.max(rtt / (window + 1));
                let run = self.emit_data_run(sim, op, t, direction, run_bytes, spacing);
                cwnd = (cwnd * 2).min(MAX_CWND_SEGMENTS);
                t = t + rtt.max(spacing.saturating_mul(window)) + seg_tx;
                run
            };
            remaining -= run.segments.min(remaining);
            if run.segments > 0 {
                last_sent = run.last;
            }
            sent_bytes += run.sent_bytes;
            acked_bytes += run.acked_bytes;

            // Seeded per-segment drop mode: each emitted segment draws a
            // drop at the path's loss rate; drops come back one RTT later
            // as a timeout-style retransmission tail that costs wire bytes
            // and delays everything after it. Lossless paths (or the mode
            // switched off) never reach the RNG, so they replay the
            // historical schedule bit-identically.
            if path.segment_drops && path.loss > 0.0 && run.segments > 0 {
                let mut drops = 0u64;
                for _ in 0..run.segments {
                    if sim.rng().chance(path.loss) {
                        drops += 1;
                    }
                }
                if drops > 0 {
                    let retrans_bytes = (drops * seg_payload).min(run.sent_bytes.max(1));
                    let retrans = self.emit_data_run(
                        sim,
                        op,
                        run.last + rtt,
                        direction,
                        retrans_bytes,
                        seg_tx,
                    );
                    // Retransmitted bytes are pure wire overhead: they do
                    // not advance sent/acked payload accounting, only time.
                    if retrans.segments > 0 {
                        last_sent = last_sent.max(retrans.last);
                        t = t.max(retrans.last + seg_tx);
                    }
                }
            }

            // The cutoff truncated this run: nothing further can be sent.
            if run.truncated {
                truncated = true;
                break;
            }
        }

        self.cwnd = cwnd;
        RunOutcome {
            last: last_sent,
            segments: total_segments - remaining,
            sent_bytes,
            acked_bytes,
            truncated,
        }
    }

    /// Emits `run_bytes` of payload as MSS-sized data segments starting at
    /// `start`, spaced `spacing` apart, plus one ACK per two segments in the
    /// opposite direction. Segments (and reverse ACKs) that would land
    /// after the operation's cut are suppressed: the link is down.
    fn emit_data_run(
        &mut self,
        sim: &mut Simulator,
        op: &Op,
        start: SimTime,
        direction: Direction,
        run_bytes: u64,
        spacing: SimDuration,
    ) -> RunOutcome {
        let (rtt, cutoff) = (op.rtt, op.cut);
        let seg_payload = MSS as u64;
        // Acked-byte accounting: an uploaded segment is safe once its ack
        // returned (one RTT after the send); a downloaded segment is safe
        // the instant the client captured it.
        let ack_lag = match direction {
            Direction::Upload => rtt,
            Direction::Download => SimDuration::ZERO,
        };
        let mut remaining = run_bytes;
        let mut last = start;
        let mut emitted = 0u64;
        let mut sent = 0u64;
        let mut acked = 0u64;
        let mut truncated = false;
        for i in 0..run_bytes.div_ceil(seg_payload) {
            let payload = remaining.min(seg_payload) as u32;
            let ts = start + spacing.saturating_mul(i);
            if cutoff.is_some_and(|c| ts > c) {
                truncated = true;
                break;
            }
            remaining -= payload as u64;
            self.emit(sim, ts, direction, TcpFlags::ACK, payload, self.data_overhead());
            last = ts;
            emitted += 1;
            sent += payload as u64;
            if cutoff.is_none_or(|c| ts + ack_lag <= c) {
                acked += payload as u64;
            }
            // Delayed acks: one pure ACK for every other data segment, flowing
            // in the reverse direction and captured at the client one RTT (for
            // uploads) or immediately (for downloads, the client is the acker)
            // after the data segment.
            if i % 2 == 1 {
                let ack_ts = match direction {
                    Direction::Upload => ts + rtt,
                    Direction::Download => ts,
                };
                if cutoff.is_none_or(|c| ack_ts <= c) {
                    self.emit(sim, ack_ts, direction.reverse(), TcpFlags::ACK, 0, 0);
                }
            }
        }
        RunOutcome { last, segments: emitted, sent_bytes: sent, acked_bytes: acked, truncated }
    }

    /// Emits a contiguous byte stream (used for handshake flights) as
    /// MSS-sized segments without congestion-window accounting.
    fn emit_stream(
        &mut self,
        sim: &mut Simulator,
        start: SimTime,
        direction: Direction,
        bytes: u64,
        bandwidth: u64,
        extra_overhead: u32,
    ) {
        if bytes == 0 {
            return;
        }
        let seg_payload = MSS as u64;
        let seg_tx = SimDuration::for_transmission(seg_payload, bandwidth);
        let segments = bytes.div_ceil(seg_payload);
        let mut remaining = bytes;
        for i in 0..segments {
            let payload = remaining.min(seg_payload) as u32;
            remaining -= payload as u64;
            self.emit(
                sim,
                start + seg_tx.saturating_mul(i),
                direction,
                TcpFlags::ACK,
                payload,
                extra_overhead,
            );
        }
    }

    /// Extra per-segment overhead charged on data segments (TLS records).
    fn data_overhead(&self) -> u32 {
        if self.tls {
            self.tls_profile.per_segment_overhead
        } else {
            0
        }
    }

    /// Records one packet with the connection's endpoints and flow metadata.
    fn emit(
        &self,
        sim: &mut Simulator,
        timestamp: SimTime,
        direction: Direction,
        flags: TcpFlags,
        payload_len: u32,
        extra_header: u32,
    ) {
        let (src, dst) = match direction {
            Direction::Upload => (self.client, self.server),
            Direction::Download => (self.server, self.client),
        };
        sim.trace_mut().record(PacketRecord {
            timestamp,
            src,
            dst,
            protocol: TransportProtocol::Tcp,
            flags,
            payload_len,
            header_len: TCP_HEADER_BYTES + extra_header,
            direction,
            flow: self.flow,
            kind: self.kind,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::OutageWindow;
    use cloudsim_trace::analysis::{self, BurstConfig, ThroughputConfig};
    use cloudsim_trace::FlowTable;

    fn test_net(rtt_ms: u64, bw: u64) -> (Network, HostId) {
        let mut net = Network::new();
        let host = net.add_server("server.example", [10, 0, 0, 1], 443);
        net.set_path(
            host,
            PathSpec::symmetric(SimDuration::from_millis(rtt_ms), bw).with_jitter(0.0),
        );
        (net, host)
    }

    #[test]
    fn handshake_without_tls_takes_one_rtt() {
        let (net, host) = test_net(100, 100_000_000);
        let mut sim = Simulator::new(1);
        let conn = TcpConnection::open(
            &mut sim,
            &net,
            host,
            ConnectionOptions::http(FlowKind::Control),
            SimTime::ZERO,
        );
        assert_eq!(conn.established_at(), SimTime::from_millis(100));
        let packets = sim.packets();
        assert_eq!(analysis::syn_count(&packets), 1);
        assert_eq!(packets.len(), 3); // SYN, SYN-ACK, ACK
    }

    #[test]
    fn tls_handshake_adds_two_rtts_and_certificate_bytes() {
        let (net, host) = test_net(100, 100_000_000);
        let mut sim = Simulator::new(1);
        let conn = TcpConnection::open(
            &mut sim,
            &net,
            host,
            ConnectionOptions::https(FlowKind::Control),
            SimTime::ZERO,
        );
        assert_eq!(conn.established_at(), SimTime::from_millis(300));
        let table = sim.trace().flow_table();
        let stats = table.get(conn.flow()).unwrap();
        // Certificate chain flows downstream during the handshake.
        assert!(stats.payload_down >= 4000, "got {}", stats.payload_down);
        assert!(stats.payload_up >= 600);
    }

    #[test]
    fn small_upload_on_long_path_is_latency_bound() {
        // 100 kB over a 160 ms path at 100 Mb/s: slow start needs several
        // rounds, so the transfer takes roughly 3-5 RTTs, far above the
        // 8 ms serialization time.
        let (net, host) = test_net(160, 100_000_000);
        let mut sim = Simulator::new(1);
        let mut conn = TcpConnection::open(
            &mut sim,
            &net,
            host,
            ConnectionOptions::https(FlowKind::Storage),
            SimTime::ZERO,
        );
        let start = conn.established_at();
        let done = conn.request(&mut sim, &net, start, 100_000, 500, SimDuration::from_millis(10));
        let elapsed = done - start;
        assert!(
            elapsed >= SimDuration::from_millis(480) && elapsed <= SimDuration::from_millis(1500),
            "elapsed {elapsed}"
        );
    }

    #[test]
    fn large_upload_on_short_path_is_bandwidth_bound() {
        // 10 MB over a 10 ms path at 80 Mb/s: serialization alone is 1 s, so
        // completion should be close to (and above) that.
        let (net, host) = test_net(10, 80_000_000);
        let mut sim = Simulator::new(1);
        let mut conn = TcpConnection::open(
            &mut sim,
            &net,
            host,
            ConnectionOptions::https(FlowKind::Storage),
            SimTime::ZERO,
        );
        let start = conn.established_at();
        let done = conn.request(&mut sim, &net, start, 10_000_000, 500, SimDuration::ZERO);
        let secs = (done - start).as_secs_f64();
        assert!(secs > 1.0 && secs < 2.0, "took {secs}s");
    }

    #[test]
    fn payload_accounting_matches_requested_bytes() {
        let (net, host) = test_net(50, 100_000_000);
        let mut sim = Simulator::new(1);
        let mut conn = TcpConnection::open(
            &mut sim,
            &net,
            host,
            ConnectionOptions::http(FlowKind::Storage),
            SimTime::ZERO,
        );
        conn.request(&mut sim, &net, conn.established_at(), 123_456, 7_890, SimDuration::ZERO);
        let table = FlowTable::from_packets(&sim.packets());
        let stats = table.get(conn.flow()).unwrap();
        assert_eq!(stats.payload_up, 123_456);
        assert_eq!(stats.payload_down, 7_890);
    }

    #[test]
    fn connection_reuse_keeps_the_congestion_window() {
        let (net, host) = test_net(100, 100_000_000);
        let mut sim = Simulator::new(1);
        let mut conn = TcpConnection::open(
            &mut sim,
            &net,
            host,
            ConnectionOptions::https(FlowKind::Storage),
            SimTime::ZERO,
        );
        let w0 = conn.cwnd;
        let t1 =
            conn.request(&mut sim, &net, conn.established_at(), 500_000, 100, SimDuration::ZERO);
        let w1 = conn.cwnd;
        assert!(w1 > w0, "window should have grown: {w0} -> {w1}");

        // The second transfer of the same size finishes faster thanks to the
        // warmed-up window.
        let first_duration = t1 - conn.established_at();
        let t2 = conn.request(&mut sim, &net, t1, 500_000, 100, SimDuration::ZERO);
        let second_duration = t2 - t1;
        assert!(
            second_duration < first_duration,
            "reuse should be faster: {second_duration} vs {first_duration}"
        );
    }

    #[test]
    fn separate_connections_per_file_generate_separate_syns() {
        // Google-Drive-style: one TCP+TLS connection per file.
        let (net, host) = test_net(15, 100_000_000);
        let mut sim = Simulator::new(1);
        let mut t = SimTime::ZERO;
        for _ in 0..10 {
            let mut conn = TcpConnection::open(
                &mut sim,
                &net,
                host,
                ConnectionOptions::https(FlowKind::Storage),
                t,
            );
            t = conn.request(
                &mut sim,
                &net,
                conn.established_at(),
                10_000,
                300,
                SimDuration::from_millis(5),
            );
            conn.close(&mut sim, &net, t);
        }
        let packets = sim.packets();
        assert_eq!(analysis::syn_count(&packets), 10);
        let table = FlowTable::from_packets(&packets);
        assert_eq!(table.len(), 10);
    }

    #[test]
    fn paced_transfer_has_no_spurious_pauses() {
        // A single 2 MB object on a high-RTT path must not show pauses that
        // could be mistaken for chunking (§4.1 detection must not false-positive).
        let (net, host) = test_net(160, 100_000_000);
        let mut sim = Simulator::new(1);
        let mut conn = TcpConnection::open(
            &mut sim,
            &net,
            host,
            ConnectionOptions::https(FlowKind::Storage),
            SimTime::ZERO,
        );
        conn.request(&mut sim, &net, conn.established_at(), 2_000_000, 100, SimDuration::ZERO);
        let packets = sim.packets();
        let cfg = ThroughputConfig { min_pause: SimDuration::from_millis(40) };
        let pauses = analysis::detect_pauses(&packets, cfg);
        // The only admissible gap is the one between the TLS handshake flights
        // and the first data round; no pause may be preceded by a significant
        // amount of payload (which is what the chunking detector keys on).
        assert!(
            pauses.iter().all(|p| p.bytes_before < 50_000),
            "unexpected data pauses: {pauses:?}"
        );
    }

    #[test]
    fn fetch_matches_request_on_symmetric_paths() {
        // On a symmetric path the up- and down-direction BDPs agree, so the
        // new download primitive is bit-identical to the historical request
        // path — the compatibility contract that keeps old baselines valid.
        let run = |fetch: bool| -> (SimTime, Vec<cloudsim_trace::PacketRecord>) {
            let (net, host) = test_net(80, 50_000_000);
            let mut sim = Simulator::new(3);
            let mut conn = TcpConnection::open(
                &mut sim,
                &net,
                host,
                ConnectionOptions::https(FlowKind::Storage),
                SimTime::ZERO,
            );
            let start = conn.established_at();
            let think = SimDuration::from_millis(10);
            let done = if fetch {
                conn.fetch(&mut sim, &net, start, 500, 3_000_000, think).completed_at
            } else {
                conn.request(&mut sim, &net, start, 500, 3_000_000, think)
            };
            (done, sim.packets())
        };
        let (req_done, req_packets) = run(false);
        let (fetch_done, fetch_packets) = run(true);
        assert_eq!(req_done, fetch_done);
        assert_eq!(req_packets, fetch_packets);
    }

    #[test]
    fn fetch_fills_the_asymmetric_downstream_pipe() {
        // ADSL-style split: 1 Mb/s up, 8 Mb/s down, 130 ms RTT. A 4 MB
        // download must approach the 8 Mb/s line rate (~4 s serialization),
        // nowhere near the 32 s the uplink would need.
        let mut net = Network::new();
        let host = net.add_server("server.example", [10, 0, 0, 1], 443);
        net.set_path(
            host,
            PathSpec::asymmetric(SimDuration::from_millis(130), 1_000_000, 8_000_000)
                .with_jitter(0.0),
        );
        let mut sim = Simulator::new(1);
        // Plain HTTP so the flow's payload accounting below is the fetch
        // alone (TLS would add certificate bytes to payload_down).
        let mut conn = TcpConnection::open(
            &mut sim,
            &net,
            host,
            ConnectionOptions::http(FlowKind::Storage),
            SimTime::ZERO,
        );
        let start = conn.established_at();
        let outcome = conn.fetch(&mut sim, &net, start, 300, 4_000_000, SimDuration::ZERO);
        let secs = (outcome.completed_at - outcome.requested_at).as_secs_f64();
        assert!(secs > 4.0 && secs < 8.0, "4 MB over 8 Mb/s took {secs}s");
        // First byte arrives after the request round-trip, long before the
        // download completes.
        assert!(outcome.first_byte_at > outcome.requested_at);
        let ttfb = (outcome.first_byte_at - outcome.requested_at).as_secs_f64();
        assert!(ttfb < 1.0, "time to first byte {ttfb}s");
        assert!(outcome.completed_at > outcome.first_byte_at);

        // Payload accounting: the trace carries the downloaded bytes.
        let table = FlowTable::from_packets(&sim.packets());
        let stats = table.get(conn.flow()).unwrap();
        assert_eq!(stats.payload_down, 4_000_000);
        assert_eq!(stats.payload_up, 300);

        // The same volume *uploaded* on this link is bandwidth-starved.
        let up_done = conn.send(&mut sim, &net, outcome.completed_at, 4_000_000);
        let up_secs = (up_done - outcome.completed_at).as_secs_f64();
        assert!(up_secs > 4.0 * secs, "upload {up_secs}s vs download {secs}s");
    }

    #[test]
    fn zero_byte_fetch_costs_a_round_trip() {
        let (net, host) = test_net(100, 100_000_000);
        let mut sim = Simulator::new(1);
        let mut conn = TcpConnection::open(
            &mut sim,
            &net,
            host,
            ConnectionOptions::https(FlowKind::Control),
            SimTime::ZERO,
        );
        let start = conn.established_at();
        let outcome = conn.fetch(&mut sim, &net, start, 0, 0, SimDuration::ZERO);
        assert_eq!(outcome.first_byte_at, outcome.completed_at);
        assert_eq!(outcome.completed_at, start + SimDuration::from_millis(100));
    }

    #[test]
    fn close_emits_fin_and_prevents_reuse() {
        let (net, host) = test_net(20, 100_000_000);
        let mut sim = Simulator::new(1);
        let mut conn = TcpConnection::open(
            &mut sim,
            &net,
            host,
            ConnectionOptions::http(FlowKind::Control),
            SimTime::ZERO,
        );
        assert!(!conn.is_closed());
        let closed_at = conn.close(&mut sim, &net, conn.established_at());
        assert!(conn.is_closed());
        assert!(closed_at > conn.established_at());
        // Closing twice is a no-op.
        assert_eq!(conn.close(&mut sim, &net, closed_at), closed_at);
        let fins = sim.packets().iter().filter(|p| p.flags.fin).count();
        assert_eq!(fins, 2);
    }

    #[test]
    #[should_panic(expected = "request on a closed connection")]
    fn request_on_closed_connection_panics() {
        let (net, host) = test_net(20, 100_000_000);
        let mut sim = Simulator::new(1);
        let mut conn = TcpConnection::open(
            &mut sim,
            &net,
            host,
            ConnectionOptions::http(FlowKind::Control),
            SimTime::ZERO,
        );
        conn.close(&mut sim, &net, conn.established_at());
        conn.request(&mut sim, &net, conn.free_at(), 10, 10, SimDuration::ZERO);
    }

    #[test]
    fn sequential_requests_queue_on_the_connection() {
        let (net, host) = test_net(50, 100_000_000);
        let mut sim = Simulator::new(1);
        let mut conn = TcpConnection::open(
            &mut sim,
            &net,
            host,
            ConnectionOptions::https(FlowKind::Storage),
            SimTime::ZERO,
        );
        // Ask for the second request "in the past": it must still start only
        // after the first completes.
        let t1 =
            conn.request(&mut sim, &net, conn.established_at(), 50_000, 200, SimDuration::ZERO);
        let t2 = conn.request(&mut sim, &net, SimTime::ZERO, 50_000, 200, SimDuration::ZERO);
        assert!(t2 > t1);
    }

    /// One operation on a fresh connection over a jittered, lossy,
    /// segment-dropping path (so RTT and drop draws both hit the RNG):
    /// packet count, wire bytes, last timestamp in µs, final congestion
    /// window, completion in µs.
    fn fingerprint(
        path: PathSpec,
        op: impl Fn(&mut TcpConnection, &mut Simulator, &Network, SimTime) -> SimTime,
    ) -> (usize, u64, u64, u32, u64) {
        let mut net = Network::new();
        let host = net.add_server("server.example", [10, 0, 0, 1], 443);
        net.set_path(host, path.with_loss(0.0005).with_segment_drops(true));
        let mut sim = Simulator::new(0x601D);
        let mut conn = TcpConnection::open(
            &mut sim,
            &net,
            host,
            ConnectionOptions::https(FlowKind::Storage),
            SimTime::ZERO,
        );
        let start = conn.established_at();
        let done = op(&mut conn, &mut sim, &net, start);
        let packets = sim.packets();
        (
            packets.len(),
            packets.iter().map(|p| p.wire_len()).sum(),
            packets.iter().map(|p| p.timestamp).max().unwrap().as_micros(),
            conn.cwnd,
            done.as_micros(),
        )
    }

    #[test]
    fn plain_ops_replay_the_timelines_recorded_before_they_shared_the_faulted_bodies() {
        // Recorded at the last commit where `request`, `fetch` and `send`
        // had bodies of their own. They now run the faulted bodies with an
        // empty schedule, so comparing the two would compare a function
        // with itself; these numbers are what "bit-identical" rests on.
        let think = SimDuration::from_millis(5);
        let symmetric = || PathSpec::symmetric(SimDuration::from_millis(80), 20_000_000);
        let adsl = PathSpec::asymmetric(SimDuration::from_millis(130), 1_000_000, 8_000_000);
        assert_eq!(
            fingerprint(symmetric(), |c, s, n, t| c.request(s, n, t, 700_000, 900_000, think)),
            (1654, 1_747_366, 2_085_441, 80, 2_124_313)
        );
        assert_eq!(
            fingerprint(adsl, |c, s, n, t| c.fetch(s, n, t, 400, 900_000, think).completed_at),
            (934, 984_866, 2_017_142, 80, 2_080_310)
        );
        assert_eq!(
            fingerprint(symmetric(), |c, s, n, t| c.send(s, n, t, 700_000)),
            (728, 766_868, 1_141_593, 80, 1_141_593)
        );
    }

    #[test]
    fn schedules_entirely_before_the_op_also_delegate_to_the_plain_path() {
        // An outage that ended before the transfer starts must not perturb
        // anything: first_cut_at_or_after returns None and nothing can cut.
        let (net, host) = test_net(80, 20_000_000);
        let early = FaultSchedule {
            windows: vec![OutageWindow {
                down_at: SimTime::from_secs(1),
                up_at: SimTime::from_secs(2),
            }],
        };
        let mut sim = Simulator::new(11);
        let mut conn = TcpConnection::open(
            &mut sim,
            &net,
            host,
            ConnectionOptions::https(FlowKind::Storage),
            SimTime::from_secs(10),
        );
        let start = conn.established_at();
        let done = conn.send_faulted(&mut sim, &net, start, 300_000, &early).unwrap();
        assert!(done > start);
        assert!(!conn.is_closed());
    }

    #[test]
    fn a_mid_transfer_outage_interrupts_deterministically_with_a_dead_socket() {
        let outage = |at_ms: u64| FaultSchedule {
            windows: vec![OutageWindow {
                down_at: SimTime::from_millis(at_ms),
                up_at: SimTime::from_millis(at_ms + 5_000),
            }],
        };
        let run = || {
            // 4 MB over 8 Mb/s is ~4 s of serialization; cutting at 1.2 s
            // lands mid-upload with part of the payload acknowledged.
            let (net, host) = test_net(60, 8_000_000);
            let mut sim = Simulator::new(5);
            let mut conn = TcpConnection::open(
                &mut sim,
                &net,
                host,
                ConnectionOptions::https(FlowKind::Storage),
                SimTime::ZERO,
            );
            let start = conn.established_at();
            let err = conn
                .send_faulted(&mut sim, &net, start, 4_000_000, &outage(1_200))
                .expect_err("the outage must cut the upload");
            (err, conn.is_closed(), sim.packets().len())
        };
        let (a, closed, packets_a) = run();
        let (b, _, packets_b) = run();
        assert_eq!(a, b, "interruption must be deterministic");
        assert_eq!(packets_a, packets_b);
        assert!(closed, "the socket dies without a FIN");
        assert!(a.bytes_acked > 0, "part of the upload was acknowledged");
        assert!(a.bytes_acked < 4_000_000, "the upload cannot have completed");
        assert_eq!(a.interrupted_at, SimTime::from_millis(1_200));
        assert!(a.elapsed > SimDuration::ZERO);
    }

    #[test]
    fn starting_inside_an_outage_fails_immediately_at_zero_wire_cost() {
        let (net, host) = test_net(60, 8_000_000);
        let mut sim = Simulator::new(5);
        let mut conn = TcpConnection::open(
            &mut sim,
            &net,
            host,
            ConnectionOptions::https(FlowKind::Storage),
            SimTime::ZERO,
        );
        let start = conn.established_at();
        let down_now = FaultSchedule {
            windows: vec![OutageWindow {
                down_at: SimTime::ZERO,
                up_at: start + SimDuration::from_secs(30),
            }],
        };
        let before = sim.packets().len();
        let err = conn.send_faulted(&mut sim, &net, start, 1_000_000, &down_now).unwrap_err();
        assert_eq!(err.bytes_acked, 0);
        assert_eq!(err.elapsed, SimDuration::ZERO);
        assert_eq!(sim.packets().len(), before, "no packets travel on a down link");
        assert!(conn.is_closed());
    }

    #[test]
    fn a_download_outage_reports_received_bytes_for_ranged_resume() {
        let (net, host) = test_net(60, 8_000_000);
        let mut sim = Simulator::new(5);
        let mut conn = TcpConnection::open(
            &mut sim,
            &net,
            host,
            ConnectionOptions::https(FlowKind::Storage),
            SimTime::ZERO,
        );
        let start = conn.established_at();
        let cut = FaultSchedule {
            windows: vec![OutageWindow {
                down_at: start + SimDuration::from_millis(1_500),
                up_at: start + SimDuration::from_secs(20),
            }],
        };
        let get = Fetch {
            request_bytes: 300,
            download_bytes: 4_000_000,
            server_think: SimDuration::ZERO,
        };
        let err = conn
            .fetch_faulted(&mut sim, &net, start, get, &cut)
            .expect_err("the outage must cut the download");
        assert!(err.bytes_acked > 0, "some response bytes arrived before the cut");
        assert!(err.bytes_acked < 4_000_000);
        assert!(conn.is_closed());
    }

    #[test]
    fn segment_drop_mode_is_bit_identical_on_lossless_paths() {
        let run = |drops: bool| -> Vec<cloudsim_trace::PacketRecord> {
            let mut net = Network::new();
            let host = net.add_server("server.example", [10, 0, 0, 1], 443);
            net.set_path(
                host,
                PathSpec::symmetric(SimDuration::from_millis(60), 20_000_000)
                    .with_jitter(0.0)
                    .with_segment_drops(drops),
            );
            let mut sim = Simulator::new(7);
            let mut conn = TcpConnection::open(
                &mut sim,
                &net,
                host,
                ConnectionOptions::https(FlowKind::Storage),
                SimTime::ZERO,
            );
            conn.send(&mut sim, &net, conn.established_at(), 1_000_000);
            sim.packets()
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn segment_drops_on_a_lossy_path_cost_wire_bytes_and_time() {
        let run = |drops: bool| -> (SimTime, u64) {
            let mut net = Network::new();
            let host = net.add_server("server.example", [10, 0, 0, 1], 443);
            net.set_path(
                host,
                PathSpec::symmetric(SimDuration::from_millis(60), 20_000_000)
                    .with_jitter(0.0)
                    .with_loss(0.02)
                    .with_segment_drops(drops),
            );
            let mut sim = Simulator::new(7);
            let mut conn = TcpConnection::open(
                &mut sim,
                &net,
                host,
                ConnectionOptions::http(FlowKind::Storage),
                SimTime::ZERO,
            );
            let done = conn.send(&mut sim, &net, conn.established_at(), 2_000_000);
            let wire: u64 = sim.packets().iter().map(|p| p.payload_len as u64).sum();
            (done, wire)
        };
        let (done_off, wire_off) = run(false);
        let (done_on, wire_on) = run(true);
        assert!(done_on > done_off, "retransmission tails delay completion");
        assert!(wire_on > wire_off, "retransmitted segments cost wire bytes");
        // Deterministic under a fixed seed.
        assert_eq!(run(true), run(true));
    }

    #[test]
    fn send_waits_for_final_ack_and_bursts_are_detected_per_send() {
        let (net, host) = test_net(100, 100_000_000);
        let mut sim = Simulator::new(1);
        let mut conn = TcpConnection::open(
            &mut sim,
            &net,
            host,
            ConnectionOptions::https(FlowKind::Storage),
            SimTime::ZERO,
        );
        let mut t = conn.established_at();
        for _ in 0..5 {
            t = conn.send(&mut sim, &net, t, 30_000);
            t += SimDuration::from_millis(300); // application-layer wait
        }
        let bursts = analysis::detect_bursts(&sim.packets(), BurstConfig::default());
        assert_eq!(bursts.len(), 5);
    }
}
