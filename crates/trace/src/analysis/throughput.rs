//! Pause detection in the upload stream.
//!
//! §4.1: "By monitoring throughput during the upload of files differing in
//! size, we determine whether files are exchanged as single objects (no pause
//! during the upload), or split into chunks, each delimited by a pause."
//!
//! [`detect_pauses`] finds the silent gaps between payload packets that
//! delimit chunk submissions; Table 1's chunking detector
//! (`cloudbench::capability`) reads a chunk size off them.

use crate::packet::{Direction, PacketRecord};
use crate::time::{SimDuration, SimTime};

/// Configuration for pause detection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThroughputConfig {
    /// Minimum silence between upload payload packets to call it a pause.
    pub min_pause: SimDuration,
}

impl Default for ThroughputConfig {
    fn default() -> Self {
        ThroughputConfig {
            // A chunk boundary involves at least a request/response exchange
            // with the control plane (~1 RTT + server think time); 150 ms
            // separates that from in-chunk congestion-control pacing.
            min_pause: SimDuration::from_millis(150),
        }
    }
}

/// One detected pause in the upload stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pause {
    /// Timestamp of the last payload packet before the pause.
    pub(crate) start: SimTime,
    /// Timestamp of the first payload packet after the pause.
    pub(crate) end: SimTime,
    /// Upload payload bytes observed before this pause since the previous
    /// pause (i.e. the size of the chunk the pause terminates).
    pub bytes_before: u64,
}

/// Detects pauses (silent gaps longer than `config.min_pause`) between upload
/// payload packets. The trace must be sorted by timestamp.
pub fn detect_pauses(packets: &[PacketRecord], config: ThroughputConfig) -> Vec<Pause> {
    let mut pauses = Vec::new();
    let mut prev: Option<SimTime> = None;
    let mut bytes_since_pause: u64 = 0;
    for p in packets.iter().filter(|p| p.direction == Direction::Upload && p.has_payload()) {
        if let Some(prev_ts) = prev {
            let gap = p.timestamp - prev_ts;
            if gap >= config.min_pause {
                pauses.push(Pause {
                    start: prev_ts,
                    end: p.timestamp,
                    bytes_before: bytes_since_pause,
                });
                bytes_since_pause = 0;
            }
        }
        bytes_since_pause += p.payload_len as u64;
        prev = Some(p.timestamp);
    }
    pauses
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::{FlowId, FlowKind};
    use crate::packet::{Endpoint, TcpFlags, TransportProtocol, MSS, TCP_HEADER_BYTES};

    fn upload(t_us: u64, payload: u32) -> PacketRecord {
        PacketRecord {
            timestamp: SimTime::from_micros(t_us),
            src: Endpoint::from_octets(192, 168, 1, 10, 50000),
            dst: Endpoint::from_octets(10, 0, 0, 1, 443),
            protocol: TransportProtocol::Tcp,
            flags: TcpFlags::ACK,
            payload_len: payload,
            header_len: TCP_HEADER_BYTES,
            direction: Direction::Upload,
            flow: FlowId(0),
            kind: FlowKind::Storage,
        }
    }

    /// A chunked upload: `chunks` chunks of `segs` MSS segments, separated by
    /// `pause_ms` of silence (the client waiting for the chunk commit).
    fn chunked_trace(chunks: usize, segs: usize, pause_ms: u64) -> Vec<PacketRecord> {
        let mut trace = Vec::new();
        let mut t = 0u64;
        for _ in 0..chunks {
            for _ in 0..segs {
                trace.push(upload(t, MSS));
                t += 100; // 100 us per segment
            }
            t += pause_ms * 1000;
        }
        trace
    }

    #[test]
    fn pauses_delimit_chunks() {
        let trace = chunked_trace(4, 50, 300);
        let pauses = detect_pauses(&trace, ThroughputConfig::default());
        assert_eq!(pauses.len(), 3, "N chunks produce N-1 pauses");
        for p in &pauses {
            assert_eq!(p.bytes_before, 50 * MSS as u64);
            assert!(p.end - p.start >= SimDuration::from_millis(300));
        }
    }

    #[test]
    fn continuous_upload_has_no_pauses() {
        let trace = chunked_trace(1, 200, 0);
        let pauses = detect_pauses(&trace, ThroughputConfig::default());
        assert!(pauses.is_empty());
    }

    #[test]
    fn empty_trace_edge_cases() {
        assert!(detect_pauses(&[], ThroughputConfig::default()).is_empty());
    }
}
