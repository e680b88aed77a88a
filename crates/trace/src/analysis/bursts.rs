//! Packet-burst detection.
//!
//! §4.2: "SkyDrive and Wuala submit files sequentially, waiting for
//! application layer acknowledgments between each file upload. This can be
//! determined by counting packet bursts, which is proportional to the number
//! of files in our experiments."
//!
//! A *burst* here is a maximal run of upload payload packets whose
//! inter-packet gap never exceeds a threshold; a gap longer than the threshold
//! (the client waiting for an application-level acknowledgement before the
//! next file) terminates the burst.

use crate::packet::{Direction, PacketRecord};
use crate::time::{SimDuration, SimTime};
use serde::Serialize;

/// Configuration for burst detection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct BurstConfig {
    /// Maximum silence between consecutive upload payload packets for them to
    /// belong to the same burst.
    pub max_gap: SimDuration,
    /// Minimum payload a burst must carry to be reported (filters out control
    /// chatter).
    pub min_bytes: u64,
}

impl Default for BurstConfig {
    fn default() -> Self {
        // One RTT to the farthest data centres in the study is ~160 ms and the
        // application-level acknowledgement adds server think time on top, so
        // 200 ms separates per-file acks from in-transfer pacing gaps.
        BurstConfig { max_gap: SimDuration::from_millis(200), min_bytes: 1024 }
    }
}

/// One detected burst of upload traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct Burst {
    /// Timestamp of the first payload packet of the burst.
    pub start: SimTime,
    /// Timestamp of the last payload packet of the burst.
    pub end: SimTime,
    /// Upload payload bytes carried by the burst.
    pub bytes: u64,
    /// Number of upload payload packets in the burst.
    pub packets: u64,
}

impl Burst {
    /// Duration of the burst.
    pub fn duration(&self) -> SimDuration {
        self.end - self.start
    }
}

/// Detects upload payload bursts in a timestamp-sorted packet trace.
///
/// Only packets in the [`Direction::Upload`] direction that carry payload are
/// considered; the packets of all storage flows are merged, mirroring the
/// paper's per-trace (not per-flow) burst counting.
pub fn detect_bursts(packets: &[PacketRecord], config: BurstConfig) -> Vec<Burst> {
    let mut bursts = Vec::new();
    let mut current: Option<Burst> = None;

    let relevant = packets.iter().filter(|p| p.direction == Direction::Upload && p.has_payload());

    for p in relevant {
        match current.as_mut() {
            Some(burst) if p.timestamp - burst.end <= config.max_gap => {
                burst.end = p.timestamp;
                burst.bytes += p.payload_len as u64;
                burst.packets += 1;
            }
            _ => {
                if let Some(done) = current.take() {
                    if done.bytes >= config.min_bytes {
                        bursts.push(done);
                    }
                }
                current = Some(Burst {
                    start: p.timestamp,
                    end: p.timestamp,
                    bytes: p.payload_len as u64,
                    packets: 1,
                });
            }
        }
    }
    if let Some(done) = current {
        if done.bytes >= config.min_bytes {
            bursts.push(done);
        }
    }
    bursts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::{FlowId, FlowKind};
    use crate::packet::{Endpoint, TcpFlags, TransportProtocol, MSS, TCP_HEADER_BYTES};

    fn upload(t_ms: u64, payload: u32) -> PacketRecord {
        PacketRecord {
            timestamp: SimTime::from_millis(t_ms),
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

    fn download(t_ms: u64, payload: u32) -> PacketRecord {
        PacketRecord { direction: Direction::Download, ..upload(t_ms, payload) }
    }

    /// Builds a synthetic trace of `files` sequential file uploads separated by
    /// an application-level acknowledgement gap.
    fn sequential_upload_trace(
        files: usize,
        packets_per_file: usize,
        ack_gap_ms: u64,
    ) -> Vec<PacketRecord> {
        let mut trace = Vec::new();
        let mut t = 0u64;
        for _ in 0..files {
            for _ in 0..packets_per_file {
                trace.push(upload(t, MSS));
                t += 1; // back-to-back segments, 1 ms apart
            }
            trace.push(download(t + 1, 200)); // application-level ack
            t += ack_gap_ms;
        }
        trace
    }

    #[test]
    fn burst_count_tracks_file_count_for_sequential_uploads() {
        for files in [1usize, 5, 10] {
            let trace = sequential_upload_trace(files, 7, 500);
            let bursts = detect_bursts(&trace, BurstConfig::default());
            assert_eq!(bursts.len(), files, "expected one burst per file");
            for b in &bursts {
                assert_eq!(b.packets, 7);
                assert_eq!(b.bytes, 7 * MSS as u64);
            }
        }
    }

    #[test]
    fn bundled_upload_is_a_single_burst() {
        // A bundling client streams all files back-to-back: one burst only.
        let trace = sequential_upload_trace(10, 7, 10); // gaps below the 200 ms threshold
        let bursts = detect_bursts(&trace, BurstConfig::default());
        assert_eq!(bursts.len(), 1);
        assert_eq!(bursts[0].packets, 70);
    }

    #[test]
    fn small_bursts_are_filtered_by_min_bytes() {
        let trace = vec![upload(0, 100), upload(500, 100)];
        let bursts = detect_bursts(&trace, BurstConfig::default());
        assert!(bursts.is_empty(), "bursts below min_bytes are dropped");
        let cfg = BurstConfig { min_bytes: 0, ..BurstConfig::default() };
        assert_eq!(detect_bursts(&trace, cfg).len(), 2);
    }

    #[test]
    fn download_packets_do_not_contribute() {
        let trace = vec![download(0, 5000), download(10, 5000)];
        assert!(detect_bursts(&trace, BurstConfig::default()).is_empty());
    }

    #[test]
    fn burst_duration_and_empty_trace() {
        let trace = sequential_upload_trace(1, 5, 500);
        let bursts = detect_bursts(&trace, BurstConfig::default());
        assert_eq!(bursts.len(), 1);
        assert_eq!(bursts[0].duration(), SimDuration::from_millis(4));
        assert!(detect_bursts(&[], BurstConfig::default()).is_empty());
    }
}
