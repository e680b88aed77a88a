//! Synchronization start-up and completion time extraction.
//!
//! §5.1: start-up delay is "computed from the moment files start being
//! modified until the first storage flow is observed".
//! §5.2: completion time is "the difference between the first and the last
//! packet with payload seen in any storage flow", ignoring TCP tear-down and
//! trailing control messages.

use crate::flow::FlowKind;
use crate::packet::PacketRecord;
use crate::time::{SimDuration, SimTime};
use serde::Serialize;

/// The synchronization timeline extracted from one experiment trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct SyncTimeline {
    /// The moment the testing application started modifying files.
    pub modification_start: SimTime,
    /// First packet of any storage flow (SYN counts: "first storage flow observed").
    pub first_storage_packet: Option<SimTime>,
    /// First storage packet that carries payload.
    pub first_storage_payload: Option<SimTime>,
    /// Last storage packet that carries payload.
    pub last_storage_payload: Option<SimTime>,
}

impl SyncTimeline {
    /// Extracts the timeline from a trace.
    pub fn from_packets(packets: &[PacketRecord], modification_start: SimTime) -> SyncTimeline {
        let storage = packets.iter().filter(|p| p.kind == FlowKind::Storage);
        let mut first_packet = None;
        let mut first_payload = None;
        let mut last_payload = None;
        for p in storage {
            first_packet = Some(match first_packet {
                None => p.timestamp,
                Some(t) => p.timestamp.min(t),
            });
            if p.has_payload() {
                first_payload = Some(match first_payload {
                    None => p.timestamp,
                    Some(t) => p.timestamp.min(t),
                });
                last_payload = Some(match last_payload {
                    None => p.timestamp,
                    Some(t) => p.timestamp.max(t),
                });
            }
        }
        SyncTimeline {
            modification_start,
            first_storage_packet: first_packet,
            first_storage_payload: first_payload,
            last_storage_payload: last_payload,
        }
    }

    /// Synchronization start-up delay (Fig. 6a), if a storage flow was observed.
    pub fn startup_delay(&self) -> Option<SimDuration> {
        self.first_storage_packet.map(|t| t.saturating_since(self.modification_start))
    }

    /// Upload completion time (Fig. 6b), if any storage payload was observed.
    pub fn completion_time(&self) -> Option<SimDuration> {
        match (self.first_storage_payload, self.last_storage_payload) {
            (Some(first), Some(last)) => Some(last.saturating_since(first)),
            _ => None,
        }
    }
}

/// Convenience wrapper: start-up delay straight from a trace.
pub fn startup_delay(packets: &[PacketRecord], modification_start: SimTime) -> Option<SimDuration> {
    SyncTimeline::from_packets(packets, modification_start).startup_delay()
}

/// Convenience wrapper: completion time straight from a trace.
pub fn completion_time(packets: &[PacketRecord]) -> Option<SimDuration> {
    SyncTimeline::from_packets(packets, SimTime::ZERO).completion_time()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::FlowId;
    use crate::packet::{Direction, Endpoint, TcpFlags, TransportProtocol, TCP_HEADER_BYTES};

    fn packet(kind: FlowKind, t_ms: u64, payload: u32, flags: TcpFlags) -> PacketRecord {
        PacketRecord {
            timestamp: SimTime::from_millis(t_ms),
            src: Endpoint::from_octets(192, 168, 1, 10, 50000),
            dst: Endpoint::from_octets(10, 0, 0, 1, 443),
            protocol: TransportProtocol::Tcp,
            flags,
            payload_len: payload,
            header_len: TCP_HEADER_BYTES,
            direction: Direction::Upload,
            flow: FlowId(0),
            kind,
        }
    }

    #[test]
    fn startup_is_measured_to_the_first_storage_packet() {
        let packets = vec![
            packet(FlowKind::Control, 100, 500, TcpFlags::ACK),
            packet(FlowKind::Storage, 2_000, 0, TcpFlags::SYN),
            packet(FlowKind::Storage, 2_200, 1460, TcpFlags::ACK),
            packet(FlowKind::Storage, 9_000, 1460, TcpFlags::ACK),
        ];
        let timeline = SyncTimeline::from_packets(&packets, SimTime::from_millis(500));
        assert_eq!(timeline.startup_delay(), Some(SimDuration::from_millis(1_500)));
        assert_eq!(timeline.completion_time(), Some(SimDuration::from_millis(6_800)));
        assert_eq!(timeline.first_storage_payload, Some(SimTime::from_millis(2_200)));
        assert_eq!(timeline.last_storage_payload, Some(SimTime::from_millis(9_000)));
    }

    #[test]
    fn control_only_trace_has_no_startup_or_completion() {
        let packets = vec![
            packet(FlowKind::Control, 100, 500, TcpFlags::ACK),
            packet(FlowKind::Notification, 200, 100, TcpFlags::ACK),
        ];
        let timeline = SyncTimeline::from_packets(&packets, SimTime::ZERO);
        assert_eq!(timeline.startup_delay(), None);
        assert_eq!(timeline.completion_time(), None);
    }

    #[test]
    fn startup_saturates_when_storage_precedes_modification() {
        // Degenerate but possible if a pending commit flushes right before the
        // workload starts; the metric saturates at zero rather than underflowing.
        let packets = vec![packet(FlowKind::Storage, 100, 0, TcpFlags::SYN)];
        let delay = startup_delay(&packets, SimTime::from_secs(5)).unwrap();
        assert_eq!(delay, SimDuration::ZERO);
    }

    #[test]
    fn completion_with_single_payload_packet_is_zero() {
        let packets = vec![packet(FlowKind::Storage, 100, 1000, TcpFlags::ACK)];
        assert_eq!(completion_time(&packets), Some(SimDuration::ZERO));
    }

    #[test]
    fn convenience_wrappers_match_struct_api() {
        let packets = vec![
            packet(FlowKind::Storage, 1_000, 0, TcpFlags::SYN),
            packet(FlowKind::Storage, 1_100, 1460, TcpFlags::ACK),
            packet(FlowKind::Storage, 4_100, 1460, TcpFlags::ACK),
        ];
        assert_eq!(startup_delay(&packets, SimTime::ZERO), Some(SimDuration::from_secs(1)));
        assert_eq!(completion_time(&packets), Some(SimDuration::from_secs(3)));
    }
}
