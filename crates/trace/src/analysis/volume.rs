//! Byte accounting: uploaded payload, total traffic, protocol overhead.
//!
//! §5.3 defines protocol overhead as "the total storage and control traffic
//! over the benchmarking size", and Figures 4 and 5 plot the volume of
//! uploaded data against the benchmark file size for the delta-encoding and
//! compression tests.

use crate::flow::FlowKind;
use crate::packet::{Direction, PacketRecord};
use serde::Serialize;

/// Traffic volume broken down the way the paper reports it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize)]
pub struct TrafficVolume {
    /// Total wire bytes (headers included) over storage flows, both directions.
    pub storage_wire: u64,
    /// Total wire bytes over control flows, both directions.
    pub control_wire: u64,
    /// Total wire bytes over notification flows, both directions.
    pub notification_wire: u64,
    /// Total wire bytes over DNS flows, both directions.
    pub dns_wire: u64,
}

impl TrafficVolume {
    /// Computes the volume breakdown of a trace.
    pub fn from_packets(packets: &[PacketRecord]) -> TrafficVolume {
        let mut v = TrafficVolume::default();
        for p in packets {
            match p.kind {
                FlowKind::Storage => v.storage_wire += p.wire_len(),
                FlowKind::Control => v.control_wire += p.wire_len(),
                FlowKind::Notification => v.notification_wire += p.wire_len(),
                FlowKind::Dns => v.dns_wire += p.wire_len(),
            }
        }
        v
    }

    /// Total storage + control traffic (the numerator of the overhead metric).
    pub fn benchmark_traffic(&self) -> u64 {
        self.storage_wire + self.control_wire
    }

    /// Total traffic of any kind.
    pub fn total(&self) -> u64 {
        self.storage_wire + self.control_wire + self.notification_wire + self.dns_wire
    }
}

/// Application payload uploaded over storage flows (Fig. 4 / Fig. 5 y-axis).
pub fn uploaded_payload(packets: &[PacketRecord]) -> u64 {
    packets
        .iter()
        .filter(|p| p.kind == FlowKind::Storage && p.direction == Direction::Upload)
        .map(|p| p.payload_len as u64)
        .sum()
}

/// Protocol overhead as defined in §5.3: total storage and control traffic
/// divided by the benchmark payload size. A value of 1.0 means the service
/// moved exactly as many bytes as the benchmark contained; the paper reports
/// values from ~1.05 up to more than 5 for Cloud Drive.
pub fn overhead_ratio(packets: &[PacketRecord], benchmark_bytes: u64) -> f64 {
    assert!(benchmark_bytes > 0, "benchmark size must be positive");
    let volume = TrafficVolume::from_packets(packets);
    volume.benchmark_traffic() as f64 / benchmark_bytes as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::FlowId;
    use crate::packet::{Endpoint, TcpFlags, TransportProtocol, TCP_HEADER_BYTES};
    use crate::time::SimTime;

    fn packet(kind: FlowKind, dir: Direction, payload: u32) -> PacketRecord {
        PacketRecord {
            timestamp: SimTime::ZERO,
            src: Endpoint::from_octets(192, 168, 1, 10, 50000),
            dst: Endpoint::from_octets(10, 0, 0, 1, 443),
            protocol: TransportProtocol::Tcp,
            flags: TcpFlags::ACK,
            payload_len: payload,
            header_len: TCP_HEADER_BYTES,
            direction: dir,
            flow: FlowId(0),
            kind,
        }
    }

    #[test]
    fn volume_breakdown_by_kind_and_direction() {
        let packets = vec![
            packet(FlowKind::Storage, Direction::Upload, 1000),
            packet(FlowKind::Storage, Direction::Download, 200),
            packet(FlowKind::Control, Direction::Upload, 300),
            packet(FlowKind::Notification, Direction::Download, 50),
            packet(FlowKind::Dns, Direction::Upload, 60),
        ];
        let v = TrafficVolume::from_packets(&packets);
        assert_eq!(uploaded_payload(&packets), 1000);
        assert_eq!(v.storage_wire, 1200 + 2 * TCP_HEADER_BYTES as u64);
        assert_eq!(v.control_wire, 300 + TCP_HEADER_BYTES as u64);
        assert_eq!(v.notification_wire, 50 + TCP_HEADER_BYTES as u64);
        assert_eq!(v.dns_wire, 60 + TCP_HEADER_BYTES as u64);
        assert_eq!(v.benchmark_traffic(), v.storage_wire + v.control_wire);
        assert_eq!(v.total(), v.benchmark_traffic() + v.notification_wire + v.dns_wire);
    }

    #[test]
    fn uploaded_payload_counts_only_storage_uploads() {
        let packets = vec![
            packet(FlowKind::Storage, Direction::Upload, 1000),
            packet(FlowKind::Storage, Direction::Upload, 500),
            packet(FlowKind::Storage, Direction::Download, 999),
            packet(FlowKind::Control, Direction::Upload, 999),
        ];
        assert_eq!(uploaded_payload(&packets), 1500);
    }

    #[test]
    fn overhead_ratio_matches_manual_computation() {
        // 10 kB of benchmark data moved with 11 kB storage wire + 1 kB control.
        let packets = vec![
            packet(FlowKind::Storage, Direction::Upload, 11_000 - TCP_HEADER_BYTES),
            packet(FlowKind::Control, Direction::Upload, 1_000 - TCP_HEADER_BYTES),
        ];
        let ratio = overhead_ratio(&packets, 10_000);
        assert!((ratio - 1.2).abs() < 1e-9, "ratio was {ratio}");
    }

    #[test]
    fn overhead_can_exceed_one_by_a_lot() {
        // Cloud Drive-style: 5 MB exchanged for 1 MB of content.
        let packets: Vec<_> = (0..5000)
            .map(|_| packet(FlowKind::Control, Direction::Upload, 1000 - TCP_HEADER_BYTES))
            .collect();
        let ratio = overhead_ratio(&packets, 1_000_000);
        assert!(ratio > 4.9 && ratio < 5.1);
    }

    #[test]
    #[should_panic(expected = "benchmark size must be positive")]
    fn overhead_rejects_zero_benchmark() {
        let _ = overhead_ratio(&[], 0);
    }

    #[test]
    fn empty_trace_volume_is_zero() {
        let v = TrafficVolume::from_packets(&[]);
        assert_eq!(v, TrafficVolume::default());
        assert_eq!(v.total(), 0);
        assert_eq!(uploaded_payload(&[]), 0);
    }
}
