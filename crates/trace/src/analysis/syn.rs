//! TCP SYN counting.
//!
//! §4.2 of the paper infers the (lack of a) bundling strategy by counting the
//! TCP connections a client opens while uploading a batch of files: Google
//! Drive opens one TCP (and SSL) connection *per file* and Amazon Cloud Drive
//! adds three control connections per file operation, so uploading 100 files
//! of 10 kB produced 100 and 400 SYN packets respectively (Fig. 3).

use crate::flow::FlowKind;
use crate::packet::PacketRecord;
use crate::series::CumulativeSeries;

/// Counts the client-initiated TCP SYN packets in a trace.
pub fn syn_count(packets: &[PacketRecord]) -> u64 {
    packets.iter().filter(|p| p.is_syn()).count() as u64
}

/// Counts client-initiated TCP SYN packets per traffic class.
pub fn syn_count_by_kind(packets: &[PacketRecord], kind: FlowKind) -> u64 {
    packets.iter().filter(|p| p.is_syn() && p.kind == kind).count() as u64
}

/// Builds the cumulative-SYN-versus-time step series plotted in Fig. 3.
pub fn cumulative_syns(packets: &[PacketRecord]) -> CumulativeSeries {
    CumulativeSeries::from_events(packets.iter().filter(|p| p.is_syn()).map(|p| (p.timestamp, 1.0)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::FlowId;
    use crate::packet::{Direction, Endpoint, TcpFlags, TransportProtocol, TCP_HEADER_BYTES};
    use crate::time::SimTime;

    fn syn_packet(flow: u64, t_ms: u64, kind: FlowKind) -> PacketRecord {
        PacketRecord {
            timestamp: SimTime::from_millis(t_ms),
            src: Endpoint::from_octets(192, 168, 1, 10, 50000),
            dst: Endpoint::from_octets(10, 0, 0, 1, 443),
            protocol: TransportProtocol::Tcp,
            flags: TcpFlags::SYN,
            payload_len: 0,
            header_len: TCP_HEADER_BYTES,
            direction: Direction::Upload,
            flow: FlowId(flow),
            kind,
        }
    }

    fn data_packet(flow: u64, t_ms: u64) -> PacketRecord {
        PacketRecord {
            flags: TcpFlags::ACK,
            payload_len: 1000,
            ..syn_packet(flow, t_ms, FlowKind::Storage)
        }
    }

    #[test]
    fn counts_only_pure_syns() {
        let packets = vec![
            syn_packet(0, 0, FlowKind::Control),
            data_packet(0, 10),
            syn_packet(1, 20, FlowKind::Storage),
            syn_packet(2, 30, FlowKind::Storage),
            data_packet(2, 40),
        ];
        assert_eq!(syn_count(&packets), 3);
        assert_eq!(syn_count_by_kind(&packets, FlowKind::Storage), 2);
        assert_eq!(syn_count_by_kind(&packets, FlowKind::Control), 1);
        assert_eq!(syn_count_by_kind(&packets, FlowKind::Dns), 0);
    }

    #[test]
    fn cumulative_series_matches_fig3_shape() {
        // 4 connections opened at 1 s intervals.
        let packets: Vec<_> = (0..4).map(|i| syn_packet(i, i * 1000, FlowKind::Storage)).collect();
        let series = cumulative_syns(&packets);
        assert_eq!(series.total(), 4.0);
        let secs = |s: u64| SimTime::from_secs(s);
        assert_eq!(series.times(), [secs(0), secs(1), secs(2), secs(3)]);
        assert_eq!(series.totals(), [1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn empty_trace_has_no_syns() {
        assert_eq!(syn_count(&[]), 0);
        assert!(cumulative_syns(&[]).is_empty());
    }
}
