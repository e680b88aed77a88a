//! HTTP message framing overhead.
//!
//! The services move files and metadata over HTTP(S). For the byte accounting
//! in Fig. 5/Fig. 6c the request and response *headers* matter (they are part
//! of the "total storage and control traffic"), so every application exchange
//! performed by the sync engine goes through [`HttpExchange`], which adds a
//! realistic header cost to the body supplied by the storage engine.

use crate::network::Network;
use crate::sim::Simulator;
use crate::tcp::TcpConnection;
use cloudsim_trace::{SimDuration, SimTime};
use serde::Serialize;

/// HTTP header overhead model for one service's API.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct HttpOverhead {
    /// Bytes of request line + headers (incl. auth tokens and cookies).
    pub request_header_bytes: u32,
    /// Bytes of status line + response headers.
    pub response_header_bytes: u32,
}

impl HttpOverhead {
    /// Typical 2013 cloud-storage API headers: long OAuth tokens and cookies
    /// on requests, moderate response headers.
    pub const DEFAULT: HttpOverhead =
        HttpOverhead { request_header_bytes: 900, response_header_bytes: 350 };

    /// A chatty API with very large cookies (observed for the SkyDrive /
    /// Microsoft Live login sequence).
    pub const HEAVY: HttpOverhead =
        HttpOverhead { request_header_bytes: 1800, response_header_bytes: 700 };

    /// A lean API (e.g. a bare REST storage PUT).
    pub const LEAN: HttpOverhead =
        HttpOverhead { request_header_bytes: 400, response_header_bytes: 200 };
}

impl Default for HttpOverhead {
    fn default() -> Self {
        HttpOverhead::DEFAULT
    }
}

/// One HTTP request/response exchange over an existing connection.
#[derive(Debug, Clone, Copy)]
pub struct HttpExchange {
    /// Header overhead applied to the exchange.
    pub overhead: HttpOverhead,
    /// Request body bytes (e.g. the chunk or bundle being uploaded).
    pub request_body: u64,
    /// Response body bytes (e.g. metadata JSON).
    pub response_body: u64,
    /// Server processing time before the response starts.
    pub server_think: SimDuration,
}

impl HttpExchange {
    /// Creates an exchange with default header overhead.
    pub fn new(request_body: u64, response_body: u64, server_think: SimDuration) -> Self {
        HttpExchange { overhead: HttpOverhead::DEFAULT, request_body, response_body, server_think }
    }

    /// Overrides the header overhead.
    pub fn with_overhead(mut self, overhead: HttpOverhead) -> Self {
        self.overhead = overhead;
        self
    }

    /// Total bytes that travel client → server.
    pub fn upload_bytes(&self) -> u64 {
        self.request_body + self.overhead.request_header_bytes as u64
    }

    /// Total bytes that travel server → client.
    pub fn download_bytes(&self) -> u64 {
        self.response_body + self.overhead.response_header_bytes as u64
    }

    /// Executes the exchange on a connection, starting at `start` (or when the
    /// connection frees up). Returns the completion time.
    pub fn execute(
        &self,
        conn: &mut TcpConnection,
        sim: &mut Simulator,
        net: &Network,
        start: SimTime,
    ) -> SimTime {
        conn.request(sim, net, start, self.upload_bytes(), self.download_bytes(), self.server_think)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::path::PathSpec;
    use crate::tcp::ConnectionOptions;
    use cloudsim_trace::{FlowKind, FlowTable};

    #[test]
    fn exchange_byte_accounting_includes_headers() {
        let ex = HttpExchange::new(10_000, 500, SimDuration::from_millis(20));
        assert_eq!(ex.upload_bytes(), 10_900);
        assert_eq!(ex.download_bytes(), 850);
        let lean = ex.with_overhead(HttpOverhead::LEAN);
        assert_eq!(lean.upload_bytes(), 10_400);
        assert_eq!(lean.download_bytes(), 700);
        const {
            assert!(
                HttpOverhead::HEAVY.request_header_bytes
                    > HttpOverhead::DEFAULT.request_header_bytes
            )
        };
    }

    #[test]
    fn execute_moves_header_plus_body_bytes_over_the_wire() {
        let mut net = Network::new();
        let host = net.add_server("api.example", [10, 0, 0, 1], 443);
        net.set_path(
            host,
            PathSpec::symmetric(SimDuration::from_millis(30), 100_000_000).with_jitter(0.0),
        );
        let mut sim = Simulator::new(3);
        let mut conn = TcpConnection::open(
            &mut sim,
            &net,
            host,
            ConnectionOptions::https(FlowKind::Control),
            SimTime::ZERO,
        );
        let ex = HttpExchange::new(50_000, 1_000, SimDuration::from_millis(10));
        let established = conn.established_at();
        let done = ex.execute(&mut conn, &mut sim, &net, established);
        assert!(done > established);

        let table = FlowTable::from_packets(&sim.packets());
        let stats = table.get(conn.flow()).unwrap();
        // Handshake payload (TLS) + request headers + body.
        assert!(stats.payload_up >= ex.upload_bytes());
        assert!(stats.payload_down >= ex.download_bytes());
    }
}
