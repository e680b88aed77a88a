//! TLS handshake and record-layer cost model.
//!
//! All five services studied in the paper carry storage and control traffic
//! over HTTPS (§3.1), so the cost of TLS handshakes matters a great deal when
//! a client opens one connection per file: "such design strongly limits the
//! system performance due to TCP and SSL negotiations" (§4.2). The model
//! charges two extra round trips plus the certificate-chain bytes for a full
//! handshake, and a small per-segment record overhead afterwards.

use serde::{Deserialize, Serialize};

/// Byte and round-trip costs of the TLS layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TlsProfile {
    /// Number of additional round trips for a full handshake (TLS 1.0–1.2 as
    /// deployed in 2013: 2 round trips).
    pub handshake_rtts: u32,
    /// Bytes sent by the client during the handshake (ClientHello, key
    /// exchange, Finished).
    pub client_handshake_bytes: u32,
    /// Bytes sent by the server during the handshake (ServerHello, certificate
    /// chain, Finished).
    pub server_handshake_bytes: u32,
    /// Extra framing bytes charged to every data segment (record header, MAC
    /// and padding amortised per MSS-sized record).
    pub per_segment_overhead: u32,
}

impl TlsProfile {
    /// The profile used for 2013-era HTTPS (TLS 1.0/1.2, RSA certificates,
    /// ~3–4 kB certificate chains).
    pub const DEFAULT: TlsProfile = TlsProfile {
        handshake_rtts: 2,
        client_handshake_bytes: 700,
        server_handshake_bytes: 4200,
        per_segment_overhead: 29,
    };
}

impl Default for TlsProfile {
    fn default() -> Self {
        TlsProfile::DEFAULT
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_profile_is_a_full_handshake() {
        let p = TlsProfile::default();
        assert_eq!(p.handshake_rtts, 2);
        assert!(p.server_handshake_bytes > p.client_handshake_bytes);
        assert_eq!(p.client_handshake_bytes + p.server_handshake_bytes, 4900);
    }
}
