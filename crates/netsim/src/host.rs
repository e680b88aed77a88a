//! Hosts: the test computer and the service front-end servers it talks to.

use cloudsim_trace::Endpoint;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a host registered in a [`crate::Network`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct HostId(pub u32);

impl fmt::Display for HostId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "host#{}", self.0)
    }
}

/// Role a host plays in an experiment. §3.1 of the paper classifies contacted
/// servers into control and storage servers (plus Dropbox's plain-HTTP
/// notification servers); the DNS role supports the architecture-discovery
/// experiments of §2.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum HostRole {
    /// The test computer running the client under test.
    Client,
    /// A control server (login, metadata, commit).
    Control,
    /// A storage server (bulk file content).
    Storage,
    /// A notification / keep-alive server.
    Notification,
    /// A DNS resolver or authoritative name server.
    Dns,
}

/// Static information about a host.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HostInfo {
    /// Identifier within the owning network.
    pub id: HostId,
    /// DNS name the client would have resolved to reach this host.
    pub dns_name: String,
    /// Network endpoint (address and service port).
    pub endpoint: Endpoint,
    /// Role of the host.
    pub role: HostRole,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_id_display() {
        assert_eq!(format!("{}", HostId(4)), "host#4");
    }
}
