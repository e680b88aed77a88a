//! Hosts: the test computer and the service front-end servers it talks to.

use cloudsim_trace::Endpoint;
use serde::Serialize;
use std::fmt;

/// Identifier of a host registered in a [`crate::Network`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub struct HostId(pub u32);

impl fmt::Display for HostId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "host#{}", self.0)
    }
}

/// Static information about a host.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct HostInfo {
    /// Identifier within the owning network.
    pub id: HostId,
    /// DNS name the client would have resolved to reach this host.
    pub dns_name: String,
    /// Network endpoint (address and service port).
    pub endpoint: Endpoint,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_id_display() {
        assert_eq!(format!("{}", HostId(4)), "host#4");
    }
}
