//! Network topology: the test computer plus every server a service contacts.

use crate::host::{HostId, HostInfo};
use crate::path::PathSpec;
use cloudsim_trace::Endpoint;
use std::collections::HashMap;

/// The topology of one experiment: a single client (the test computer) and a
/// set of servers, each reachable over its own [`PathSpec`].
#[derive(Debug, Clone)]
pub struct Network {
    client: HostInfo,
    hosts: Vec<HostInfo>,
    paths: HashMap<HostId, PathSpec>,
}

/// First port of the IANA ephemeral range. A connection's client port is
/// not allocated here: [`crate::tcp::TcpConnection::open`] derives it from
/// the flow id, cycling through 49152..=65535.
pub const EPHEMERAL_PORT_MIN: u16 = 49152;

impl Network {
    /// Creates a topology with the default test computer (192.168.1.10).
    pub fn new() -> Self {
        Network {
            client: HostInfo {
                id: HostId(0),
                dns_name: "test-computer.lan".to_string(),
                endpoint: Endpoint::from_octets(192, 168, 1, 10, 0),
            },
            hosts: Vec::new(),
            paths: HashMap::new(),
        }
    }

    /// Information about the test computer.
    pub fn client(&self) -> &HostInfo {
        &self.client
    }

    /// Registers a server (control, storage or notification: the model
    /// treats them alike).
    pub fn add_server(&mut self, dns_name: &str, octets: [u8; 4], port: u16) -> HostId {
        let id = HostId(self.hosts.len() as u32 + 1);
        self.hosts.push(HostInfo {
            id,
            dns_name: dns_name.to_string(),
            endpoint: Endpoint::from_octets(octets[0], octets[1], octets[2], octets[3], port),
        });
        id
    }

    /// Sets the path characteristics between the client and a server.
    pub fn set_path(&mut self, host: HostId, path: PathSpec) {
        self.paths.insert(host, path);
    }

    /// Looks up the path to a server (falling back to [`PathSpec::default`]).
    pub fn path(&self, host: HostId) -> PathSpec {
        self.paths.get(&host).copied().unwrap_or_default()
    }

    /// Looks up a registered host.
    pub fn host(&self, id: HostId) -> Option<&HostInfo> {
        if id == self.client.id {
            return Some(&self.client);
        }
        self.hosts.get(id.0 as usize - 1)
    }
}

impl Default for Network {
    fn default() -> Self {
        Network::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudsim_trace::SimDuration;

    #[test]
    fn hosts_are_registered_and_looked_up() {
        let mut net = Network::new();
        let a = net.add_server("control.example", [10, 0, 0, 1], 443);
        let b = net.add_server("storage.example", [10, 0, 0, 2], 443);
        assert_ne!(a, b);
        assert_eq!(net.host(a).unwrap().dns_name, "control.example");
        assert_eq!(net.host(b).unwrap().endpoint.octets(), [10, 0, 0, 2]);
        assert_eq!(net.host(HostId(0)).unwrap().dns_name, "test-computer.lan");
        assert!(net.host(HostId(99)).is_none());
        assert_eq!(net.hosts.len(), 2);
    }

    #[test]
    fn paths_fall_back_to_default() {
        let mut net = Network::new();
        let a = net.add_server("a.example", [10, 0, 0, 1], 443);
        let b = net.add_server("b.example", [10, 0, 0, 2], 443);
        let fast = PathSpec::symmetric(SimDuration::from_millis(5), 1_000_000_000);
        net.set_path(a, fast);
        assert_eq!(net.path(a).rtt, SimDuration::from_millis(5));
        assert_eq!(net.path(b).rtt, PathSpec::default().rtt);
    }

    /// The client ports of `opens` connections opened after `skipped` flow
    /// ids were handed out, read off their SYNs. A connection's client port
    /// is `EPHEMERAL_PORT_MIN + flow % span` (tcp.rs); no packet of any of
    /// them may carry a client port outside 49152..=65535.
    fn syn_ports(skipped: u64, opens: u64) -> Vec<u16> {
        use crate::tcp::{ConnectionOptions, TcpConnection};
        use crate::Simulator;
        use cloudsim_trace::{FlowKind, SimTime};

        let mut net = Network::new();
        let server = net.add_server("server.example", [10, 0, 0, 1], 443);
        let mut sim = Simulator::new(1);
        for _ in 0..skipped {
            sim.trace_mut().allocate_flow();
        }
        let opts = ConnectionOptions { tls: false, kind: FlowKind::Control };
        for flow in skipped..skipped + opens {
            let conn = TcpConnection::open(&mut sim, &net, server, opts, SimTime::ZERO);
            assert_eq!(conn.flow().0, flow);
        }
        let client = net.client().endpoint.addr;
        for packet in sim.packets() {
            let port = if packet.src.addr == client { packet.src.port } else { packet.dst.port };
            assert!(port >= EPHEMERAL_PORT_MIN, "client port {port} left 49152..=65535");
        }
        sim.packets().iter().filter(|p| p.is_syn()).map(|p| p.src.port).collect()
    }

    const SPAN: u64 = (u16::MAX - EPHEMERAL_PORT_MIN) as u64 + 1;

    #[test]
    fn client_ports_are_unique_and_wrap() {
        // Flows span-1, span and span+1: the last port, then the wrap.
        assert_eq!(syn_ports(SPAN - 1, 3), [u16::MAX, EPHEMERAL_PORT_MIN, EPHEMERAL_PORT_MIN + 1]);
    }

    #[test]
    fn fleet_scale_port_allocation_cycles_the_ephemeral_range() {
        // A fleet client can open thousands of connections (Cloud Drive opens
        // four per file): one full cycle uses every ephemeral port once, and
        // the next connection starts the range over.
        let ports = syn_ports(0, SPAN + 1);
        let distinct: std::collections::BTreeSet<u16> =
            ports[..SPAN as usize].iter().copied().collect();
        assert_eq!(distinct.len() as u64, SPAN);
        assert_eq!(ports[0], EPHEMERAL_PORT_MIN);
        assert_eq!(ports[SPAN as usize], EPHEMERAL_PORT_MIN);
    }

    #[test]
    fn client_endpoint_is_private_address() {
        let net = Network::new();
        assert_eq!(net.client().endpoint.octets(), [192, 168, 1, 10]);
        assert_eq!(net.client().id, HostId(0));
    }
}
