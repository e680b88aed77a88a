//! Deployment: instantiating a service's servers and network paths.
//!
//! Converts a [`ServiceProfile`] into a `cloudsim-net` topology: control
//! servers (one per login destination), a storage front end and a
//! notification endpoint, each reachable over the RTT/bandwidth the profile
//! prescribes. The addresses are taken from the provider's ground-truth
//! topology in `cloudsim-geo` so the architecture-discovery experiments and
//! the performance benchmarks see a consistent world.

use crate::profile::ServiceProfile;
use cloudsim_geo::{Provider, ProviderTopology, ServerRole};
use cloudsim_net::{AccessLink, HostId, Network, PathSpec};

/// The instantiated servers of one service.
#[derive(Debug, Clone)]
pub(crate) struct Deployment {
    /// The network topology (client + servers + paths).
    pub(crate) network: Network,
    /// Control servers contacted during login, in contact order.
    pub(crate) control_hosts: Vec<HostId>,
    /// The storage front end uploads go to.
    pub(crate) storage_host: HostId,
    /// The notification / keep-alive endpoint.
    pub(crate) notification_host: HostId,
}

impl Deployment {
    /// Builds the deployment for a profile, measured from the paper's campus
    /// testbed (the identity access link).
    pub(crate) fn new(profile: &ServiceProfile) -> Deployment {
        Deployment::with_link(profile, &AccessLink::campus())
    }

    /// Builds the deployment for a profile as seen from a client behind the
    /// given access link: every server path is composed with the link
    /// (bottleneck bandwidth, added RTT, combined loss). This is how a
    /// heterogeneous fleet gives each simulated user its own network world.
    pub(crate) fn with_link(profile: &ServiceProfile, link: &AccessLink) -> Deployment {
        let mut network = Network::new();
        let truth = ProviderTopology::ground_truth(profile.provider);

        let control_path = link.apply(PathSpec::symmetric(profile.control_rtt, profile.bandwidth));
        let storage_path = link.apply(PathSpec::symmetric(profile.storage_rtt, profile.bandwidth));

        // Control servers: reuse ground-truth control/both nodes, padding with
        // synthetic siblings when the profile contacts more servers than the
        // topology lists (SkyDrive's 13 Microsoft Live hosts).
        let mut control_hosts = Vec::new();
        let control_nodes: Vec<_> = truth
            .nodes
            .iter()
            .filter(|n| matches!(n.role, ServerRole::Control | ServerRole::Both))
            .collect();
        for i in 0..profile.login_servers as usize {
            let (name, octets) = if let Some(node) = control_nodes.get(i) {
                (node.dns_name.clone(), node.addr.to_be_bytes())
            } else {
                let base = control_nodes
                    .first()
                    .map(|n| n.addr)
                    .unwrap_or(u32::from_be_bytes([198, 51, 100, 1]));
                let addr = base.wrapping_add(100 + i as u32);
                (
                    format!(
                        "login{}.{}.example",
                        i,
                        profile.name().to_lowercase().replace(' ', "")
                    ),
                    addr.to_be_bytes(),
                )
            };
            let host = network.add_server(&name, octets, 443);
            network.set_path(host, control_path);
            control_hosts.push(host);
        }

        // Storage front end: for Google Drive this is the closest edge node
        // (which is what makes its RTT 15 ms), otherwise the first storage
        // node of the ground truth.
        let storage_node = match profile.provider {
            Provider::GoogleDrive => truth
                .nodes
                .iter()
                .find(|n| n.role == ServerRole::Edge && n.country_hint() == Some("NL"))
                .or_else(|| truth.nodes.iter().find(|n| n.role == ServerRole::Edge))
                .or_else(|| truth.nodes.iter().find(|n| n.role == ServerRole::Storage)),
            _ => truth
                .nodes
                .iter()
                .find(|n| matches!(n.role, ServerRole::Storage | ServerRole::Both)),
        };
        let (storage_name, storage_octets) = storage_node
            .map(|n| (n.dns_name.clone(), n.addr.to_be_bytes()))
            .unwrap_or(("storage.example".to_string(), [203, 0, 113, 10]));
        let storage_host = network.add_server(&storage_name, storage_octets, 443);
        network.set_path(storage_host, storage_path);

        // Notification endpoint: shares the control placement.
        let notification_host = network.add_server(
            &format!("notify.{}.example", profile.name().to_lowercase().replace(' ', "")),
            [198, 51, 100, 53],
            if profile.notification_plain_http { 80 } else { 443 },
        );
        network.set_path(notification_host, control_path);

        Deployment { network, control_hosts, storage_host, notification_host }
    }

    /// The first (primary) control server.
    pub(crate) fn primary_control(&self) -> HostId {
        self.control_hosts[0]
    }
}

/// Small extension used when picking a Dutch edge node for Google Drive.
trait CountryHint {
    fn country_hint(&self) -> Option<&'static str>;
}

impl CountryHint for cloudsim_geo::ServerNode {
    fn country_hint(&self) -> Option<&'static str> {
        cloudsim_geo::WORLD_CITIES.iter().find(|c| c.name == self.city).map(|c| c.country)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::ServiceProfile;
    use cloudsim_net::SimDuration;

    #[test]
    fn every_profile_deploys_consistently() {
        for profile in ServiceProfile::all() {
            let deployment = Deployment::new(&profile);
            assert_eq!(
                deployment.control_hosts.len(),
                profile.login_servers as usize,
                "{}",
                profile.name()
            );
            // Paths carry the profile's RTTs.
            let storage_path = deployment.network.path(deployment.storage_host);
            assert_eq!(storage_path.rtt, profile.storage_rtt, "{}", profile.name());
            let control_path = deployment.network.path(deployment.primary_control());
            assert_eq!(control_path.rtt, profile.control_rtt, "{}", profile.name());
            // All hosts resolve.
            assert!(deployment.network.host(deployment.storage_host).is_some());
            assert!(deployment.network.host(deployment.notification_host).is_some());
        }
    }

    #[test]
    fn skydrive_contacts_thirteen_login_servers() {
        let deployment = Deployment::new(&ServiceProfile::skydrive());
        assert_eq!(deployment.control_hosts.len(), 13);
        // Servers must be distinct endpoints.
        let addrs: std::collections::HashSet<u32> = deployment
            .control_hosts
            .iter()
            .map(|h| deployment.network.host(*h).unwrap().endpoint.addr)
            .collect();
        assert_eq!(addrs.len(), 13);
    }

    #[test]
    fn google_drive_storage_is_a_nearby_edge() {
        let deployment = Deployment::new(&ServiceProfile::google_drive());
        let path = deployment.network.path(deployment.storage_host);
        assert!(path.rtt <= SimDuration::from_millis(20));
        let host = deployment.network.host(deployment.storage_host).unwrap();
        assert!(host.dns_name.contains("google"));
    }

    #[test]
    fn access_links_reshape_every_path_of_the_deployment() {
        let profile = ServiceProfile::dropbox();
        let campus = Deployment::new(&profile);
        let adsl = Deployment::with_link(&profile, &AccessLink::adsl());
        let storage = adsl.network.path(adsl.storage_host);
        // Upstream is clamped to the 1 Mb/s ADSL uplink and the access
        // latency is added on top of the provider RTT.
        assert_eq!(storage.up_bandwidth, 1_000_000);
        assert_eq!(
            storage.rtt,
            campus.network.path(campus.storage_host).rtt + SimDuration::from_millis(30)
        );
        let control = adsl.network.path(adsl.primary_control());
        assert_eq!(control.up_bandwidth, 1_000_000);
        // The campus link is the identity: same paths as the plain deployment.
        let campus2 = Deployment::with_link(&profile, &AccessLink::campus());
        assert_eq!(
            campus2.network.path(campus2.storage_host),
            campus.network.path(campus.storage_host)
        );
    }

    #[test]
    fn dropbox_notification_uses_plain_http_port() {
        let deployment = Deployment::new(&ServiceProfile::dropbox());
        let host = deployment.network.host(deployment.notification_host).unwrap();
        assert_eq!(host.endpoint.port, 80);
        let skydrive = Deployment::new(&ServiceProfile::skydrive());
        let sky_notify = skydrive.network.host(skydrive.notification_host).unwrap();
        assert_eq!(sky_notify.endpoint.port, 443);
    }
}
