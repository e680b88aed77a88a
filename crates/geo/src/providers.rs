//! Ground-truth topologies of the five studied providers.
//!
//! §3.2 of the paper documents where each service keeps its servers:
//!
//! * **Dropbox** — own control servers in the San Jose area; storage committed
//!   to Amazon in Northern Virginia.
//! * **Cloud Drive** — three AWS data centres: Ireland and Northern Virginia
//!   (storage + control) plus Oregon (storage only).
//! * **SkyDrive** — Microsoft data centres in the Seattle area (storage) and
//!   Southern Virginia (storage + control), plus a control-only destination in
//!   Singapore.
//! * **Wuala** — European data centres only: two near Nuremberg, one in Zurich
//!   and one in Northern France; none owned by Wuala itself.
//! * **Google Drive** — client TCP connections terminate at the closest of
//!   more than 100 edge nodes, from where traffic rides Google's private
//!   backbone to the storage/control data centres.
//!
//! These topologies are the *ground truth* the synthetic DNS, whois and
//! geolocation pipeline is evaluated against.

use crate::coords::{city_by_airport, GeoPoint, WORLD_CITIES};
use crate::registry::{IpBlock, IpRegistry};

/// The five services studied in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Provider {
    /// Dropbox (v2.0.8 in the study).
    Dropbox,
    /// Microsoft SkyDrive (now OneDrive).
    SkyDrive,
    /// LaCie Wuala.
    Wuala,
    /// Google Drive.
    GoogleDrive,
    /// Amazon Cloud Drive.
    CloudDrive,
}

impl Provider {
    /// All providers in the paper's presentation order.
    pub const ALL: [Provider; 5] = [
        Provider::Dropbox,
        Provider::SkyDrive,
        Provider::Wuala,
        Provider::GoogleDrive,
        Provider::CloudDrive,
    ];

    /// Human-readable name as used in the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            Provider::Dropbox => "Dropbox",
            Provider::SkyDrive => "SkyDrive",
            Provider::Wuala => "Wuala",
            Provider::GoogleDrive => "Google Drive",
            Provider::CloudDrive => "Cloud Drive",
        }
    }
}

/// Role a server plays for its provider.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ServerRole {
    /// Control only (login, metadata).
    Control,
    /// Storage only (bulk content).
    Storage,
    /// Both control and storage on the same front end (Wuala).
    Both,
    /// Notification / keep-alive endpoint (Dropbox's plain-HTTP protocol).
    Notification,
    /// A Google-style edge node terminating client TCP connections.
    Edge,
}

/// One server (or edge node) of a provider's infrastructure.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerNode {
    /// DNS name of the front end.
    pub dns_name: String,
    /// Reverse-DNS (PTR) name; Google and Amazon embed airport codes here.
    pub(crate) reverse_dns: String,
    /// IPv4 address, host byte order.
    pub addr: u32,
    /// Role of the node.
    pub role: ServerRole,
    /// Physical location (ground truth).
    pub location: GeoPoint,
    /// City label of the location.
    pub city: String,
    /// Organisation that owns the address block (whois answer).
    pub(crate) owner: String,
}

/// The full ground-truth topology of one provider.
#[derive(Debug, Clone)]
pub struct ProviderTopology {
    /// Which provider this is.
    pub(crate) provider: Provider,
    /// Every server / edge node of the provider.
    pub nodes: Vec<ServerNode>,
}

fn node(
    dns: &str,
    reverse: &str,
    addr: [u8; 4],
    role: ServerRole,
    airport: &str,
    owner: &str,
) -> ServerNode {
    let city = city_by_airport(airport).unwrap_or_else(|| panic!("unknown airport code {airport}"));
    ServerNode {
        dns_name: dns.to_string(),
        reverse_dns: reverse.to_string(),
        addr: u32::from_be_bytes(addr),
        role,
        location: city.location,
        city: city.name.to_string(),
        owner: owner.to_string(),
    }
}

impl ProviderTopology {
    /// Builds the ground-truth topology of a provider.
    pub fn ground_truth(provider: Provider) -> ProviderTopology {
        let nodes = match provider {
            Provider::Dropbox => vec![
                node(
                    "client.dropbox.com",
                    "client1.sjc.dropbox.com",
                    [108, 160, 162, 10],
                    ServerRole::Control,
                    "SJC",
                    "Dropbox, Inc.",
                ),
                node(
                    "clientX.dropbox.com",
                    "client2.sjc.dropbox.com",
                    [108, 160, 162, 11],
                    ServerRole::Control,
                    "SJC",
                    "Dropbox, Inc.",
                ),
                node(
                    "notify.dropbox.com",
                    "notify1.sjc.dropbox.com",
                    [108, 160, 165, 20],
                    ServerRole::Notification,
                    "SJC",
                    "Dropbox, Inc.",
                ),
                node(
                    "dl-clientXX.dropbox.com",
                    "ec2-54-231-10-1.iad.amazonaws.example",
                    [54, 231, 10, 1],
                    ServerRole::Storage,
                    "IAD",
                    "Amazon.com, Inc.",
                ),
                node(
                    "dl-clientYY.dropbox.com",
                    "ec2-54-231-10-2.iad.amazonaws.example",
                    [54, 231, 10, 2],
                    ServerRole::Storage,
                    "IAD",
                    "Amazon.com, Inc.",
                ),
            ],
            Provider::CloudDrive => vec![
                node(
                    "www.amazon.com",
                    "ec2-176-32-100-1.dub.amazonaws.example",
                    [176, 32, 100, 1],
                    ServerRole::Both,
                    "DUB",
                    "Amazon.com, Inc.",
                ),
                node(
                    "cdws.us-east-1.amazonaws.com",
                    "ec2-54-240-10-1.iad.amazonaws.example",
                    [54, 240, 10, 1],
                    ServerRole::Both,
                    "IAD",
                    "Amazon.com, Inc.",
                ),
                node(
                    "content-na.drive.amazonaws.com",
                    "ec2-54-245-20-1.dls.amazonaws.example",
                    [54, 245, 20, 1],
                    ServerRole::Storage,
                    "DLS",
                    "Amazon.com, Inc.",
                ),
            ],
            Provider::SkyDrive => vec![
                node(
                    "storage.live.com",
                    "bn1-sky-storage1.sea.msn.example",
                    [134, 170, 10, 1],
                    ServerRole::Storage,
                    "SEA",
                    "Microsoft Corporation",
                ),
                node(
                    "skyapi.live.net",
                    "db3-sky-api1.ric.msn.example",
                    [134, 170, 20, 1],
                    ServerRole::Both,
                    "RIC",
                    "Microsoft Corporation",
                ),
                node(
                    "login.live.com",
                    "login1.ric.msn.example",
                    [134, 170, 20, 2],
                    ServerRole::Control,
                    "RIC",
                    "Microsoft Corporation",
                ),
                node(
                    "roaming.officeapps.live.com",
                    "sg2-roaming1.sin.msn.example",
                    [134, 170, 30, 1],
                    ServerRole::Control,
                    "SIN",
                    "Microsoft Corporation",
                ),
            ],
            Provider::Wuala => vec![
                node(
                    "content1.wuala.com",
                    "static.88-198-10-1.clients.your-server.example",
                    [88, 198, 10, 1],
                    ServerRole::Both,
                    "NUE",
                    "Hetzner Online AG",
                ),
                node(
                    "content2.wuala.com",
                    "static.88-198-10-2.clients.your-server.example",
                    [88, 198, 10, 2],
                    ServerRole::Both,
                    "NUE",
                    "Hetzner Online AG",
                ),
                node(
                    "content3.wuala.com",
                    "zrh-storage1.greenqloud.example",
                    [92, 42, 50, 1],
                    ServerRole::Both,
                    "ZRH",
                    "Nine Internet Solutions AG",
                ),
                node(
                    "content4.wuala.com",
                    "lil-storage1.ovh.example",
                    [94, 23, 60, 1],
                    ServerRole::Both,
                    "LIL",
                    "OVH SAS",
                ),
            ],
            Provider::GoogleDrive => {
                let mut nodes = vec![
                    node(
                        "drive-storage.googleapis.com",
                        "cbf-core1.1e100.example",
                        [173, 194, 100, 1],
                        ServerRole::Storage,
                        "CBF",
                        "Google LLC",
                    ),
                    node(
                        "clients4.google.com",
                        "cbf-core2.1e100.example",
                        [173, 194, 100, 2],
                        ServerRole::Control,
                        "CBF",
                        "Google LLC",
                    ),
                ];
                // Edge nodes: two per catalogue city, which yields the ">100
                // different entry points" reported around Fig. 2.
                for (i, city) in WORLD_CITIES.iter().enumerate() {
                    for replica in 0..2u8 {
                        let airport = city.airport.to_lowercase();
                        nodes.push(ServerNode {
                            dns_name: "googledrive.edge.google.com".to_string(),
                            reverse_dns: format!(
                                "{}{:02}s{:02}-in-f1.1e100.example",
                                airport,
                                i % 30,
                                replica
                            ),
                            addr: u32::from_be_bytes([173, 194, (i % 250) as u8, 10 + replica]),
                            role: ServerRole::Edge,
                            location: city.location,
                            city: city.name.to_string(),
                            owner: "Google LLC".to_string(),
                        });
                    }
                }
                nodes
            }
        };
        ProviderTopology { provider, nodes }
    }

    /// All ground-truth topologies.
    #[cfg(test)]
    pub(crate) fn all() -> Vec<ProviderTopology> {
        Provider::ALL.iter().map(|p| ProviderTopology::ground_truth(*p)).collect()
    }

    /// Registers every owner's address blocks in an [`IpRegistry`], so whois
    /// lookups over discovered addresses resolve to the right organisations.
    pub fn register_whois(registry: &mut IpRegistry) {
        registry.register(IpBlock::cidr([108, 160, 160, 0], 20, "Dropbox, Inc."));
        registry.register(IpBlock::cidr([54, 224, 0, 0], 11, "Amazon.com, Inc."));
        registry.register(IpBlock::cidr([176, 32, 96, 0], 19, "Amazon.com, Inc."));
        registry.register(IpBlock::cidr([134, 170, 0, 0], 16, "Microsoft Corporation"));
        registry.register(IpBlock::cidr([88, 198, 0, 0], 16, "Hetzner Online AG"));
        registry.register(IpBlock::cidr([92, 42, 48, 0], 21, "Nine Internet Solutions AG"));
        registry.register(IpBlock::cidr([94, 23, 0, 0], 16, "OVH SAS"));
        registry.register(IpBlock::cidr([173, 194, 0, 0], 16, "Google LLC"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::addr;

    /// Nodes playing a given role.
    fn nodes_with_role(topo: &ProviderTopology, role: ServerRole) -> Vec<&ServerNode> {
        topo.nodes.iter().filter(|n| n.role == role).collect()
    }

    /// The distinct owners of the provider's address space (whois view).
    fn owners(topo: &ProviderTopology) -> Vec<String> {
        let mut owners: Vec<String> = topo.nodes.iter().map(|n| n.owner.clone()).collect();
        owners.sort();
        owners.dedup();
        owners
    }

    /// The distinct ISO country codes of the ground-truth node locations.
    fn countries(topo: &ProviderTopology) -> Vec<&'static str> {
        let mut countries: Vec<&'static str> = topo
            .nodes
            .iter()
            .filter_map(|n| {
                WORLD_CITIES
                    .iter()
                    .find(|c| {
                        (c.location.lat - n.location.lat).abs() < 1e-9
                            && (c.location.lon - n.location.lon).abs() < 1e-9
                    })
                    .map(|c| c.country)
            })
            .collect();
        countries.sort();
        countries.dedup();
        countries
    }

    #[test]
    fn google_drive_has_more_than_100_edge_nodes() {
        let topo = ProviderTopology::ground_truth(Provider::GoogleDrive);
        let edges = nodes_with_role(&topo, ServerRole::Edge);
        assert!(edges.len() > 100, "only {} edge nodes", edges.len());
        // Spread across many countries, like Fig. 2.
        assert!(countries(&topo).len() > 30);
    }

    #[test]
    fn dropbox_splits_control_and_storage_ownership() {
        let topo = ProviderTopology::ground_truth(Provider::Dropbox);
        let owners = owners(&topo);
        assert!(owners.contains(&"Dropbox, Inc.".to_string()));
        assert!(owners.contains(&"Amazon.com, Inc.".to_string()));
        // Control in San Jose, storage in Northern Virginia.
        let control = nodes_with_role(&topo, ServerRole::Control);
        assert!(control.iter().all(|n| n.city == "San Jose"));
        let storage = nodes_with_role(&topo, ServerRole::Storage);
        assert!(storage.iter().all(|n| n.city == "Ashburn"));
    }

    #[test]
    fn wuala_is_european_and_not_self_hosted() {
        let topo = ProviderTopology::ground_truth(Provider::Wuala);
        assert_eq!(topo.nodes.len(), 4);
        assert!(owners(&topo).iter().all(|o| !o.contains("Wuala")));
        let countries = countries(&topo);
        for c in &countries {
            assert!(["DE", "CH", "FR"].contains(c), "unexpected country {c}");
        }
        // All nodes serve both roles (no dedicated control servers, §3.1).
        assert!(topo.nodes.iter().all(|n| n.role == ServerRole::Both));
    }

    #[test]
    fn cloud_drive_uses_three_aws_regions() {
        let topo = ProviderTopology::ground_truth(Provider::CloudDrive);
        let cities: std::collections::HashSet<&str> =
            topo.nodes.iter().map(|n| n.city.as_str()).collect();
        assert_eq!(cities.len(), 3);
        assert!(cities.contains("Dublin"));
        assert!(cities.contains("Ashburn"));
        assert!(owners(&topo) == vec!["Amazon.com, Inc.".to_string()]);
        // Oregon is storage-only.
        let storage_only = nodes_with_role(&topo, ServerRole::Storage);
        assert_eq!(storage_only.len(), 1);
        assert_eq!(storage_only[0].city, "The Dalles");
    }

    #[test]
    fn skydrive_has_a_singapore_control_destination() {
        let topo = ProviderTopology::ground_truth(Provider::SkyDrive);
        let control = nodes_with_role(&topo, ServerRole::Control);
        assert!(control.iter().any(|n| n.city == "Singapore"));
        assert!(topo.nodes.iter().any(|n| n.city == "Seattle" && n.role == ServerRole::Storage));
        assert_eq!(owners(&topo), vec!["Microsoft Corporation".to_string()]);
    }

    #[test]
    fn whois_registry_resolves_every_ground_truth_node() {
        let mut registry = IpRegistry::new();
        ProviderTopology::register_whois(&mut registry);
        for topo in ProviderTopology::all() {
            for node in &topo.nodes {
                assert_eq!(
                    registry.owner(node.addr),
                    node.owner,
                    "whois mismatch for {} ({})",
                    node.dns_name,
                    node.city
                );
            }
        }
        // An address outside every registered block stays unknown.
        assert_eq!(registry.owner(addr([203, 0, 113, 7])), "unknown");
    }

    #[test]
    fn provider_names_and_order_match_the_paper() {
        let names: Vec<&str> = Provider::ALL.iter().map(|p| p.name()).collect();
        assert_eq!(names, vec!["Dropbox", "SkyDrive", "Wuala", "Google Drive", "Cloud Drive"]);
    }
}
