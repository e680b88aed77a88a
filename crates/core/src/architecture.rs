//! Architecture discovery (§2.1, §3 of the paper, Fig. 2).
//!
//! The pipeline mirrors the paper's methodology step by step: collect the DNS
//! names a client contacts, resolve them through the open-resolver fleet,
//! identify the owners of the returned addresses with whois, and geolocate
//! every front end with the hybrid (airport-code + shortest-RTT) method. The
//! output is the per-provider summary the paper gives in §3.2 plus the Fig. 2
//! style list of Google entry points.

use cloudsim_geo::{
    AuthoritativeDns, GeolocationEstimate, HybridGeolocator, IpRegistry, Provider,
    ProviderTopology, ResolverFleet,
};
use serde::Serialize;
use std::collections::{BTreeMap, BTreeSet};

/// One discovered front-end address.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct DiscoveredNode {
    /// The address, dotted-quad rendering.
    pub addr: String,
    /// Owner organisation according to whois.
    pub owner: String,
    /// Reverse-DNS name, when published.
    pub reverse_dns: Option<String>,
    /// Geolocation estimate.
    pub location: GeolocationEstimate,
}

/// The discovery report for one provider.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ArchitectureReport {
    /// Which provider was surveyed.
    pub provider: String,
    /// Every distinct front-end address discovered.
    pub nodes: Vec<DiscoveredNode>,
    /// Distinct owner organisations seen.
    pub owners: Vec<String>,
    /// Distinct countries (from the geolocation estimates mapped back to the
    /// nearest catalogue city).
    pub cities: Vec<String>,
    /// Mean geolocation error in kilometres (available because the substrate
    /// knows the ground truth).
    pub mean_error_km: f64,
}

impl ArchitectureReport {
    /// Number of distinct entry points discovered (the Fig. 2 headline for
    /// Google Drive: "more than 100 different entry points").
    pub fn entry_points(&self) -> usize {
        self.nodes.len()
    }
}

fn dotted(addr: u32) -> String {
    let o = addr.to_be_bytes();
    format!("{}.{}.{}.{}", o[0], o[1], o[2], o[3])
}

/// Runs the full §2.1 pipeline for one provider.
pub fn discover_architecture(
    provider: Provider,
    fleet: &ResolverFleet,
    rtt_seed: u64,
) -> ArchitectureReport {
    let dns = AuthoritativeDns::for_provider(provider);
    let truth = ProviderTopology::ground_truth(provider);
    let mut registry = IpRegistry::new();
    ProviderTopology::register_whois(&mut registry);
    let geolocator = HybridGeolocator::new(rtt_seed);

    // 1. Resolve from every vantage point and collect the distinct addresses.
    let mut discovered: BTreeSet<u32> = BTreeSet::new();
    for resolver in fleet.resolvers() {
        discovered.extend(dns.resolve(resolver));
    }

    // 2. whois + reverse DNS + hybrid geolocation for every address.
    let mut nodes = Vec::new();
    let mut owners: BTreeSet<String> = BTreeSet::new();
    let mut cities: BTreeSet<String> = BTreeSet::new();
    let mut error_sum = 0.0;
    for addr in &discovered {
        let owner = registry.owner(*addr).to_string();
        owners.insert(owner.clone());
        let truth_node = truth.nodes.iter().find(|n| n.addr == *addr);
        let reverse = dns.reverse_lookup(*addr).map(|s| s.to_string());
        let true_location = truth_node.map(|n| n.location).unwrap_or(cloudsim_geo::coords::TESTBED);
        let estimate = geolocator.locate(reverse.as_deref(), true_location);
        error_sum += estimate.error_km;
        if let Some(n) = truth_node {
            cities.insert(n.city.clone());
        }
        nodes.push(DiscoveredNode {
            addr: dotted(*addr),
            owner,
            reverse_dns: reverse,
            location: estimate,
        });
    }

    let mean_error_km = if nodes.is_empty() { 0.0 } else { error_sum / nodes.len() as f64 };
    ArchitectureReport {
        provider: provider.name().to_string(),
        nodes,
        owners: owners.into_iter().collect(),
        cities: cities.into_iter().collect(),
        mean_error_km,
    }
}

/// Runs the discovery for all five providers with the paper-scale resolver
/// fleet. Returns reports keyed by provider name.
pub fn discover_all(rtt_seed: u64) -> BTreeMap<String, ArchitectureReport> {
    let fleet = ResolverFleet::paper_scale();
    Provider::ALL
        .iter()
        .map(|p| (p.name().to_string(), discover_architecture(*p, &fleet, rtt_seed)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_fleet() -> ResolverFleet {
        ResolverFleet::generate(512, 4)
    }

    #[test]
    fn google_drive_discovery_reproduces_fig2() {
        let fleet = ResolverFleet::paper_scale();
        assert!(fleet.len() >= 2000);
        let report = discover_architecture(Provider::GoogleDrive, &fleet, 1);
        assert!(report.entry_points() > 100, "found {}", report.entry_points());
        assert_eq!(report.owners, vec!["Google LLC".to_string()]);
        assert!(report.cities.len() > 40, "cities {}", report.cities.len());
        assert!(report.mean_error_km < 300.0);
    }

    #[test]
    fn dropbox_storage_is_amazon_control_is_dropbox() {
        let report = discover_architecture(Provider::Dropbox, &small_fleet(), 2);
        assert!(report.owners.contains(&"Amazon.com, Inc.".to_string()));
        assert!(report.owners.contains(&"Dropbox, Inc.".to_string()));
        assert!(report.entry_points() <= 8);
        assert!(report.cities.contains(&"San Jose".to_string()));
        assert!(report.cities.contains(&"Ashburn".to_string()));
    }

    #[test]
    fn wuala_is_hosted_in_europe_by_third_parties() {
        let report = discover_architecture(Provider::Wuala, &small_fleet(), 3);
        assert!(!report.owners.iter().any(|o| o.contains("Wuala")));
        assert!(!report.cities.is_empty());
        for city in &report.cities {
            assert!(
                ["Nuremberg", "Zurich", "Lille"].contains(&city.as_str()),
                "unexpected city {city}"
            );
        }
    }

    #[test]
    fn centralised_providers_have_few_entry_points() {
        for provider in [Provider::SkyDrive, Provider::CloudDrive] {
            let report = discover_architecture(provider, &small_fleet(), 4);
            assert!(report.entry_points() <= 8, "{provider:?}: {}", report.entry_points());
            assert_eq!(report.owners.len(), 1);
        }
    }

    #[test]
    fn discover_all_covers_every_provider() {
        let all = discover_all(5);
        assert_eq!(all.len(), 5);
        assert!(all.contains_key("Google Drive"));
        assert!(all["Cloud Drive"].owners.contains(&"Amazon.com, Inc.".to_string()));
    }
}
