//! Authoritative DNS behaviour of each provider.
//!
//! §2.1: "cloud services rely on the DNS to distribute workload, returning
//! different IP addresses according to the originating DNS resolver". This is
//! what makes the resolver sweep informative: a provider with a single
//! centralised deployment answers every resolver with the same handful of
//! addresses, whereas Google's geo-aware DNS returns the edge node closest to
//! the resolver — which is how the study uncovers the >100 entry points of
//! Fig. 2.

use crate::coords::GeoPoint;
use crate::providers::{Provider, ProviderTopology, ServerRole};
use crate::resolvers::OpenResolver;

/// The authoritative DNS front end of one provider.
#[derive(Debug, Clone)]
pub struct AuthoritativeDns {
    topology: ProviderTopology,
}

impl AuthoritativeDns {
    /// Builds the authoritative server for a provider's ground-truth topology.
    pub fn for_provider(provider: Provider) -> AuthoritativeDns {
        AuthoritativeDns { topology: ProviderTopology::ground_truth(provider) }
    }

    /// The provider this authority answers for.
    #[cfg(test)]
    pub(crate) fn provider(&self) -> Provider {
        self.topology.provider
    }

    /// The underlying topology.
    #[cfg(test)]
    pub(crate) fn topology(&self) -> &ProviderTopology {
        &self.topology
    }

    /// Answers a query originating from `resolver`: the set of addresses the
    /// provider would return to clients behind that resolver.
    pub fn resolve(&self, resolver: &OpenResolver) -> Vec<u32> {
        self.resolve_from(resolver.location)
    }

    /// Answers a query originating from an arbitrary location.
    pub(crate) fn resolve_from(&self, origin: GeoPoint) -> Vec<u32> {
        match self.topology.provider {
            Provider::GoogleDrive => {
                // Geo-aware answer: the two closest edge nodes.
                let mut edges: Vec<(&_, f64)> = self
                    .topology
                    .nodes
                    .iter()
                    .filter(|n| n.role == ServerRole::Edge)
                    .map(|n| (n, n.location.distance_km(&origin)))
                    .collect();
                edges.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
                edges.iter().take(2).map(|(n, _)| n.addr).collect()
            }
            _ => {
                // Centralised answer: every non-edge front end, independent of
                // the query origin.
                self.topology
                    .nodes
                    .iter()
                    .filter(|n| n.role != ServerRole::Edge)
                    .map(|n| n.addr)
                    .collect()
            }
        }
    }

    /// The reverse-DNS (PTR) record for an address, if the provider publishes
    /// one. The hybrid geolocator mines these for airport codes.
    pub fn reverse_lookup(&self, addr: u32) -> Option<&str> {
        self.topology.nodes.iter().find(|n| n.addr == addr).map(|n| n.reverse_dns.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coords::city_by_airport;
    use crate::resolvers::ResolverFleet;

    fn resolver_in(airport: &str) -> OpenResolver {
        let fleet = ResolverFleet::paper_scale();
        let city = city_by_airport(airport).unwrap();
        fleet
            .resolvers()
            .iter()
            .find(|r| r.city == city.name)
            .cloned()
            .expect("fleet covers every catalogue city")
    }

    #[test]
    fn centralised_providers_answer_identically_everywhere() {
        for provider in
            [Provider::Dropbox, Provider::SkyDrive, Provider::Wuala, Provider::CloudDrive]
        {
            let dns = AuthoritativeDns::for_provider(provider);
            let from_europe = dns.resolve(&resolver_in("AMS"));
            let from_asia = dns.resolve(&resolver_in("NRT"));
            let from_america = dns.resolve(&resolver_in("JFK"));
            assert_eq!(from_europe, from_asia, "{provider:?}");
            assert_eq!(from_europe, from_america, "{provider:?}");
            assert!(!from_europe.is_empty());
        }
    }

    #[test]
    fn google_answers_depend_on_the_query_origin() {
        let dns = AuthoritativeDns::for_provider(Provider::GoogleDrive);
        let from_europe = dns.resolve(&resolver_in("AMS"));
        let from_asia = dns.resolve(&resolver_in("SIN"));
        assert_ne!(from_europe, from_asia);
        // The answer from Amsterdam points at a nearby edge (same continent).
        let edge_addr = from_europe[0];
        let reverse = dns.reverse_lookup(edge_addr).unwrap();
        let ams = city_by_airport("AMS").unwrap().location;
        let node = dns.topology().nodes.iter().find(|n| n.addr == edge_addr).unwrap();
        assert!(node.location.distance_km(&ams) < 1500.0, "edge too far: {reverse}");
    }

    #[test]
    fn sweeping_all_resolvers_uncovers_many_google_entry_points() {
        let dns = AuthoritativeDns::for_provider(Provider::GoogleDrive);
        let fleet = ResolverFleet::paper_scale();
        let mut discovered: std::collections::HashSet<u32> = std::collections::HashSet::new();
        for resolver in fleet.resolvers() {
            discovered.extend(dns.resolve(resolver));
        }
        assert!(discovered.len() > 100, "discovered only {} entry points", discovered.len());
    }

    #[test]
    fn sweeping_centralised_providers_finds_few_addresses() {
        let dns = AuthoritativeDns::for_provider(Provider::Dropbox);
        let fleet = ResolverFleet::generate(256, 2);
        let mut discovered: std::collections::HashSet<u32> = std::collections::HashSet::new();
        for resolver in fleet.resolvers() {
            discovered.extend(dns.resolve(resolver));
        }
        assert!(discovered.len() <= 8);
    }

    #[test]
    fn reverse_lookup_only_answers_for_known_addresses() {
        let dns = AuthoritativeDns::for_provider(Provider::Wuala);
        let known = dns.topology().nodes[0].addr;
        assert!(dns.reverse_lookup(known).is_some());
        assert!(dns.reverse_lookup(0x01020304).is_none());
        assert_eq!(dns.provider(), Provider::Wuala);
    }
}
