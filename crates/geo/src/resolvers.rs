//! The open-resolver fleet.
//!
//! §2.1: "DNS names are resolved to IP addresses by contacting more than 2,000
//! open DNS resolvers spread around the world. ... The list has been manually
//! compiled from various sources and covers more than 100 countries and 500
//! ISPs." The synthetic fleet is generated deterministically over the world
//! city catalogue with a configurable size, and tags every resolver with an
//! ISP label so the coverage statistics the paper quotes can be reproduced.

use crate::coords::{GeoPoint, WORLD_CITIES};

/// One open resolver.
#[derive(Debug, Clone, PartialEq)]
pub struct OpenResolver {
    /// Stable identifier within the fleet.
    pub(crate) id: u32,
    /// IPv4 address of the resolver.
    pub(crate) addr: u32,
    /// Location (the vantage point whose "view" of the provider's DNS this
    /// resolver returns).
    pub(crate) location: GeoPoint,
    /// City name.
    pub(crate) city: String,
    /// ISO country code.
    pub(crate) country: String,
    /// ISP operating the resolver.
    pub(crate) isp: String,
}

/// The generated resolver fleet.
#[derive(Debug, Clone)]
pub struct ResolverFleet {
    resolvers: Vec<OpenResolver>,
}

impl ResolverFleet {
    /// Generates a fleet of `count` resolvers round-robined over the city
    /// catalogue, with ISP labels cycling through `isps_per_city` providers
    /// per city.
    pub fn generate(count: usize, isps_per_city: usize) -> ResolverFleet {
        assert!(count > 0, "fleet must not be empty");
        assert!(isps_per_city > 0, "need at least one ISP per city");
        let resolvers = (0..count)
            .map(|i| {
                let city = &WORLD_CITIES[i % WORLD_CITIES.len()];
                let isp_index = (i / WORLD_CITIES.len()) % isps_per_city;
                OpenResolver {
                    id: i as u32,
                    addr: u32::from_be_bytes([
                        198,
                        18 + (i / 65536) as u8,
                        ((i / 256) % 256) as u8,
                        (i % 256) as u8,
                    ]),
                    location: city.location,
                    city: city.name.to_string(),
                    country: city.country.to_string(),
                    isp: format!("{}-ISP-{:02}", city.country, isp_index),
                }
            })
            .collect();
        ResolverFleet { resolvers }
    }

    /// The fleet the paper describes: >2,000 resolvers.
    pub fn paper_scale() -> ResolverFleet {
        ResolverFleet::generate(2048, 8)
    }

    /// The resolvers.
    pub fn resolvers(&self) -> &[OpenResolver] {
        &self.resolvers
    }

    /// Fleet size.
    pub fn len(&self) -> usize {
        self.resolvers.len()
    }

    /// True when the fleet is empty.
    pub fn is_empty(&self) -> bool {
        self.resolvers.is_empty()
    }

    /// Number of distinct countries covered.
    pub fn country_count(&self) -> usize {
        let set: std::collections::HashSet<&str> =
            self.resolvers.iter().map(|r| r.country.as_str()).collect();
        set.len()
    }

    /// Number of distinct ISPs covered.
    pub fn isp_count(&self) -> usize {
        let set: std::collections::HashSet<&str> =
            self.resolvers.iter().map(|r| r.isp.as_str()).collect();
        set.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_scale_fleet_matches_the_description() {
        let fleet = ResolverFleet::paper_scale();
        assert!(fleet.len() >= 2000, "fleet has {}", fleet.len());
        assert!(fleet.country_count() >= 45);
        assert!(fleet.isp_count() >= 300, "only {} ISPs", fleet.isp_count());
        assert!(!fleet.is_empty());
    }

    #[test]
    fn resolver_ids_and_addresses_are_unique() {
        let fleet = ResolverFleet::generate(3000, 8);
        let ids: std::collections::HashSet<u32> = fleet.resolvers().iter().map(|r| r.id).collect();
        assert_eq!(ids.len(), 3000);
        let addrs: std::collections::HashSet<u32> =
            fleet.resolvers().iter().map(|r| r.addr).collect();
        assert_eq!(addrs.len(), 3000);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = ResolverFleet::generate(500, 4);
        let b = ResolverFleet::generate(500, 4);
        assert_eq!(a.resolvers()[123], b.resolvers()[123]);
    }

    #[test]
    fn small_fleets_work() {
        let fleet = ResolverFleet::generate(3, 1);
        assert_eq!(fleet.len(), 3);
        assert_eq!(fleet.country_count(), 3);
    }

    #[test]
    #[should_panic(expected = "fleet must not be empty")]
    fn empty_fleet_is_rejected() {
        let _ = ResolverFleet::generate(0, 1);
    }
}
