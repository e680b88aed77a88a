//! Hybrid geolocation of discovered front-end addresses.
//!
//! §2.1: popular geolocation databases are unreliable for cloud providers, so
//! the study uses a hybrid of (i) informative strings — International Airport
//! Codes — in reverse-DNS names, (ii) the shortest RTT to PlanetLab nodes and
//! (iii) traceroute hints, achieving roughly 100 km precision.
//!
//! [`HybridGeolocator`] implements the first two stages over the synthetic
//! substrate. Because the ground truth is known, every estimate carries its
//! error distance, which lets the test-suite verify the claimed precision.

use crate::coords::{city_by_airport, GeoPoint};
use crate::landmarks::LandmarkSet;

/// How an estimate was obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GeolocationMethod {
    /// An airport code embedded in the reverse-DNS name matched the catalogue.
    AirportCode,
    /// Fallback: location of the landmark with the smallest measured RTT.
    ShortestRtt,
}

/// The result of geolocating one address.
#[derive(Debug, Clone, PartialEq)]
pub struct GeolocationEstimate {
    /// Estimated location.
    pub(crate) location: GeoPoint,
    /// Which stage of the hybrid produced the estimate.
    pub method: GeolocationMethod,
    /// Great-circle error against the ground truth, in kilometres.
    pub error_km: f64,
}

/// The hybrid geolocator.
#[derive(Debug, Clone)]
pub struct HybridGeolocator {
    landmarks: LandmarkSet,
    rtt_seed: u64,
}

impl HybridGeolocator {
    /// Creates a geolocator over the default landmark set.
    pub fn new(rtt_seed: u64) -> Self {
        HybridGeolocator { landmarks: LandmarkSet::planetlab_like(), rtt_seed }
    }

    /// Geolocates a front end. `reverse_dns` is the PTR record (if any) and
    /// `true_location` is the ground truth used both to synthesise the RTT
    /// measurements and to score the estimate.
    pub fn locate(
        &self,
        reverse_dns: Option<&str>,
        true_location: GeoPoint,
    ) -> GeolocationEstimate {
        if let Some(name) = reverse_dns {
            if let Some(city) = Self::airport_hint(name) {
                return GeolocationEstimate {
                    location: city,
                    method: GeolocationMethod::AirportCode,
                    error_km: city.distance_km(&true_location),
                };
            }
        }
        // RTT stage: probe from every landmark towards the (unknown) target;
        // the landmark with the smallest RTT is the estimate.
        let (closest, _rtt) = self
            .landmarks
            .closest(true_location, self.rtt_seed)
            .expect("landmark set must not be empty");
        GeolocationEstimate {
            location: closest.location,
            method: GeolocationMethod::ShortestRtt,
            error_km: closest.location.distance_km(&true_location),
        }
    }

    /// Extracts an airport-code hint from a reverse-DNS name: any dot- or
    /// dash-separated token that matches a catalogue IATA code (ignoring
    /// trailing digits, so `ams15s01` still hints at Amsterdam).
    fn airport_hint(reverse_dns: &str) -> Option<GeoPoint> {
        for raw in reverse_dns.split(['.', '-', '_']) {
            let token: String = raw.chars().take_while(|c| c.is_ascii_alphabetic()).collect();
            if token.len() == 3 {
                if let Some(city) = city_by_airport(&token) {
                    return Some(city.location);
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coords::city_by_airport;
    use crate::providers::{Provider, ProviderTopology};

    #[test]
    fn airport_codes_in_reverse_dns_are_used_first() {
        let geo = HybridGeolocator::new(1);
        let truth = city_by_airport("SJC").unwrap().location;
        let est = geo.locate(Some("client1.sjc.dropbox.com"), truth);
        assert_eq!(est.method, GeolocationMethod::AirportCode);
        assert!(est.error_km < 50.0);
    }

    #[test]
    fn airport_hint_handles_digit_suffixes_and_separators() {
        let geo = HybridGeolocator::new(1);
        let truth = city_by_airport("AMS").unwrap().location;
        for name in ["ams15s01-in-f1.1e100.example", "edge-ams-3.provider.example", "x.AMS.example"]
        {
            let est = geo.locate(Some(name), truth);
            assert_eq!(est.method, GeolocationMethod::AirportCode, "{name}");
            assert!(est.error_km < 50.0, "{name}");
        }
    }

    #[test]
    fn names_without_hints_fall_back_to_rtt() {
        let geo = HybridGeolocator::new(2);
        let truth = city_by_airport("ZRH").unwrap().location;
        let est = geo.locate(Some("static.88-198-10-1.clients.your-server.example"), truth);
        assert_eq!(est.method, GeolocationMethod::ShortestRtt);
        // The paper quotes ~100 km precision for the hybrid method.
        assert!(est.error_km < 300.0, "error {}", est.error_km);
        let est_none = geo.locate(None, truth);
        assert_eq!(est_none.method, GeolocationMethod::ShortestRtt);
    }

    #[test]
    fn whole_ground_truth_is_located_with_reasonable_error() {
        let geo = HybridGeolocator::new(3);
        let mut worst: f64 = 0.0;
        let mut count = 0usize;
        for topo in ProviderTopology::all() {
            for node in &topo.nodes {
                let est = geo.locate(Some(&node.reverse_dns), node.location);
                worst = worst.max(est.error_km);
                count += 1;
            }
        }
        assert!(count > 100);
        assert!(worst < 500.0, "worst-case error {worst} km");
    }

    #[test]
    fn google_edges_resolve_via_airport_codes() {
        let geo = HybridGeolocator::new(4);
        let topo = ProviderTopology::ground_truth(Provider::GoogleDrive);
        let mut airport_hits = 0usize;
        let mut edges = 0usize;
        for node in
            topo.nodes.iter().filter(|n| matches!(n.role, crate::providers::ServerRole::Edge))
        {
            edges += 1;
            let est = geo.locate(Some(&node.reverse_dns), node.location);
            if est.method == GeolocationMethod::AirportCode {
                airport_hits += 1;
                assert!(est.error_km < 50.0);
            }
        }
        assert!(edges > 100);
        assert!(airport_hits * 10 >= edges * 9, "{airport_hits}/{edges} airport hits");
    }
}
