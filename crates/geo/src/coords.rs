//! Geographic coordinates and the world-city catalogue.

/// A point on the Earth's surface.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeoPoint {
    /// Latitude in degrees (positive north).
    pub(crate) lat: f64,
    /// Longitude in degrees (positive east).
    pub(crate) lon: f64,
}

impl GeoPoint {
    /// Creates a point from latitude/longitude degrees.
    pub(crate) const fn new(lat: f64, lon: f64) -> Self {
        GeoPoint { lat, lon }
    }

    /// Great-circle distance to another point, in kilometres.
    pub(crate) fn distance_km(&self, other: &GeoPoint) -> f64 {
        haversine_km(*self, *other)
    }
}

/// Great-circle (haversine) distance between two points in kilometres.
pub(crate) fn haversine_km(a: GeoPoint, b: GeoPoint) -> f64 {
    const EARTH_RADIUS_KM: f64 = 6371.0;
    let lat1 = a.lat.to_radians();
    let lat2 = b.lat.to_radians();
    let dlat = (b.lat - a.lat).to_radians();
    let dlon = (b.lon - a.lon).to_radians();
    let h = (dlat / 2.0).sin().powi(2) + lat1.cos() * lat2.cos() * (dlon / 2.0).sin().powi(2);
    2.0 * EARTH_RADIUS_KM * h.sqrt().asin()
}

/// One catalogue city: name, ISO country code, IATA airport code, coordinates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct City {
    /// City name.
    pub name: &'static str,
    /// ISO 3166-1 alpha-2 country code.
    pub country: &'static str,
    /// IATA code of the main airport (the token providers embed in reverse
    /// DNS names, which the hybrid geolocator exploits).
    pub(crate) airport: &'static str,
    /// Coordinates of the city centre.
    pub(crate) location: GeoPoint,
}

macro_rules! city {
    ($name:expr, $country:expr, $airport:expr, $lat:expr, $lon:expr) => {
        City {
            name: $name,
            country: $country,
            airport: $airport,
            location: GeoPoint::new($lat, $lon),
        }
    };
}

/// The world-city catalogue used to place resolvers, landmarks and provider
/// edge nodes. It spans every continent and ~60 countries; the original study
/// used resolvers in 100+ countries, a difference documented in DESIGN.md.
// Kuala Lumpur's 2-decimal latitude happens to equal 3.14; it is a
// geographic coordinate, not an approximation of pi.
#[allow(clippy::approx_constant)]
pub const WORLD_CITIES: &[City] = &[
    // Europe
    city!("Amsterdam", "NL", "AMS", 52.37, 4.90),
    city!("London", "GB", "LHR", 51.51, -0.13),
    city!("Paris", "FR", "CDG", 48.86, 2.35),
    city!("Frankfurt", "DE", "FRA", 50.11, 8.68),
    city!("Nuremberg", "DE", "NUE", 49.45, 11.08),
    city!("Zurich", "CH", "ZRH", 47.38, 8.54),
    city!("Milan", "IT", "MXP", 45.46, 9.19),
    city!("Turin", "IT", "TRN", 45.07, 7.69),
    city!("Madrid", "ES", "MAD", 40.42, -3.70),
    city!("Barcelona", "ES", "BCN", 41.39, 2.17),
    city!("Lisbon", "PT", "LIS", 38.72, -9.14),
    city!("Dublin", "IE", "DUB", 53.35, -6.26),
    city!("Brussels", "BE", "BRU", 50.85, 4.35),
    city!("Vienna", "AT", "VIE", 48.21, 16.37),
    city!("Prague", "CZ", "PRG", 50.08, 14.44),
    city!("Warsaw", "PL", "WAW", 52.23, 21.01),
    city!("Stockholm", "SE", "ARN", 59.33, 18.07),
    city!("Oslo", "NO", "OSL", 59.91, 10.75),
    city!("Copenhagen", "DK", "CPH", 55.68, 12.57),
    city!("Helsinki", "FI", "HEL", 60.17, 24.94),
    city!("Athens", "GR", "ATH", 37.98, 23.73),
    city!("Bucharest", "RO", "OTP", 44.43, 26.10),
    city!("Budapest", "HU", "BUD", 47.50, 19.04),
    city!("Kyiv", "UA", "KBP", 50.45, 30.52),
    city!("Moscow", "RU", "SVO", 55.76, 37.62),
    city!("Istanbul", "TR", "IST", 41.01, 28.98),
    city!("Lille", "FR", "LIL", 50.63, 3.06),
    city!("Enschede", "NL", "ENS", 52.22, 6.89),
    // North America
    city!("New York", "US", "JFK", 40.71, -74.01),
    city!("Ashburn", "US", "IAD", 39.04, -77.49),
    city!("Richmond", "US", "RIC", 37.54, -77.44),
    city!("Atlanta", "US", "ATL", 33.75, -84.39),
    city!("Miami", "US", "MIA", 25.76, -80.19),
    city!("Chicago", "US", "ORD", 41.88, -87.63),
    city!("Dallas", "US", "DFW", 32.78, -96.80),
    city!("Denver", "US", "DEN", 39.74, -104.99),
    city!("Seattle", "US", "SEA", 47.61, -122.33),
    city!("San Jose", "US", "SJC", 37.34, -121.89),
    city!("Los Angeles", "US", "LAX", 34.05, -118.24),
    city!("The Dalles", "US", "DLS", 45.59, -121.18),
    city!("Council Bluffs", "US", "CBF", 41.26, -95.86),
    city!("Toronto", "CA", "YYZ", 43.65, -79.38),
    city!("Montreal", "CA", "YUL", 45.50, -73.57),
    city!("Vancouver", "CA", "YVR", 49.28, -123.12),
    city!("Mexico City", "MX", "MEX", 19.43, -99.13),
    // South America
    city!("Sao Paulo", "BR", "GRU", -23.55, -46.63),
    city!("Rio de Janeiro", "BR", "GIG", -22.91, -43.17),
    city!("Buenos Aires", "AR", "EZE", -34.60, -58.38),
    city!("Santiago", "CL", "SCL", -33.45, -70.67),
    city!("Bogota", "CO", "BOG", 4.71, -74.07),
    city!("Lima", "PE", "LIM", -12.05, -77.04),
    // Asia
    city!("Tokyo", "JP", "NRT", 35.68, 139.69),
    city!("Osaka", "JP", "KIX", 34.69, 135.50),
    city!("Seoul", "KR", "ICN", 37.57, 126.98),
    city!("Beijing", "CN", "PEK", 39.90, 116.41),
    city!("Shanghai", "CN", "PVG", 31.23, 121.47),
    city!("Hong Kong", "HK", "HKG", 22.32, 114.17),
    city!("Taipei", "TW", "TPE", 25.03, 121.57),
    city!("Singapore", "SG", "SIN", 1.35, 103.82),
    city!("Kuala Lumpur", "MY", "KUL", 3.14, 101.69),
    city!("Bangkok", "TH", "BKK", 13.76, 100.50),
    city!("Jakarta", "ID", "CGK", -6.21, 106.85),
    city!("Manila", "PH", "MNL", 14.60, 120.98),
    city!("Mumbai", "IN", "BOM", 19.08, 72.88),
    city!("Delhi", "IN", "DEL", 28.61, 77.21),
    city!("Chennai", "IN", "MAA", 13.08, 80.27),
    city!("Dubai", "AE", "DXB", 25.20, 55.27),
    city!("Tel Aviv", "IL", "TLV", 32.09, 34.78),
    // Africa
    city!("Johannesburg", "ZA", "JNB", -26.20, 28.05),
    city!("Cape Town", "ZA", "CPT", -33.92, 18.42),
    city!("Nairobi", "KE", "NBO", -1.29, 36.82),
    city!("Lagos", "NG", "LOS", 6.52, 3.38),
    city!("Cairo", "EG", "CAI", 30.04, 31.24),
    // Oceania
    city!("Sydney", "AU", "SYD", -33.87, 151.21),
    city!("Melbourne", "AU", "MEL", -37.81, 144.96),
    city!("Auckland", "NZ", "AKL", -36.85, 174.76),
];

/// Finds a catalogue city by its IATA airport code.
pub(crate) fn city_by_airport(code: &str) -> Option<&'static City> {
    WORLD_CITIES.iter().find(|c| c.airport.eq_ignore_ascii_case(code))
}

/// The location of the original testbed (University of Twente, Enschede, NL).
pub const TESTBED: GeoPoint = GeoPoint::new(52.24, 6.85);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn haversine_known_distances() {
        let london = city_by_airport("LHR").unwrap().location;
        let new_york = city_by_airport("JFK").unwrap().location;
        let d = haversine_km(london, new_york);
        assert!((5540.0..5620.0).contains(&d), "LHR-JFK distance {d}");
        let zero = haversine_km(london, london);
        assert!(zero < 1e-9);
        // Symmetry.
        assert!((haversine_km(new_york, london) - d).abs() < 1e-9);
    }

    #[test]
    fn catalogue_is_broad_and_consistent() {
        assert!(WORLD_CITIES.len() >= 70, "catalogue has {} cities", WORLD_CITIES.len());
        let countries: std::collections::HashSet<&str> =
            WORLD_CITIES.iter().map(|c| c.country).collect();
        assert!(countries.len() >= 45, "only {} countries", countries.len());
        let airports: std::collections::HashSet<&str> =
            WORLD_CITIES.iter().map(|c| c.airport).collect();
        assert_eq!(airports.len(), WORLD_CITIES.len(), "airport codes must be unique");
        for c in WORLD_CITIES {
            assert!(c.location.lat.abs() <= 90.0);
            assert!(c.location.lon.abs() <= 180.0);
            assert_eq!(c.airport.len(), 3);
        }
    }

    #[test]
    fn airport_lookup_is_case_insensitive() {
        assert_eq!(city_by_airport("ams").unwrap().name, "Amsterdam");
        assert_eq!(city_by_airport("AMS").unwrap().name, "Amsterdam");
        assert!(city_by_airport("XXX").is_none());
    }

    #[test]
    fn testbed_is_near_enschede() {
        let enschede = city_by_airport("ENS").unwrap().location;
        assert!(haversine_km(TESTBED, enschede) < 20.0);
    }

    #[test]
    fn geopoint_distance_method_matches_free_function() {
        let a = GeoPoint::new(10.0, 20.0);
        let b = GeoPoint::new(-30.0, 120.0);
        assert_eq!(a.distance_km(&b), haversine_km(a, b));
    }
}
