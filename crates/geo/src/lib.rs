//! # cloudsim-geo
//!
//! The DNS / whois / geolocation substrate behind the architecture-discovery
//! part of the IMC'13 methodology (§2.1, §3.2, Fig. 2).
//!
//! The original study resolves each service's DNS names through more than
//! 2,000 open resolvers spread over 100+ countries, identifies the owner of
//! every returned address with whois, and geolocates the front-end nodes with
//! a hybrid of (i) airport codes embedded in reverse-DNS names, (ii) the
//! shortest RTT to PlanetLab landmark hosts and (iii) traceroute hints. None
//! of that infrastructure is reachable from an offline reproduction, so this
//! crate provides a synthetic but structurally faithful equivalent:
//!
//! * [`coords`] — geographic coordinates, great-circle distances and a world
//!   city catalogue (with IATA airport codes),
//! * [`resolvers`] — a deterministic fleet of open resolvers spread across the
//!   catalogue,
//! * [`registry`] — the IP-allocation (whois) registry mapping addresses to
//!   owning organisations,
//! * [`providers`] — ground-truth topologies of the five studied services
//!   (data-centre locations, owners, and Google's >100 edge nodes),
//! * [`authority`] — each provider's authoritative DNS behaviour (static
//!   answers vs. geo-aware answers that return the closest edge node),
//! * [`landmarks`] — PlanetLab-style landmark hosts and the RTT model between
//!   arbitrary points,
//! * [`geolocate`] — the hybrid geolocator combining reverse-DNS airport
//!   hints with shortest-RTT landmark estimation.
//!
//! The benchmark suite (crate `cloudbench`) drives these pieces exactly the
//! way the paper describes and evaluates the result against the synthetic
//! ground truth.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(dead_code)]

pub mod authority;
pub mod coords;
pub mod geolocate;
pub mod landmarks;
pub mod providers;
pub mod registry;
pub mod resolvers;

pub use authority::AuthoritativeDns;
pub use coords::WORLD_CITIES;
pub use geolocate::{GeolocationEstimate, HybridGeolocator};
pub use providers::{Provider, ProviderTopology, ServerNode, ServerRole};
pub use registry::IpRegistry;
pub use resolvers::ResolverFleet;
