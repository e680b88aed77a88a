//! # cloudsim-net
//!
//! A deterministic, flow-level network simulator substituting for the real
//! testbed of the IMC'13 study ("Benchmarking Personal Cloud Storage").
//!
//! The original measurements ran native clients on a Windows VM connected to a
//! 1 Gb/s campus network and captured real packets. This crate replaces that
//! substrate with a virtual-time model that preserves everything the paper's
//! metrics depend on:
//!
//! * per-path round-trip time and bottleneck bandwidth ([`path`], [`network`]),
//! * TCP connection establishment, slow start and congestion avoidance,
//!   application-layer request/response exchanges, connection reuse, and
//!   the TLS handshake cost (extra round trips plus certificate bytes) and
//!   record overhead ([`tcp`]),
//! * HTTP message framing overhead ([`http`]),
//! * per-packet trace emission into a [`cloudsim_trace::TraceShard`], so the
//!   same analyzers the paper applies to pcap files run on simulated traffic.
//!
//! The simulator is *analytic*: client logic calls operations such as
//! [`tcp::TcpConnection::request`] which compute their own completion time and
//! emit timestamped packet records, instead of being scheduled by a global
//! event loop. This keeps experiments deterministic, fast (an entire
//! 24-repetition benchmark suite runs in well under a second) and trivially
//! reproducible — the property the original authors wanted from their public
//! benchmarking tool.
//!
//! ```
//! use cloudsim_net::{Network, PathSpec, Simulator};
//! use cloudsim_net::tcp::{TcpConnection, ConnectionOptions};
//! use cloudsim_trace::{FlowKind, SimDuration, SimTime};
//!
//! // A client 15 ms away from a Google-Drive-like edge node, 100 Mb/s up.
//! let mut net = Network::new();
//! let server = net.add_server("edge.gdrive.example", [10, 0, 0, 1], 443);
//! net.set_path(server, PathSpec::symmetric(SimDuration::from_millis(15), 100_000_000));
//!
//! let mut sim = Simulator::new(42);
//! let opts = ConnectionOptions { tls: true, kind: FlowKind::Storage };
//! let mut conn = TcpConnection::open(&mut sim, &net, server, opts, SimTime::ZERO);
//! let done = conn.request(&mut sim, &net, conn.established_at(), 1_000_000, 500,
//!                         SimDuration::from_millis(20));
//! assert!(done.as_secs_f64() < 2.0);
//! assert!(sim.trace().len() > 100);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fault;
pub mod host;
pub mod http;
pub mod link;
pub mod network;
pub mod path;
pub mod rng;
pub mod sim;
pub mod tcp;

pub use fault::{FaultSchedule, FaultSpec, OutageWindow};
pub use host::{HostId, HostInfo};
pub use link::AccessLink;
pub use network::{Network, EPHEMERAL_PORT_MIN};
pub use path::PathSpec;
pub use rng::SimRng;
pub use sim::Simulator;
pub use tcp::TransferInterrupted;

// Re-export the time base so downstream crates need only one import path.
pub use cloudsim_trace::{SimDuration, SimTime};
