//! # cloudsim-services
//!
//! Behavioural models of the five personal cloud storage services benchmarked
//! in the IMC'13 paper, built as real client/server state machines on top of
//! the `cloudsim-net` simulator and the `cloudsim-storage` engine.
//!
//! Each service is described by a [`profile::ServiceProfile`] carrying the
//! behaviour the paper documents (chunk sizes, bundling, per-file TCP/SSL
//! connections, polling intervals, data-centre placement, client-side
//! encryption, …), a `deployment::Deployment` that instantiates its servers
//! and network paths, and a generic [`client::SyncClient`] that executes
//! logins, idle polling and batch synchronisation while every byte it moves is
//! captured in the experiment trace.
//!
//! [`fleet`] drives many such clients as one multi-tenant population, and
//! [`schedule`] gives that population its temporal shape: seeded think-time
//! distributions, idle rounds and intra-round arrival jitter derived up
//! front on a virtual clock. The fleet replays that schedule round by
//! round, each round's syncs as one parallel wave, so even jittered
//! concurrent runs replay bit-identically. [`scale`] drops [`client::SyncClient`] for
//! compact per-client state records to reach 100k–1M clients, their
//! commits ordered by [`engine`]'s time-ordered event queue;
//! [`partition`] cuts that population into disjoint client sets
//! driven one after another, whose results merge back bit-identically,
//! and [`session`]/[`retry`] add resumable transfers and seeded backoff
//! under injected link faults. `docs/ARCHITECTURE.md` at the
//! repository root walks through the whole lifecycle.
//!
//! The crate deliberately separates *what a service does* (the profile) from
//! *how the sync engine executes it* (the client): a profile's fields —
//! bundling, compression policy, connection reuse — are plain data, so a
//! profile that differs from a paper one in a single capability isolates
//! that capability's effect, which is exactly the kind of guidance the
//! paper's conclusions call for.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(dead_code)]

pub mod capture;
pub mod client;
pub mod deployment;
pub mod engine;
pub mod fleet;
pub mod partition;
pub mod planner;
pub mod profile;
pub mod retry;
pub mod scale;
pub mod schedule;
pub mod session;

#[doc(hidden)]
pub mod perf_pins;

pub use client::{FaultedRestoreOutcome, FaultedSyncOutcome, SyncClient, SyncOutcome};
pub use fleet::FleetFaults;
pub use planner::UploadPlanner;
pub use profile::ServiceProfile;
pub use retry::{Recovery, RetryConfig};
pub use schedule::FleetSchedule;
pub use session::{FaultStats, RangedTransfer};

// Re-export the fault-injection, access-link and GC vocabulary a fleet
// speaks, so harnesses need not depend on cloudsim-net or cloudsim-storage
// directly.
pub use cloudsim_net::{AccessLink, FaultSchedule, FaultSpec};
pub use cloudsim_storage::{GcPolicy, SizeMemo};

#[doc(hidden)]
pub use perf_pins::UploadPipeline;
