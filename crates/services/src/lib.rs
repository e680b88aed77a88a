//! # cloudsim-services
//!
//! Behavioural models of the five personal cloud storage services benchmarked
//! in the IMC'13 paper, built as real client/server state machines on top of
//! the `cloudsim-net` simulator and the `cloudsim-storage` engine.
//!
//! Each service is described by a [`profile::ServiceProfile`] carrying the
//! behaviour the paper documents (chunk sizes, bundling, per-file TCP/SSL
//! connections, polling intervals, data-centre placement, client-side
//! encryption, …), a [`deployment::Deployment`] that instantiates its servers
//! and network paths, and a generic [`client::SyncClient`] that executes
//! logins, idle polling and batch synchronisation while every byte it moves is
//! captured in the experiment trace.
//!
//! [`fleet`] drives many such clients as one multi-tenant population, and
//! [`schedule`] gives that population its temporal shape: seeded think-time
//! distributions, idle rounds and intra-round arrival jitter derived up
//! front on a virtual clock, so even jittered concurrent runs replay
//! bit-identically. [`engine`] lowers such a schedule onto a time-ordered
//! event heap — `(timestamp, phase, client)` entries popped one at a time,
//! each touching only its client's state — which is what the fleet loop
//! actually executes; [`scale`] rides the same heap with compact per-client
//! state records (no [`client::SyncClient`] at all) to reach 100k–1M
//! clients, [`partition`] shards that population into disjoint client sets
//! driven by independent workers whose results merge back bit-identically,
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

pub use capture::{
    capture_of_spec, merge_slices, parse_capture, render_capture, render_fleet_capture, replay,
    slice_capture, CaptureEvent, FleetCapture, ReplayMix, CAPTURE_FORMAT, CAPTURE_VERSION,
};
pub use client::{
    FaultedRestoreOutcome, FaultedSyncOutcome, RestoreOutcome, SyncClient, SyncOutcome,
};
pub use deployment::Deployment;
pub use engine::{EventHeap, EventWave, FleetEvent, Phase};
pub use fleet::{run_fleet, ClientSlot, ClientSummary, FleetFaults, FleetRun, FleetSpec};
pub use partition::{
    capture_partitions, partition_ranges, replay_partitioned, run_partition, run_partitioned,
    spec_partitions, ClientSet, PartitionRun, PartitionSpec, PartitionWorkload, PartitionedRun,
};
pub use retry::{ExponentialBackoff, NoRetry, Recovery, RetryConfig, RetryPolicy};
pub use scale::{run_scale, ScaleRun, ScaleSpec};
pub use schedule::{ClientSchedule, FleetSchedule, RoundEvent, SyncActivation, ThinkTime};
pub use session::{FaultStats, RangedTransfer, UploadSession};

// Re-export the fault-injection vocabulary so harnesses can describe outage
// schedules without depending on cloudsim-net directly.
pub use cloudsim_net::{FaultSchedule, FaultSpec, OutageWindow, TransferInterrupted};

// Re-export the per-client network, GC and restore vocabulary the fleet
// speaks.
pub use cloudsim_net::AccessLink;
pub use cloudsim_storage::{GcPolicy, GcStats, RestoreError, RestoredFile, SizeMemo};
pub use planner::{FilePlan, UploadPlanner};
pub use profile::ServiceProfile;

// Re-export the provider enum: it identifies services across the workspace.
pub use cloudsim_geo::Provider;

// Re-export the pipeline value the `with_pipeline` / `for_user` constructors
// take, so their callers need not depend on cloudsim-storage directly.
pub use cloudsim_storage::UploadPipeline;
