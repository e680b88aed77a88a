//! Trace analyzers used by the benchmark suite.
//!
//! Each sub-module corresponds to one of the trace post-processing steps the
//! paper applies to its packet captures:
//!
//! * [`syn`] — cumulative TCP SYN counting over time (Fig. 3, §4.2),
//! * [`bursts`] — packet-burst detection used to reveal sequential per-file
//!   submission with application-layer acknowledgements (§4.2),
//! * [`throughput`] — pause detection in the upload stream, used to reveal
//!   chunk boundaries (§4.1),
//! * [`volume`] — byte accounting: uploaded payload, total traffic, protocol
//!   overhead (Fig. 5, Fig. 6c, §5.3),
//! * [`timeline`] — synchronization start-up and completion time extraction
//!   (Fig. 6a, Fig. 6b, §5.1–§5.2).

pub mod bursts;
pub mod syn;
pub mod throughput;
pub mod timeline;
pub mod volume;

pub use bursts::{detect_bursts, Burst, BurstConfig};
pub use syn::{cumulative_syns, syn_count, syn_count_by_kind};
pub use throughput::{detect_pauses, Pause, ThroughputConfig};
pub use timeline::{completion_time, startup_delay, SyncTimeline};
pub use volume::{overhead_ratio, uploaded_payload, TrafficVolume};
