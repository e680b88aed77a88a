//! # cloudsim-trace
//!
//! Packet and flow trace records, capture sinks, and trace analyzers.
//!
//! The IMC'13 benchmarking methodology ("Benchmarking Personal Cloud Storage",
//! Drago et al.) derives every metric from *captured traffic*: the number of
//! TCP SYN packets reveals how many connections a client opens (Fig. 3),
//! pauses in the upload throughput reveal chunking (§4.1), packet bursts
//! reveal sequential per-file submission (§4.2), the byte volume in storage
//! flows vs. the benchmark payload gives protocol overhead (Fig. 6c), and the
//! timestamps of the first/last storage payload packets give synchronization
//! start-up delay and completion time (Fig. 6a/6b).
//!
//! This crate provides the trace substrate used by the network simulator
//! ([`cloudsim-net`](https://crates.io/crates/cloudsim-net)) in place of a
//! real packet capture (tcpdump/libpcap in the original testbed):
//!
//! * [`time`] — the virtual time base shared by the whole workspace,
//! * [`packet`] — per-packet records with TCP flags, direction and sizes,
//! * [`flow`] — flow identification, per-flow accounting and classification
//!   into control / storage / notification traffic,
//! * [`capture`] — a capture records into one [`capture::TraceShard`],
//!   is sorted once into a frozen [`capture::Trace`] and is read through the
//!   borrowed [`capture::TraceView`],
//! * [`analysis`] — the analyzers used by the benchmark suite (SYN series,
//!   burst detection, throughput/pause detection, volume and overhead,
//!   start-up / completion timelines),
//! * [`series`] — small time-series helpers used when rendering figures,
//! * [`hist`] — log-bucketed latency histograms with fixed boundaries, so
//!   per-worker merges are order-independent and quantiles bit-stable.
//!
//! Records are plain structs that the analyses post-process, as the original
//! study post-processed pcap files.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(dead_code)]

pub mod analysis;
pub mod capture;
pub mod flow;
pub mod hist;
pub mod packet;
pub mod series;
pub mod time;

#[doc(hidden)]
pub mod perf_pins;

pub use capture::{Trace, TraceShard, TraceView};
pub use flow::{FlowId, FlowKind, FlowTable};
pub use hist::{HistogramSummary, LatencyHistogram};
pub use packet::{Direction, Endpoint, PacketRecord, TcpFlags, TransportProtocol};
pub use time::{SimDuration, SimTime};

#[doc(hidden)]
pub use perf_pins::TraceRecorder;
