//! # perfq-trace
//!
//! Workload substrate for the `perfq` reproduction: everything the paper
//! sources from captures and testbeds, synthesized with controlled, seeded
//! randomness.
//!
//! * [`dist`] — inverse-transform samplers (exponential, bounded Pareto,
//!   Zipf, empirical packet-size mixes);
//! * [`tcp`] — TCP sequence-number dynamics (retransmit / reorder injection)
//!   for the Fig. 2 anomaly queries;
//! * [`synthetic`] — the CAIDA-like packet stream (the paper's trace,
//!   scaled; see `ARCHITECTURE.md`) plus datacenter presets;
//! * [`incast`] — synchronized fan-in bursts for the incast-diagnosis
//!   example;
//! * [`stats`] — workload summaries for reports and calibration tests.
//!
//! # Example
//!
//! ```
//! use perfq_trace::{SyntheticTrace, TraceConfig, TraceStats};
//!
//! let trace = SyntheticTrace::new(TraceConfig::test_small(1));
//! let stats = TraceStats::from_packets(trace.take(10_000));
//! assert!(stats.flows > 100);
//! println!("{}", stats.summary());
//! ```

//!
//! For the paper-section → crate/file map of the whole workspace, see
//! `ARCHITECTURE.md` at the repository root.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dist;
pub mod incast;
pub mod stats;
pub mod synthetic;
pub mod tcp;

pub use dist::{BoundedPareto, Exponential, PacketSizeMix, Zipf};
pub use incast::IncastConfig;
pub use stats::TraceStats;
pub use synthetic::{SyntheticTrace, TraceConfig};
pub use tcp::{TcpDynamics, TcpFlowSeq};
