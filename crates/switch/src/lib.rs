//! # perfq-switch
//!
//! The switch and network substrate: the machine the paper's queries compile
//! onto.
//!
//! * [`record`] — rows of the paper's base table
//!   `(pkt_hdr, qid, tin, tout, qsize, pkt_path)`;
//! * [`queue`] — exact-FIFO output queues producing the performance
//!   metadata (enqueue/dequeue timestamps, occupancy, drops with
//!   `tout = ∞`);
//! * [`switch`] — per-port queues behind a forwarding decision;
//! * [`network`] — single-switch, linear-chain and leaf–spine topologies
//!   with event-driven, analytically-exact timing. One event loop
//!   ([`Network::run`]) feeds every consumer: records one at a time, in
//!   batches ([`Network::run_batched`]), or routed to per-shard queues
//!   ([`Network::run_sharded`]). Per-queue order is exact; across ports the
//!   stream is not sorted by observation time;
//! * [`spsc`] — fixed-capacity single-producer/single-consumer record
//!   queues, the transport between the network event loop and the sharded
//!   multi-core dataplane (`Network::run_sharded` is the producer half);
//! * [`alu`] — the stateful-ALU feasibility model (§3.3): audits compiled
//!   folds against a Banzai-like per-cycle resource budget.
//!
//! # Example
//!
//! ```
//! use perfq_switch::{Network, NetworkConfig};
//! use perfq_trace::{SyntheticTrace, TraceConfig};
//!
//! let mut net = Network::new(NetworkConfig::default());
//! let trace = SyntheticTrace::new(TraceConfig::test_small(1)).take(1_000);
//! let records = net.run_collect(trace);
//! assert_eq!(records.len(), 1_000);
//! // Records carry the paper's schema fields:
//! assert!(records.iter().all(|r| r.tout > r.tin || r.is_drop()));
//! ```

//!
//! For the paper-section → crate/file map of the whole workspace, see
//! `ARCHITECTURE.md` at the repository root.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alu;
pub mod network;
pub mod queue;
pub mod record;
pub mod spsc;
pub mod switch;

pub use alu::{AluReport, AluSpec, AluViolation};
pub use network::{Network, NetworkConfig, Topology};
pub use queue::{OutputQueue, QueueStats};
pub use record::QueueRecord;
pub use switch::{Forwarded, Switch, SwitchConfig};
