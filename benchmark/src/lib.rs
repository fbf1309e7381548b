//! # perfq-benchmark
//!
//! The repo's one benchmark: five named workloads, each a closed loop of
//! whole passes (packets → `Network` → engine → `finish` → `collect`) timed
//! from outside the engine with `std::time::Instant`. End-to-end metrics
//! come from untraced passes; the traced mode re-runs the same passes with
//! spans around each call into a layer and adds isolated per-layer replays.
//! See `README.md` beside this package for how to run it and how to A/B a
//! change with it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod check;
pub mod iocount;
pub mod layers;
pub mod metrics;
pub mod pass;
pub mod run;
pub mod stats;
pub mod trace;
pub mod workload;
