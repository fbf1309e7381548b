//! # perfq
//!
//! A reproduction of **"Hardware-Software Co-Design for Network Performance
//! Measurement"** (Narayana et al., HotNets 2016) — the workshop paper that
//! became Marple: a declarative, SQL-like performance query language over
//! per-packet, per-queue observations, co-designed with a programmable
//! key-value store switch primitive that evaluates those queries at line
//! rate.
//!
//! This crate is the facade; the work lives in the member crates. For the
//! full paper-section → crate/file map and the end-to-end data-flow
//! diagram, see `ARCHITECTURE.md` at the repository root.
//!
//! | crate | contents |
//! |---|---|
//! | [`packet`] | headers, five-tuples, wire parsing |
//! | [`lang`] | lexer → parser → resolver → fold IR → linear-in-state analysis |
//! | [`kvstore`] | the split SRAM-cache / backing-store primitive (Fig. 3/4) |
//! | [`switch`] | queues with `tin`/`tout`/`qsize`/drop semantics, networks, ALU model |
//! | [`trace`] | CAIDA-like synthetic workloads, TCP dynamics, incast |
//! | [`core`] | query compiler, runtime, ground-truth oracle, results |
//!
//! # Quickstart
//!
//! ```
//! use perfq::prelude::*;
//!
//! // 1. Write a performance query (Fig. 2's per-flow counters).
//! let compiled = compile_query(
//!     "SELECT COUNT, SUM(pkt_len) GROUPBY srcip, dstip",
//!     &fig2::default_params(),
//!     CompileOptions::default(),
//! ).unwrap();
//!
//! // 2. Push a workload through a switch.
//! let mut network = Network::new(NetworkConfig::default());
//! let mut runtime = Runtime::new(compiled);
//! let trace = SyntheticTrace::new(TraceConfig::test_small(1)).take(10_000);
//! network.run(trace, |record| runtime.process_record(&record));
//!
//! // 3. Pull results from the backing store.
//! runtime.finish();
//! let results = runtime.collect();
//! assert!(!results.tables[0].rows.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use perfq_core as core;
pub use perfq_kvstore as kvstore;
pub use perfq_lang as lang;
pub use perfq_packet as packet;
pub use perfq_switch as switch;
pub use perfq_trace as trace;

/// The names most programs need.
pub mod prelude {
    pub use perfq_core::{
        compile_program, compile_query, read_retired, write_retired, CompileOptions,
        CompiledProgram, Durability, MultiRuntime, Oracle, ResultSet, ResultTable, Runtime,
        ShardRouter, ShardSpec, ShardedRuntime,
    };
    pub use perfq_kvstore::{
        shared, AreaPlan, CacheGeometry, CachePlanner, DiskBackend, EvictionPolicy, FaultBackend,
        IoBackend, MemBackend, SharedBackend, SpillConfig, SplitStore,
    };
    pub use perfq_lang::{compile as compile_source, fig2, Value};
    pub use perfq_packet::{Nanos, Packet, PacketBuilder};
    pub use perfq_switch::{Network, NetworkConfig, QueueRecord, SwitchConfig, Topology};
    pub use perfq_trace::{IncastConfig, SyntheticTrace, TraceConfig, TraceStats};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_compiles_and_runs() {
        let compiled = compile_query(
            "SELECT COUNT GROUPBY srcip",
            &fig2::default_params(),
            CompileOptions::default(),
        )
        .unwrap();
        let mut network = Network::new(NetworkConfig::default());
        let mut runtime = Runtime::new(compiled);
        let trace = SyntheticTrace::new(TraceConfig::test_small(1)).take(1_000);
        network.run(trace, |record| runtime.process_record(&record));
        runtime.finish();
        let results = runtime.collect();
        assert!(!results.tables[0].rows.is_empty());
    }
}
