//! # perfq-bench
//!
//! Shared infrastructure for the binaries that regenerate the paper's
//! evaluation (see `ARCHITECTURE.md` for the paper-to-code map):
//!
//! * `fig2` — the example-query table (expressiveness + linearity verdicts);
//! * `fig5` — eviction rate vs cache size for the three geometries;
//! * `fig6` — accuracy vs cache size for a non-linear query;
//! * `area` — the §3.3/§4 feasibility arithmetic;
//! * `ablation` — eviction-policy / associativity sweeps and the count-min
//!   sketch comparison.
//!
//! Scale control: these binaries default to the `caida_like` workload
//! (8 785 032 packets of 383 604 flows over 60 s at seed 42). Set
//! `PERFQ_SCALE` (e.g. `0.1`) to shorten the capture and with it the run
//! time, or `PERFQ_SEED` to change the workload seed.
//!
//! One more binary, `ratios`, holds the same-run ratio guards: pairs of
//! in-tree paths (coalesced vs uncoalesced, shared vs sequential
//! multi-query, churn vs static, polled vs never polled, WAL on vs off)
//! timed in interleaved pairs on a fixed 20k-packet trace, each ratio held
//! to a committed floor. End-to-end throughput is measured by the
//! `benchmark/` package at the repository root.

//!
//! For the paper-section → crate/file map of the whole workspace, see
//! `ARCHITECTURE.md` at the repository root.

#![forbid(unsafe_code)]

use perfq_packet::Nanos;
use perfq_trace::{SyntheticTrace, TraceConfig};
use std::io::Write;
use std::path::PathBuf;

/// Read the scale factor from `PERFQ_SCALE` (default 1.0).
#[must_use]
pub fn scale() -> f64 {
    std::env::var("PERFQ_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1.0)
}

/// Read the workload seed from `PERFQ_SEED` (default 42).
#[must_use]
pub fn seed() -> u64 {
    std::env::var("PERFQ_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42)
}

/// The benchmark workload: the scaled CAIDA-like trace.
#[must_use]
pub fn bench_trace() -> SyntheticTrace {
    SyntheticTrace::new(TraceConfig::caida_like(seed()).scaled(scale()))
}

/// Materialized key stream: (packed 5-tuple, arrival, is_tcp) per packet —
/// enough for the cache experiments without re-generating per configuration.
pub struct KeyTrace {
    /// Packed 5-tuples in arrival order.
    pub keys: Vec<u128>,
    /// Arrival times (ns).
    pub times: Vec<u64>,
    /// TCP flags (for per-protocol filtering).
    pub tcp: Vec<bool>,
    /// Distinct flow count.
    pub flows: u64,
    /// Trace duration.
    pub duration: Nanos,
}

impl KeyTrace {
    /// Generate from the benchmark workload.
    #[must_use]
    pub fn generate() -> Self {
        let mut keys = Vec::new();
        let mut times = Vec::new();
        let mut tcp = Vec::new();
        let mut flows = std::collections::HashSet::new();
        let mut last = Nanos::ZERO;
        for p in bench_trace() {
            let k = p.five_tuple().to_bits();
            flows.insert(k);
            keys.push(k);
            times.push(p.arrival.as_nanos());
            tcp.push(p.headers.is_tcp());
            last = p.arrival;
        }
        KeyTrace {
            keys,
            times,
            tcp,
            flows: flows.len() as u64,
            duration: last,
        }
    }

    /// Packets in the trace.
    #[must_use]
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True when empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }
}

/// Results directory (`target/perfq-results`), created on demand.
#[must_use]
pub fn results_dir() -> PathBuf {
    let dir =
        PathBuf::from(std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".to_string()))
            .join("perfq-results");
    std::fs::create_dir_all(&dir).expect("create results dir");
    dir
}

/// Write a CSV file into the results directory, returning its path.
pub fn write_csv(name: &str, header: &str, rows: &[String]) -> PathBuf {
    let path = results_dir().join(name);
    let mut f = std::fs::File::create(&path).expect("create csv");
    writeln!(f, "{header}").expect("write header");
    for r in rows {
        writeln!(f, "{r}").expect("write row");
    }
    path
}

/// Format a quantity with an SI suffix ("802K", "22.6M").
#[must_use]
pub fn si_fmt(v: f64) -> String {
    let av = v.abs();
    if av >= 1e9 {
        format!("{:.2}G", v / 1e9)
    } else if av >= 1e6 {
        format!("{:.2}M", v / 1e6)
    } else if av >= 1e3 {
        format!("{:.0}K", v / 1e3)
    } else {
        format!("{v:.0}")
    }
}

/// Simple fixed-width table printer.
pub struct Table {
    widths: Vec<usize>,
}

impl Table {
    /// Start a table with column widths.
    #[must_use]
    pub fn new(widths: &[usize]) -> Self {
        Table {
            widths: widths.to_vec(),
        }
    }

    /// Print a row of cells.
    pub fn row(&self, cells: &[String]) {
        let mut line = String::new();
        for (cell, w) in cells.iter().zip(&self.widths) {
            line.push_str(&format!("{cell:>w$}  ", w = w));
        }
        println!("{}", line.trim_end());
    }

    /// Print a separator line.
    pub fn sep(&self) {
        let total: usize = self.widths.iter().map(|w| w + 2).sum();
        println!("{}", "-".repeat(total));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parses() {
        assert!(scale() > 0.0);
    }

    #[test]
    fn key_trace_generates_under_tiny_scale() {
        std::env::set_var("PERFQ_SCALE", "0.002");
        let kt = KeyTrace::generate();
        std::env::remove_var("PERFQ_SCALE");
        assert!(!kt.is_empty());
        assert!(kt.flows > 0);
        assert_eq!(kt.keys.len(), kt.times.len());
    }
}
