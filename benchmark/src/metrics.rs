//! The metric catalogue: every name the benchmark prints, with its unit.
//! `BENCHMARK.json` lists the same names; `tests/catalogue.rs` holds the two
//! in step.

use crate::stats::Summary;

/// A metric's name and unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// Name, as printed and as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
}

const fn def(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// What a user of the system sees; printed by `--trace 0` on every workload.
pub const END_TO_END: &[MetricDef] = &[
    def("setup_s", "s"),
    def("replay_rps", "records/s"),
    def("drain_ms", "ms"),
    def("backing_writes_per_krecord", "count"),
    def("peak_rss_mb", "MB"),
];

/// Single layers; printed by `--trace 1` on every workload. A layer that is
/// idle on a workload reports 0.
pub const PER_LAYER: &[MetricDef] = &[
    def("trace.gen_ns_per_packet", "ns"),
    def("lang.compile_us", "us"),
    def("switch.run_ns_per_record", "ns"),
    def("switch.feed_ns_per_record", "ns"),
    def("switch.feed_cpu_ns_per_record", "ns"),
    def("switch.records_per_packet", "count"),
    def("switch.drops", "count"),
    def("switch.write_row_ns_per_record", "ns"),
    def("switch.ring_ns_per_record", "ns"),
    def("kvstore.key_hash_ns", "ns"),
    def("kvstore.observe_ns_per_key", "ns"),
    def("kvstore.hit_rate", "ratio"),
    def("kvstore.eviction_fraction", "ratio"),
    def("kvstore.backing_keys", "count"),
    def("kvstore.flush_ms", "ms"),
    def("kvstore.snapshot_ms", "ms"),
    def("kvstore.wal_appends", "count"),
    def("kvstore.wal_syncs", "count"),
    def("kvstore.wal_bytes", "bytes"),
    def("kvstore.spilled_frames", "count"),
    def("kvstore.commits", "count"),
    def("kvstore.checkpoints", "count"),
    def("kvstore.compactions", "count"),
    def("kvstore.recover_pairs_per_s", "1/s"),
    def("core.ingest_ns_per_record", "ns"),
    def("core.finish_ms", "ms"),
    def("core.collect_ms", "ms"),
    def("core.poll_p90_ms", "ms"),
    def("core.persist_ms", "ms"),
    def("core.route_ns_per_record", "ns"),
    def("core.shard_skew", "ratio"),
    def("core.deduped_stores", "count"),
    def("poll_ms", "ms"),
    def("recover_ms", "ms"),
    def("wal_bytes_per_record", "bytes"),
    def("rows_checked", "count"),
    def("rows_wrong", "count"),
    def("bench.span_sum_ratio", "ratio"),
    def("bench.trace_overhead_pct", "%"),
];

/// One measured metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Which metric.
    pub def: MetricDef,
    /// The reported value: a median where `spread` is set, else a count or
    /// a single reading.
    pub value: f64,
    /// Quartiles and sample count behind a median.
    pub spread: Option<Summary>,
}

impl Metric {
    /// The human-readable line: name, value, unit, then p25/p75/n.
    #[must_use]
    pub fn line(&self) -> String {
        let head = format!(
            "{:<32} {:>16.6} {}",
            self.def.name, self.value, self.def.unit
        );
        match self.spread {
            Some(s) => format!("{head:<62} p25 {:.6} p75 {:.6} n={}", s.p25, s.p75, s.n),
            None => head,
        }
    }

    /// `"name": {"value": v, "unit": "u"}`, the value with all its digits.
    #[must_use]
    pub fn json(&self) -> String {
        let v = if self.value.is_finite() {
            self.value
        } else {
            0.0
        };
        format!(
            "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
            self.def.name, self.def.unit
        )
    }
}
