//! One invocation: set-up, warm-up, timed passes, the correctness gate, and
//! the metrics of the requested mode.

use crate::check::Verdict;
use crate::layers;
use crate::metrics::{Metric, MetricDef, END_TO_END, PER_LAYER};
use crate::pass::{Harness, PassOutput, Recovery};
use crate::stats::{median_or_zero, quantile, sorted, summarize};
use crate::trace::Tracer;
use crate::workload::{nproc, Setup, Sizing, Workload};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// Timed passes never number fewer than this, however short `seconds` is.
const MIN_PASSES: usize = 3;

/// `Runtime::recover` is timed on this many forks (`durable_spill`).
const RECOVER_FORKS: usize = 11;

/// `bench.span_sum_ratio` outside this range fails the run: the top-level
/// spans no longer account for the pass.
pub const SPAN_SUM_RANGE: (f64, f64) = (0.98, 1.02);

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Input size ([`Sizing::full`] outside tests).
    pub sizing: Sizing,
    /// Seed of the generated packets.
    pub seed: u64,
    /// How long the timed passes run.
    pub seconds: f64,
    /// Traced mode: spans + isolated per-layer replays, per-layer metrics.
    pub trace: bool,
    /// Where the traced mode writes its spans; `None` keeps them in memory.
    pub trace_out: Option<PathBuf>,
}

/// The result of one invocation.
#[derive(Debug)]
pub struct Outcome {
    /// Rows compared against the reference, and rows wrong.
    pub verdict: Verdict,
    /// `false` when rows are wrong or the spans do not sum to the pass.
    pub correct: bool,
    /// The mode's metrics, in catalogue order.
    pub metrics: Vec<Metric>,
    /// Run facts for the human-readable header.
    pub header: String,
}

impl Outcome {
    /// The value of metric `name`.
    ///
    /// # Panics
    ///
    /// Panics if this mode does not report `name`.
    #[must_use]
    pub fn value(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .find(|m| m.def.name == name)
            .unwrap_or_else(|| panic!("no metric {name}"))
            .value
    }

    /// The last line of standard output.
    #[must_use]
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self.metrics.iter().map(Metric::json).collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.verdict.rows_checked.max(1),
            self.verdict.rows_wrong,
            metrics.join(", ")
        )
    }
}

/// Per-pass samples of the untraced passes.
#[derive(Default)]
struct Samples {
    rps: Vec<f64>,
    wall_ns: Vec<f64>,
    drain_ms: Vec<f64>,
    finish_ms: Vec<f64>,
    collect_ms: Vec<f64>,
    feed_ns: Vec<f64>,
    cpu_ns: Vec<f64>,
    poll_ms: Vec<f64>,
    persist_ms: Vec<f64>,
}

impl Samples {
    fn push(&mut self, out: &PassOutput, records: f64) {
        self.rps.push(records / (out.wall_ns as f64 / 1e9));
        self.wall_ns.push(out.wall_ns as f64);
        self.drain_ms.push(out.drain_ns() as f64 / 1e6);
        self.finish_ms.push(out.finish_ns as f64 / 1e6);
        self.collect_ms.push(out.collect_ns as f64 / 1e6);
        self.feed_ns.push(out.stream_ns as f64 / records);
        self.cpu_ns.push(out.stream_cpu_ns as f64 / records);
        self.poll_ms
            .extend(out.poll_ns.iter().map(|ns| *ns as f64 / 1e6));
        self.persist_ms
            .extend(out.persist_ns.iter().map(|ns| *ns as f64 / 1e6));
    }
}

/// Peak resident set of this process so far, in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Run one workload once.
#[must_use]
pub fn run(opts: &Options) -> Outcome {
    // Set-up, untimed by the passes and reported as `setup_s`. Repeated so
    // the report is a median; only the last one is kept.
    let setups = if opts.trace { 1 } else { 3 };
    let mut setup_s = Vec::new();
    let mut setup = None;
    for _ in 0..setups {
        drop(setup.take());
        let t = Instant::now();
        setup = Some(Setup::build(opts.workload, opts.sizing, opts.seed));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let setup = setup.expect("at least one set-up");
    let records = setup.records as f64;
    let mut harness = Harness::new(&setup);
    let mut tracer = Tracer::off();

    let warm_ups = if opts.trace { 1 } else { 2 };
    for _ in 0..warm_ups {
        drop(harness.pass(&mut tracer));
    }

    let mut untraced = Samples::default();
    let mut traced_wall_ns = Vec::new();
    let mut last: Option<PassOutput> = None;
    let mut counts_repeat = true;
    let started = Instant::now();
    while untraced.rps.len() < MIN_PASSES || started.elapsed().as_secs_f64() < opts.seconds {
        let out = harness.pass(&mut tracer);
        untraced.push(&out, records);
        if opts.trace {
            tracer.set_on(true);
            let traced = harness.pass(&mut tracer);
            tracer.set_on(false);
            traced_wall_ns.push(traced.wall_ns as f64);
            counts_repeat &= traced.stats == out.stats && traced.io == out.io;
        }
        if let Some(prev) = &last {
            counts_repeat &= prev.stats == out.stats && prev.io == out.io;
        }
        last = Some(out);
    }
    let last = last.expect("at least one timed pass");
    let durable = opts.workload == Workload::DurableSpill;
    let recovery = if durable {
        harness.recovery(RECOVER_FORKS)
    } else {
        Recovery::default()
    };

    // The correctness gate, once per invocation, outside the timed passes.
    let mut verdict = Verdict::default();
    for (got, want) in last.results.iter().zip(&setup.reference) {
        verdict.check(got, want);
    }
    for (got, want) in last.last_polls.iter().zip(&setup.poll_reference) {
        verdict.check(got, want);
    }
    if durable {
        match &recovery.drained {
            Some(got) => verdict.check(got, &setup.reference[0]),
            None => verdict.io_failed(),
        }
    }
    for _ in 0..last.io_errors + recovery.io_errors + u64::from(!counts_repeat) {
        verdict.io_failed();
    }

    let span_ratio = median_or_zero(&tracer.span_sum_ratios());
    let spans_ok = !opts.trace || (SPAN_SUM_RANGE.0..=SPAN_SUM_RANGE.1).contains(&span_ratio);
    let correct = verdict.rows_wrong == 0 && spans_ok;

    let mut sheet = Sheet::default();
    let backing_writes = last.stats.backing_writes as f64 * 1e3 / records;
    let recover_ms: Vec<f64> = recovery
        .recover_ns
        .iter()
        .map(|ns| *ns as f64 / 1e6)
        .collect();
    let io = last.io.unwrap_or_default();
    if opts.trace {
        for (name, value) in layers::measure(&setup) {
            sheet.put(name, value);
        }
        let per_record = |name: &str| -> Vec<f64> {
            tracer
                .per_pass_total(name)
                .iter()
                .map(|ns| ns / records)
                .collect()
        };
        sheet.median("core.ingest_ns_per_record", &per_record("core.ingest"));
        sheet.median("switch.feed_cpu_ns_per_record", &untraced.cpu_ns);
        sheet.median("switch.feed_ns_per_record", &untraced.feed_ns);
        sheet.median("core.finish_ms", &untraced.finish_ms);
        sheet.median("core.collect_ms", &untraced.collect_ms);
        sheet.median("core.persist_ms", &untraced.persist_ms);
        sheet.median("poll_ms", &untraced.poll_ms);
        let polls = sorted(&untraced.poll_ms);
        let p90 = if polls.is_empty() {
            0.0
        } else {
            quantile(&polls, 0.9)
        };
        sheet.put("core.poll_p90_ms", p90);
        sheet.median("recover_ms", &recover_ms);
        sheet.put("kvstore.wal_appends", io.appends as f64);
        sheet.put("kvstore.wal_syncs", io.syncs as f64);
        sheet.put("kvstore.wal_bytes", io.bytes as f64);
        sheet.put("wal_bytes_per_record", io.bytes as f64 / records);
        let skew = if last.routed.is_empty() {
            0.0
        } else {
            let max = *last.routed.iter().max().expect("non-empty") as f64;
            max * last.routed.len() as f64 / records
        };
        sheet.put("core.shard_skew", skew);
        sheet.put("core.deduped_stores", last.deduped_stores as f64);
        sheet.put("rows_checked", verdict.rows_checked as f64);
        sheet.put("rows_wrong", verdict.rows_wrong as f64);
        sheet.median("bench.span_sum_ratio", &tracer.span_sum_ratios());
        let overhead =
            (median_or_zero(&traced_wall_ns) / median_or_zero(&untraced.wall_ns) - 1.0) * 100.0;
        sheet.put("bench.trace_overhead_pct", overhead);
        if let Some(path) = &opts.trace_out {
            if let Err(e) = tracer.write_json(path, opts.workload.name(), opts.seed) {
                eprintln!("could not write {}: {e}", path.display());
            }
        }
    } else {
        sheet.median("setup_s", &setup_s);
        sheet.median("replay_rps", &untraced.rps);
        sheet.median("drain_ms", &untraced.drain_ms);
        sheet.put("backing_writes_per_krecord", backing_writes);
        sheet.put("peak_rss_mb", peak_rss_mb());
    }

    let metrics = sheet.into_catalogue_order(if opts.trace { PER_LAYER } else { END_TO_END });
    let header = format!(
        "workload {} seed {} nproc {} shards {} packets {} records {} cache_pairs {} \
         timed passes {} (+{warm_ups} warm-up{}) eviction_fraction {:.4}{}",
        opts.workload.name(),
        opts.seed,
        nproc(),
        setup.shards,
        setup.packets.len(),
        setup.records,
        opts.sizing.cache_pairs,
        untraced.rps.len(),
        if opts.trace {
            ", each followed by a traced pass"
        } else {
            ""
        },
        last.stats.eviction_fraction(),
        if durable {
            " backend: sandbox memory, not a device"
        } else {
            ""
        },
    );
    Outcome {
        verdict,
        correct,
        metrics,
        header,
    }
}

/// Metrics by name while they are being measured.
#[derive(Default)]
struct Sheet(BTreeMap<&'static str, Metric>);

impl Sheet {
    /// A count or a single reading.
    fn put(&mut self, name: &'static str, value: f64) {
        let def = *END_TO_END
            .iter()
            .chain(PER_LAYER)
            .find(|d| d.name == name)
            .unwrap_or_else(|| panic!("{name} is not in the catalogue"));
        self.0.insert(
            name,
            Metric {
                def,
                value,
                spread: None,
            },
        );
    }

    /// The median of `samples` with its quartiles; 0 when the layer took no
    /// samples on this workload.
    fn median(&mut self, name: &'static str, samples: &[f64]) {
        self.put(name, median_or_zero(samples));
        if !samples.is_empty() {
            self.0.get_mut(name).expect("just put").spread = Some(summarize(samples));
        }
    }

    /// Every metric of `catalogue`, in its order.
    fn into_catalogue_order(mut self, catalogue: &[MetricDef]) -> Vec<Metric> {
        catalogue
            .iter()
            .map(|d| {
                self.0
                    .remove(d.name)
                    .unwrap_or_else(|| panic!("metric {} was not measured", d.name))
            })
            .collect()
    }
}
