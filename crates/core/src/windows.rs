//! Tumbling measurement windows.
//!
//! §4 evaluates the non-linear query "over 1-min (instead of 5-min)
//! intervals" — operationally, the monitoring system restarts the
//! aggregation state every window and reports per-window tables. A
//! [`WindowedRuntime`] wraps [`Runtime`] with exactly that behaviour: when a
//! record's observation time crosses the window boundary, caches are
//! flushed, results collected, and the hardware state reset.
//!
//! With the incremental read path the wrapper is a true *continuous* query:
//! [`WindowedRuntime::poll_closed`] streams each window's table the moment
//! the window closes (instead of at drain), and
//! [`WindowedRuntime::poll_current`] reads the open window mid-flight
//! through [`Runtime::poll_results`] without perturbing it.

use crate::compiler::CompiledProgram;
use crate::result::ResultSet;
use crate::runtime::Runtime;
use perfq_packet::Nanos;
use perfq_switch::QueueRecord;

/// One completed window's results.
#[derive(Debug, Clone)]
pub struct WindowResult {
    /// Window start (inclusive).
    pub start: Nanos,
    /// Window end (exclusive).
    pub end: Nanos,
    /// Records processed in this window.
    pub records: u64,
    /// Final tables of the window.
    pub results: ResultSet,
}

/// A runtime restarted on fixed time boundaries.
#[derive(Debug)]
pub struct WindowedRuntime {
    compiled: CompiledProgram,
    window: Nanos,
    current: Runtime,
    window_start: Nanos,
    completed: Vec<WindowResult>,
    /// Emission cursor for [`WindowedRuntime::poll_closed`]: windows below
    /// this index have already been streamed to a sink.
    emitted: usize,
}

impl WindowedRuntime {
    /// Create with a window length.
    ///
    /// # Panics
    /// Panics when the window is zero.
    #[must_use]
    pub fn new(compiled: CompiledProgram, window: Nanos) -> Self {
        assert!(window > Nanos::ZERO, "window must be positive");
        let current = Runtime::new(compiled.clone());
        WindowedRuntime {
            compiled,
            window,
            current,
            window_start: Nanos::ZERO,
            completed: Vec::new(),
            emitted: 0,
        }
    }

    fn window_end(&self) -> Nanos {
        self.window_start + self.window
    }

    fn roll(&mut self) {
        let mut finished = std::mem::replace(&mut self.current, Runtime::new(self.compiled.clone()));
        finished.finish();
        self.completed.push(WindowResult {
            start: self.window_start,
            end: self.window_end(),
            records: finished.records(),
            results: finished.collect(),
        });
        self.window_start = self.window_end();
    }

    /// Process a record, rolling windows as its observation time requires
    /// ([`WindowedRuntime::process_batch`] over a one-record batch).
    pub fn process_record(&mut self, rec: &QueueRecord) {
        self.process_batch(std::slice::from_ref(rec));
    }

    /// Process a batch of records. Records must arrive in non-decreasing
    /// observation-time order, which the network's record stream provides.
    /// The batch is cut where a record's observation time reaches the open
    /// window's end; the windows roll there, so every roll lands between
    /// the same two records at any batching, and each slice runs through
    /// [`Runtime::process_batch`].
    pub fn process_batch(&mut self, mut recs: &[QueueRecord]) {
        while let Some(first) = recs.first() {
            while first.observed_at() >= self.window_end() {
                self.roll();
            }
            let end = self.window_end();
            let n = (recs.iter())
                .position(|r| r.observed_at() >= end)
                .unwrap_or(recs.len());
            self.current.process_batch(&recs[..n]);
            recs = &recs[n..];
        }
    }

    /// Close the final (possibly partial) window and return all windows.
    #[must_use]
    pub fn finish(mut self) -> Vec<WindowResult> {
        if self.current.records() > 0 {
            self.roll();
        }
        self.completed
    }

    /// Windows completed so far (without closing the current one).
    #[must_use]
    pub fn completed(&self) -> &[WindowResult] {
        &self.completed
    }

    /// Stream every window that closed since the previous `poll_closed` to
    /// `sink`, in window order, and return how many were emitted. The
    /// continuous-query read path: called between batches, each window's
    /// table leaves the system the moment the window rolls instead of
    /// waiting for [`WindowedRuntime::finish`] (which still returns every
    /// window — emission never consumes).
    pub fn poll_closed(&mut self, mut sink: impl FnMut(&WindowResult)) -> usize {
        let fresh = &self.completed[self.emitted..];
        for w in fresh {
            sink(w);
        }
        self.emitted = self.completed.len();
        fresh.len()
    }

    /// Poll the **open** window's current tables without closing it — the
    /// windowed face of [`Runtime::poll_results`]: equals what the window
    /// would report if it rolled at this instant, while leaving its caches
    /// resident and its eventual roll untouched.
    #[must_use]
    pub fn poll_current(&self) -> ResultSet {
        self.current.poll_results()
    }

    /// Start of the open window (inclusive).
    #[must_use]
    pub fn current_start(&self) -> Nanos {
        self.window_start
    }

    /// Records processed by the open window so far.
    #[must_use]
    pub fn current_records(&self) -> u64 {
        self.current.records()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiler::{compile_program, CompileOptions};
    use perfq_lang::{compile as lang_compile, fig2};
    use perfq_packet::PacketBuilder;
    use std::net::Ipv4Addr;

    fn compiled(src: &str, opts: CompileOptions) -> CompiledProgram {
        compile_program(lang_compile(src, &fig2::default_params()).unwrap(), opts).unwrap()
    }

    fn rec(src_last: u8, uniq: u64, t: u64) -> QueueRecord {
        QueueRecord {
            packet: PacketBuilder::tcp()
                .src(Ipv4Addr::new(10, 0, 0, src_last), 1000)
                .dst(Ipv4Addr::new(172, 16, 0, 1), 80)
                .payload_len(100)
                .uniq(uniq)
                .build(),
            qid: 1,
            tin: Nanos(t),
            tout: Nanos(t + 10),
            qsize: 0,
            qout: 0,
            path: 0,
        }
    }

    #[test]
    fn records_split_across_windows() {
        let c = compiled("SELECT COUNT GROUPBY srcip", CompileOptions::default());
        let mut wr = WindowedRuntime::new(c, Nanos::from_millis(1));
        // 30 records at 100 µs spacing: 3 windows of 10.
        for i in 0..30u64 {
            wr.process_record(&rec(1, i, i * 100_000));
        }
        let windows = wr.finish();
        assert_eq!(windows.len(), 3);
        for w in &windows {
            assert_eq!(w.records, 10);
            let t = &w.results.tables[0];
            let count_idx = t.schema.index_of("COUNT").unwrap();
            assert_eq!(t.rows[0].values[count_idx].as_i64(), 10);
        }
        assert_eq!(windows[1].start, Nanos::from_millis(1));
        assert_eq!(windows[1].end, Nanos::from_millis(2));
    }

    #[test]
    fn empty_windows_are_skipped_rolling_forward() {
        let c = compiled("SELECT COUNT GROUPBY srcip", CompileOptions::default());
        let mut wr = WindowedRuntime::new(c, Nanos::from_millis(1));
        wr.process_record(&rec(1, 1, 0));
        // A long quiet gap: jumps several windows at once.
        wr.process_record(&rec(1, 2, 5_500_000));
        let windows = wr.finish();
        // First window has the first record; the intermediate empty windows
        // are still emitted (rolled through), the final partial has one.
        assert_eq!(windows.len(), 6);
        assert_eq!(windows[0].records, 1);
        assert!(windows[1..5].iter().all(|w| w.records == 0));
        assert_eq!(windows[5].records, 1);
    }

    #[test]
    fn windowed_accuracy_beats_full_run_under_pressure() {
        // The Fig. 6 mechanism as an API-level property: windows reset the
        // cache, so fewer keys get re-inserted per window.
        let opts = CompileOptions {
            cache_pairs: 8,
            ways: 0,
            ..Default::default()
        };
        let c = compiled(fig2::TCP_NON_MONOTONIC.source, opts);
        let records: Vec<QueueRecord> = (0..4_000u64)
            .map(|i| rec((i % 24) as u8, i, i * 1_000))
            .collect();

        // Full run.
        let mut full = Runtime::new(c.clone());
        for r in &records {
            full.process_record(r);
        }
        full.finish();
        let acc_full = full.collect().tables[0].accuracy();

        // Windowed runs (8 windows), key-weighted accuracy.
        let mut wr = WindowedRuntime::new(c, Nanos(500_000));
        for r in &records {
            wr.process_record(r);
        }
        let windows = wr.finish();
        let (mut valid, mut total) = (0usize, 0usize);
        for w in &windows {
            let t = &w.results.tables[0];
            valid += t.rows.iter().filter(|r| r.valid).count();
            total += t.rows.len();
        }
        let acc_windowed = valid as f64 / total as f64;
        assert!(
            acc_windowed >= acc_full,
            "windowed {acc_windowed} vs full {acc_full}"
        );
    }

    #[test]
    fn windows_stream_as_they_close_and_polls_do_not_perturb() {
        let c = compiled("SELECT COUNT GROUPBY srcip", CompileOptions::default());
        // Reference: a never-polled replay.
        let mut plain = WindowedRuntime::new(c.clone(), Nanos::from_millis(1));
        for i in 0..30u64 {
            plain.process_record(&rec(1, i, i * 100_000));
        }
        let reference = plain.finish();

        // Polled replay: stream closed windows and read the open window
        // after every record.
        let mut wr = WindowedRuntime::new(c, Nanos::from_millis(1));
        let mut streamed: Vec<WindowResult> = Vec::new();
        for i in 0..30u64 {
            wr.process_record(&rec(1, i, i * 100_000));
            wr.poll_closed(|w| streamed.push(w.clone()));
            let live = wr.poll_current();
            let t = &live.tables[0];
            let idx = t.schema.index_of("COUNT").unwrap();
            assert_eq!(
                t.rows.iter().map(|r| r.values[idx].as_i64()).sum::<i64>(),
                wr.current_records() as i64,
                "open-window poll must reflect exactly the records ingested"
            );
        }
        // Two closed windows streamed mid-run; the drain still returns all
        // three, byte-identical to the never-polled replay.
        assert_eq!(streamed.len(), 2);
        let drained = wr.finish();
        assert_eq!(drained.len(), reference.len());
        for (a, b) in drained.iter().zip(&reference) {
            assert_eq!((a.start, a.end, a.records), (b.start, b.end, b.records));
            assert_eq!(a.results, b.results);
        }
        for (s, r) in streamed.iter().zip(&reference) {
            assert_eq!(s.results, r.results);
        }
    }

    #[test]
    fn linear_counts_are_exact_summed_over_windows() {
        let c = compiled("SELECT COUNT GROUPBY srcip", CompileOptions::default());
        let mut wr = WindowedRuntime::new(c, Nanos(777_777));
        let n = 5_000u64;
        for i in 0..n {
            wr.process_record(&rec((i % 5) as u8, i, i * 531));
        }
        let windows = wr.finish();
        let mut total = 0i64;
        for w in &windows {
            let t = &w.results.tables[0];
            let idx = t.schema.index_of("COUNT").unwrap();
            total += t.rows.iter().map(|r| r.values[idx].as_i64()).sum::<i64>();
        }
        assert_eq!(total as u64, n);
    }
}
