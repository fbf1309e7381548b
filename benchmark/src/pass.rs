//! One pass of a workload: packets → `Network` → engine → `finish` →
//! `collect`, timed from outside with `std::time::Instant`.
//!
//! A pass builds a fresh runtime, then offers the first packet. The traced
//! and untraced runs execute this same code; an inert [`Tracer`] reads no
//! clock.

use crate::iocount::{CountingBackend, CountingHandle, IoCounts};
use crate::trace::{SpanId, Tracer};
use crate::workload::{Setup, Workload, BATCH, POLL_MARKS};
use perfq_core::{Durability, MultiRuntime, ResultSet, Runtime, ShardedRuntime};
use perfq_kvstore::{shared, StoreStats};
use perfq_switch::{Network, NetworkConfig};
use std::hint::black_box;
use std::time::Instant;

/// What one pass measured and produced.
#[derive(Debug, Default)]
pub struct PassOutput {
    /// First packet offered → final `ResultSet` in hand.
    pub wall_ns: u64,
    /// First packet offered → end of stream (switch loop + engine calls +
    /// the workload's scheduled polls/persists).
    pub stream_ns: u64,
    /// On-CPU time of the feeding thread over the same interval, from
    /// `/proc/thread-self/schedstat`; 0 where procfs lacks it.
    pub stream_cpu_ns: u64,
    /// `finish()`.
    pub finish_ns: u64,
    /// `collect()`.
    pub collect_ns: u64,
    /// One sample per `poll(id)` (`multi_polled`).
    pub poll_ns: Vec<u64>,
    /// One sample per `persist()` (`durable_spill`).
    pub persist_ns: Vec<u64>,
    /// Final results, one per program.
    pub results: Vec<ResultSet>,
    /// The poll of each program at the last mark (`multi_polled`).
    pub last_polls: Vec<ResultSet>,
    /// `StoreStats` summed over stores and shards.
    pub stats: StoreStats,
    /// Records routed to each shard (`sharded_handoff`).
    pub routed: Vec<u64>,
    /// Cross-program stores the sharing pass collapsed (`multi_polled`).
    pub deduped_stores: usize,
    /// Backend traffic (`durable_spill`).
    pub io: Option<IoCounts>,
    /// `Err`s from `enable_durability`/`persist`.
    pub io_errors: u64,
    /// Packets the switch dropped.
    pub drops: u64,
}

impl PassOutput {
    /// `finish()` + `collect()`: end of stream → final result.
    #[must_use]
    pub fn drain_ns(&self) -> u64 {
        self.finish_ns + self.collect_ns
    }
}

/// What the recovery phase of `durable_spill` measured and produced.
#[derive(Debug, Default)]
pub struct Recovery {
    /// One sample per `Runtime::recover` on a fresh fork.
    pub recover_ns: Vec<u64>,
    /// The last recovered runtime, fed the rest of the stream and drained.
    pub drained: Option<ResultSet>,
    /// `Err`s from `persist`/`recover`, plus a resume index off the mark.
    pub io_errors: u64,
}

/// On-CPU nanoseconds of the calling thread so far.
fn thread_cpu_ns() -> u64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// The wall-clock frame of a pass: opened when the first packet is offered,
/// closed with the final `ResultSet` in hand. The pass's root span covers
/// exactly this interval, so building and dropping the runtime are outside
/// both.
struct Clock {
    start: Instant,
    cpu_start: u64,
    root: SpanId,
}

impl Clock {
    fn start(tr: &mut Tracer) -> Clock {
        Clock {
            cpu_start: thread_cpu_ns(),
            root: tr.open_pass(),
            start: Instant::now(),
        }
    }

    fn end_of_stream(&self, out: &mut PassOutput) {
        out.stream_ns = self.start.elapsed().as_nanos() as u64;
        out.stream_cpu_ns = thread_cpu_ns().saturating_sub(self.cpu_start);
    }

    fn results_in_hand(&self, tr: &mut Tracer, out: &mut PassOutput) {
        out.wall_ns = self.start.elapsed().as_nanos() as u64;
        tr.close(self.root);
    }

    /// `collect()` on a finished single-program runtime, ending the pass.
    fn collect(&self, tr: &mut Tracer, rt: &Runtime, out: &mut PassOutput) {
        let (results, collect_ns) = timed(tr, "core.collect", self.root, || rt.collect());
        self.results_in_hand(tr, out);
        out.collect_ns = collect_ns;
        out.results = vec![results];
        out.stats = sum_stats([rt]);
    }
}

/// Time `f` under a span, returning its result and duration.
fn timed<R>(
    tr: &mut Tracer,
    name: &'static str,
    parent: SpanId,
    f: impl FnOnce() -> R,
) -> (R, u64) {
    let span = tr.open(name, parent);
    let t = Instant::now();
    let r = f();
    let ns = t.elapsed().as_nanos() as u64;
    tr.close(span);
    (r, ns)
}

fn sum_stats<'r>(runtimes: impl IntoIterator<Item = &'r Runtime>) -> StoreStats {
    let mut total = StoreStats::default();
    for rt in runtimes {
        for idx in 0..rt.compiled().stores.len() {
            if let Some(s) = rt.store_stats(idx) {
                total.absorb(&s);
            }
        }
    }
    total
}

/// Runs passes of one workload over one [`Setup`].
#[derive(Debug)]
pub struct Harness<'a> {
    setup: &'a Setup,
    net: Network,
}

impl<'a> Harness<'a> {
    /// A harness over `setup` with the default single-switch network.
    #[must_use]
    pub fn new(setup: &'a Setup) -> Self {
        Harness {
            setup,
            net: Network::new(NetworkConfig::default()),
        }
    }

    /// Run one pass, recording spans into `tr` when it is on.
    pub fn pass(&mut self, tr: &mut Tracer) -> PassOutput {
        self.net.reset();
        let mut out = match self.setup.workload {
            Workload::ResidentCounters | Workload::EvictCounters => self.pass_single(tr, false),
            Workload::ShardedHandoff => self.pass_sharded(tr),
            Workload::MultiPolled => self.pass_multi(tr),
            Workload::DurableSpill => self.pass_single(tr, true),
        };
        out.drops = self.net.total_drops();
        out
    }

    fn pass_sharded(&mut self, tr: &mut Tracer) -> PassOutput {
        let mut out = PassOutput::default();
        let mut plane = ShardedRuntime::new(self.setup.programs[0].clone(), self.setup.shards);
        let (mut router, senders) = plane.take_feeds();
        let clock = Clock::start(tr);
        // The router and the ring are called per record from inside
        // `run_sharded`; a span per record would cost more than the call,
        // so the feeder is one span and the isolated replays price its
        // parts (`core.route_ns_per_record`, `switch.ring_ns_per_record`).
        let run = tr.open("switch.run_sharded", clock.root);
        out.routed = self.net.run_sharded(
            self.setup.packets.iter().copied(),
            |r| router.route(r),
            senders,
            BATCH,
        );
        tr.close(run);
        clock.end_of_stream(&mut out);
        let (rt, finish_ns) = timed(tr, "core.finish", clock.root, || plane.finish());
        out.finish_ns = finish_ns;
        clock.collect(tr, &rt, &mut out);
        out
    }

    fn pass_multi(&mut self, tr: &mut Tracer) -> PassOutput {
        let mut out = PassOutput::default();
        let mut multi = MultiRuntime::new(self.setup.programs.clone());
        out.deduped_stores = multi.sharing().stores.len();
        let ids = multi.ids().to_vec();
        let marks = POLL_MARKS.map(|m| self.setup.poll_batch(m));
        let last_mark = marks[marks.len() - 1];
        let mut batch_no = 0usize;
        let clock = Clock::start(tr);
        let root = clock.root;
        let run = tr.open("switch.run", root);
        self.net
            .run_batched(self.setup.packets.iter().copied(), BATCH, |chunk| {
                let s = tr.open("core.ingest", run);
                multi.process_batch(chunk);
                tr.close(s);
                batch_no += 1;
                if marks.contains(&batch_no) {
                    for id in &ids {
                        let (frame, ns) = timed(tr, "core.poll", run, || multi.poll(*id));
                        out.poll_ns.push(ns);
                        let frame = frame.expect("installed program polls");
                        if batch_no == last_mark {
                            out.last_polls.push(frame);
                        } else {
                            black_box(frame);
                        }
                    }
                }
            });
        tr.close(run);
        clock.end_of_stream(&mut out);
        ((), out.finish_ns) = timed(tr, "core.finish", root, || multi.finish());
        let (results, collect_ns) = timed(tr, "core.collect", root, || multi.collect());
        clock.results_in_hand(tr, &mut out);
        out.collect_ns = collect_ns;
        out.results = results;
        out.stats = sum_stats(multi.runtimes());
        out
    }

    /// A runtime with the counting spill tier attached.
    fn durable_runtime(&self, errors: &mut u64) -> (Runtime, CountingHandle) {
        let handle = CountingBackend::handle();
        let mut rt = Runtime::new(self.setup.programs[0].clone());
        let cfg = Durability::new(handle.clone()).with_spill(self.setup.sizing.spill_config());
        *errors += u64::from(rt.enable_durability(cfg).is_err());
        (rt, handle)
    }

    /// The single-stream `Runtime` workloads. `durable` attaches the
    /// counting spill tier and persists on the workload's schedule.
    fn pass_single(&mut self, tr: &mut Tracer, durable: bool) -> PassOutput {
        let mut out = PassOutput::default();
        let (mut rt, handle) = if durable {
            let (rt, handle) = self.durable_runtime(&mut out.io_errors);
            (rt, Some(handle))
        } else {
            (Runtime::new(self.setup.programs[0].clone()), None)
        };
        let every = self.setup.sizing.persist_every_batches;
        let mut batch_no = 0usize;
        let clock = Clock::start(tr);
        let run = tr.open("switch.run", clock.root);
        self.net
            .run_batched(self.setup.packets.iter().copied(), BATCH, |chunk| {
                let s = tr.open("core.ingest", run);
                rt.process_batch(chunk);
                tr.close(s);
                batch_no += 1;
                if durable && batch_no.is_multiple_of(every) {
                    let (res, ns) = timed(tr, "core.persist", run, || rt.persist());
                    out.persist_ns.push(ns);
                    out.io_errors += u64::from(res.is_err());
                }
            });
        tr.close(run);
        clock.end_of_stream(&mut out);
        ((), out.finish_ns) = timed(tr, "core.finish", clock.root, || rt.finish());
        clock.collect(tr, &rt, &mut out);
        out.io = handle.map(|h| h.lock().expect("backend mutex").counts());
        out
    }

    /// `durable_spill` only: crash after the pass's final `persist()`,
    /// time `Runtime::recover` on `forks` fresh forks of the backend, then
    /// feed the last recovered runtime the rest of the stream and drain it.
    pub fn recovery(&mut self, forks: usize) -> Recovery {
        assert_eq!(self.setup.workload, Workload::DurableSpill);
        let mut rec = Recovery::default();
        let (mut rt, handle) = self.durable_runtime(&mut rec.io_errors);
        let every = self.setup.sizing.persist_every_batches;
        let final_persist = self.setup.batches() / every * every;
        let mut batch_no = 0usize;
        self.net
            .run_batched(self.setup.packets.iter().copied(), BATCH, |chunk| {
                // The crash: nothing after the final persist reaches disk.
                if batch_no >= final_persist {
                    return;
                }
                rt.process_batch(chunk);
                batch_no += 1;
                if batch_no.is_multiple_of(every) {
                    rec.io_errors += u64::from(rt.persist().is_err());
                }
            });
        drop(rt);
        let disk = handle.lock().expect("backend mutex").fork();

        let mut recovered = None;
        for _ in 0..forks {
            // One recovered runtime alive at a time keeps the peak RSS flat.
            drop(recovered.take());
            let cfg =
                Durability::new(shared(disk.clone())).with_spill(self.setup.sizing.spill_config());
            let program = self.setup.programs[0].clone();
            let t = Instant::now();
            let res = Runtime::recover(program, cfg);
            rec.recover_ns.push(t.elapsed().as_nanos() as u64);
            match res {
                Ok(pair) => recovered = Some(pair),
                Err(_) => rec.io_errors += 1,
            }
        }
        let Some((mut rt, resume)) = recovered else {
            return rec;
        };
        rec.io_errors += u64::from(resume as usize != final_persist * BATCH);
        let mut seen = 0usize;
        self.net
            .run_batched(self.setup.packets.iter().copied(), BATCH, |chunk| {
                if seen >= resume as usize {
                    rt.process_batch(chunk);
                }
                seen += chunk.len();
            });
        rt.finish();
        rec.drained = Some(rt.collect());
        rec
    }
}
