//! The five named workloads and their untimed set-up: packets from the seed,
//! compiled queries, reference results.

use perfq_core::{compile_query, CompileOptions, CompiledProgram, Oracle, ResultSet, Runtime};
use perfq_kvstore::SpillConfig;
use perfq_lang::fig2::{self, Fig2Query};
use perfq_packet::{Nanos, Packet};
use perfq_switch::{Network, NetworkConfig};
use perfq_trace::synthetic::Pacing;
use perfq_trace::{BoundedPareto, SyntheticTrace, TraceConfig};
use std::time::Instant;

/// Records per batch handed to the engine, on every workload.
pub const BATCH: usize = 256;

/// `multi_polled` polls every program at these fifths of each pass.
pub const POLL_MARKS: [usize; 4] = [1, 2, 3, 4];

/// A named workload. Each exists to load a different part of the chain; the
/// one-line reasons live in `BENCHMARK.json` and the README.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Working set fits the cache: eviction fraction 0.
    ResidentCounters,
    /// Working set ≈ 3× the cache: the paper's §4 eviction regime.
    EvictCounters,
    /// `evict_counters` through the router, the SPSC ring and a worker.
    ShardedHandoff,
    /// K = 3 shared plane with polls beside ingest.
    MultiPolled,
    /// The store layer spilling to a WAL, then cold recovery.
    DurableSpill,
}

impl Workload {
    /// Every workload, in the order the README lists them.
    pub const ALL: [Workload; 5] = [
        Workload::ResidentCounters,
        Workload::EvictCounters,
        Workload::ShardedHandoff,
        Workload::MultiPolled,
        Workload::DurableSpill,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::ResidentCounters => "resident_counters",
            Workload::EvictCounters => "evict_counters",
            Workload::ShardedHandoff => "sharded_handoff",
            Workload::MultiPolled => "multi_polled",
            Workload::DurableSpill => "durable_spill",
        }
    }

    /// Inverse of [`Workload::name`].
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Packets per pass at full size.
    fn full_packets(self) -> usize {
        match self {
            Workload::ResidentCounters | Workload::EvictCounters | Workload::ShardedHandoff => {
                3_000_000
            }
            Workload::MultiPolled => 1_000_000,
            Workload::DurableSpill => 1_048_576,
        }
    }

    /// The Fig. 2 queries installed.
    fn queries(self) -> &'static [&'static Fig2Query] {
        match self {
            Workload::MultiPolled => &[
                &fig2::PER_FLOW_COUNTERS,
                &fig2::LATENCY_EWMA,
                &fig2::TCP_NON_MONOTONIC,
            ],
            _ => &[&fig2::PER_FLOW_COUNTERS],
        }
    }

    fn trace_config(self, seed: u64, sizing: Sizing) -> TraceConfig {
        match self {
            // A saturated key pool: every flow draws its (srcip, dstip) from
            // 64 clients x cache_pairs/1024 servers, uniformly, and ~24 k
            // short flows cover the pool. The distinct-key count is then the
            // pool size (a sixteenth of the cache) on every seed, so counts
            // and drain times compare across seeds.
            Workload::ResidentCounters => TraceConfig {
                duration: Nanos::from_secs(3_600),
                flow_size: BoundedPareto::new(0.8, 20, 2_000),
                clients: 64,
                servers: sizing.cache_pairs / 1024,
                server_zipf: 0.0,
                ..TraceConfig::test_small(seed)
            },
            // The `caida_like` address pools and (at full size) arrival rate
            // with a shorter tail and shorter lifetimes. `caida_like` itself lets a
            // handful of 200 k-packet elephants decide how many flows fit in
            // the first N packets: distinct keys swing 165 k - 208 k across
            // seeds, and throughput and drain time with them. Capped at
            // 1 000 packets a flow, the first 3.0 M packets hold 205 k +- 2 k
            // keys at eviction fraction 4.9 % on every seed. The generator
            // is lazy, so the long duration costs nothing.
            _ => TraceConfig {
                duration: Nanos::from_secs(600),
                flows_per_sec: f64::from(sizing.flows_per_sec),
                flow_size: BoundedPareto::new(0.7, 1, 1_000),
                pacing: Pacing::LifetimePaced {
                    min_ns: 1_000_000_000,
                    max_ns: 10_000_000_000,
                },
                ..TraceConfig::caida_like(seed)
            },
        }
    }
}

/// Input size of one pass. Packets, key population and cache shrink
/// together, so a reduced size keeps the working-set-to-cache ratio the
/// workload is named for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sizing {
    /// Packets per pass.
    pub packets: usize,
    /// Key-value pairs per on-chip cache (8-way LRU).
    pub cache_pairs: usize,
    /// Flow arrivals per second of the evicting trace: fewer arrivals over
    /// the same seconds give proportionally fewer distinct keys.
    pub flows_per_sec: u32,
    /// `durable_spill`: in-RAM backing records past which victims spill.
    pub spill_high_water: usize,
    /// `durable_spill`: batches between two `persist()` calls.
    pub persist_every_batches: usize,
}

impl Sizing {
    /// The size the benchmark measures at: the default 2^16-pair cache.
    #[must_use]
    pub fn full(w: Workload) -> Sizing {
        Sizing::reduced(w, 0)
    }

    /// Full size divided by `2^shift` (tests).
    #[must_use]
    pub fn reduced(w: Workload, shift: u32) -> Sizing {
        Sizing {
            packets: w.full_packets() >> shift,
            cache_pairs: CompileOptions::default().cache_pairs >> shift,
            flows_per_sec: 6_400 >> shift,
            spill_high_water: 1024 >> shift,
            persist_every_batches: 1024 >> shift,
        }
    }

    /// `durable_spill`'s spill-tier configuration.
    #[must_use]
    pub fn spill_config(&self) -> SpillConfig {
        SpillConfig {
            high_water: self.spill_high_water,
            group_commit_bytes: 64 * 1024,
        }
    }
}

/// Shard count of `sharded_handoff`: one core stays with the feeder.
#[must_use]
pub fn shard_count() -> usize {
    nproc().saturating_sub(1).clamp(1, 3)
}

/// Logical CPUs available to this process.
#[must_use]
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Everything a pass needs, produced by the untimed set-up.
#[derive(Debug)]
pub struct Setup {
    /// The workload.
    pub workload: Workload,
    /// Input size.
    pub sizing: Sizing,
    /// The generated input — all the program under test ever receives.
    pub packets: Vec<Packet>,
    /// One compiled program per installed query.
    pub programs: Vec<CompiledProgram>,
    /// Queue records one pass produces (single switch: one per packet).
    pub records: usize,
    /// Final reference results, one per program.
    pub reference: Vec<ResultSet>,
    /// `multi_polled`: reference results on the prefix ending at the last
    /// poll mark, one per program. Empty elsewhere.
    pub poll_reference: Vec<ResultSet>,
    /// Worker shards (`sharded_handoff`; 1 elsewhere).
    pub shards: usize,
    /// Trace generation time.
    pub gen_ns: u64,
    /// `compile_query` time per program.
    pub compile_ns: Vec<u64>,
}

impl Setup {
    /// Generate, compile and compute the reference — the work `setup_s`
    /// reports.
    #[must_use]
    pub fn build(workload: Workload, sizing: Sizing, seed: u64) -> Setup {
        let t = Instant::now();
        let packets: Vec<Packet> = SyntheticTrace::new(workload.trace_config(seed, sizing))
            .take(sizing.packets)
            .collect();
        let gen_ns = t.elapsed().as_nanos() as u64;
        assert_eq!(
            packets.len(),
            sizing.packets,
            "trace ended before the workload's packet count"
        );

        let options = CompileOptions {
            cache_pairs: sizing.cache_pairs,
            ..CompileOptions::default()
        };
        let mut programs = Vec::new();
        let mut compile_ns = Vec::new();
        for q in workload.queries() {
            let t = Instant::now();
            let compiled = compile_query(q.source, &fig2::default_params(), options)
                .expect("Fig. 2 queries compile");
            compile_ns.push(t.elapsed().as_nanos() as u64);
            programs.push(compiled);
        }

        let mut setup = Setup {
            workload,
            sizing,
            packets,
            programs,
            records: 0,
            reference: Vec::new(),
            poll_reference: Vec::new(),
            shards: if workload == Workload::ShardedHandoff {
                shard_count()
            } else {
                1
            },
            gen_ns,
            compile_ns,
        };
        setup.compute_reference();
        setup
    }

    /// Batches one pass hands the engine.
    #[must_use]
    pub fn batches(&self) -> usize {
        self.records.div_ceil(BATCH)
    }

    /// The batch index (1-based, counted after the batch is ingested) of
    /// poll mark `fifth`.
    #[must_use]
    pub fn poll_batch(&self, fifth: usize) -> usize {
        (self.batches() * fifth / 5).max(1)
    }

    /// Reference results come from code that shares nothing with the paths
    /// under test: the exact [`Oracle`] for the linear-in-state queries, and
    /// a record-at-a-time single-stream [`Runtime`] with the same
    /// `CompileOptions` for `TCP_NON_MONOTONIC`, whose per-key validity
    /// depends on the eviction schedule the oracle does not have.
    fn compute_reference(&mut self) {
        let queries = self.workload.queries();
        let mut net = Network::new(NetworkConfig::default());
        let mut records = 0usize;
        net.run(self.packets.iter().copied(), |_| records += 1);
        self.records = records;

        let polled = self.workload == Workload::MultiPolled;
        let cut = if polled {
            self.poll_batch(POLL_MARKS[POLL_MARKS.len() - 1]) * BATCH
        } else {
            usize::MAX
        };
        for (q, compiled) in queries.iter().zip(&self.programs) {
            let mut seen = 0usize;
            let mut at_cut = None;
            let fin = if q.paper_linear {
                let mut oracle = Oracle::new(compiled.clone());
                net.run(self.packets.iter().copied(), |r| {
                    if seen == cut {
                        at_cut = Some(oracle.collect());
                    }
                    oracle.process_record(&r);
                    seen += 1;
                });
                oracle.collect()
            } else {
                let mut full = Runtime::new(compiled.clone());
                let mut prefix = polled.then(|| Runtime::new(compiled.clone()));
                net.run(self.packets.iter().copied(), |r| {
                    if let Some(p) = prefix.as_mut().filter(|_| seen < cut) {
                        p.process_record(&r);
                    }
                    full.process_record(&r);
                    seen += 1;
                });
                if let Some(mut p) = prefix {
                    p.finish();
                    at_cut = Some(p.collect());
                }
                full.finish();
                full.collect()
            };
            self.reference.push(fin);
            if polled {
                self.poll_reference
                    .push(at_cut.expect("the last poll mark lies inside the pass"));
            }
        }
    }

    /// An order-sensitive digest of the generated packets: equal seeds must
    /// give equal digests, different seeds different ones.
    #[must_use]
    pub fn packet_digest(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut mix = |v: u64| {
            h ^= v;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        };
        for p in &self.packets {
            let key = p.five_tuple().to_bits();
            mix(key as u64);
            mix((key >> 64) as u64);
            mix(p.arrival.as_nanos());
            mix(u64::from(p.wire_len));
            mix(p.uniq);
        }
        h
    }
}
