//! # perfq-core
//!
//! The system glue of the `perfq` reproduction: the query **compiler** the
//! paper leaves as future work, the **runtime** that executes compiled
//! queries on the simulated switch primitives, and the ground-truth
//! **oracle** used for validation and accuracy measurement.
//!
//! ```text
//!   query text ──perfq-lang──▶ ResolvedProgram
//!                                   │ compiler::compile_program
//!                                   ▼
//!                            CompiledProgram ── per GROUPBY: StorePlan
//!                                   │              (geometry, merge mode,
//!                                   │               ALU audit, key bits)
//!                 ┌─────────────────┴──────────────┐
//!                 ▼                                ▼
//!             Runtime (split KV stores)        Oracle (exact maps; predict:
//!                 │ process_batch(...)             │  + a residency model
//!                 │                                │    per store)
//!                 ▼                                ▼
//!             ResultSet  ◀─ diff/accuracy/validity ─ ResultSet
//! ```
//!
//! * [`foldops`] — the merge engine: ΠA-matrix correction and window replay
//!   for linear folds, epochs for non-linear ones;
//! * [`compiler`] — physical planning + stateful-ALU feasibility audit;
//! * [`runtime`] — the streaming dataplane and result collector;
//! * [`oracle`] — exact evaluation with unbounded state, and the hardware
//!   prediction (a set-associative residency model per store) the runtime
//!   is checked against under eviction;
//! * [`result`] — final tables with per-key validity.
//!
//! # Execution engine
//!
//! There is one executor, built for line rate in software: after query
//! compilation the dataplane performs **no allocation and no recursion per
//! record**. The pipeline (MAFIA-style "compile the query to a fixed
//! instruction sequence") is:
//!
//! 1. **Flat plan** — `plan::ExecPlan` flattens the query DAG into one
//!    topologically-ordered node list (definition order *is* topological
//!    order, since queries only read earlier tables). Each chunk of records
//!    is a single indexed pass: a node reads its input lanes from the base
//!    rows or an upstream node's output lanes and writes its own reusable
//!    lanes.
//!    Collect-only queries (joins and their descendants) are skipped, and
//!    output rows nobody consumes are never materialized (dead-output
//!    elimination).
//! 2. **Expression bytecode** — filters, projections and fold bodies
//!    compile to `perfq_lang::bytecode`: flat postfix programs over an
//!    explicit, reusable value stack, with parameters folded to constants
//!    and the dominant statement shapes (guarded counters, accumulators,
//!    `input CMP const` filters) fused into single stack-free
//!    superinstructions. The tree-walking interpreter in `perfq_lang::ir`
//!    remains the executable specification: the [`Oracle`] uses it, and
//!    differential tests pin the bytecode against it.
//! 3. **Inline keys and state** — group keys build into
//!    `perfq_kvstore::InlineKey` ([i64; 5] inline, heap spill only for
//!    wider keys) and fold state lives in `foldops::StateVec` (two
//!    variables inline in the cache slot), so the per-packet store update
//!    touches no second heap line. The split store probes **once** per
//!    packet: `SramCache::upsert_slot` resolves the key to a `SlotHandle`
//!    and the fold mutates state *through the handle*
//!    (`slot_value_mut`/`touch_slot`), so probe and fold share a single
//!    hash + slot resolution (the fused upsert — the old probe-again-in-a-
//!    closure shape is gone from the hot path).
//! 4. **Three merge tiers** — a linear fold merges exactly one of three
//!    ways, decided structurally in `FoldOps::new`. *Additive* windowless
//!    folds (COUNT/SUM, guarded counters) carry no merge bookkeeping at
//!    all: the correction is `standing − init`. One-variable windowless
//!    fold bodies of the shape `[c·]s [± B]` with a constant `c` (EWMA)
//!    compile to a closed-form **constant-A kernel** in [`foldops`]: the
//!    per-packet update becomes `s' = a·s + b` evaluated directly from the
//!    decomposed body (no bytecode dispatch, no scratch borrow, no aux
//!    box), and the §3.2 merge correction becomes one `aⁿ`-scaling with
//!    `n` read from the inline packet counter — pinned bit-identical to
//!    the bytecode path. Every other linear fold takes the *general* tier:
//!    a per-key `ΠA` (extracted numerically per packet, persisted with the
//!    value) plus the window log.
//! 5. **Batching and column pruning** — [`Runtime::process_batch`] (and
//!    `Network::run_batched` upstream) feed records in slices, and it is
//!    the only way in: `process_record` is a one-record batch. Only the
//!    base columns the compiled program reads are materialized per record
//!    (`QueueRecord::write_row_masked_into`). Batches execute
//!    node-at-a-time over survivor bitmasks — see *Vectorized execution*
//!    below.
//!
//! # Hot-path anatomy
//!
//! Where a record's nanoseconds go: one `--trace 1` run of this tree per
//! workload on the repo benchmark (`benchmark/`, seed 42, 2-core box; the
//! names are `BENCHMARK.json`'s per-layer metrics). The pass and the engine
//! are timed inside the real run; the three indented rows are isolated
//! replays of one layer over the workload's own records, so they need not
//! sum to the engine row. `resident_counters` keeps ~4 090 keys in a
//! 2^16-pair cache (no eviction); `evict_counters` runs ~203 k keys through
//! it (4.8 % of packets evict — the paper's regime):
//!
//! ```text
//!   ns/record                                          resident   evict
//!   ─────────────────────────────────────────────────────────────────────
//!   pass            switch.feed_ns_per_record             195      263
//!   switch loop     switch.run_ns_per_record               66       65
//!   engine          core.ingest_ns_per_record             124      189
//!     write_row       switch.write_row_ns_per_record       17       18
//!     key build+hash  kvstore.key_hash_ns                  16       16
//!     store observe   kvstore.observe_ns_per_key           55       99
//!   ─────────────────────────────────────────────────────────────────────
//!   drain           core.finish_ms + core.collect_ms   0.65 + 0.37 ms   13.8 + 22.8 ms
//!   one poll frame  kvstore.snapshot_ms                   0.18 ms          16.3 ms
//! ```
//!
//! Two consequences shape the engine. **The store is the largest named
//! term and it is miss-bound**: `observe` — one hash, one probe, the fold,
//! and on a miss the victim's §3.2 merge into the backing table — costs
//! 55 ns while the arenas sit in the CPU's cache and 99 ns at the paper's
//! operating point, which is most of what separates the two workloads;
//! row materialization and key build are ~17 ns each and do not move. The
//! vectorized GroupBy sweep coalesces equal-key *runs* — one
//! `observe_run_first` probe per run, `observe_run_next` through the
//! already-resolved handle for the rest — which wins 1.17–1.25× on
//! locally-sorted traffic (mean run ≈ 5, the shape RSS steering + bursty
//! flows produce; the `query_runtime_bursty` guards of the `perfq-bench`
//! `ratios` bin hold the ratio same-run), while on hash-ordered traffic
//! runs barely exist (mean run 1.010 on the `ratios` bin's trace
//! `test_small(7)`, 1.001 on the five `benchmark/`
//! workloads, counted per group key inside a 16-record chunk) and the run
//! tracker costs nothing measurable. **Almost a third of the engine's time
//! has no name yet**: ≈ 36 ns (resident) to ≈ 56 ns (evict) of `core.ingest` is
//! none of the three isolated layers — lane bookkeeping, bytecode
//! dispatch, whatever the isolated replays hide by running alone.
//!
//! The sharded plane adds the queue handoff: workload `sharded_handoff`
//! reads `switch.ring_ns_per_record` 66 ns — a batch of 256 crossing
//! the mutex queue into a thread that only counts — while inside the real
//! pass the feeder spends `switch.feed_cpu_ns_per_record` 107 ns of CPU per
//! record on switch loop + route + stage + send. The worker's fold overlaps
//! the feeder on a second core; with one core the handoff is pure overhead.
//!
//! # Vectorized execution
//!
//! The engine's entry points ([`Runtime::process_batch`],
//! [`MultiRuntime::process_batch`]; every `process_record` is a one-record
//! batch) execute **node-at-a-time over a chunk of records**, steered by
//! survivor bitmasks, so each plan node's code (filter compare loop,
//! projection bytecode, store probe) stays hot in the instruction stream
//! while it sweeps many records:
//!
//! ```text
//!   chunk of ≤16 QueueRecords
//!        │  write_row_masked per lane (pruned columns only)
//!        ▼
//!   lane rows ─────────────▶ u64 input mask   0b0110…1
//!        │                        │ bit i = lane i live for this node
//!        ▼                        ▼
//!   per node, in topological order: sweep set bits only
//!        ├─ filter verdict per lane (fused, or a precomputed shared mask)
//!        ├─ Project: eval output cols into the node's lane slots
//!        └─ GroupBy: key build + one store upsert per surviving bit
//!        ▼
//!   node's survivor mask = downstream node's input mask
//! ```
//!
//! A chunk is at most one mask word (64 lanes) but deliberately smaller
//! (16): the chunk's materialized rows must stay L1-resident across the
//! materialize → per-node store sweeps, or the random store probes evict
//! them and the batching win inverts. A node's own filter fuses into its
//! sweep — the verdict clears the lane's bit and the fold runs in the same
//! row visit, so survivor masks cost no second pass over the chunk — while
//! the multi-query shared prefix evaluates each *shared* filter once into
//! a per-chunk verdict mask (`plan::Filter::survivors`) that every
//! consuming program ANDs in for free (shared group keys likewise build
//! once per lane under the union of their consumers' masks). Nodes read
//! their input from the base lanes or the upstream node's flat output
//! buffer and are skipped outright when their input mask is empty.
//!
//! Two contracts pin the path. **Byte-identity:** every store and capture
//! buffer belongs to exactly one node, set bits are visited in ascending
//! lane order (= record order), and a node only reads lanes its upstream
//! wrote — so hit/miss/eviction streams, epochs and capture contents are
//! bit-identical at *any* chunking, one-record batches included
//! (`tests/batch_equivalence.rs`: ragged lengths, all-pass/all-drop
//! batches, epoch-straddling batches), and every table and store counter
//! equals [`Oracle::predict`]'s residency-model prediction under eviction
//! pressure (`tests/oracle_residency.rs`). **Zero allocation:** lane rows,
//! per-node output lanes and the mask words are pooled on the runtime, so
//! a warmed vectorized replay allocates nothing
//! (`tests/alloc_discipline.rs`).
//!
//! # Sharded execution
//!
//! [`ShardedRuntime`] scales the engine past one core by key-hash
//! partitioning the record stream: each of N worker shards owns a private
//! flat plan and its own kvstore shard, fed over fixed-capacity SPSC
//! queues — a `Mutex` + `Condvar` ring that records cross by move, one lock
//! per batch of 256, blocking when a shard falls behind
//! (`perfq_switch::spsc`; `Network::run_sharded` is the producer half) — and
//! the drain merges per-shard fold state through the §3.2 merge machinery —
//! the same algebra that reconciles one flow observed at many switches
//! reconciles one key processed on many cores. The shard is a **pure
//! function of the group key** ([`ShardSpec`]): a key never lands on two
//! shards, so every fold class — additive, constant-A/EWMA, windowed with
//! replay aux, non-linear epoch folds — streams exactly as it would in the
//! single-stream engine. [`ShardSpec::is_exact`] audits this statically
//! (all Fig. 2 programs pass); the differential suite
//! (`tests/shard_equivalence.rs`) pins sharded output bit-identical to
//! [`Runtime::process_record`] and [`Runtime::process_batch`] at 1/2/4/8
//! shards, and a property suite fuzzes the partitioning invariant. The one
//! stream-order exception is bounded capture buffers — when a selection
//! overflows its capture limit the retained sample is shard-biased, though
//! totals and row counts stay exact (see [`sharded`] for the full caveat).
//!
//! [`ShardedRuntime`] is not a plane of its own: it is [`MultiSharded`] (see
//! below) at K = 1 — one program, no sharing pass — over the crate-private
//! transport in [`sharded`] (router, SPSC feeds, worker threads,
//! pause/resume, merge-on-drain). Its poll, persist and recover are the
//! multi-program plane's, written once.
//!
//! # Multi-query execution
//!
//! The paper's §3.3 prices **one** fixed slice of switch SRAM that every
//! concurrently-installed query shares — so concurrent queries are the
//! normal case, not K independent deployments. The multi-program plane has
//! two front ends over **one** lifecycle core (see *Dynamic lifecycle*
//! below), differing only in where a program's worker runtimes live:
//!
//! * [`MultiRuntime`] — one worker per program, on the caller's thread.
//!   Each record's base row materializes **once**, with the union of the
//!   programs' pruned column masks, and is dispatched to every program's
//!   flat plan — K concurrent Fig. 2 queries cost one trip through the
//!   network event loop instead of K full replays (the `multi_query`
//!   guards of the `perfq-bench` `ratios` bin hold the speedup).
//! * [`MultiSharded`] — N workers per program behind SPSC queues (one
//!   worker group each); every record is routed once per program.
//!   [`ShardedRuntime`] is its K = 1 case.
//!
//! On the provisioning side, [`provision`] runs
//! `perfq_kvstore::CachePlanner` over the programs' reported key/state
//! widths and rewrites every store's geometry to its slice of the budget;
//! a worker runs its stores at the whole slice on [`MultiRuntime`] and at
//! `1/N` of it on [`MultiSharded`], so total area stays constant as the
//! dataplane scales out. Execution is byte-identical to K independent
//! sequential replays with the same geometries
//! (`tests/multi_query_equivalence.rs` pins single-stream, batched and
//! 1/2/4/8-shard paths; `tests/area_plan.rs` fuzzes the planner's
//! never-over-budget invariant).
//!
//! # Cross-query sharing
//!
//! Installed programs overlap: the paper's own Fig. 2 set keys the 5-tuple
//! five times, filters `proto == TCP` twice, and repeats the §4 running
//! example (`SELECT COUNT GROUPBY 5tuple`) verbatim inside the loss-rate
//! program. [`MultiRuntime`]/[`MultiSharded`] therefore run an install-time
//! sharing pass — compare candidate stores structurally
//! (`perfq_lang::fingerprint`) and physically, rewrite the plans — that
//! (a) evaluates each unique base filter and builds each unique group key
//! **once per record** (the shared execution prefix), and (b) binds
//! structurally-identical stores to **one** physical store, eliding the
//! duplicates from the streaming pass and substituting the owner's
//! finished store at drain.
//! Two stores may legally dedup only when their input chains, filters, key
//! tuples and fold semantics are identical *and* their physical
//! configurations (geometry, eviction policy, hash seed) match — which
//! makes sharing byte-identical to unshared execution for every fold
//! class, eviction for eviction. Under [`provision`], deduplicated stores
//! are also charged to the SRAM budget once and the reclaimed bits grow
//! every physical cache. See [`multi`] for the full legality rule and
//! [`multi::SharingReport`] for what a given install shared.
//!
//! # Incremental reads
//!
//! The paper's collection story — drain the backing store at the end of
//! the measurement window — leaves the operator blind *during* the window.
//! The incremental read path fixes that without stopping the world:
//! [`Runtime::poll_results`] returns, between batches, exactly what
//! `finish()` + `collect()` would return on a clone of the live runtime,
//! while caches stay resident and ingest continues ([`MultiRuntime::poll`],
//! [`MultiSharded::poll`] and [`ShardedRuntime::poll_results`] are the
//! multi-program and sharded faces; a sharded poll quiesces only the
//! involved dataplanes between batches and resumes them with caches
//! intact). Under the hood each store lands in a
//! `perfq_kvstore::StoreSnapshot` frame — its backing table plus the
//! cache-resident pairs absorbed through the normal eviction algebra,
//! O(distinct keys) per poll — so the polled frame is *the* store state,
//! not an approximation. There is one frame builder, `SplitStore::snapshot`,
//! and no frame outlives its poll: the table is cloned with room for the
//! cache (arena in order, index words re-placed, no hash and no probe per
//! key), or — when a durable store holds part of the truth in its spill
//! tier — replayed from disk into a fresh table with the standing RAM
//! records superseding their own frames; then the cache is absorbed. There
//! is likewise one poll routine: every face resolves, per query, which
//! workers' stores hold its truth (its own, or a deduplicated owner's) and
//! merges their frames — [`Runtime::poll_results`] is its one-program,
//! one-worker case, and an `uninstall` takes the departing program's final
//! results through it.
//! Above the frames every face, `collect()` and the [`Oracle`] share one
//! emission routine: each result row is built where a front-to-back pass
//! over the frame finds its record, one compact record per row (the key
//! words inline plus a `u32` row index) is sorted in the rows' stead, and
//! the permutation is applied to the row headers in place — the frame is
//! never revisited in sorted, i.e. random, order. On top of the frames,
//! [`DeltaCursor`] turns consecutive polls into per-epoch **deltas**
//! ([`Runtime::poll_delta`] streams only rows that changed since the last
//! poll through the sink idiom), and [`WindowedRuntime::poll_closed`]
//! streams each tumbling window the moment it closes — the continuous-query
//! mode the drain-at-end API could not express. Polling is pinned
//! non-perturbing by `tests/poll_equivalence.rs`: any poll schedule's final
//! drain is byte-identical to a never-polled replay, and every mid-stream
//! poll equals a fresh replay of the prefix.
//!
//! # Dynamic lifecycle
//!
//! The paper's queries "are installed at run time" — so the deployment is
//! mutable while records flow. `install` admits one more compiled program
//! into a live deployment and `uninstall` retires one by its stable install
//! id, returning its final results. There is **one** implementation of
//! both (and of poll source resolution): a private lifecycle core in
//! [`multi`] that owns the bookkeeping — installed programs, ids, install
//! epochs, budget, settled dedup pairs — and works on each program's
//! *quiesced worker runtimes in shard order*. [`MultiRuntime::install`] /
//! [`MultiRuntime::uninstall`] lend it one-element groups;
//! [`MultiSharded::install`] / [`MultiSharded::uninstall`] pause the
//! worker groups the core says it will touch (queues drain first), hand
//! them over, and resume. The plane's shape changes exactly four things —
//! the **worker count** of a group, whether reaching it needs a
//! **quiesce**, the **geometry divisor** (a worker's share of its
//! program's slice: all of it, or `1/N`), and the **candidate gate** (the
//! sharded plane dedups only across programs that partition exactly and
//! route identically) — and nothing else; the single-stream plane
//! additionally re-annotates its shared filter/key prefix after an event.
//!
//! An install is a dry run, then a commit. The dry run nominates the
//! arrival's dedup candidates, runs the `perfq_kvstore::CachePlanner`
//! **once** over the grown deployment, resolves every worker geometry and
//! (under durability) attaches the arrival's spill tiers; any failure
//! returns a typed [`InstallError`] with the deployment untouched. The
//! commit **live-migrates** every resident store to its new slice between
//! batches (`SplitStore::migrate_geometry`: rehash cache-resident pairs,
//! timestamps intact, overflow absorbed through the normal merge path) —
//! residents shrink to admit a newcomer and regrow when one leaves, with
//! the backing store (the truth, §3.2) untouched throughout. The sharing
//! analysis re-runs incrementally: a program installed at the same
//! *epoch* (deployment record count) as a structurally-identical resident
//! adopts its deduplicated store — equal epochs prove the shared store
//! holds exactly the state the newcomer's private store would — while
//! cross-epoch twins stay private; an uninstall reads the departing
//! program by **poll** — `finish()` + `collect()` on a clone is the poll
//! contract, alias redirection and the spill tier included, so there is no
//! second drain to keep in step with it — and then drops its workers;
//! uninstalling a store's owner promotes the first surviving alias to owner
//! (the physical store's state moves with it, worker by worker), and a
//! composed alias pair whose chains a replan pulls apart is *repaired* by
//! cloning the shared state back into the alias. The contract, pinned by
//! `tests/query_lifecycle.rs`
//! differentially against restart-from-scratch deployments at every
//! install event on all four plane shapes (and by
//! `tests/store_migration.rs` property-testing the migration itself): any
//! interleaving of installs and uninstalls is byte-identical to a fresh
//! deployment observing the suffix each installed query actually saw, and
//! a rejected install leaves no trace.
//!
//! The durable tier has the same shape: one checkpoint routine
//! ([`durable`]) serves [`Runtime::persist`] and the lifecycle core, which
//! implements enable / persist / recover and the retired-result publish
//! and read once for every multi-worker plane — [`MultiRuntime`],
//! [`MultiSharded`] and, as its K = 1 case, [`ShardedRuntime`]. The core
//! names each worker's files (`p<id>_`, or `p<id>_s<i>_` per shard) and
//! keeps the manifest; a sharded plane quiesces its workers for the call
//! and resumes them whatever it returns. Recovery covers deployments
//! without mid-stream installs or uninstalls.
//!
//! # Example
//!
//! ```
//! use perfq_core::{compile_query, Runtime, Oracle};
//! use perfq_lang::fig2;
//!
//! let compiled = compile_query(
//!     "SELECT COUNT, SUM(pkt_len) GROUPBY srcip, dstip",
//!     &fig2::default_params(),
//!     Default::default(),
//! ).unwrap();
//! let mut rt = Runtime::new(compiled);
//! // … feed rt.process_record(record) from a Network run …
//! rt.finish();
//! let results = rt.collect();
//! assert_eq!(results.tables.len(), 1);
//! ```

//!
//! For the paper-section → crate/file map of the whole workspace, see
//! `ARCHITECTURE.md` at the repository root.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compiler;
pub mod durable;
pub mod foldops;
pub mod multi;
pub mod oracle;
mod plan;
pub mod result;
pub mod runtime;
pub mod sharded;
pub mod windows;

pub use compiler::{compile_program, CompileError, CompileOptions, CompiledProgram, StorePlan};
pub use durable::{decode_results, encode_results, read_retired, write_retired, Durability};
pub use foldops::{FoldOps, FoldState};
pub use multi::{
    demand_of, provision, InstallError, MultiRuntime, MultiSharded, SharedSlot, SharedStore,
    SharingReport,
};
pub use oracle::{Oracle, Prediction};
pub use result::{diff_tables, DeltaCursor, DeltaRow, ResultRow, ResultSet, ResultTable};
pub use runtime::{LifecycleError, Runtime};
pub use sharded::{ShardRouter, ShardSpec, ShardedRuntime};
pub use windows::{WindowResult, WindowedRuntime};

use perfq_lang::{LangError, Value};
use std::collections::HashMap;

/// Errors from the full text → hardware pipeline.
#[derive(Debug)]
pub enum PerfqError {
    /// Front-end (lex/parse/resolve) failure.
    Lang(LangError),
    /// Physical planning failure.
    Compile(CompileError),
}

impl std::fmt::Display for PerfqError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PerfqError::Lang(e) => write!(f, "{e}"),
            PerfqError::Compile(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for PerfqError {}

impl From<LangError> for PerfqError {
    fn from(e: LangError) -> Self {
        PerfqError::Lang(e)
    }
}

impl From<CompileError> for PerfqError {
    fn from(e: CompileError) -> Self {
        PerfqError::Compile(e)
    }
}

/// Compile query text straight to a hardware configuration.
pub fn compile_query(
    source: &str,
    params: &HashMap<String, Value>,
    options: CompileOptions,
) -> Result<CompiledProgram, PerfqError> {
    let program = perfq_lang::compile(source, params)?;
    Ok(compile_program(program, options)?)
}
