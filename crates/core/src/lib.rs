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
//!    packet: `SramCache::upsert` packs the key once, resolves it to its
//!    slot and returns the slot's state for the fold to mutate in place,
//!    so probe and fold share a single hash + slot resolution.
//! 4. **Three merge tiers** — a linear fold merges exactly one of three
//!    ways, decided structurally in `FoldOps::new`. Windowless fold bodies
//!    of k statements, each `s_i ← [c_i·]s_i [± B_i]` over its own
//!    variable with a constant `c_i` (EWMA, `COUNT, SUM(…)`), compile to a
//!    closed-form **constant-A kernel** in [`foldops`]: the per-packet
//!    update becomes `s_i' = a_i·s_i + b_i` evaluated directly from the
//!    decomposed body (no bytecode dispatch, no scratch borrow, no aux
//!    box; a `B_i` that is a constant or one input column is read as
//!    such), and the §3.2 merge correction becomes one `a_iⁿ`-scaling per
//!    variable with the one `n` read from the inline packet counter —
//!    pinned bit-identical to the bytecode path. Other *additive*
//!    windowless folds (guarded counters) carry no merge bookkeeping at
//!    all: the correction is `standing − init`. Every other linear fold
//!    takes the *general* tier: a per-key `ΠA` (extracted numerically per
//!    packet, persisted with the value) plus the window log.
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
//! Where a record's nanoseconds go: the stage table `ROADMAP.md` quotes,
//! one `--trace 1` run per workload and commit on the repo benchmark
//! (`benchmark/`, seed 42, 2-core Xeon with a 300 MB L3), the parent of the
//! k-variable kernel (`b38fc63`) and this tree run back to back — absolute
//! numbers drift between runs hours apart, the pairs run together do not
//! (the names are `BENCHMARK.json`'s per-layer metrics). The pass and the
//! engine are timed inside the real run; the three indented rows are
//! isolated replays of one layer over the workload's own records, so they
//! need not sum to the engine row, and the `rest` row is the engine time
//! none of the three accounts for. `resident_counters` keeps ~4 090 keys
//! in a 2^16-pair cache (no eviction); `evict_counters` runs ~205 k keys
//! through it (4.8 % of packets evict — the paper's regime):
//!
//! ```text
//!   ns/record, parent → this tree                      resident    evict
//!   ─────────────────────────────────────────────────────────────────────
//!   pass            switch.feed_ns_per_record        273 → 227  435 → 401
//!   switch loop     switch.run_ns_per_record          87 →  87   82 →  84
//!   engine          core.ingest_ns_per_record        178 → 136  334 → 276
//!     write_row       switch.write_row_ns_per_record  30 →  33   31 →  32
//!     key build+hash  kvstore.key_hash_ns             29 →  21   22 →  22
//!     store observe   kvstore.observe_ns_per_key      93 →  75  155 → 161
//!     rest                                         ≈ 26 →  7 ≈ 126 → 61
//!   ─────────────────────────────────────────────────────────────────────
//!   drain   core.finish_ms + core.collect_ms   0.61 + 0.49 → 0.62 + 0.60 ms
//!                                              15.0 + 36.8 → 14.6 + 37.2 ms
//! ```
//!
//! The switch loop was rebuilt after that table (one arrival-driven loop,
//! one hop computed per event, one packet copy per record, a per-switch
//! table of transmission times). Re-measured the same way, its parent
//! (`3b1b84d`) and this tree back to back, `switch.run_ns_per_record`
//! reads 80 → 46 (resident) and 77 → 41 (evict), and the pass
//! `switch.feed_ns_per_record` 206 → 154 and 333 → 274; the engine row
//! does not rise (111 → 105 and 231 → 217).
//!
//! The isolated `observe` replays a `CounterOps` store — its fold is a
//! bare `+= 1` — so this ledger has never priced the real fold; a gprofng
//! clock profile (`scripts/profile.sh <workload>`, 10 s, seed 42) names
//! where the engine's time goes. At `430050f` on `multi_polled`,
//! `SramCache::upsert_slot` (hash and probe) took 43 % of all samples, and
//! 15 % fell on two compare lines inside it: the derived `InlineKey`
//! `PartialEq` and the slice compare behind it, the arena confirm of every
//! hit on a key wider than one word. Each aggregation now carries a
//! compiled key layout (`StorePlan::key_layout`, its key columns' wire
//! widths): `(srcip, dstip)` and the 5-tuple pack into the slot word's
//! 104-bit tag, so a hit is one tag compare that never loads the key
//! arena, and the placement hash skips its seed and length rounds. In the
//! profile of `multi_polled` at `2afad91`, which made that change,
//! `upsert_slot` takes 39 % with no key compare and no `bcmp` under it:
//! its hot lines are the tag compare and the state access — loads that
//! miss, not instructions — and `locate` (hash and pack) is 8 %. That tree
//! packed each key twice, once in this crate's sweep to name flow runs and
//! once for the probe tag; `SramCache::upsert` now packs it once for both.
//! One `--trace 1` run per side, `2afad91`'s parent → `2afad91`:
//! `core.ingest_ns_per_record` 92 → 82 (`resident_counters`), 174 → 154
//! (`evict_counters`), 167 → 122 (`durable_spill`) and 629 → 611
//! (`multi_polled`, three programs per record).
//! Every workload's working set fits this box's L3. Overlapping the
//! probes' loads has been tried twice and read no gain: a prefetch pass
//! (CHANGES.md, the vectorized-execution entry) and a pass that touches
//! every lane's bucket before the sweep (ROADMAP direction 7).
//! The vectorized GroupBy sweep
//! coalesces equal-key *runs*: it makes one `SplitStore::observe_run` call
//! per row through one `perfq_kvstore::Run` per node sweep, and the store
//! probes once per run and folds the rest into the held slot (a key equal
//! to the held one by its packed word, or by the resident key when it does
//! not pack). That wins 1.17–1.25× on locally-sorted traffic (mean run ≈
//! 5, the shape RSS steering + bursty flows produce; the `query_runtime_bursty`
//! guards of the `perfq-bench` `ratios` bin hold the ratio same-run),
//! while on hash-ordered traffic runs barely exist (mean run 1.010 on the
//! `ratios` bin's trace `test_small(7)`, 1.001 on the five `benchmark/`
//! workloads, counted per group key inside a 16-record chunk) and the run
//! tracker costs nothing measurable.
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
//!        ├─ filter verdict per lane (fused into the sweep)
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
//! row visit, so survivor masks cost no second pass over the chunk. On
//! [`MultiRuntime`] the chunk's rows materialize once for every program,
//! and each program's plan then sweeps them with its own filters and keys.
//! Nodes read their input from the base lanes or the upstream node's flat
//! output buffer and are skipped outright when their input mask is empty.
//!
//! Two contracts pin the path. **Byte-identity:** every store and capture
//! buffer belongs to exactly one node, set bits are visited in ascending
//! lane order (= record order), and a node only reads lanes its upstream
//! wrote — so hit/miss/eviction streams, epochs and capture contents are
//! bit-identical at *any* chunking, one-record batches included
//! (`tests/batch_equivalence.rs`: whole-trace and ragged batches,
//! all-pass/all-drop batches, equal-key and alternating chunks), and every
//! table and store counter equals [`Oracle::predict`]'s residency-model
//! prediction under eviction pressure (`tests/oracle_residency.rs`). **Zero allocation:** lane rows,
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
//! [`ShardedRuntime`] runs **one** program and owns its workers: the
//! router, the SPSC feeds and staging buffers, the worker threads, its
//! record count and its durable tier. A poll or a durable call pauses the
//! plane between batches (staged records flush, the workers hand back
//! their un-finished runtimes), runs the one poll routine or the one
//! checkpoint routine over the workers in shard order, and resumes them
//! whatever the call returned. Programs that share a deployment, a budget
//! or stores run on the multi-query plane below, on the caller's thread.
//!
//! # Multi-query execution
//!
//! The paper's §3.3 prices **one** fixed slice of switch SRAM that every
//! concurrently-installed query shares — so concurrent queries are the
//! normal case, not K independent deployments. The multi-program plane is
//! **one** type, [`Deployment`] (public name [`MultiRuntime`]), with one
//! lifecycle (see *Dynamic lifecycle* below): one runtime per program, on
//! the caller's thread. Each record's base row materializes **once**, with
//! the union of the programs' pruned column masks, and is dispatched to
//! every program's flat plan — K concurrent Fig. 2 queries cost one trip
//! through the network event loop instead of K full replays (the
//! `multi_query` guards of the `perfq-bench` `ratios` bin hold the
//! speedup).
//!
//! On the provisioning side, [`MultiRuntime::provisioned`] runs
//! `perfq_kvstore::CachePlanner` over the programs' reported key/state
//! widths and rewrites every store's geometry to its slice of the budget.
//! Execution is byte-identical to K independent sequential replays with
//! the same geometries (`tests/multi_query_equivalence.rs` pins the
//! single-record and batched paths; `tests/area_plan.rs` fuzzes the
//! planner's never-over-budget invariant).
//!
//! # Cross-query sharing
//!
//! Installed programs overlap: the paper's own Fig. 2 set repeats the §4
//! running example (`SELECT COUNT GROUPBY 5tuple`) verbatim inside the
//! loss-rate program. Every install into a [`Deployment`] — a
//! constructor's whole program list is one install into an empty
//! deployment, a live arrival another — therefore searches the stores
//! before each arriving program for an owner, comparing them on their
//! compiled execution and store plans, and binds structurally-identical
//! stores to **one** physical store, eliding the duplicates from the
//! streaming pass and substituting the owner's finished store at drain. Filters and group keys are not shared: each
//! program's plan sweeps a chunk with its own.
//! Two stores may legally dedup only when both read the base table, their
//! filters, key tuples, fold semantics and demanded associativity are
//! identical *and* their physical configurations (eviction policy, hash
//! seed, and — without a budget, where geometries never change — the cache
//! geometry) match; under a budget the planner sets the geometry. That
//! makes sharing byte-identical to unshared execution for every fold
//! class, eviction for eviction. A composed store (a `GROUPBY` over
//! another query's stream) is never shared. Every shared pair is one
//! planner dedup group: under a budget it is charged to the SRAM budget
//! once, the reclaimed bits grow every physical cache, and every replan
//! gives both sides one geometry. See [`multi`] for the full legality rule
//! and [`multi::SharingReport`] for what a given install shared. The
//! deployment records its pairs once, in its own bookkeeping: a compiled
//! program carries no dedup mark, so [`Runtime::compiled`] of a worker whose
//! query is an alias still builds a stand-alone runtime that runs it.
//!
//! # Incremental reads
//!
//! The paper's collection story — drain the backing store at the end of
//! the measurement window — leaves the operator blind *during* the window.
//! The incremental read path fixes that without stopping the world:
//! [`Runtime::poll_results`] returns, between batches, exactly what
//! `finish()` + `collect()` would return on a clone of the live runtime,
//! while caches stay resident and ingest continues ([`Deployment::poll`]
//! and [`ShardedRuntime::poll_results`] are the multi-program and sharded
//! faces; a sharded poll pauses the workers between batches and resumes
//! them with caches intact). Under the hood each store lands in a
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
//! never revisited in sorted, i.e. random, order. A poll returns that frame
//! and nothing more: a reader that wants per-epoch deltas or tumbling
//! windows builds them from frames (`diff_tables` compares two; `fig6`
//! replays tumbling windows at the store level). Polling is pinned
//! non-perturbing by `tests/poll_equivalence.rs`: any poll schedule's final
//! drain is byte-identical to a never-polled replay, and every mid-stream
//! poll equals a fresh replay of the prefix. A poll reads a dirty spill
//! tier, and a read that fails is the poll's `Err` (see *Errors*).
//!
//! # Dynamic lifecycle
//!
//! The paper's queries "are installed at run time" — so the deployment is
//! mutable while records flow. `install` admits one more compiled program
//! into a live deployment and `uninstall` retires one by its stable install
//! id, returning its final results. There is **one** implementation of
//! both (and of poll source resolution): a private lifecycle core in
//! [`multi`] that owns the bookkeeping — installed programs, ids, install
//! epochs, budget, settled dedup pairs — and works on the deployment's
//! runtimes, one per program.
//!
//! An install is a dry run, then a commit — and the only way in: the
//! constructors install their whole program list into an empty deployment
//! the same way. The dry run nominates each arrival's dedup candidates,
//! runs the `perfq_kvstore::CachePlanner` **once** over the grown
//! deployment and (under durability) attaches the arrivals' spill tiers;
//! any failure returns an [`Error`] with the deployment
//! untouched. The commit **live-migrates** every resident store to its new
//! slice between batches (`SplitStore::migrate_geometry`: rehash
//! cache-resident pairs, timestamps intact, overflow absorbed through the
//! normal merge path) — residents shrink to admit a newcomer and regrow
//! when one leaves, with the backing store (the truth, §3.2) untouched
//! throughout. The sharing analysis re-runs incrementally: a program
//! installed at the same *epoch* (deployment record count) as a resident
//! with an identical base-rooted store adopts it — equal epochs prove the
//! shared store holds exactly the state the newcomer's private store would
//! — while cross-epoch twins stay private. An uninstall reads the departing
//! program by **poll** — `finish()` + `collect()` on a clone is the poll
//! contract, alias redirection and the spill tier included, so there is no
//! second drain to keep in step with it — publishes it under durability
//! (a failed publish is the call's I/O error, with nothing moved), and
//! then drops the program's runtime; uninstalling a store's owner promotes
//! the first surviving alias to owner (the physical store's state moves
//! with it). A shared pair is one planner dedup group, so no replan pulls
//! it apart and there is no repair path. The contract, pinned by
//! `tests/query_lifecycle.rs` differentially against restart-from-scratch
//! deployments at every install event, with and without a budget (and by
//! `tests/store_migration.rs` property-testing the migration itself): any
//! interleaving of installs and uninstalls is byte-identical to a fresh
//! deployment observing the suffix each installed query actually saw, and
//! a rejected install leaves no trace.
//!
//! The durable tier has the same shape: one checkpoint routine
//! ([`durable`]) serves [`Runtime::persist`], [`ShardedRuntime::persist`]
//! and the lifecycle core, which implements enable / persist / recover and
//! the retired-result publish and read once for the multi-program plane.
//! The multi-program plane names each program's files `p<id>_`, the
//! sharded plane each shard's `p0_s<i>_`; each keeps one manifest, and the
//! sharded plane resumes its workers whatever the call returns. Recovery
//! covers deployments without mid-stream installs or uninstalls.
//!
//! # Errors
//!
//! Every fallible call returns one type, [`Error`]: query text that does
//! not compile (`Lang`), a deployment the planner refuses (`Plan`), a
//! durable-tier read or write that failed (`Io`), a plane that is already
//! drained (`Finished`), a durable call without a tier (`NotDurable`) and
//! an install id that is not installed (`UnknownProgram`). Whatever the
//! variant, the plane is as it was before the call. Every poll reads
//! through the spill tier and returns its read error:
//! [`Runtime::poll_results`], [`ShardedRuntime::poll_results`] and
//! [`Deployment::poll`] return `Err` on a dead backend and read again once
//! it heals.
//!
//! Three kinds of call still panic. The drain panics when a dead backend
//! stops it: `finish` on every plane folds the spill tier back into RAM,
//! and so does the sharded merge under it (`SplitStore::absorb_store`).
//! `SplitStore::snapshot_into` panics the same way. Ingest after `finish`
//! (`process_batch`, `process_record`) panics too; its typed form is
//! [`Runtime::try_process_batch`]. The repository benchmark (`benchmark/`)
//! binds each of these calls by its present signature, so they become
//! fallible together with its call sites (`ROADMAP.md` direction 8).
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
mod fingerprint;
pub mod foldops;
pub mod multi;
pub mod oracle;
mod plan;
pub mod result;
pub mod runtime;
pub mod sharded;

pub use compiler::{compile_program, CompileOptions, CompiledProgram, StorePlan};
pub use durable::{decode_results, encode_results, read_retired, write_retired, Durability};
pub use foldops::{FoldOps, FoldState};
pub use multi::{Deployment, MultiRuntime, SharedStore, SharingReport};
pub use oracle::{Oracle, Prediction};
pub use result::{diff_tables, ResultRow, ResultSet, ResultTable};
pub use runtime::Runtime;
pub use sharded::{ShardRouter, ShardSpec, ShardedRuntime};

use perfq_kvstore::PlanError;
use perfq_lang::{LangError, Value};
use std::collections::HashMap;

/// Every failure a fallible call of this crate returns. Whatever the
/// variant, the call left the plane as it was before it: a refused install
/// admits nothing, a failed uninstall keeps the program installed, a failed
/// poll or durable call leaves the in-RAM state intact.
#[derive(Debug)]
#[non_exhaustive]
pub enum Error {
    /// The query text failed to lex, parse or resolve.
    Lang(LangError),
    /// The cache planner rejected a deployment — the budget cannot hold its
    /// programs, or no program has a store to provision — or a cache is
    /// larger than its slot words can index.
    Plan(PlanError),
    /// A read or write of the durable tier failed: attaching, checkpointing
    /// or recovering it, publishing or reading retired results, or a poll's
    /// read of a spill tier that holds part of the truth. An install whose
    /// attach failed burns the id it would have taken, so a retry never
    /// re-opens half-written `p<id>_` files.
    Io(std::io::Error),
    /// The plane was already drained (`finish`): records it took or a
    /// program installed now could never be collected.
    Finished,
    /// A durable call on a plane whose `enable_durability` was never called.
    NotDurable,
    /// No program is installed under this id (never, or no longer).
    UnknownProgram(u64),
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::Lang(e) => write!(f, "{e}"),
            Error::Plan(e) => write!(f, "cache plan rejected: {e}"),
            Error::Io(e) => write!(f, "durable tier: {e}"),
            Error::Finished => write!(
                f,
                "records processed after finish(), or a program installed after it: \
                 the measurement window is already drained"
            ),
            Error::NotDurable => write!(f, "durable call without enable_durability"),
            Error::UnknownProgram(id) => write!(f, "no program is installed under id {id}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Lang(e) => Some(e),
            Error::Plan(e) => Some(e),
            Error::Io(e) => Some(e),
            Error::Finished | Error::NotDurable | Error::UnknownProgram(_) => None,
        }
    }
}

impl From<LangError> for Error {
    fn from(e: LangError) -> Self {
        Error::Lang(e)
    }
}

impl From<PlanError> for Error {
    fn from(e: PlanError) -> Self {
        Error::Plan(e)
    }
}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Error::Io(e)
    }
}

/// Compile query text straight to a hardware configuration.
///
/// # Errors
///
/// [`Error::Lang`] when the text fails to lex, parse or resolve;
/// [`Error::Plan`] ([`PlanError::TooManyPairs`]) when an aggregation's
/// cache is bucketed and holds more pairs than its slot words can index.
pub fn compile_query(
    source: &str,
    params: &HashMap<String, Value>,
    options: CompileOptions,
) -> Result<CompiledProgram, Error> {
    let program = perfq_lang::compile(source, params)?;
    let compiled = compile_program(program, options);
    for (q, plan) in compiled.program.queries.iter().zip(&compiled.stores) {
        if let Some(plan) = plan.as_ref().filter(|p| !p.geometry.is_buildable()) {
            return Err(Error::Plan(PlanError::TooManyPairs {
                query: q.name.clone(),
                pairs: plan.geometry.capacity(),
            }));
        }
    }
    Ok(compiled)
}
